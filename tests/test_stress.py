"""Tests for the stress tensor, field squares, and null-energy combinations."""

import ast
import importlib.util
import inspect
import math
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from _frozen import (LOW_OMEGA_ORACLE, MPMATH_ORACLE, NEAR_WALL_THERMAL_ORACLE, ORACLE,
                     THERMAL_ORACLE)
from asymptotic_laws import SMALL_OMEGA_P_PRESSURE
from casimir_stress import (
    Geometry,
    PlasmaModel,
    ThermalState,
    Tolerance,
    critical_omega_pa,
    energy_density,
    mean_sq_B,
    mean_sq_E,
    near_wall_asymptote,
    nec_longitudinal,
    nec_transverse,
    pressure_xx,
    pressure_zz,
    reference_limits,
    stress_tensor,
)
from casimir_stress import dielectric, quadrature
from casimir_stress import stress as stress_mod
from casimir_stress.quadrature import QuadratureError, QuadratureResult, SemiInfinite, UnitInterval

QUICK = Tolerance(rel_tol=1e-7, abs_tol=1e-12)

OPS = {
    "energy_density": energy_density,
    "pressure_xx": pressure_xx,
    "pressure_zz": pressure_zz,
    "nec_transverse": nec_transverse,
    "nec_longitudinal": nec_longitudinal,
}


ZERO_T_OPS = {**OPS, "mean_sq_E": mean_sq_E, "mean_sq_B": mean_sq_B}


def check_zero_temperature_oracle(table, rel):
    for (omega_p, z), expected in table.items():
        geom = Geometry(z)
        model = PlasmaModel(omega_p)
        for name, ref in expected.items():
            res = ZERO_T_OPS[name](geom, model)
            assert res.converged, (name, omega_p, z)
            miss = abs(res.value - ref)
            assert miss <= res.error_estimate + rel * abs(ref), (
                name, omega_p, z, res.value, res.error_estimate)


def test_zero_temperature_values_match_frozen_oracle():
    # The oracle shares no code with the package and integrates every
    # component over (zeta, k), not (u, t), so this also carries the
    # cross-route check that criterion 9 made before both routes merged.
    check_zero_temperature_oracle(ORACLE, 1e-10)


def test_zero_temperature_values_match_the_mpmath_oracle():
    # A 30-digit value of the cancelling midpoint energy density at
    # (100, 0.5): the package lies 4.6e-15 relative from it, inside its
    # estimate (3.9e-10 relative), and ORACLE's entry 6.8e-11.
    check_zero_temperature_oracle(MPMATH_ORACLE, 1e-12)


def test_small_plasma_frequency_resolves_the_p_wave_layer():
    # At omega_p = 1e-6 the p-wave reflection is confined to t < omega_p/u;
    # a rule that never samples that layer loses pressure_zz entirely.
    check_zero_temperature_oracle(LOW_OMEGA_ORACLE, 1e-4)


def test_small_plasma_frequency_pressure_follows_its_closed_form_law():
    # tzz = -c*omega_p*(1 + O(omega_p**2)) (tests/asymptotic_laws.py).  For
    # omega_p <= 1e-8 the relative remainder, about -1.8*omega_p**2, stays
    # below 1e-14 even with a ln(omega_p) factor, and 1e-14 stays above the
    # rounding of a 1e5-node sum, about 1e-15.  The estimates read 1e-12 to
    # 4e-10 relative here, so the law checks far more digits than they do.
    tol = Tolerance(abs_tol=0.0)
    for omega_p in (1e-8, 1e-12, 1e-15):
        law = -SMALL_OMEGA_P_PRESSURE * omega_p
        for z in (1e-3, 0.1, 0.5):
            stress_mod.clear_caches()
            res = pressure_zz(Geometry(z), PlasmaModel(omega_p), tol=tol)
            miss = abs(res.value - law)
            assert res.converged, (omega_p, z)
            assert miss <= 1e-14 * abs(law) and miss <= res.error_estimate, (omega_p, z, res)


def test_energy_density_is_mean_of_field_squares():
    geom = Geometry(0.3)
    model = PlasmaModel(20.0)
    e2 = mean_sq_E(geom, model, tol=QUICK)
    b2 = mean_sq_B(geom, model, tol=QUICK)
    u = energy_density(geom, model, tol=QUICK)
    combined_err = 0.5 * (e2.error_estimate + b2.error_estimate) + u.error_estimate
    assert abs(0.5 * (e2.value + b2.value) - u.value) <= 10.0 * combined_err + 1e-12


def test_perfect_conductor_limits():
    geom = Geometry(0.5)
    pc = PlasmaModel(math.inf)
    refs = reference_limits()
    assert abs(energy_density(geom, pc).value - refs["pc_energy_density"]) <= 1e-10
    assert abs(pressure_xx(geom, pc).value - refs["pc_pressure_xx"]) <= 1e-10
    assert abs(pressure_zz(geom, pc).value - refs["pc_pressure_zz"]) <= 1e-10
    assert abs(nec_longitudinal(geom, pc).value - refs["pc_nec_longitudinal"]) <= 1e-10
    assert abs(nec_transverse(geom, pc).value) <= 1e-12
    # Off the midpoint the conductor-limit profile is flat.
    assert abs(energy_density(Geometry(0.2), pc).value - refs["pc_energy_density"]) <= 1e-10


def test_conductor_field_squares_follow_the_ideal_mirror_law():
    # <E**2>, <B**2> = +-(pi**2/16)(3/sin**4(pi z) - 2/sin**2(pi z)) - pi**2/720.
    pc = PlasmaModel(math.inf)
    for z in (1e-3, 0.1, 0.5, 0.77):
        s2 = math.sin(math.pi * z) ** 2
        wall = math.pi**2 / 16.0 * (3.0 / s2**2 - 2.0 / s2)
        for op, sign in ((mean_sq_E, 1.0), (mean_sq_B, -1.0)):
            res = op(Geometry(z), pc)
            ref = sign * wall - math.pi**2 / 720.0
            assert res.converged, (op.__name__, z)
            assert abs(res.value - ref) <= res.error_estimate + 1e-14 * abs(ref), (
                op.__name__, z, res.value, ref)


def test_transparent_vacuum_is_exactly_zero():
    geom = Geometry(0.37)
    vac = PlasmaModel(0.0)
    assert energy_density(geom, vac).value == 0.0
    assert pressure_xx(geom, vac).value == 0.0
    assert pressure_zz(geom, vac).value == 0.0
    assert nec_transverse(geom, vac).value == 0.0
    assert nec_longitudinal(geom, vac).value == 0.0
    assert mean_sq_E(geom, vac).value == 0.0
    assert mean_sq_B(geom, vac).value == 0.0


def test_blackbody_limit_is_exact():
    # With transparent walls only the blackbody terms survive, and they
    # are inserted as closed forms, so the match is bitwise at beta = 1.
    geom = Geometry(0.5)
    vac = PlasmaModel(0.0)
    th = ThermalState.finite(1.0)
    refs = reference_limits()
    assert energy_density(geom, vac, th).value == refs["blackbody_energy_coeff"]
    assert pressure_xx(geom, vac, th).value == refs["blackbody_pressure_coeff"]
    assert pressure_zz(geom, vac, th).value == refs["blackbody_pressure_coeff"]
    assert nec_transverse(geom, vac, th).value == refs["blackbody_nec_transverse_coeff"]
    off = Geometry(0.31)
    assert nec_transverse(off, vac, th).value == refs["blackbody_nec_transverse_coeff"]
    nz = nec_longitudinal(geom, vac, th).value
    assert abs(nz - refs["blackbody_nec_transverse_coeff"]) <= 1e-15


def test_stress_trace_vanishes():
    cases = [
        (Geometry(0.5), PlasmaModel(10.0), None),
        (Geometry(0.25), PlasmaModel(100.0), None),
        (Geometry(0.4), PlasmaModel(30.0), ThermalState.finite(3.0)),
    ]
    for geom, model, th in cases:
        d = stress_tensor(geom, model, th, tol=QUICK)
        comb = (
            d.t00.error_estimate
            + d.txx.error_estimate
            + d.tyy.error_estimate
            + d.tzz.error_estimate
        )
        trace = d.t00.value - d.txx.value - d.tyy.value - d.tzz.value
        assert abs(trace) <= max(1e-10, 10.0 * comb)


def test_profile_is_mirror_symmetric():
    model = PlasmaModel(100.0)
    for th in (None, ThermalState.finite(4.0)):
        for q in (energy_density, pressure_xx, nec_transverse):
            left = q(Geometry(0.2), model, th, tol=QUICK)
            right = q(Geometry(0.8), model, th, tol=QUICK)
            scale = max(abs(left.value), 1e-12)
            err = left.error_estimate + right.error_estimate
            assert abs(left.value - right.value) <= max(10.0 * err, 1e-9 * scale)


def test_longitudinal_pressure_ignores_position():
    model = PlasmaModel(50.0)
    a = pressure_zz(Geometry(0.1), model)
    b = pressure_zz(Geometry(0.9), model)
    assert a.value == b.value
    th = ThermalState.finite(2.0)
    c = pressure_zz(Geometry(0.15), model, th)
    d = pressure_zz(Geometry(0.6), model, th)
    assert c.value == d.value


def test_longitudinal_pressure_is_attractive_and_bounded():
    refs = reference_limits()
    for omega_p in (0.1, 1.0, 10.0, 100.0, 1e4, math.inf):
        val = pressure_zz(Geometry(0.5), PlasmaModel(omega_p), tol=QUICK).value
        assert val <= 0.0
        assert val >= refs["pc_pressure_zz"] - 1e-9


def test_finite_walls_attract_less_than_conductors():
    vals = [
        pressure_zz(Geometry(0.5), PlasmaModel(wp), tol=QUICK).value
        for wp in (1.0, 10.0, 100.0, 1000.0)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cold_thermal_state_matches_zero_temperature():
    geom = Geometry(0.5)
    model = PlasmaModel(100.0)
    cold = energy_density(geom, model, ThermalState.finite(100.0))
    beta = 100.0
    blackbody = math.pi**2 / (15.0 * beta**4)
    zero = energy_density(geom, model)
    assert abs((cold.value - blackbody) - zero.value) <= 5e-3 * abs(zero.value)


def test_heating_raises_midpoint_energy_and_transverse_margin():
    geom = Geometry(0.5)
    hot = ThermalState.finite(5.0)
    for omega_p in (10.0, 100.0, 1000.0):
        model = PlasmaModel(omega_p)
        assert energy_density(geom, model, hot, tol=QUICK).value > energy_density(
            geom, model, tol=QUICK
        ).value
        assert nec_transverse(geom, model, hot, tol=QUICK).value > nec_transverse(
            geom, model, tol=QUICK
        ).value


CLI_COLUMNS = {
    "t00": energy_density,
    "txx": pressure_xx,
    "tzz": pressure_zz,
    "nec_x": nec_transverse,
    "nec_z": nec_longitudinal,
}


def test_thermal_values_match_frozen_oracle():
    # An independent fixed-rule oracle; each null-energy combination is a
    # single integrand here but a sum of two components there, so this
    # also cross-checks the two routes at finite temperature.  The direct
    # sum adds the geometric continuation of its tail, and the split's
    # window leaves a Poisson aliasing of 9.3e-16, so both routes also
    # meet the oracle to 1e-12 relative: 4.0e-14 at worst, the beta = 5
    # midpoint t00 (6.8e-12 there without the continuation, and 2.8e-12
    # at beta = 100 with a window 5/6 as wide).
    for (omega_p, z, beta), expected in THERMAL_ORACLE.items():
        geom = Geometry(z)
        model = PlasmaModel(omega_p)
        thermal = ThermalState.finite(beta)
        for name, ref in expected.items():
            res = CLI_COLUMNS[name](geom, model, thermal)
            assert res.converged, (name, omega_p, z, beta)
            miss = abs(res.value - ref)
            assert miss <= res.error_estimate + 1e-10 * abs(ref), (
                name, omega_p, z, beta, res.value, res.error_estimate)
            assert miss <= 1e-12 * abs(ref), (name, omega_p, z, beta, res.value)


def test_cold_corners_converge_to_zero_temperature_plus_blackbody():
    # Near a wall the direct sum's terms decay only like
    # exp(-4*pi*n*z/beta) and used to stop unconverged at its 1e5-term
    # cap.  There the thermal part beyond the blackbody terms lies far
    # below the error of the 1/z**3 values.  tzz does not depend on z and
    # keeps a thermal part of its own (-6.0e-9 at beta = 100, -4.0e-12 at
    # 1000, above its error estimate), so it must equal its value at the
    # midpoint, which test_thermal_values_match_frozen_oracle checks.
    model = PlasmaModel(100.0)
    for z, beta in ((1e-3, 100.0), (1e-3, 1000.0), (1e-2, 1000.0), (1e-5, 1e4)):
        thermal = ThermalState.finite(beta)
        for name, op in CLI_COLUMNS.items():
            res = op(Geometry(z), model, thermal)
            assert res.converged, (name, z, beta)
            if name == "tzz":
                assert res.value == op(Geometry(0.5), model, thermal).value
                continue
            blackbody = stress_mod._QUANTITIES[name][1]
            cold = op(Geometry(z), model).value + blackbody / beta**4
            assert abs(res.value - cold) <= res.error_estimate, (name, z, beta, res)


def _thermal_oracle():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "thermal_oracle.py"
    spec = importlib.util.spec_from_file_location("independent_thermal_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record_routes(monkeypatch):
    """Record the route functions that the sums call, by name."""
    routes = []
    for name in ("_split", "_thermal_direct"):
        def taken(*args, _route=getattr(stress_mod, name), _name=name):
            routes.append(_name)
            return _route(*args)

        monkeypatch.setattr(stress_mod, name, taken)
    return routes


def test_thermal_error_estimates_bound_the_actual_error(monkeypatch):
    # Seeded points on both sides of the split threshold; every column
    # lies within its error estimate of the independent thermal oracle,
    # plus that oracle's own 1e-10, and the estimate is within ten times
    # the tolerance the row claims to meet.  Both routes are taken: the
    # split's windowed correction and the direct sum.
    oracle = _thermal_oracle()
    routes = _record_routes(monkeypatch)
    rng = np.random.default_rng(7)
    model = PlasmaModel(100.0)
    with np.errstate(over="ignore", under="ignore"):
        for _ in range(8):
            z = float(rng.uniform(0.2, 0.8))
            beta = float(10.0 ** rng.uniform(math.log10(5.0), math.log10(300.0)))
            ref = oracle.thermal_point(100.0, z, beta, 0.005)
            for name, op in CLI_COLUMNS.items():
                res = op(Geometry(z), model, ThermalState.finite(beta))
                assert res.converged, (name, z, beta)
                miss = abs(res.value - ref[name])
                assert miss <= res.error_estimate + 1e-10 * abs(ref[name]), (
                    name, z, beta, res.value, ref[name], res.error_estimate)
                assert res.error_estimate <= 10.0 * Tolerance().rel_tol * abs(ref[name])
    assert set(routes) == {"_split", "_thermal_direct"}


def test_split_and_direct_sums_agree(monkeypatch):
    # Both routes, each forced through the public operations, at points
    # below the threshold (where the direct sum is taken), above it, in
    # the band of predicted terms between the old threshold and the
    # present one, and for the position-independent tzz.
    points = ((100.0, 0.5, 20.0), (10.0, 0.3, 50.0), (100.0, 0.3, 100.0),
              (1e4, 0.5, 300.0), (100.0, None, 30.0), (100.0, None, 1000.0),
              (1.0, 0.5, 100.0), (1e4, 0.5, 100.0), (100.0, None, 100.0))
    routes = []
    for split_above in (0, math.inf):
        monkeypatch.setattr(stress_mod, "_SPLIT_ABOVE", split_above)
        stress_mod.clear_caches()
        routes.append({})
        for omega_p, z, beta in points:
            for name in ("tzz",) if z is None else stress_mod._ROW:
                op, geom = CLI_COLUMNS[name], Geometry(0.5 if z is None else z)
                routes[-1][name, omega_p, z, beta] = op(
                    geom, PlasmaModel(omega_p), ThermalState.finite(beta))
    split, direct = routes
    for key, a in split.items():
        b = direct[key]
        assert a.converged and b.converged, key
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, (key, a, b)


def test_tzz_takes_the_midpoint_rows_route(monkeypatch):
    # tzz reads no position and counts its terms at the midpoint, so it
    # takes the midpoint row's route on both sides of the threshold.  The
    # midpoint predicts 195 terms at beta = 60 and 243 at 75 for
    # omega_p = 100, and, where the walls reflect less, 168 at beta = 75
    # and 224 at 100 for omega_p = 1.
    routes = _record_routes(monkeypatch)
    seen = set()
    for omega_p, beta in ((100.0, 60.0), (100.0, 75.0), (1.0, 75.0), (1.0, 100.0),
                          (1e4, 60.0), (1e4, 75.0)):
        taken = []
        for op in (pressure_zz, energy_density):
            stress_mod.clear_caches()
            routes.clear()
            assert op(Geometry(0.5), PlasmaModel(omega_p), ThermalState.finite(beta)).converged
            taken.append(set(routes))
        assert taken[0] == taken[1] and len(taken[0]) == 1, (omega_p, beta, taken)
        seen |= taken[0]
    stress_mod.clear_caches()
    assert seen == {"_split", "_thermal_direct"}


def test_near_wall_rows_split_where_the_walls_reflect_grazing_modes(monkeypatch):
    # Next to a wall the direct terms are set by grazing modes, which the
    # walls reflect at any zeta_n, so they fall only like 1/n**2.  Forced
    # direct, the row at (0.01, 1e-6, beta = 10) stops unconverged at the
    # term cap, and t00 at (1e-3, 1e-4, beta = 5) lies within its error
    # estimate only by the geometric continuation of its tail
    # (test_forced_direct_sum_next_to_a_wall_lies_within_its_estimate), so
    # neither point joins test_split_and_direct_sums_agree.  The position
    # counts its terms by the mirror factor alone, so the position sums
    # split, while tzz takes the midpoint's direct sum, whose few terms
    # the reflection does cut.
    oracle = NEAR_WALL_THERMAL_ORACLE[1e-3, 1e-4, 5.0]
    routes = _record_routes(monkeypatch)
    for omega_p, z, beta in ((0.01, 1e-6, 10.0), (1e-3, 1e-4, 5.0)):
        model, thermal = PlasmaModel(omega_p), ThermalState.finite(beta)
        for name, route in (("t00", "_split"), ("txx", "_split"), ("tzz", "_thermal_direct")):
            stress_mod.clear_caches()
            routes.clear()
            res = CLI_COLUMNS[name](Geometry(z), model, thermal)
            assert res.converged and set(routes) == {route}, (name, omega_p, z, beta, routes)
            if omega_p == 1e-3:
                assert abs(res.value - oracle[name]) <= (
                    res.error_estimate + 1e-10 * abs(oracle[name])), (name, res)
    stress_mod.clear_caches()


def test_forced_direct_sum_next_to_a_wall_lies_within_its_estimate(monkeypatch):
    # The direct sum's terms fall like 1/n**2 here, and its geometric tail
    # bound is no bound for them (ROADMAP item 19).  Once the sum has
    # converged, the geometric continuation of its last two terms takes
    # the forced-direct t00 from 1.79 to 0.79 times its estimate of the
    # frozen oracle, at the same 68,056 kernel points.
    monkeypatch.setattr(stress_mod, "_SPLIT_ABOVE", math.inf)
    stress_mod.clear_caches()
    for (omega_p, z, beta), expected in NEAR_WALL_THERMAL_ORACLE.items():
        res = energy_density(Geometry(z), PlasmaModel(omega_p), ThermalState.finite(beta))
        assert res.converged and res.evaluations == 68_056
        assert abs(res.value - expected["t00"]) <= res.error_estimate, res
    stress_mod.clear_caches()


def test_tzz_is_bitwise_the_same_in_every_row_of_a_mixed_profile(monkeypatch):
    # At beta = 20 the rows next to the walls split and the rest take the
    # direct sum; tzz, evaluated afresh in each row, reads the same sums
    # in every one.
    routes = _record_routes(monkeypatch)
    model, thermal = PlasmaModel(100.0), ThermalState.finite(20.0)
    tzz, row_routes = set(), set()
    for z in (0.05 + i * (0.9 / 18) for i in range(19)):
        stress_mod.clear_caches()
        routes.clear()
        assert energy_density(Geometry(z), model, thermal).converged
        row_routes.add(tuple(routes))
        stress_mod.clear_caches()
        tzz.add(pressure_zz(Geometry(z), model, thermal))
    stress_mod.clear_caches()
    assert row_routes == {("_split", "_split"), ("_thermal_direct",)}, row_routes
    assert len(tzz) == 1, tzz


def _count_thermal_work(monkeypatch):
    """Record the frequencies zeta = kappa*t the kernel sees, and count
    the reflection kernel's calls and the integrate_2d and matsubara_sum
    calls of stress."""
    calls = {"zeta": [], "reflection": 0, "integrate_2d": 0, "matsubara_sum": 0}

    def kernel(kappa, t, weight, omega_p, z_over_a, names):
        calls["zeta"].append(np.ravel(kappa * t))
        return original_kernel(kappa, t, weight, omega_p, z_over_a, names)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    original_kernel = stress_mod._kernel
    monkeypatch.setattr(stress_mod, "_kernel", kernel)
    monkeypatch.setattr(dielectric, "rs_rp_ut", counted("reflection", dielectric.rs_rp_ut))
    for name in ("integrate_2d", "matsubara_sum"):
        monkeypatch.setattr(stress_mod, name, counted(name, getattr(stress_mod, name)))
    return calls


def _matsubara_terms(calls, beta):
    """The n of the kernel calls whose every zeta is some 2*pi*n/beta."""
    terms = set()
    for zeta in calls["zeta"]:
        n = zeta * beta / (2.0 * math.pi)
        if np.all(np.abs(n - np.round(n)) <= 1e-9 * np.maximum(n, 1.0)):
            terms.update(np.round(n).astype(int).tolist())
    return terms


def test_cold_thermal_row_sums_frequencies_in_blocks(monkeypatch):
    # A direct row with about the most terms the route rule allows: at
    # z = 0.25, beta = 60 its position predicts 396 terms and the midpoint
    # 195, just below their thresholds of 400 and 200.  It sums hundreds
    # of Matsubara frequencies; the reflection kernel must see them in
    # blocks, not one call apiece.
    calls = _count_thermal_work(monkeypatch)
    stress_mod.clear_caches()
    for op in CLI_COLUMNS.values():
        assert op(Geometry(0.25), PlasmaModel(100.0), ThermalState.finite(60.0)).converged
    terms = len(_matsubara_terms(calls, 60.0))
    assert calls["integrate_2d"] == 0
    assert terms > 400
    assert calls["reflection"] < terms


def test_cold_thermal_row_has_bounded_cost(monkeypatch):
    # At beta = 1000 and 1e4 a direct sum would need thousands of terms;
    # the split needs 25 frequencies and one double integral, the
    # zero-temperature bound pass: each windowed correction is an x-pass
    # over the 25 terms and the window's 231 rule nodes, 256 frequencies,
    # and the zero-temperature position pass is one-dimensional.  A cold
    # row of the five CLI quantities evaluates 106,976 kernel points, at
    # the midpoint and next to a wall alike (135,742 with the windowed
    # integral as a double integral of 56,918 nodes per column set).
    calls = _count_thermal_work(monkeypatch)
    for beta in (1000.0, 1e4):
        for z in (0.5, 1e-3):
            stress_mod.clear_caches()
            calls.update(zeta=[], integrate_2d=0)
            for op in CLI_COLUMNS.values():
                assert op(Geometry(z), PlasmaModel(100.0), ThermalState.finite(beta)).converged
            assert len(_matsubara_terms(calls, beta)) <= 32
            assert calls["integrate_2d"] == 1
            assert sum(zeta.size for zeta in calls["zeta"]) <= 106_976
    assert calls["matsubara_sum"] == 0


def test_split_rows_count_kernel_points(monkeypatch):
    # A thermal x-pass reports the kernel points it evaluated, x nodes
    # times frequencies, as its budget counts them.  So a split row's
    # evaluations are the points the kernel sees plus the nodes of the
    # closed-form position pass, and a direct row's are the points alone.
    points, nodes = [0], [0]

    def kernel(kappa, t, *args):
        points[0] += np.broadcast(kappa, t).size
        return original_kernel(kappa, t, *args)

    def single(f, decay_scale, tol=None):
        result = original_single(f, decay_scale, tol)
        if f.__qualname__.startswith("_zero_t_pass"):
            nodes[0] += result.evaluations
        return result

    original_kernel, original_single = stress_mod._kernel, stress_mod.integrate_semiinf
    monkeypatch.setattr(stress_mod, "_kernel", kernel)
    monkeypatch.setattr(stress_mod, "integrate_semiinf", single)
    for z, beta, closed_form in ((0.5, 1000.0, 181), (1e-3, 100.0, 181), (0.5, 5.0, 0)):
        for op in CLI_COLUMNS.values():
            stress_mod.clear_caches()
            points[0] = nodes[0] = 0
            result = op(Geometry(z), PlasmaModel(100.0), ThermalState.finite(beta))
            assert result.converged
            assert result.evaluations == points[0] + nodes[0], (op.__name__, z, beta)
            assert nodes[0] in (0, closed_form), (op.__name__, z, beta, nodes[0])
    stress_mod.clear_caches()


def test_split_bound_columns_meet_their_tolerance():
    # N's split correction is its own x-integral of B0 - 3*B2, with its
    # own rule error and aliasing bound, not B0's error plus three times
    # B2's.  Where the latter overran N's tolerance by 1.4x, 28x, 1.9x and
    # 60x, every column's estimate now lies within it.
    tol = Tolerance()
    for omega_p, beta in ((100.0, 9.0), (100.0, 12.0), (1e4, 9.0), (1e4, 12.0)):
        split = stress_mod._split(omega_p, None, beta, tol, stress_mod._BOUND)
        assert split.converged
        bound = np.maximum(tol.abs_tol, tol.rel_tol * np.abs(split.value))
        assert np.all(split.error_estimate <= bound), (omega_p, beta, split.error_estimate / bound)


def test_split_rows_converge_where_the_reflection_falls_within_the_window():
    # Where omega_p*beta is small, r_p falls from 1 within the window's
    # first frequencies, and the fixed rule resolves the windowed integral
    # only to about 1e-6 of itself.  The zero-temperature integral
    # dominates the column, so that change lies far below the column's
    # tolerance, which the rule is held to: these rows converge, as they
    # did on an adaptive zeta axis, with estimates within their tolerance.
    for omega_p, z, beta in ((1e-6, 1e-3, 5.0), (1e-3, 1e-5, 0.5), (1e-8, 1e-3, 20.0)):
        for name, op in CLI_COLUMNS.items():
            stress_mod.clear_caches()
            res = op(Geometry(z), PlasmaModel(omega_p), ThermalState.finite(beta))
            assert res.converged, (name, omega_p, z, beta)
            assert res.error_estimate <= Tolerance().rel_tol * abs(res.value), (name, res)
    stress_mod.clear_caches()


def test_trimmed_window_rule_agrees_with_the_full_rule():
    # The split keeps 231 of the level-5 rule's 382 nodes: at the others
    # the windowed weight is below 1e-20 of the largest.  At three points
    # of the independent thermal oracle, split whatever their route, the
    # full rule's columns differ from the trimmed ones by the 151 dropped
    # nodes' part of the windowed integral, and that part lies below
    # 1e-15 of each column (3e-20 at most).  It is taken on its own: the
    # two rules sum their nodes in different orders, and in N, the
    # difference of the larger B0 and 3*B2, that order alone moves the
    # total by up to 3.3e-15 at every floor from 1e-19 to 1e-24.
    zeta, rule = stress_mod._split_rule(0.0)
    dropped = ~np.isin(zeta[:, 0], stress_mod._SPLIT_ZETA[:, 0])
    assert stress_mod._SPLIT_ZETA.size - stress_mod._SPLIT_N.size == 231
    assert zeta.size - stress_mod._SPLIT_N.size == 382 and dropped.sum() == 151
    for z, beta in ((0.25, 5.0), (0.5, 100.0), (0.5, 1000.0)):
        for at, names in ((None, stress_mod._BOUND), (z, ("D",))):
            short = stress_mod._split(100.0, at, beta, Tolerance(), names)
            columns, matrix = stress_mod._matrix([stress_mod._summed({c: 1.0}) for c in names])
            rest = stress_mod._frequency_integrals(zeta[dropped] / beta, matrix / beta, 100.0, at,
                                                   Tolerance(), columns, rule[dropped, -2:])
            rest = rest.value.reshape(len(names), 2)[:, 0]
            assert short.converged
            assert np.all(np.abs(rest) <= 1e-15 * np.abs(short.value)), (z, beta, names, rest)


def test_thermal_x_passes_count_kernel_points_against_their_budget(monkeypatch):
    # Each x node of a direct thermal pass evaluates the kernel at every
    # frequency of its block, so the budget counts those points.  While
    # it counted x nodes, these three passes (8, 16 and 32 frequencies)
    # evaluated 1,474,568, 2,949,136 and 5,898,272 points, and the same
    # row at the default budget took half a minute to report the miss.
    points = []

    def kernel(kappa, t, weight, omega_p, z_over_a, names):
        points[-1] += np.broadcast(kappa, t).size
        return original_kernel(kappa, t, weight, omega_p, z_over_a, names)

    def counted(f, decay_scale, tol=None):
        points.append(0)
        return quadrature.integrate_semiinf(f, decay_scale, tol)

    original_kernel = stress_mod._kernel
    monkeypatch.setattr(stress_mod, "_kernel", kernel)
    monkeypatch.setattr(stress_mod, "integrate_semiinf", counted)
    stress_mod.clear_caches()
    tol = Tolerance(rel_tol=2.3e-16, abs_tol=0.0, max_evaluations=200_000)
    with pytest.warns(UserWarning, match="integrate_semiinf did not meet its tolerance"):
        result = energy_density(Geometry(0.5), PlasmaModel(100.0), ThermalState.finite(5.0),
                                tol=tol)
    stress_mod.clear_caches()
    assert len(points) >= 3 and max(points) <= 200_000, points
    assert not result.converged


def test_kernel_calls_stay_within_a_block(monkeypatch):
    # No kernel call takes more than quadrature._BLOCK nodes, counting the
    # frequency axis of a direct Matsubara block: at zero temperature, in
    # direct thermal rows near a wall and at the midpoint, and in a split
    # row.  The direct blocks reach 64 frequencies of 181 nodes each, far
    # more than a block of 1024 nodes, which the calls keep to as well; a
    # block of 256 nodes holds less than two such rows, so each direct
    # call takes one.  Patching quadrature._BLOCK alone sets the bound.
    sizes = []

    def kernel(kappa, t, weight, omega_p, z_over_a, names):
        sizes.append(np.broadcast(kappa, t, weight).size)
        return original(kappa, t, weight, omega_p, z_over_a, names)

    original = stress_mod._kernel
    monkeypatch.setattr(stress_mod, "_kernel", kernel)
    for block in (quadrature._BLOCK, 1024, 256):
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        for z, beta in ((0.5, None), (0.05, 5.0), (0.5, 5.0), (0.5, 100.0), (0.5, 1000.0)):
            stress_mod.clear_caches()
            sizes.clear()
            thermal = None if beta is None else ThermalState.finite(beta)
            for op in CLI_COLUMNS.values():
                assert op(Geometry(z), PlasmaModel(100.0), thermal).converged
            assert sizes and max(sizes) <= block, (block, z, beta, max(sizes))
    stress_mod.clear_caches()


def test_one_kernel_serves_every_reduction(monkeypatch):
    # The zero-T bound pass, the direct Matsubara sum and the split's
    # correction all read their columns from _kernel, the one function of
    # stress that reaches the reflection coefficients.  The Matsubara
    # terms of the direct sum and of the split, and the split's windowed
    # integral, come from one integrand: the split calls no kernel itself.
    # The zero-T position pass integrates over t in closed form and calls
    # no kernel.
    callers = set()

    def kernel(*args):
        callers.add(sys._getframe(1).f_code.co_qualname.split(".")[0])
        return original(*args)

    original = stress_mod._kernel
    monkeypatch.setattr(stress_mod, "_kernel", kernel)
    for thermal, expected in ((None, {"_zero_t_pass"}),
                              (ThermalState.finite(5.0), {"_frequency_integrals"}),
                              (ThermalState.finite(1000.0),
                               {"_zero_t_pass", "_frequency_integrals"})):
        stress_mod.clear_caches()
        callers.clear()
        for op in CLI_COLUMNS.values():
            assert op(Geometry(0.5), PlasmaModel(100.0), thermal).converged
        assert callers == expected, thermal
    callers.clear()
    for names in stress_mod._POSITION:
        assert stress_mod._zero_t_pass(100.0, 0.5, QUICK, names).converged
    assert callers == set()
    reaching = {
        node.name for node in ast.walk(ast.parse(inspect.getsource(stress_mod)))
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id == "dielectric" for n in ast.walk(node))
    }
    assert reaching == {"_kernel"}


def test_thermal_profile_rows_share_tzz_and_the_bound_correction(monkeypatch):
    # Rows in CLI order: at beta = 5 (direct) tzz is summed once, at
    # beta = 1000 (split) the bound correction, one x-pass of decay scale
    # 0.5 over the 25 frequencies and the window's rule, runs once; each
    # row adds its zero-temperature position pass over u and its position
    # correction's x-pass.  At beta = 20 the 19 rows of z in 0.05:0.95 mix
    # the routes: the edge rows z = 0.05 and 0.95 split, while the other
    # 17 rows and tzz take the direct sum.  The bound pass and the bound
    # correction's x-pass still run once each, and tzz is summed once.
    sums, decays, corrections, doubles = [], [], [], []

    def direct(omega_p, z_over_a, beta, tol, names):
        sums.append(names)
        return original_direct(omega_p, z_over_a, beta, tol, names)

    def semi(f, decay, tol):
        decays.append(decay)
        return original_semi(f, decay, tol)

    def frequencies(zeta, matrix, omega_p, z_over_a, tol, names, weights=None):
        if weights is not None:
            corrections.append(stress_mod._dep_scale(z_over_a))
        return original_frequencies(zeta, matrix, omega_p, z_over_a, tol, names, weights)

    def double(f, outer, inner, tol=None):
        doubles.append((f.__qualname__.split(".")[0], outer.decay_scale))
        return original_double(f, outer, inner, tol)

    original_direct, original_semi = stress_mod._thermal_direct, stress_mod.integrate_semiinf
    original_frequencies, original_double = stress_mod._frequency_integrals, stress_mod.integrate_2d
    monkeypatch.setattr(stress_mod, "_thermal_direct", direct)
    monkeypatch.setattr(stress_mod, "integrate_semiinf", semi)
    monkeypatch.setattr(stress_mod, "_frequency_integrals", frequencies)
    monkeypatch.setattr(stress_mod, "integrate_2d", double)
    three = (0.25, 0.5, 0.75)
    nineteen = [0.05 + i * (0.9 / 18) for i in range(19)]
    for beta, rows in ((5.0, three), (1000.0, three), (20.0, nineteen)):
        stress_mod.clear_caches()
        for seen in (sums, decays, corrections, doubles):
            seen.clear()
        for z in rows:
            for op in CLI_COLUMNS.values():
                assert op(Geometry(z), PlasmaModel(100.0), ThermalState.finite(beta)).converged
        if beta == 5.0:
            assert sums.count(("tzz",)) == 1 and len(sums) == 4, sums
        elif beta == 1000.0:
            assert sums == [] and decays.count(0.5) == 1 and len(decays) == 1 + 2 * 3, decays
            assert corrections.count(0.5) == 1 and len(corrections) == 1 + 3, corrections
        else:
            assert sums.count(("tzz",)) == 1 and len(sums) == 18, sums
            assert corrections.count(0.5) == 1 and len(corrections) == 1 + 2, corrections
        assert doubles == ([] if beta == 5.0 else [("_zero_t_pass", 0.5)]), doubles


def test_clear_caches_empties_every_memo():
    # A zero-temperature row with the field squares, a direct row and a
    # split row fill the memos; clear_caches must empty every one.
    memos = [v for v in vars(stress_mod).values() if hasattr(v, "cache_clear")]
    model = PlasmaModel(100.0)
    for op in ZERO_T_OPS.values():
        op(Geometry(0.5), model, tol=QUICK)
    for beta in (5.0, 1000.0):
        for op in OPS.values():
            op(Geometry(0.5), model, ThermalState.finite(beta), tol=QUICK)
    assert memos and all(m.cache_info().currsize > 0 for m in memos)
    stress_mod.clear_caches()
    assert all(m.cache_info().currsize == 0 for m in memos)


def _record_zero_t_passes(monkeypatch, record):
    """Route stress's integrate_2d and integrate_semiinf through ``record``,
    called as record(kind, f, decay_scale, run) with kind "2d" or "u"; it
    returns the pass's result, from run(f) for an integrand of its own."""

    def double(f, outer, inner, tol=None):
        return record("2d", f, outer.decay_scale, lambda g: original_double(g, outer, inner, tol))

    def single(f, decay_scale, tol=None):
        return record("u", f, decay_scale, lambda g: original_single(g, decay_scale, tol))

    original_double, original_single = stress_mod.integrate_2d, stress_mod.integrate_semiinf
    monkeypatch.setattr(stress_mod, "integrate_2d", double)
    monkeypatch.setattr(stress_mod, "integrate_semiinf", single)


def test_zero_temperature_rows_share_two_passes(monkeypatch):
    # The five CLI quantities of a row come from one bound pass over
    # (u, t), shared by all rows at the same omega_p, and one position
    # pass over u forming D alone.  The field squares add a field pass
    # over u per position.
    passes = []

    def record(kind, f, scale, run):
        passes.append((kind, scale))
        return run(f)

    _record_zero_t_passes(monkeypatch, record)
    model = PlasmaModel(100.0)
    for ops, expected in (
            (CLI_COLUMNS, [("2d", 0.5), ("u", 1.0), ("u", 2.0)]),
            (ZERO_T_OPS, [("2d", 0.5), ("u", 1.0), ("u", 1.0), ("u", 2.0), ("u", 2.0)])):
        passes.clear()
        stress_mod.clear_caches()
        for z in (0.5, 0.25):
            for op in ops.values():
                op(Geometry(z), model, tol=QUICK)
        assert passes == expected


def test_zero_temperature_row_forms_only_the_columns_it_uses(monkeypatch):
    # A CLI row's bound pass forms B0, B2 and N; its position pass forms D
    # alone, since no CLI quantity reads the field squares' columns.
    columns = []

    def record(kind, f, scale, run):
        def g(*args):
            values = f(*args)
            columns[-1].add((kind, values.shape[-1]))
            return values

        columns.append(set())
        return run(g)

    _record_zero_t_passes(monkeypatch, record)
    stress_mod.clear_caches()
    for op in CLI_COLUMNS.values():
        op(Geometry(0.5), PlasmaModel(100.0))
    assert columns == [{("2d", 3)}, {("u", 1)}]


def test_zero_temperature_row_refines_only_the_axis_that_needs_it(monkeypatch):
    # At (100, 0.5) the bound pass needs u level 4 but only t level 3: 149
    # by 96 nodes, about half the square level-4 grid of 149 by 191.  The
    # position pass has no t axis: one integrand call evaluates its 181
    # nodes through u level 4.
    nodes, calls = [], []

    def record(kind, f, scale, run):
        def g(*args):
            calls.append(kind)
            return f(*args)

        result = run(g)
        nodes.append((kind, result.evaluations))
        return result

    _record_zero_t_passes(monkeypatch, record)
    stress_mod.clear_caches()
    for op in CLI_COLUMNS.values():
        assert op(Geometry(0.5), PlasmaModel(100.0)).converged
    (bound, bound_nodes), position = nodes
    assert bound == "2d" and bound_nodes <= 14_304
    assert position == ("u", 181) and calls.count("u") == 1


def test_zero_temperature_bound_pass_starts_at_level_3(monkeypatch):
    # The bound pass's first integrand calls take every node through level
    # 3 on both axes, which every bound pass reaches: at (100, 0.5) the
    # pass then refines u once, to its 149 by 96 nodes, in 4 integrand
    # calls.  Starting from levels 0 and 1 it took 7 calls for the same
    # nodes.
    calls = []

    def record(kind, f, scale, run):
        def g(*args):
            calls.append(kind)
            return f(*args)

        return run(g)

    _record_zero_t_passes(monkeypatch, record)
    stress_mod.clear_caches()
    res = stress_mod._zero_t_pass(100.0, None, Tolerance(), stress_mod._BOUND)
    assert res.converged and res.evaluations == 14_304
    assert calls == ["2d"] * 4


def _level5_reference(omega_p, names):
    """The bound pass's columns from the same rule at level 5 on both axes.

    A node's weight is its row's sum in quadrature._axis's matrix,
    exactly: each row holds one nonzero entry.
    """
    u, wu = quadrature._axis(0.5, 5, None, False)
    t, wt = quadrature._axis(None, 5, None, False)
    wu, wt = wu.sum(axis=1), wt.sum(axis=1)
    total = 0.0
    for start in range(0, u.size, 32):
        rows = slice(start, start + 32)
        u3 = u[rows, None] ** 3
        values = stress_mod._kernel(u[rows, None], t[None, :], u3, omega_p, None, names)
        total = total + np.einsum("r,mrn,n->m", wu[rows], values, wt)
    return total * (quadrature._DE_STEP / 2**5) ** 2


def _level7_position_reference(omega_p, z_over_a, names):
    """A position pass's columns from the same u rule at level 7."""
    u, wu = quadrature._axis(stress_mod._dep_scale(z_over_a), 7, quadrature._EXP_SINH_1D, False)
    step = quadrature._DE_STEP / 2**7
    return step * (wu.sum(axis=1) @ stress_mod._position(u, omega_p, z_over_a, names))


def test_zero_temperature_error_estimates_bound_the_actual_error():
    # Each column of the bound pass lies within its error estimate of a
    # fixed level-5 grid (297 by 382 nodes), and each column of both
    # position passes within its estimate of the same u rule at level 7
    # (1,441 nodes), whose own errors are far below it; the position
    # columns' t-integrals are exact to rounding (see
    # test_closed_form_t_integrals_match_mpmath).  The level-5 reference
    # sums 113,454 terms, so its rounding, up to about sqrt(113,454) ulps
    # or 1e-13 relative, is allowed for on top.
    rng = np.random.default_rng(4)
    tol = Tolerance()
    for _ in range(12):
        omega_p = float(10.0 ** rng.uniform(-3.0, 6.0))
        z = float(rng.uniform(0.01, 0.99))
        for z_over_a, names in ((None, stress_mod._BOUND), *((z, c) for c in stress_mod._POSITION)):
            res = stress_mod._zero_t_pass(omega_p, z_over_a, tol, names)
            assert res.converged, (omega_p, z_over_a, names)
            if z_over_a is None:
                ref = _level5_reference(omega_p, names)
            else:
                ref = _level7_position_reference(omega_p, z_over_a, names)
            miss = np.abs(res.value - ref)
            assert np.all(miss <= res.error_estimate + 1e-13 * np.abs(ref)), (
                omega_p, z_over_a, miss, res.error_estimate)


def _position_columns_mpmath(u, omega_p, z_over_a):
    """D, D_E and D_B at fixed u, integrated over t by mpmath.

    The reflection coefficients are the textbook ratios with
    eps = 1 + omega_p**2/zeta**2, and the quadrature breaks [0, 1]
    geometrically around the p-wave layer t = 1/sqrt(mu),
    mu = u*(u + Q)/omega_p**2, across which r_p falls from 1.
    """
    mp = mpmath.mp
    u, wp, z = mp.mpf(u), mp.mpf(omega_p), mp.mpf(z_over_a)
    kappa1 = mp.sqrt(u * u + wp * wp)
    damp = mp.exp(-2 * u)
    weight = u**3 * (mp.exp(-2 * u * z) + mp.exp(-2 * u * (1 - z))) / 2
    r_s = (u - kappa1) / (u + kappa1)
    part_s = r_s / (1 - r_s**2 * damp)

    def r_p(t):
        eps = 1 + (wp / (u * t)) ** 2
        return (eps * u - kappa1) / (eps * u + kappa1)

    def d(t):
        rp = r_p(t)
        return (1 - t * t) * (rp + r_s) * (1 - r_s * rp * damp) / (
            (1 - r_s**2 * damp) * (1 - rp**2 * damp))

    def d_e(t):
        rp = r_p(t)
        return (2 - t * t) * rp / (1 - rp**2 * damp) - t * t * part_s

    def d_b(t):
        rp = r_p(t)
        return (2 - t * t) * part_s - t * t * rp / (1 - rp**2 * damp)

    layer = wp / mp.sqrt(u * (u + kappa1))
    breaks = [layer * mp.mpf(10) ** k for k in range(-2, 3)]
    points = [mp.mpf(0), *(b for b in breaks if b < 1), mp.mpf(1)]
    return [float(weight * mp.quad(f, points)) for f in (d, d_e, d_b)]


def test_closed_form_t_integrals_match_mpmath():
    # The position pass integrates over t in closed form.  At fixed u
    # from 1e-4 to 30 (where E = exp(-60)) and omega_p from 1e-6 to 1e8,
    # its D, D_E and D_B agree with mpmath's quadrature of the textbook
    # integrands.
    names = ("D", "D_E", "D_B")
    with mpmath.workdps(34):
        # The moments V_k(lam) on both sides of lam = 1, where they switch
        # from the quadrature rule to the recurrence.
        lam = np.geomspace(1e-8, 1e8, 65)
        moments = stress_mod._t_moments(lam**-0.5)
        for i, x in enumerate(map(mpmath.mpf, lam)):
            v0 = mpmath.atan(mpmath.sqrt(x)) / mpmath.sqrt(x)
            v1 = (1 - v0) / x
            for k, ref in enumerate((v0, v1, (mpmath.mpf(1) / 3 - v1) / x)):
                assert abs(moments[k, i] - ref) <= 1e-14 * ref, (k, lam[i], moments[k, i], ref)
        for u in (1e-4, 0.1, 1.0, 10.0, 30.0):
            for omega_p in (1e-6, 1.0, 100.0, 1e8):
                ref = _position_columns_mpmath(u, omega_p, 0.3)
                got = stress_mod._position(np.array([u]), omega_p, 0.3, names)[0]
                for name, a, b in zip(names, got, ref):
                    assert abs(a - b) <= 1e-11 * abs(b), (name, u, omega_p, a, b)


def test_closed_form_and_two_dimensional_routes_agree():
    # The position columns through the public integrate_2d over (u, t),
    # from the reflection coefficients of dielectric, against the
    # position passes over u with t integrated in closed form, at seeded
    # points: two independent routes, each within the other's estimate.
    def columns(u, t, omega_p, z_over_a):
        r_s, r_p = dielectric.rs_rp_ut(u, t, omega_p)
        pair = dielectric.rp_plus_rs_ut(u, t, omega_p)
        damp = np.exp(-2.0 * u)
        weight = u**3 * stress_mod._mirror(u, z_over_a)
        den_s, den_p = 1.0 - r_s**2 * damp, 1.0 - r_p**2 * damp
        part_s, part_p, t2 = r_s / den_s, r_p / den_p, t * t
        d = (1.0 - t2) * pair * (1.0 - r_s * r_p * damp) / (den_s * den_p)
        d_e = (2.0 - t2) * part_p - t2 * part_s
        d_b = (2.0 - t2) * part_s - t2 * part_p
        return weight[..., None] * np.stack([d, d_e, d_b], axis=-1)

    rng = np.random.default_rng(18)
    tol = Tolerance()
    for _ in range(6):
        omega_p = float(10.0 ** rng.uniform(-3.0, 6.0))
        z = float(rng.uniform(0.01, 0.99))
        double = quadrature.integrate_2d(
            lambda u, t: columns(u, t, omega_p, z),
            SemiInfinite(stress_mod._dep_scale(z)), UnitInterval(), tol)
        single = [stress_mod._zero_t_pass(omega_p, z, tol, names) for names in stress_mod._POSITION]
        assert double.converged and all(p.converged for p in single)
        value = np.concatenate([p.value for p in single])
        error = np.concatenate([p.error_estimate for p in single])
        assert np.all(np.abs(value - double.value) <= error + double.error_estimate), (
            omega_p, z, value - double.value, error, double.error_estimate)


def test_near_wall_corner_follows_the_leading_law():
    # At omega_p = 10 the position pass over u meets its tolerance down
    # to z = 1e-60, with no t rule to resolve the p-wave layer
    # t < omega_p*z of the modes u ~ 1/z that dominate.  t00 and txx
    # follow the leading law there, whose error is O(omega_p*z), 1.2e-5
    # at z = 1e-6.  At finite temperature the split adds a fixed 25-term
    # correction, and the thermal part is far below that error.  Nothing
    # here warns: the cost near a wall is bounded.
    model = PlasmaModel(10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for thermal in (ThermalState(), ThermalState.finite(5.0), ThermalState.finite(1000.0)):
            for z in (1e-6, 1e-20, 1e-60):
                laws = near_wall_asymptote(z, model)
                for op, law in zip((energy_density, pressure_xx), laws):
                    res = op(Geometry(z), model, thermal)
                    assert res.converged, (op.__name__, z, thermal)
                    assert abs(res.value - law) <= 2e-5 * law, (op.__name__, z, thermal, res, law)


def test_transverse_null_energy_stays_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(12):
        omega_p = float(10.0 ** rng.uniform(-1, 3))
        z = float(rng.uniform(0.05, 0.95))
        res = nec_transverse(Geometry(z), PlasmaModel(omega_p), tol=QUICK)
        assert res.value >= -10.0 * res.error_estimate


def test_transverse_null_energy_is_nonnegative_near_the_conductor_limit():
    # The exact value tends to zero here, so rounding must not push it
    # below: both of its columns vanish exactly for perfect conductors.
    for omega_p in (1e8, math.inf):
        for z in (1e-3, 0.25, 0.5):
            value = nec_transverse(Geometry(z), PlasmaModel(omega_p)).value
            assert value >= 0.0
            assert value == 0.0 or not math.isinf(omega_p)


def test_longitudinal_null_energy_changes_sign_across_the_gap():
    model = PlasmaModel(100.0)
    assert nec_longitudinal(Geometry(0.5), model).value < 0.0
    assert nec_longitudinal(Geometry(0.25), model).value > 0.0


def test_single_integral_combination_matches_component_sum():
    geom = Geometry(0.25)
    model = PlasmaModel(100.0)
    necx = nec_transverse(geom, model)
    summed = energy_density(geom, model).value + pressure_xx(geom, model).value
    assert abs(necx.value - summed) <= 1e-6 * abs(summed)
    necz = nec_longitudinal(geom, model)
    summed_z = energy_density(geom, model).value + pressure_zz(geom, model).value
    assert abs(necz.value - summed_z) <= 1e-6 * abs(necz.value)


def test_near_wall_asymptote_values():
    u_ref, p_ref = near_wall_asymptote(1e-3, PlasmaModel(100.0))
    assert u_ref == 2.0 * p_ref
    expected = math.sqrt(2.0) * 100.0 / (64.0 * math.pi * 1e-9)
    assert abs(u_ref - expected) <= 1e-6 * expected
    assert near_wall_asymptote(0.5, PlasmaModel(0.0)) == (0.0, 0.0)
    with pytest.raises(ValueError):
        near_wall_asymptote(0.0, PlasmaModel(1.0))
    with pytest.raises(ValueError):
        near_wall_asymptote(-1.0, PlasmaModel(1.0))


def test_near_wall_law_holds_where_omega_p_z_is_tiny():
    # At omega_p*z = 1e-11 the leading law holds to about 1e-11.  The
    # modes that dominate, u ~ 1/z, reflect only in the p-wave layer
    # t < omega_p/u ~ 1e-11, which the position pass's closed-form
    # t-integral takes exactly.
    model = PlasmaModel(1e-6)
    geom = Geometry(1e-5)
    u_ref, p_ref = near_wall_asymptote(1e-5, model)
    results = (energy_density(geom, model), pressure_xx(geom, model))
    for res, ref in zip(results, (u_ref, p_ref)):
        assert res.converged
        assert abs(res.value - ref) <= 1e-9 * ref


def test_near_wall_profile_approaches_asymptote():
    # At omega_p = 100 and z = 1e-3 the asymptote still misses by about
    # 11 percent (the expansion parameter is omega_p*z), so compare
    # loosely; the direction of the miss is fixed (profile below).
    res = pressure_xx(Geometry(1e-3), PlasmaModel(100.0), tol=QUICK)
    _, p_ref = near_wall_asymptote(1e-3, PlasmaModel(100.0))
    assert 0.75 * p_ref <= res.value <= p_ref


def test_stress_tensor_transverse_components_agree():
    d = stress_tensor(Geometry(0.5), PlasmaModel(10.0), tol=QUICK)
    assert d.tyy.value == d.txx.value
    assert d.tyy.error_estimate == d.txx.error_estimate
    assert d.tyy is not d.txx
    assert d.t00.converged and d.tzz.converged


def test_results_are_reproducible_after_cache_reset():
    geom = Geometry(0.5)
    model = PlasmaModel(10.0)
    hot = ThermalState.finite(5.0)
    first = energy_density(geom, model, tol=QUICK)
    first_hot = energy_density(geom, model, hot, tol=QUICK)
    stress_mod.clear_caches()
    second = energy_density(geom, model, tol=QUICK)
    second_hot = energy_density(geom, model, hot, tol=QUICK)
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    assert first_hot.value == second_hot.value
    assert first_hot.error_estimate == second_hot.error_estimate


def test_critical_root_search_evaluates_each_point_once():
    # One bracket over x = 1/omega_p on [0, 1]: the conductor, omega_p = 1,
    # then the regula falsi points, each evaluated once, at most 9 in all
    # (bisection read 17 and 18).  At beta = 5 each point is one direct
    # sum at the midpoint; at zero temperature one bound pass and one
    # position pass.  Each root lies within CRITICAL_REL_WIDTH of a
    # bracket of the same function narrowed to 1e-12.  Below beta* both
    # ends are positive and no other point is read.
    for thermal, points in [(ThermalState.finite(5.0), 9), (None, 9),
                            (ThermalState.finite(2.5), 2), (ThermalState.finite(3.0), 2)]:
        stress_mod.clear_caches()
        root = critical_omega_pa(thermal)
        read = stress_mod._placed.cache_info().misses
        assert read <= points and (read == 2) == (root is None)
        assert stress_mod._placed.cache_info().hits == 0
        assert stress_mod._unplaced.cache_info().misses == (read if thermal is None else 0)
        if root is not None:
            x = quadrature.bracket_root(
                lambda y: energy_density(Geometry(0.5), PlasmaModel(1.0 / y if y else math.inf),
                                         thermal, tol=stress_mod.CRITICAL_TOLERANCE).value,
                0.0, 1.0, rel_tol=1e-12)
            assert abs(1.0 / root - x) <= stress_mod.CRITICAL_REL_WIDTH * x


def _stub_energy(monkeypatch, f):
    """Make the root search read f(1/omega_p) as the midpoint energy;
    returns the distinct 1/omega_p it evaluates, in order."""
    points = {}

    def energy(geom, model, thermal, tol=None):
        x = 1.0 / model.omega_p
        points[x] = None
        return QuadratureResult(f(x), 0.0, 1, True)

    monkeypatch.setattr(stress_mod, "energy_density", energy)
    return points


def test_critical_root_search_paths(monkeypatch):
    # An exact zero at an end is the root: the conductor's reads as an
    # infinite omega_p.  One at an inner point ends the search there: here
    # at the midpoint, where the first regula falsi point of (x - 0.5)**3
    # falls.
    for f, root, read in [(lambda x: x, math.inf, [0.0, 1.0]),
                          (lambda x: x - 1.0, 1.0, [0.0, 1.0]),
                          (lambda x: (x - 0.5) ** 3, 2.0, [0.0, 1.0, 0.5])]:
        points = _stub_energy(monkeypatch, f)
        assert critical_omega_pa() == root
        assert list(points) == read
    # A sign change is narrowed to the relative width in x, in fewer
    # points than bisection's 17.
    points = _stub_energy(monkeypatch, lambda x: x - 0.0123)
    root = critical_omega_pa()
    assert abs(1.0 / root - 0.0123) <= stress_mod.CRITICAL_REL_WIDTH * 0.0123
    assert list(points)[:2] == [0.0, 1.0] and len(points) <= 9
    # The same sign at both ends: no root, and no other point read.
    points = _stub_energy(monkeypatch, lambda x: 1.0 + x)
    assert critical_omega_pa() is None
    assert list(points) == [0.0, 1.0]


def test_critical_root_search_refuses_unconverged_evaluations():
    # A sign read from a value that missed its tolerance can put the root
    # anywhere, so the search raises instead of bisecting it.  With a
    # budget of 15 nodes both passes of the first point, the conductor,
    # stop at level 0.
    stress_mod.clear_caches()
    with pytest.warns(UserWarning, match="did not meet its tolerance"):
        with pytest.raises(QuadratureError, match=r"did not converge at omega_p\*a = inf$"):
            critical_omega_pa(tol=Tolerance(max_evaluations=15))


def test_no_sign_change_when_hot():
    assert critical_omega_pa(ThermalState.finite(2.5)) is None


def test_critical_root_just_above_beta_star():
    # Just above beta* the root lies beyond omega_p*a = 1e5: a search
    # over a finite span of omega_p misses it, one that ends at the
    # conductor does not.
    assert 1e5 < critical_omega_pa(ThermalState.finite(3.0405)) < 1e6


def test_midpoint_energy_changes_sign_at_most_once():
    # The rule by which critical_omega_pa reads a root from its two ends:
    # between omega_p*a = 1 and the conductor the midpoint energy density
    # changes sign at most once, below beta*, just above it and well above.
    for beta in (2.5, 3.0405, 5.0):
        thermal = ThermalState.finite(beta)
        signs = [energy_density(Geometry(0.5), PlasmaModel(omega_p), thermal,
                                tol=stress_mod.CRITICAL_TOLERANCE).value > 0.0
                 for omega_p in [*np.logspace(0.0, 8.0, 33), math.inf]]
        assert sum(a != b for a, b in zip(signs, signs[1:])) <= 1, beta
        assert signs[0]  # positive at omega_p*a = 1


def test_geometry_and_thermal_state_validation():
    with pytest.raises(ValueError):
        Geometry(0.0)
    with pytest.raises(ValueError):
        Geometry(1.0)
    # z stops at 1e-100, past which the position pass leaves the float range.
    assert Geometry(1e-100).z == 1e-100
    for z in (1e-110, 1e-300):
        with pytest.raises(ValueError, match="1e-100"):
            Geometry(z)
    assert ThermalState(None).beta is None
    assert ThermalState(math.inf).beta is None
    assert ThermalState.finite(2.0).beta == 2.0
    # An infinite beta is zero temperature to the constructor, but asked
    # for a finite temperature it is an overflow, and refused.
    for beta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ThermalState.finite(beta)
    with pytest.raises(ValueError):
        ThermalState(0.0)
    with pytest.raises(ValueError):
        ThermalState(-1.0)
    # beta**4 must be a normal float: a ValueError, not a ZeroDivisionError
    # or OverflowError from the blackbody terms later.
    for beta in (1e-100, 1e300):
        with pytest.raises(ValueError):
            ThermalState(beta)
    assert ThermalState(2.0**-255).beta == 2.0**-255 and ThermalState(2.0**255).beta == 2.0**255


def test_reference_limits_are_consistent():
    refs = reference_limits()
    assert refs["pc_energy_density"] == -math.pi**2 / 720.0
    assert refs["pc_pressure_zz"] == 3.0 * refs["pc_energy_density"]
    assert refs["pc_pressure_yy"] == refs["pc_pressure_xx"]
    # Tracelessness of the conductor-limit tensor.
    trace = (
        refs["pc_energy_density"]
        - refs["pc_pressure_xx"]
        - refs["pc_pressure_yy"]
        - refs["pc_pressure_zz"]
    )
    assert abs(trace) <= 1e-18
    assert refs["pc_nec_transverse"] == 0.0
    assert abs(refs["pc_nec_longitudinal"] - 4.0 * refs["pc_energy_density"]) <= 1e-18
    assert refs["blackbody_nec_transverse_coeff"] == pytest.approx(
        refs["blackbody_energy_coeff"] + refs["blackbody_pressure_coeff"], rel=1e-15
    )
