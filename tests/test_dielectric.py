"""Tests for the plasma-model dielectric response and reflection kernels."""

import math

import numpy as np
import pytest

from casimir_stress.dielectric import (
    PlasmaModel,
    eps_imag,
    rp_plus_rs_ut,
    rs_rp,
    rs_rp_ut,
)
from casimir_stress.quadrature import integrate_unit
from de_oracle import drp_dt_naive, refl_naive

rng = np.random.default_rng(20240301)


def test_plasma_model_validation():
    assert PlasmaModel(0.0).omega_p == 0.0
    assert math.isinf(PlasmaModel(math.inf).omega_p)
    with pytest.raises(ValueError):
        PlasmaModel(-1.0)
    with pytest.raises(ValueError):
        PlasmaModel(math.nan)
    # Finite values stop at 1e100, where the reflection kernels still work.
    assert PlasmaModel(1e100).omega_p == 1e100
    for omega_p in (1.01e100, 1e105, 1e300):
        with pytest.raises(ValueError, match="1e100"):
            PlasmaModel(omega_p)


def test_eps_imag_values_and_domain():
    model = PlasmaModel(3.0)
    assert eps_imag(1.5, model) == 1.0 + (3.0 / 1.5) ** 2
    assert eps_imag(0.0, PlasmaModel(0.0)) == 1.0
    with pytest.raises(ValueError):
        eps_imag(0.0, model)
    with pytest.raises(ValueError):
        eps_imag(-1.0, model)


def test_eps_imag_high_frequency_transparency():
    # log-log slope of eps - 1 against zeta must sit near -2.
    model = PlasmaModel(2.0)
    zs = np.array([200.0, 2000.0, 20000.0])
    vals = np.array([eps_imag(z, model) - 1.0 for z in zs])
    slopes = np.diff(np.log(vals)) / np.diff(np.log(zs))
    assert np.all(slopes >= -2.1) and np.all(slopes <= -1.9)


def test_reflection_bounds_on_random_grid():
    zeta = rng.lognormal(mean=0.0, sigma=2.0, size=400)
    k = rng.lognormal(mean=0.0, sigma=2.0, size=400)
    for omega_p in (0.3, 3.0, 30.0, 3000.0):
        rs, rp = rs_rp(zeta, k, omega_p)
        assert np.all(rs <= 0.0) and np.all(rs >= -1.0)
        assert np.all(rp >= 0.0) and np.all(rp <= 1.0)
        assert np.all(rp + rs >= -1e-15)


def test_reflection_limiting_materials():
    zeta = rng.lognormal(size=50)
    k = rng.lognormal(size=50)
    rs0, rp0 = rs_rp(zeta, k, 0.0)
    assert np.all(rs0 == 0.0) and np.all(rp0 == 0.0)
    rsi, rpi = rs_rp(zeta, k, math.inf)
    assert np.all(rsi == -1.0) and np.all(rpi == 1.0)
    u = rng.lognormal(size=50)
    t = rng.uniform(0.0, 1.0, size=50)
    rsi, rpi = rs_rp_ut(u, t, math.inf)
    assert np.all(rsi == -1.0) and np.all(rpi == 1.0)
    assert np.all(rp_plus_rs_ut(u, t, 0.0) == 0.0)
    assert np.all(rp_plus_rs_ut(u, t, math.inf) == 0.0)


def test_static_limit_of_p_polarization():
    # At zeta = 0 a plasma half-space reflects the p mode perfectly.
    k = np.array([0.1, 1.0, 10.0])
    rs, rp = rs_rp(np.zeros(3), k, 5.0)
    assert np.all(rp == 1.0)
    expected_rs = -(5.0**2) / (k + np.hypot(k, 5.0)) ** 2
    assert np.max(np.abs(rs - expected_rs)) <= 1e-15
    # There omega_p**4 underflows in both the numerator and the squared
    # denominator, whose 0/0 used to read as r_p = nan.
    for omega_p in (1e-90, 1e-150):
        with np.errstate(invalid="ignore"):
            rs, rp = rs_rp(np.zeros(3), k, omega_p)
        assert np.all(rp == 1.0), omega_p
        assert np.max(np.abs(rs / rs_rp_ut(k, np.zeros(3), omega_p)[0] - 1.0)) <= 1e-15


def test_polar_and_cartesian_coordinates_agree():
    u = rng.lognormal(mean=0.5, sigma=1.5, size=200)
    t = rng.uniform(0.0, 1.0, size=200)
    zeta = u * t
    k = u * np.sqrt((1.0 - t) * (1.0 + t))
    for omega_p in (0.5, 7.0, 120.0):
        rs_a, rp_a = rs_rp(zeta, k, omega_p)
        rs_b, rp_b = rs_rp_ut(u, t, omega_p)
        assert np.max(np.abs(rs_a - rs_b)) <= 1e-12 * np.max(np.abs(rs_a))
        assert np.max(np.abs(rp_a - rp_b)) <= 1e-12


def test_combined_amplitude_matches_direct_sum():
    u = rng.lognormal(mean=0.0, sigma=1.0, size=200)
    t = rng.uniform(0.0, 1.0, size=200)
    for omega_p in (0.5, 2.0, 10.0):
        rs, rp = rs_rp_ut(u, t, omega_p)
        combined = rp_plus_rs_ut(u, t, omega_p)
        assert np.all(combined >= 0.0)
        assert np.max(np.abs(combined - (rp + rs))) <= 1e-12


def test_polar_kernels_return_floats_for_scalar_arguments():
    for omega_p in (0.5, 120.0):
        values = (*rs_rp_ut(1.5, 0.3, omega_p), rp_plus_rs_ut(1.5, 0.3, omega_p))
        assert all(isinstance(v, float) for v in values)
        rs, rp = rs_rp_ut(np.array([1.5]), np.array([0.3]), omega_p)
        assert (rs[0], rp[0]) == values[:2]


def test_polar_and_cartesian_forms_match_textbook_coefficients():
    # The textbook ratios, with kappa1**2 = kappa**2 + omega_p**2, are
    # accurate while kappa and omega_p are comparable and zeta > 0, which
    # this sample keeps; both stable forms must reproduce them.
    for omega_p in (0.5, 7.0, 120.0):
        u = omega_p * 10.0 ** rng.uniform(-1.0, 1.0, size=200)
        t = rng.uniform(0.01, 1.0, size=200)
        zeta = u * t
        k = u * np.sqrt((1.0 - t) * (1.0 + t))
        _, rs_ref, rp_ref = refl_naive(zeta, k, omega_p)
        for rs, rp in (rs_rp(zeta, k, omega_p), rs_rp_ut(u, t, omega_p)):
            assert np.max(np.abs(rs - rs_ref)) <= 1e-12
            assert np.max(np.abs(rp - rp_ref)) <= 1e-12


def test_angular_derivative_matches_finite_difference():
    # The slope of rs_rp_ut in t at fixed u is the closed form
    # drp_dt_naive, and it is never positive.
    u = np.full(40, 0.0) + rng.lognormal(size=40)
    t = rng.uniform(0.02, 0.98, size=40)
    h = 1e-6
    for omega_p in (1.0, 25.0):
        d = drp_dt_naive(u, t, omega_p)
        assert np.all(d <= 0.0)
        _, rp_hi = rs_rp_ut(u, t + h, omega_p)
        _, rp_lo = rs_rp_ut(u, t - h, omega_p)
        fd = (rp_hi - rp_lo) / (2.0 * h)
        assert np.max(np.abs(d - fd)) <= 1e-6 * (1.0 + np.max(np.abs(d)))


def test_angular_derivative_integrates_to_endpoint_difference():
    # integral over t in [0, 1] of d(r_p)/dt equals r_p(1) - r_p(0), with
    # the endpoints taken from rs_rp_ut.
    for omega_p in (1.0, 10.0, 100.0):
        for u in (0.5, 1.0, 5.0):
            res = integrate_unit(lambda t: drp_dt_naive(u, t, omega_p))
            _, rp_ends = rs_rp_ut(u, np.array([0.0, 1.0]), omega_p)
            q = math.hypot(u, omega_p)
            rp_at_1 = omega_p**2 / (u + q) ** 2
            assert res.converged
            assert abs(res.value - (rp_ends[1] - rp_ends[0])) <= 1e-8
            assert abs(res.value - (rp_at_1 - 1.0)) <= 1e-8


def test_p_reflection_falls_from_one_to_minus_r_s_across_t():
    # r_p runs from 1 at t = 0 (zeta = 0) down to -r_s at t = 1 (k = 0)
    # and never rises on the way: d(r_p)/dt <= 0, integrating to
    # r_p(1) - r_p(0) = omega_p**2/(u + sqrt(u**2 + omega_p**2))**2 - 1.
    t = np.linspace(0.0, 1.0, 401)
    for omega_p in (1.0, 10.0, 100.0):
        for u in (0.5, 1.0, 5.0):
            r_s, r_p = rs_rp_ut(u, t, omega_p)
            q = math.hypot(u, omega_p)
            assert abs(r_s + omega_p**2 / (u + q) ** 2) <= 1e-15
            assert abs(r_p[0] - 1.0) <= 1e-15
            assert abs(r_p[-1] + r_s) <= 1e-15
            assert np.all(np.diff(r_p) <= 1e-15)
