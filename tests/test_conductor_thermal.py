"""The perfect conductor at finite temperature against its closed form,
and the two exact edges of the energy conditions it fixes."""

import math

import mpmath

from _frozen import CONDUCTOR_THERMAL
from casimir_stress import (
    Geometry,
    PlasmaModel,
    ThermalState,
    energy_density,
    nec_longitudinal,
    pressure_xx,
    pressure_zz,
)
from conductor_thermal import DIGITS, conductor_stress, own_error, symmetric_free_energy

OPS = {"t00": energy_density, "txx": pressure_xx, "tzz": pressure_zz,
       "nec_z": nec_longitudinal}
CONDUCTOR = PlasmaModel(math.inf)
# The conductor's midpoint t00 vanishes here: the package's value, found
# by a root search at rel_tol = 1e-12.
BETA_STAR = 3.04015213274221


def test_conductor_components_match_the_closed_form():
    # beta = 1000 runs through the split, the rest through direct sums.
    references = {beta: conductor_stress(beta) for beta in (1.0, 2.0, 3.0, 5.0, 20.0)}
    references.update(CONDUCTOR_THERMAL)
    for beta, reference in references.items():
        thermal = ThermalState.finite(beta)
        for z in (0.5, 0.1, 1e-3):
            for name, op in OPS.items():
                res = op(Geometry(z), CONDUCTOR, thermal)
                assert res.converged, (beta, z, name)
                miss = abs(res.value - reference[name])
                assert miss <= res.error_estimate + own_error(reference[name]), (beta, z, name)


def test_conductor_energy_vanishes_at_beta_star():
    # The weak energy condition's edge: below beta* the conductor's energy
    # density is positive, above it negative, at every position.
    root = mpmath.findroot(lambda beta: conductor_stress(beta)["t00"], 3.04)
    assert abs(root - BETA_STAR) <= 1e-12
    for beta, sign in ((BETA_STAR * (1.0 - 1e-9), 1.0), (BETA_STAR * (1.0 + 1e-9), -1.0)):
        res = energy_density(Geometry(0.5), CONDUCTOR, ThermalState.finite(beta))
        assert sign * res.value > res.error_estimate, beta


def test_conductor_nec_z_vanishes_at_beta_two():
    # The null energy condition's edge for rays normal to the walls lies at
    # exactly beta = 2a: the closed form reads zero to its 30 digits, and
    # the package zero within its estimate plus the rounding of components
    # about 0.04 in size.
    assert abs(conductor_stress(2.0)["nec_z"]) <= 1e-28
    res = nec_longitudinal(Geometry(0.5), CONDUCTOR, ThermalState.finite(2.0))
    assert abs(res.value) <= res.error_estimate + 4.0 * math.ulp(0.04)


def test_conductor_free_energy_is_symmetric_under_beta_to_4_over_beta():
    # F(4/beta) = (beta/2)**4*F(beta) (Ravndal & Tollefsen, Phys. Rev. D 40
    # (1989) 4191), to 25 digits.
    with mpmath.workdps(DIGITS):
        for beta in map(mpmath.mpf, ("1", "1.5", "3", "5")):
            inverted = symmetric_free_energy(4 / beta)[0]
            scaled = (beta / 2) ** 4 * symmetric_free_energy(beta)[0]
            assert abs(inverted - scaled) <= 1e-25 * abs(scaled), beta


def test_conductor_nec_z_edge_follows_from_the_symmetry():
    # Differentiating F(4/beta) = (beta/2)**4*F(beta) at beta = 2 gives
    # -F'(2) = 2*F(2) + F'(2), so F'(2) = -F(2) and nec_z = 4*F + 2*beta*F'
    # vanishes there; the helper's analytic F' reads it to 30 digits.
    with mpmath.workdps(DIGITS):
        value, slope = symmetric_free_energy(2)
        assert abs(slope + value) <= 1e-28 * abs(value)
        assert abs(4 * value + 4 * slope) <= 1e-28 * abs(value)
