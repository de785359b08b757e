"""Tests for the SI conversion layer."""

import math

import numpy as np
import pytest

from casimir_stress.units import (
    BOLTZMANN,
    CODATA_2018,
    HBAR,
    SPEED_OF_LIGHT,
    LabParameters,
    beta_from_temperature,
    nondimensionalize,
    redimensionalize,
    to_si_energy_density,
)


def test_constants_are_the_codata_2018_values():
    assert CODATA_2018["hbar"] == 1.054571817e-34
    assert CODATA_2018["c"] == 299792458.0
    assert CODATA_2018["k_B"] == 1.380649e-23
    assert HBAR == CODATA_2018["hbar"]
    assert SPEED_OF_LIGHT == CODATA_2018["c"]
    assert BOLTZMANN == CODATA_2018["k_B"]


def test_thermal_length_at_room_temperature():
    beta = beta_from_temperature(300.0)
    assert abs(beta - 7.64e-6) <= 0.01 * 7.64e-6


def test_thermal_length_scales_inversely_with_temperature():
    # Halving the temperature doubles the length, exactly in floating
    # point because the ratio is a power of two.
    assert beta_from_temperature(150.0) == 2.0 * beta_from_temperature(300.0)


def test_thermal_length_domain():
    with pytest.raises(ValueError):
        beta_from_temperature(0.0)
    with pytest.raises(ValueError):
        beta_from_temperature(-5.0)
    with pytest.raises(ValueError):
        beta_from_temperature(math.inf)
    # k_B*T underflows to zero here; it was a ZeroDivisionError.
    with pytest.raises(ValueError, match="underflows"):
        beta_from_temperature(1e-310)


def test_si_energy_density_conversion():
    assert to_si_energy_density(0.0, 1e-6) == 0.0
    assert to_si_energy_density(1.0, 1.0) == HBAR * SPEED_OF_LIGHT
    # 1/a**4 scaling: shrinking a by 10 boosts the density by 10**4.
    big = to_si_energy_density(1.0, 1e-7)
    small = to_si_energy_density(1.0, 1e-6)
    assert abs(big / small - 1e4) <= 1e-10 * 1e4
    # Past the range where a**4 and hbar*c/a**4 are normal floats: a**4
    # underflowed to zero (ZeroDivisionError) at 1e-90 m and overflowed
    # (OverflowError) at 1e80 m.
    for separation in (0.0, 1e-90, 1e-78, 1e71, 1e80, math.inf, math.nan, -1e-6):
        with pytest.raises(ValueError, match="normal floats"):
            to_si_energy_density(1.0, separation)
    # Across the CLI's --separation-um range, [1e-60, 1e60] micrometers,
    # the scale is finite and positive.
    for exponent in range(-66, 55):
        scale = to_si_energy_density(1.0, 10.0**exponent)
        assert 0.0 < scale < math.inf, exponent


def test_micron_gap_at_room_temperature_is_mildly_thermal():
    # A 1.6 micrometer gap at 300 K sits near beta/a = 5.
    lab = LabParameters(separation=1.6e-6, temperature=300.0, plasma_frequency=0.0)
    _, beta_over_a = nondimensionalize(lab)
    assert abs(beta_over_a - 5.0) <= 0.05 * 5.0


def test_nondimensionalize_zero_temperature():
    lab = LabParameters(separation=1e-6, temperature=0.0, plasma_frequency=1e15)
    omega_p_a, beta_over_a = nondimensionalize(lab)
    assert math.isinf(beta_over_a)
    assert abs(omega_p_a - 1e15 * 1e-6 / SPEED_OF_LIGHT) <= 1e-25


def test_dimensionless_parameters_scale_with_separation():
    lab1 = LabParameters(separation=1e-6, temperature=300.0, plasma_frequency=2e15)
    lab2 = LabParameters(separation=2e-6, temperature=300.0, plasma_frequency=2e15)
    w1, b1 = nondimensionalize(lab1)
    w2, b2 = nondimensionalize(lab2)
    assert w2 == 2.0 * w1
    assert b2 == b1 / 2.0


def test_round_trip_through_dimensionless_form():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lab = LabParameters(
            separation=float(10.0 ** rng.uniform(-7, -4)),
            temperature=float(10.0 ** rng.uniform(0, 3)),
            plasma_frequency=float(10.0 ** rng.uniform(13, 17)),
        )
        omega_p_a, beta_over_a = nondimensionalize(lab)
        back = redimensionalize(omega_p_a, beta_over_a, lab.separation)
        assert abs(back.temperature - lab.temperature) <= 1e-12 * lab.temperature
        assert abs(back.plasma_frequency - lab.plasma_frequency) <= 1e-12 * lab.plasma_frequency
        assert back.separation == lab.separation


def test_round_trip_zero_temperature():
    back = redimensionalize(3.0, math.inf, 1e-6)
    assert back.temperature == 0.0
    assert abs(back.plasma_frequency - 3.0 * SPEED_OF_LIGHT / 1e-6) <= 1e-3


def test_lab_parameters_validation():
    with pytest.raises(ValueError):
        LabParameters(separation=0.0, temperature=300.0, plasma_frequency=1e15)
    with pytest.raises(ValueError):
        LabParameters(separation=1e-6, temperature=-1.0, plasma_frequency=1e15)
    with pytest.raises(ValueError):
        LabParameters(separation=1e-6, temperature=300.0, plasma_frequency=-1e15)
    with pytest.raises(ValueError):
        LabParameters(separation=math.inf, temperature=300.0, plasma_frequency=1e15)


def test_redimensionalize_validation():
    with pytest.raises(ValueError):
        redimensionalize(-1.0, 5.0, 1e-6)
    with pytest.raises(ValueError):
        redimensionalize(1.0, 0.0, 1e-6)
    with pytest.raises(ValueError):
        redimensionalize(1.0, 5.0, -1e-6)
