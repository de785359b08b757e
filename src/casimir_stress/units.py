"""Conversions between natural gap units and laboratory SI quantities.

Internally every quantity is expressed with hbar = c = 1 and lengths in
units of the gap width ``a``: energy densities and pressures come out in
``1/a**4``, frequencies in ``c/a``, inverse temperatures as the
dimensionless ratio ``beta/a``.  This module maps those numbers to and
from meters, Kelvin, rad/s, and J/m**3.

All conversions draw on one pinned table of CODATA 2018 constants so
that SI output is reproducible digit for digit across machines.
"""

from __future__ import annotations

import math
import sys

from ._record import record

__all__ = [
    "BOLTZMANN",
    "CODATA_2018",
    "HBAR",
    "LabParameters",
    "SPEED_OF_LIGHT",
    "beta_from_temperature",
    "nondimensionalize",
    "redimensionalize",
    "to_si_energy_density",
]

# Pinned CODATA 2018 values; the exact digits matter for reproducibility.
CODATA_2018 = {
    "hbar": 1.054571817e-34,  # reduced Planck constant, J s
    "c": 299792458.0,  # speed of light, m/s (exact)
    "k_B": 1.380649e-23,  # Boltzmann constant, J/K (exact)
}

HBAR = CODATA_2018["hbar"]
SPEED_OF_LIGHT = CODATA_2018["c"]
BOLTZMANN = CODATA_2018["k_B"]


@record
class LabParameters:
    """Laboratory description of one configuration.

    Parameters
    ----------
    separation : float
        Gap width ``a`` in meters, > 0.
    temperature : float
        Temperature in Kelvin, >= 0; zero means exactly zero temperature.
    plasma_frequency : float
        Plasma angular frequency in rad/s, >= 0.
    """

    separation: float
    temperature: float
    plasma_frequency: float

    def __post_init__(self):
        if not (math.isfinite(self.separation) and self.separation > 0.0):
            raise ValueError("separation must be a positive finite length in meters")
        if not (math.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError("temperature must be a finite value >= 0 Kelvin")
        if self.plasma_frequency < 0.0 or math.isnan(self.plasma_frequency):
            raise ValueError("plasma_frequency must be >= 0 rad/s")


def beta_from_temperature(temperature: float) -> float:
    """Thermal length beta = hbar*c/(k_B*T) in meters.

    Parameters
    ----------
    temperature : float
        Temperature in Kelvin, > 0.  Room temperature (300 K) gives
        about 7.63 micrometers.

    Returns
    -------
    float
        The inverse temperature expressed as a length.

    Raises
    ------
    ValueError
        If temperature <= 0; exactly zero temperature has no finite
        thermal length, use the zero-temperature state directly.  Also
        below about 1.8e-301 K, where k_B*T underflows to zero.
    """
    if not (temperature > 0.0 and math.isfinite(temperature)):
        raise ValueError(
            "temperature must be > 0 K; zero temperature has no finite thermal "
            "length (use the zero-temperature state)"
        )
    if BOLTZMANN * temperature == 0.0:
        raise ValueError("temperature is so small that k_B*T underflows to zero")
    return HBAR * SPEED_OF_LIGHT / (BOLTZMANN * temperature)


def to_si_energy_density(value: float, separation: float) -> float:
    """Convert an energy density from 1/a**4 units to J/m**3.

    Parameters
    ----------
    value : float
        Energy density (or pressure) in units of 1/a**4.
    separation : float
        Gap width ``a`` in meters, where ``a**4`` and ``hbar*c/a**4`` are
        both normal floats: from about 1.2e-77 m to 3.5e70 m.

    Returns
    -------
    float
        value * hbar * c / a**4.

    Raises
    ------
    ValueError
        For a separation outside that range, nan included.
    """
    a4 = separation**4 if 0.0 < separation < 1e77 else math.nan
    if not (sys.float_info.min <= a4 and sys.float_info.min <= HBAR * SPEED_OF_LIGHT / a4):
        raise ValueError("separation must lie within about [1.2e-77, 3.5e70] m, "
                         "where a**4 and hbar*c/a**4 are normal floats")
    return value * HBAR * SPEED_OF_LIGHT / a4


def nondimensionalize(lab: LabParameters) -> tuple[float, float]:
    """Reduce laboratory parameters to (omega_p*a/c, beta/a).

    Parameters
    ----------
    lab : LabParameters

    Returns
    -------
    tuple of float
        The dimensionless plasma frequency omega_p*a/c and the
        dimensionless inverse temperature beta/a; the latter is infinity
        at zero temperature, matching the zero-temperature state.
    """
    omega_p_a = lab.plasma_frequency * lab.separation / SPEED_OF_LIGHT
    if lab.temperature == 0.0:
        return omega_p_a, math.inf
    beta_over_a = beta_from_temperature(lab.temperature) / lab.separation
    return omega_p_a, beta_over_a


def redimensionalize(
    omega_p_a: float, beta_over_a: float, separation: float
) -> LabParameters:
    """Rebuild laboratory parameters from the dimensionless pair.

    Inverse of nondimensionalize at fixed separation: recovers the
    plasma frequency in rad/s and the temperature in Kelvin (zero when
    beta_over_a is infinite).  Round-tripping preserves the inputs to
    relative 1e-12 or better.
    """
    if not (separation > 0.0 and math.isfinite(separation)):
        raise ValueError("separation must be a positive finite length in meters")
    if not (beta_over_a > 0.0):
        raise ValueError("beta_over_a must be positive (infinite for zero temperature)")
    plasma_frequency = omega_p_a * SPEED_OF_LIGHT / separation
    # The map between thermal length and temperature is its own inverse.
    temperature = (0.0 if math.isinf(beta_over_a)
                   else beta_from_temperature(beta_over_a * separation))
    return LabParameters(
        separation=separation,
        temperature=temperature,
        plasma_frequency=plasma_frequency,
    )
