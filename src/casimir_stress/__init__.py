"""Vacuum stress between plasma-model mirrors: library and CLI.

The package evaluates the renormalized electromagnetic stress tensor in
the gap between two identical dielectric half-spaces described by the
plasma model, at zero or finite temperature, with controlled and
reported numerical error.  See the ``stress`` module for the physical
quantities, ``dielectric`` for the material response, ``quadrature`` for
the deterministic double-exponential integration rules, ``units`` for SI
conversion, and ``cli`` for the command-line front end.
"""

from .dielectric import PlasmaModel
from .quadrature import QuadratureError, QuadratureResult, Tolerance
from .stress import (
    Geometry,
    StressDiagonal,
    ThermalState,
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
from .units import LabParameters, beta_from_temperature, to_si_energy_density

__all__ = [
    "Geometry",
    "LabParameters",
    "PlasmaModel",
    "QuadratureError",
    "QuadratureResult",
    "StressDiagonal",
    "ThermalState",
    "Tolerance",
    "beta_from_temperature",
    "critical_omega_pa",
    "energy_density",
    "mean_sq_B",
    "mean_sq_E",
    "near_wall_asymptote",
    "nec_longitudinal",
    "nec_transverse",
    "pressure_xx",
    "pressure_zz",
    "reference_limits",
    "stress_tensor",
    "to_si_energy_density",
]
