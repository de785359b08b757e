"""Stress tensor of the electromagnetic vacuum between plasma half-spaces.

Two identical half-spaces with plasma-model permittivity face each other
across a vacuum gap of width ``a``; this module evaluates the renormalized
expectation values of the field squares and of the diagonal stress tensor
components inside the gap, at zero or finite temperature.  Everything is
computed in units of the gap width: lengths in ``a``, frequencies in
``1/a``, densities and pressures in ``1/a**4`` (with hbar = c = 1).  The
``units`` module converts to SI when needed.

Every quantity is a mode sum over imaginary frequency ``zeta`` and
transverse wavenumber ``k``, with ``kappa = sqrt(zeta**2 + k**2)`` the
decay constant of evanescent modes.  In polar spectral coordinates
``u = kappa``, ``t = zeta/kappa`` each one is ``u**3`` times a polynomial
in ``t**2`` times one of two building blocks, both built from the
reflection coefficients ``r_s``, ``r_p`` and the round-trip factor
``E = exp(-2*kappa*a)``:

* the position-independent bound sum ``r**2*E / (1 - r**2*E)`` over
  both polarizations, and
* the interference term ``r / (1 - r**2*E)``, summed over both
  polarizations in a cancellation-free form, times the mirror factor
  ``(exp(-2*kappa*z) + exp(-2*kappa*(a-z))) / 2``,

which is the overflow-free form of ``exp(-kappa*a)*cosh(kappa*(2z-a))``.
At zero temperature each quantity is a fixed combination of columns of
double integrals over ``(u, t)``: three from a bound pass that does not
depend on the position, and from a position pass only those it reads,
``D`` for the stress tensor and both null-energy combinations, ``D_E``
and ``D_B`` for the field squares.  The transverse null-energy
combination integrates the bound sum minus its value at ``t = 1``, so
for perfect conductors both of its columns vanish identically instead of
cancelling.

At finite temperature the continuous frequency integral becomes a sum
over Matsubara frequencies ``zeta_n = 2*pi*n/beta`` (half weight at
``n = 0``) and the homogeneous blackbody contribution is added back:
``pi**2/(15*beta**4)`` to the energy density, one third of that to each
pressure, and ``4*pi**2/(45*beta**4)`` to both null-energy combinations.
Beyond those terms the sum approaches the zero-temperature integral only
like ``beta**-3``, and its terms decay like
``exp(-4*pi*n*min(z, a-z)/beta)``.  One kernel gives every component as
a single integrand over ``x = kappa - zeta``.  Up to about 400 predicted
terms the sum is direct, blocks of frequencies sharing one ``x`` grid,
until a geometric tail bound meets the tolerance.  Beyond that (large
``beta`` or near a wall) it is split: the zero-temperature columns plus
21 windowed Matsubara terms minus the integral of the same windowed
columns, whatever ``beta`` and ``z`` are.

Sign conventions: negative energy density means the vacuum energy lies
below the free-space value; negative ``pressure_zz`` means the walls
attract.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import dielectric
from .dielectric import PlasmaModel
from .quadrature import (
    QuadratureResult,
    SemiInfinite,
    Tolerance,
    UnitInterval,
    bracket_root,
    integrate_2d,
    integrate_semiinf,
    matsubara_sum,
)

__all__ = [
    "Geometry",
    "SlowConvergenceWarning",
    "StressDiagonal",
    "ThermalState",
    "clear_caches",
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
]

_QUARTER_PI2 = 1.0 / (4.0 * math.pi**2)
_HALF_PI2 = 1.0 / (2.0 * math.pi**2)
_IND_SCALE = 0.5


class SlowConvergenceWarning(UserWarning):
    """Issued when a requested position sits within 1e-3 of a wall.

    The integrand there decays only on the scale 1/(2*min(z, a-z)) and
    the quantities themselves grow like 1/z**3, so quadrature cost and
    cancellation both climb.  Results are still returned; for positions
    deep inside the wall region consider near_wall_asymptote instead.
    """


@dataclass(frozen=True)
class Geometry:
    """Gap geometry: evaluation position ``z`` inside a gap of width ``a``.

    Parameters
    ----------
    z : float
        Position measured from one wall, 0 < z < a.
    a : float, default 1.0
        Gap width.  All internal arithmetic uses the ratio z/a and
        reports densities in 1/a**4 units; ``a`` itself matters only for
        SI conversion.
    """

    z: float
    a: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError("gap width a must be a positive finite number")
        if not (math.isfinite(self.z) and 0.0 < self.z < self.a):
            raise ValueError("position z must satisfy 0 < z < a")

    @property
    def z_over_a(self) -> float:
        """Dimensionless position in (0, 1)."""
        return self.z / self.a


@dataclass(frozen=True)
class ThermalState:
    """Zero temperature, or a finite inverse temperature ``beta``.

    Parameters
    ----------
    beta : float or None
        Inverse temperature in units of the gap width ``a``; ``None``
        (or infinity, which normalizes to ``None``) means exactly zero
        temperature.
    """

    beta: float | None = None

    def __post_init__(self):
        if self.beta is not None:
            if math.isinf(self.beta) and self.beta > 0:
                object.__setattr__(self, "beta", None)
            elif not (math.isfinite(self.beta) and self.beta > 0.0):
                raise ValueError("beta must be positive (or None for zero temperature)")

    @classmethod
    def zero(cls) -> "ThermalState":
        """The zero-temperature state."""
        return cls(None)

    @classmethod
    def finite(cls, beta: float) -> "ThermalState":
        """A finite-temperature state with inverse temperature ``beta``."""
        return cls(float(beta))

    @property
    def is_zero(self) -> bool:
        """True when this state is exactly zero temperature."""
        return self.beta is None


@dataclass(frozen=True)
class StressDiagonal:
    """Diagonal stress tensor components, each with its error estimate.

    ``tyy`` always equals ``txx`` (the two transverse directions are
    equivalent by symmetry), and ``t00 = txx + tyy + tzz`` holds within
    the combined error estimates because the underlying integrands obey
    the tracelessness identity exactly.
    """

    t00: QuadratureResult
    txx: QuadratureResult
    tyy: QuadratureResult
    tzz: QuadratureResult


def _warn_if_near_wall(geom: Geometry) -> None:
    zr = geom.z_over_a
    if zr < 1e-3 or zr > 1.0 - 1e-3:
        warnings.warn(
            "position is within 1e-3*a of a wall; convergence is slow and the "
            "quantity grows like 1/z**3 (near_wall_asymptote gives the leading law)",
            SlowConvergenceWarning,
            stacklevel=3,
        )


def _dep_scale(z_over_a: float) -> float:
    """Decay scale of the position-dependent integrands, 1/(2*min(z, a-z))."""
    return 1.0 / (2.0 * min(z_over_a, 1.0 - z_over_a))


# ----------------------------------------------------------------------
# The spectral kernel.  In polar coordinates u = kappa, t = zeta/kappa
# (zeta = u*t, k = u*sqrt(1 - t**2), dzeta dk = u/sqrt(1 - t**2) du dt)
# every component is u**3 times a polynomial in t**2 times either the
# bound sum b or the interference term I*M.  Zero temperature integrates
# over (u, t) directly; finite temperature keeps u = kappa and
# t = zeta_n/kappa for each Matsubara frequency.
# ----------------------------------------------------------------------


def _mirror(kappa, z_over_a):
    return 0.5 * (
        np.exp(-2.0 * kappa * z_over_a) + np.exp(-2.0 * kappa * (1.0 - z_over_a))
    )


def _polar_integrands(u, t, omega_p, z_over_a, names):
    """Zero-temperature integrands over (u, t); u (r, 1), t (1, n).

    Only the named columns are formed.  With z_over_a None they are bound
    columns B0, B2, N: u**3*b, u**3*t**2*b and u**3*(1 - 3*t**2)*(b - b(t=1)).
    Otherwise position columns D, D_E, D_B: u**3*(1 - t**2)*I*M, then the
    <E**2> and <B**2> parts, which weight u**3*M*r/(1 - r**2*E) of the p
    and s polarizations by 2 - t**2 and -t**2 the one way round and the
    other.  Shape (r, n, len(names)), stored component-major.
    """
    damp = np.exp(-2.0 * u)
    r_s, r_p = dielectric.rs_rp_ut(u, t, omega_p)
    den_s = 1.0 - r_s * r_s * damp
    rp_damp = r_p * damp
    den_p = 1.0 - r_p * rp_damp
    u3 = u**3
    t2 = t * t
    if z_over_a is None:
        bound_s = r_s * r_s * damp / den_s
        bound_p = r_p * rp_damp / den_p
        bound = u3 * (bound_s + bound_p)
        # r_p = -r_s at t = 1, so b - b(t=1) = b_p - b_s: zero wherever b
        # does not depend on t, as for perfect conductors.  It integrates
        # to B0 - 3*B2, because 1 - 3*t**2 integrates to zero over t.
        columns = {
            "B0": lambda: bound,
            "B2": lambda: t2 * bound,
            "N": lambda: (u3 * (1.0 - 3.0 * t2)) * (bound_p - bound_s),
        }
    else:
        weight = u3 * _mirror(u, z_over_a)
        part_s = weight * r_s / den_s
        columns = {
            "D": lambda: (1.0 - t2) * (dielectric.rp_plus_rs_ut(u, t, omega_p)
                                       * (1.0 - r_s * rp_damp) * (weight / den_s) / den_p),
            "D_E": lambda: (2.0 - t2) * (weight * r_p / den_p) - t2 * part_s,
            "D_B": lambda: (2.0 - t2) * part_s - t2 * (weight * r_p / den_p),
        }
    return np.stack([columns[name]() for name in names]).transpose(1, 2, 0)


# ----------------------------------------------------------------------
# Assembly: zero-temperature double integrals and Matsubara sums.
#
# At zero temperature two passes give every quantity: the bound pass,
# which does not depend on the position and is kept for a profile's
# rows, and a position pass, kept for the operations of one row beside
# the field squares' pass.  At finite temperature the last point's
# quantities are kept likewise, and the z-independent tzz and bound part
# of the split's correction are kept across the rows of a profile.
# ----------------------------------------------------------------------

# Each zero-temperature quantity: its prefactor and its weights on the
# named columns of the bound pass and the position passes; see
# _polar_integrands.  A position pass forms D alone, or the field
# squares' D_E and D_B.
_ZERO_T = {
    "t00": (_HALF_PI2, {"B2": -1.0, "D": 1.0}),
    "txx": (_QUARTER_PI2, {"B0": 1.0, "B2": -1.0, "D": 1.0}),
    "tzz": (_HALF_PI2, {"B0": -1.0}),
    "nec_x": (_QUARTER_PI2, {"N": 1.0, "D": 3.0}),
    "nec_z": (_HALF_PI2, {"B0": -1.0, "B2": -1.0, "D": 1.0}),
    "sq_e": (_HALF_PI2, {"B2": -1.0, "D_E": 1.0}),
    "sq_b": (_HALF_PI2, {"B2": -1.0, "D_B": 1.0}),
}
_BOUND = ("B0", "B2", "N")
_POSITION = (("D",), ("D_E", "D_B"))


def _columns(passes):
    """{column: (value, error)} from {column names: the pass forming them}."""
    return {
        c: (p.value[i], p.error_estimate[i])
        for names, p in passes.items() for i, c in enumerate(names)
    }


@lru_cache(maxsize=3)
def _zero_t_pass(omega_p, z_over_a, tol, names) -> QuadratureResult:
    """The bound pass (z_over_a None) or a position pass of the named columns."""
    decay = _IND_SCALE if z_over_a is None else _dep_scale(z_over_a)
    return integrate_2d(
        lambda u, t: _polar_integrands(u, t, omega_p, z_over_a, names),
        SemiInfinite(decay),
        UnitInterval(),
        tol,
    )


def _zero_t(name, omega_p, z_over_a, tol) -> QuadratureResult:
    """One _ZERO_T quantity, with root-sum-square column errors."""
    prefactor, weights = _ZERO_T[name]
    passes = {_BOUND: _zero_t_pass(omega_p, None, tol, _BOUND)}
    for names in _POSITION:
        if weights.keys() & names:
            passes[names] = _zero_t_pass(omega_p, z_over_a, tol, names)
    columns = _columns(passes)
    value = sum(w * columns[c][0] for c, w in weights.items())
    error = math.sqrt(sum((w * columns[c][1]) ** 2 for c, w in weights.items()))
    return QuadratureResult(
        float(prefactor * value), float(prefactor * error),
        sum(p.evaluations for p in passes.values()),
        all(p.converged for p in passes.values()),
    )


def _thermal_integrands(omega_p, zeta, x, z_over_a, names):
    """Finite-temperature integrands at kappa = zeta + x, shared x grid.

    With k**2 = x*(x + 2*zeta) and k dk = kappa dx every inner k-integral
    becomes one over x on [0, inf).  From the bound sum b and the
    interference term k**2*I*M the kernel forms the named columns, shape
    (x.size, zeta.size, len(names)): the quantities, each one integrand,
    or the zero-T pass columns B0 = kappa**2*b, B2 = zeta**2*b,
    N = (kappa**2 - 3*zeta**2)*b and D = k**2*I*M.  tzz, B0, B2 and N
    need no position (z_over_a may be None).
    """
    kappa = x[:, None] + zeta
    t = zeta / kappa
    damp = np.exp(-2.0 * kappa)
    r_s, r_p = dielectric.rs_rp_ut(kappa, t, omega_p)
    den_s = 1.0 - r_s * r_s * damp
    den_p = 1.0 - r_p * r_p * damp
    bound = r_s * r_s * damp / den_s + r_p * r_p * damp / den_p
    kappa2b = (kappa * kappa) * bound
    z2b = zeta * zeta * bound
    if z_over_a is not None:
        pair_sum = dielectric.rp_plus_rs_ut(kappa, t, omega_p)
        inter = pair_sum * (1.0 - r_s * r_p * damp) / (den_s * den_p)
        k2 = x[:, None] * (x[:, None] + 2.0 * zeta)
        inter = k2 * inter * _mirror(kappa, z_over_a)
    # Only the named columns are formed.
    columns = {
        "tzz": lambda: -kappa2b,
        "B0": lambda: kappa2b,
        "B2": lambda: z2b,
        "N": lambda: kappa2b - 3.0 * z2b,
        "D": lambda: inter,
        "t00": lambda: inter - z2b,
        "txx": lambda: k2 * bound + inter,
        "nec_x": lambda: k2 * bound - 2.0 * z2b + 3.0 * inter,
        "nec_z": lambda: inter - z2b - kappa2b,
    }
    return np.stack([columns[name]() for name in names], axis=-1)


# The blackbody part of each quantity, times beta**4.
_BLACKBODY = {
    "t00": math.pi**2 / 15.0,
    "txx": math.pi**2 / 45.0,
    "tzz": math.pi**2 / 45.0,
    "nec_x": 4.0 * math.pi**2 / 45.0,
    "nec_z": 4.0 * math.pi**2 / 45.0,
}
_ROW = ("t00", "txx", "nec_x", "nec_z")


def _thermal_direct(omega_p, z_over_a, beta, tol, names):
    """Matsubara sums of the named quantities, term by term.

    Each term's inner-quadrature error joins the tail estimate with the
    term's weight (half for the zero frequency).
    """
    decay = _IND_SCALE if z_over_a is None else _dep_scale(z_over_a)
    parts = []

    def summand(zeta):
        def f(x):
            return _thermal_integrands(omega_p, zeta, x, z_over_a, names).reshape(x.size, -1)

        parts.append(integrate_semiinf(f, decay, tol))
        return parts[-1].value.reshape(zeta.size, -1)

    summed = matsubara_sum(summand, beta, tol)
    inner = np.vstack([p.error_estimate.reshape(-1, len(names)) for p in parts])
    inner = inner[: summed.evaluations]
    error = summed.error_estimate + (np.sum(inner, axis=0) - 0.5 * inner[0]) / beta
    evaluations = summed.evaluations + sum(p.evaluations for p in parts)
    converged = summed.converged and all(p.converged for p in parts)
    results = {}
    for name, v, err in zip(names, summed.value, error):
        pre = _ZERO_T[name][0]
        results[name] = QuadratureResult(
            float(2.0 * math.pi * pre * v + _BLACKBODY[name] / beta**4),
            float(2.0 * math.pi * pre * err), evaluations, converged,
        )
    return results


# The split.  With h = 2*pi/beta and a window w = erfc((zeta - Z)/sigma)/2,
# a kernel column g sums to
#     h*sum'(g) = int(g) + [h*sum'(g*w) - int(g*w)] + h*sum'(g*(1-w)) - int(g*(1-w)).
# int(g) is the zero-T column; the bracket takes the 21 frequencies below
# Z + 7*sigma and one double integral.  By Poisson summation the last
# difference is about 4*exp(-(beta*sigma)**2/4)*max|g|/beta, since g*(1-w)
# is flat at zeta = 0 (1 - w(0) = 1e-17).  _WINDOW holds beta times Z,
# sigma and Z + 7*sigma.
_WINDOW = (60.0, 10.0, 130.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _window(zeta_beta):
    return 0.5 * _erfc((zeta_beta - _WINDOW[0]) / _WINDOW[1]).astype(float)


# beta*h*w(zeta_n) of the 21 frequencies, half weight at n = 0.
_SPLIT_N = np.arange(math.floor(_WINDOW[2] / (2.0 * math.pi)) + 1)
_SPLIT_WEIGHTS = np.where(_SPLIT_N, 2.0, 1.0) * math.pi * _window(2.0 * math.pi * _SPLIT_N)
# That difference over max|g(zeta_n)|/beta; w(0) and the window past its
# end add less than 1e-16.
_WINDOW_MISS = 4.0 * math.exp(-0.25 * _WINDOW[1] ** 2)


def _correction(omega_p, z_over_a, beta, tol):
    """h*sum'(g*w) - int(g*w) of the bound columns (B0, B2, N), or of D."""
    names, decay = _BOUND, _IND_SCALE
    if z_over_a is not None:
        names, decay = ("D",), _dep_scale(z_over_a)
    top = _WINDOW[2] / beta
    zeta = 2.0 * math.pi * _SPLIT_N / beta

    def per_frequency(x):
        return _thermal_integrands(omega_p, zeta, x, z_over_a, names).reshape(x.size, -1)

    def windowed(x, s):
        weight = top * _window(_WINDOW[2] * s[0])
        return _thermal_integrands(omega_p, top * s[0], x[:, 0], z_over_a, names) * weight[:, None]

    terms = integrate_semiinf(per_frequency, decay, tol)
    area = integrate_2d(windowed, SemiInfinite(decay), UnitInterval(), tol)
    g = terms.value.reshape(zeta.size, -1)
    weights = _SPLIT_WEIGHTS / beta
    error = (
        weights @ terms.error_estimate.reshape(zeta.size, -1)
        + area.error_estimate
        + _WINDOW_MISS / beta * np.max(np.abs(g), axis=0)
    )
    return QuadratureResult(
        weights @ g - area.value, error,
        terms.evaluations + area.evaluations, terms.converged and area.converged,
    )


@lru_cache(maxsize=1)
def _correction_bound(omega_p, beta, tol) -> QuadratureResult:
    return _correction(omega_p, None, beta, tol)


def _thermal_split(omega_p, z_over_a, beta, tol, names):
    """Each quantity as its zero-temperature value plus its _ZERO_T
    combination of the bound and position corrections, whose errors add.
    """
    corrections = {_BOUND: _correction_bound(omega_p, beta, tol)}
    if z_over_a is not None:
        corrections[("D",)] = _correction(omega_p, z_over_a, beta, tol)
    columns = _columns(corrections)
    results = {}
    for name in names:
        prefactor, weights = _ZERO_T[name]
        zero = _zero_t(name, omega_p, z_over_a, tol)
        value = sum(w * columns[c][0] for c, w in weights.items())
        error = sum(abs(w) * columns[c][1] for c, w in weights.items())
        results[name] = QuadratureResult(
            float(zero.value + prefactor * value + _BLACKBODY[name] / beta**4),
            float(zero.error_estimate + prefactor * error),
            zero.evaluations + sum(c.evaluations for c in corrections.values()),
            zero.converged and all(c.converged for c in corrections.values()),
        )
    return results


# The split costs about as much as a direct sum of this many terms.
_SPLIT_ABOVE = 400


def _thermal(omega_p, z_over_a, beta, tol, names):
    """The named finite-temperature quantities, by the cheaper route.

    A direct sum needs about beta*ln(1/rel_tol)/(4*pi*m) terms, with m
    the nearer wall's distance (1 for tzz, whose terms decay like
    exp(-2*zeta_n)); above _SPLIT_ABOVE of them the split is cheaper.
    """
    nearest = 1.0 if z_over_a is None else min(z_over_a, 1.0 - z_over_a)
    terms = beta * math.log(1.0 / tol.rel_tol) / (4.0 * math.pi * nearest)
    path = _thermal_split if terms > _SPLIT_ABOVE else _thermal_direct
    return path(omega_p, z_over_a, beta, tol, names)


@lru_cache(maxsize=1)
def _thermal_row(omega_p, z_over_a, beta, tol) -> dict[str, QuadratureResult]:
    return _thermal(omega_p, z_over_a, beta, tol, _ROW)


@lru_cache(maxsize=1)
def _thermal_tzz(omega_p, beta, tol) -> QuadratureResult:
    # Summed on its own, so that it cannot depend on the position.
    return _thermal(omega_p, None, beta, tol, ("tzz",))["tzz"]


def clear_caches() -> None:
    """Forget all cached integrals; later results are bitwise the same."""
    _zero_t_pass.cache_clear()
    _correction_bound.cache_clear()
    _thermal_row.cache_clear()
    _thermal_tzz.cache_clear()


_DEFAULT_TOL = Tolerance()


def _resolve(thermal, tol):
    thermal = ThermalState.zero() if thermal is None else thermal
    tol = _DEFAULT_TOL if tol is None else tol
    return thermal, tol


# ----------------------------------------------------------------------
# Public operations.
# ----------------------------------------------------------------------


def mean_sq_E(
    geom: Geometry, model: PlasmaModel, *, tol: Tolerance | None = None
) -> QuadratureResult:
    """Renormalized <E**2> at position z, zero temperature, in 1/a**4.

    Parameters
    ----------
    geom : Geometry
    model : PlasmaModel
    tol : Tolerance, optional

    Returns
    -------
    QuadratureResult
        The field square relative to unbounded vacuum; the average of
        this and mean_sq_B is the energy density.
    """
    _, tol = _resolve(None, tol)
    _warn_if_near_wall(geom)
    return _zero_t("sq_e", model.omega_p, geom.z_over_a, tol)


def mean_sq_B(
    geom: Geometry, model: PlasmaModel, *, tol: Tolerance | None = None
) -> QuadratureResult:
    """Renormalized <B**2> at position z, zero temperature, in 1/a**4.

    Shares the position-independent integral with mean_sq_E; the
    position-dependent part swaps the roles of the two polarizations.
    """
    _, tol = _resolve(None, tol)
    _warn_if_near_wall(geom)
    return _zero_t("sq_b", model.omega_p, geom.z_over_a, tol)


def energy_density(
    geom: Geometry,
    model: PlasmaModel,
    thermal: ThermalState | None = None,
    *,
    tol: Tolerance | None = None,
) -> QuadratureResult:
    """Energy density T_00 at position z, in 1/a**4.

    Parameters
    ----------
    geom : Geometry
    model : PlasmaModel
    thermal : ThermalState, optional
        Defaults to zero temperature.  At finite temperature the
        frequency integral becomes the half-weighted Matsubara sum and
        the blackbody energy pi**2/(15*beta**4) is added.
    tol : Tolerance, optional

    Returns
    -------
    QuadratureResult
    """
    thermal, tol = _resolve(thermal, tol)
    _warn_if_near_wall(geom)
    wp = model.omega_p
    zr = geom.z_over_a
    if thermal.is_zero:
        return _zero_t("t00", wp, zr, tol)
    return _thermal_row(wp, zr, thermal.beta, tol)["t00"]


def pressure_zz(
    geom: Geometry,
    model: PlasmaModel,
    thermal: ThermalState | None = None,
    *,
    tol: Tolerance | None = None,
) -> QuadratureResult:
    """Longitudinal pressure T_zz, independent of z, in 1/a**4.

    Negative values mean the half-spaces attract; the magnitude is the
    force per unit area on either wall.  The integrand carries no z, so
    repeated calls at different positions return identical values.  At
    finite temperature the isotropic blackbody pressure
    pi**2/(45*beta**4) is included.
    """
    thermal, tol = _resolve(thermal, tol)
    wp = model.omega_p
    if thermal.is_zero:
        return _zero_t("tzz", wp, None, tol)
    return _thermal_tzz(wp, thermal.beta, tol)


def pressure_xx(
    geom: Geometry,
    model: PlasmaModel,
    thermal: ThermalState | None = None,
    *,
    tol: Tolerance | None = None,
) -> QuadratureResult:
    """Transverse pressure T_xx (= T_yy) at position z, in 1/a**4.

    Grows like 1/z**3 toward either wall with exactly half the energy
    density's coefficient; near_wall_asymptote returns that leading law.
    At finite temperature the isotropic blackbody pressure
    pi**2/(45*beta**4) is included.
    """
    thermal, tol = _resolve(thermal, tol)
    _warn_if_near_wall(geom)
    wp = model.omega_p
    zr = geom.z_over_a
    if thermal.is_zero:
        return _zero_t("txx", wp, zr, tol)
    return _thermal_row(wp, zr, thermal.beta, tol)["txx"]


def stress_tensor(
    geom: Geometry,
    model: PlasmaModel,
    thermal: ThermalState | None = None,
    *,
    tol: Tolerance | None = None,
) -> StressDiagonal:
    """All diagonal stress components at one point.

    Returns
    -------
    StressDiagonal
        t00 from energy_density, txx = tyy from pressure_xx, tzz from
        pressure_zz, each with its own error estimate.
    """
    t00 = energy_density(geom, model, thermal, tol=tol)
    txx = pressure_xx(geom, model, thermal, tol=tol)
    tzz = pressure_zz(geom, model, thermal, tol=tol)
    return StressDiagonal(t00=t00, txx=txx, tyy=replace(txx), tzz=tzz)


def nec_transverse(
    geom: Geometry,
    model: PlasmaModel,
    thermal: ThermalState | None = None,
    *,
    tol: Tolerance | None = None,
) -> QuadratureResult:
    """Null-energy combination T_00 + T_xx for rays along the walls.

    Nonnegative for every plasma frequency, position, and temperature;
    the margin shrinks toward zero in the perfect-conductor limit.  At
    zero temperature this combines the interference column with the
    bound sum minus its value at t = 1, both of which vanish identically
    for perfect conductors, rather than differencing two larger
    quantities.  At finite temperature each Matsubara term is a single
    integral of the combined integrand, and the blackbody part
    contributes 4*pi**2/(45*beta**4).
    """
    thermal, tol = _resolve(thermal, tol)
    _warn_if_near_wall(geom)
    wp = model.omega_p
    zr = geom.z_over_a
    if thermal.is_zero:
        return _zero_t("nec_x", wp, zr, tol)
    return _thermal_row(wp, zr, thermal.beta, tol)["nec_x"]


def nec_longitudinal(
    geom: Geometry,
    model: PlasmaModel,
    thermal: ThermalState | None = None,
    *,
    tol: Tolerance | None = None,
) -> QuadratureResult:
    """Null-energy combination T_00 + T_zz for rays normal to the walls.

    Genuinely negative in the middle of the gap once the walls reflect
    well (approaching -pi**2/180 in the perfect-conductor limit) while
    turning positive near the walls.  At zero temperature this combines
    the columns of the two polar passes; at finite temperature each
    Matsubara term is a single integral of the summed integrands of T_00
    and T_zz, and the blackbody part contributes 4*pi**2/(45*beta**4).
    """
    thermal, tol = _resolve(thermal, tol)
    _warn_if_near_wall(geom)
    wp = model.omega_p
    zr = geom.z_over_a
    if thermal.is_zero:
        return _zero_t("nec_z", wp, zr, tol)
    return _thermal_row(wp, zr, thermal.beta, tol)["nec_z"]


def near_wall_asymptote(z: float, model: PlasmaModel) -> tuple[float, float]:
    """Leading small-z forms of the energy density and transverse pressure.

    Parameters
    ----------
    z : float
        Distance from the nearer wall, > 0, in units of a.  For points
        near the far wall evaluate at a - z; the profile is symmetric.
    model : PlasmaModel

    Returns
    -------
    tuple of float
        (energy density, transverse pressure) asymptotes
        sqrt(2)*omega_p/(64*pi*z**3) and sqrt(2)*omega_p/(128*pi*z**3).
        Their ratio is exactly 2.  Valid while omega_p*z stays well
        below 1; the error is about 11 percent at omega_p*z = 0.1 and
        about 1 percent at omega_p*z = 0.01.
    """
    if not (z > 0.0):
        raise ValueError("z must be positive")
    scale = math.sqrt(2.0) * model.omega_p / (64.0 * math.pi * z**3)
    return scale, 0.5 * scale


def reference_limits() -> dict[str, float]:
    """Analytic reference constants, in 1/a**4 (coefficients of beta**-4).

    Returns
    -------
    dict
        Perfect-conductor values of the stress components and both
        null-energy combinations, and the blackbody coefficients: the
        energy density pi**2/15, the isotropic pressure pi**2/45, and
        their transverse null-energy sum 4*pi**2/45, each to be divided
        by beta**4.
    """
    pc_energy = -math.pi**2 / 720.0
    return {
        "pc_energy_density": pc_energy,
        "pc_pressure_xx": -pc_energy,
        "pc_pressure_yy": -pc_energy,
        "pc_pressure_zz": 3.0 * pc_energy,
        "pc_nec_transverse": 0.0,
        "pc_nec_longitudinal": -math.pi**2 / 180.0,
        "blackbody_energy_coeff": math.pi**2 / 15.0,
        "blackbody_pressure_coeff": math.pi**2 / 45.0,
        "blackbody_nec_transverse_coeff": 4.0 * math.pi**2 / 45.0,
    }


def critical_omega_pa(
    thermal: ThermalState | None = None,
    *,
    tol: Tolerance | None = None,
    root_rel_tol: float = 3e-4,
) -> float | None:
    """Plasma frequency at which the midpoint energy density turns negative.

    Scans omega_p*a over [1, 1e5] on a log grid up to the first sign
    change of energy_density(z = a/2), then bisects it.  Returns None when the
    energy density keeps one sign across the whole range, which is the
    expected outcome at high temperature (beta below roughly 2.6*a).

    Parameters
    ----------
    thermal : ThermalState, optional
    tol : Tolerance, optional
        Tolerance for the underlying energy evaluations; the default is
        relaxed relative to the package default because root location
        needs sign stability, not many digits.
    root_rel_tol : float, default 3e-4
        Bisection width target, relative to the log10 grid span.

    Returns
    -------
    float or None
    """
    thermal = ThermalState.zero() if thermal is None else thermal
    tol = Tolerance(rel_tol=1e-7, abs_tol=1e-10) if tol is None else tol
    # Values by log10(omega_p*a), so bisection reuses the scan's bracket ends.
    known: dict[float, float] = {}

    def midpoint_energy(log10_wp: float) -> float:
        if log10_wp not in known:
            known[log10_wp] = _midpoint_energy(10.0**log10_wp, thermal, tol)
        return known[log10_wp]

    grid = np.linspace(0.0, 5.0, 11)
    for left, right in zip(grid, grid[1:]):
        f_left, f_right = midpoint_energy(left), midpoint_energy(right)
        if f_left == 0.0:
            return 10.0**left
        if (f_left > 0.0) != (f_right > 0.0):
            root = bracket_root(
                midpoint_energy, float(left), float(right), rel_tol=root_rel_tol
            )
            if root is None:
                continue
            return 10.0**root
    return None


def _midpoint_energy(omega_p, thermal, tol) -> float:
    """energy_density at z = a/2; at finite temperature only t00 is integrated."""
    if thermal.is_zero:
        return energy_density(Geometry(z=0.5), PlasmaModel(omega_p), tol=tol).value
    return _thermal(omega_p, 0.5, thermal.beta, tol, ("t00",))["t00"].value
