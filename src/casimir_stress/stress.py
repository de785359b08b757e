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
One kernel forms these as columns, each times a weight its caller picks,
and one table gives each quantity as a prefactor, a blackbody
coefficient and weights on the columns.  At zero temperature each
quantity combines integrals of columns with weight ``u**3``: three from
a bound pass that does not depend on the position, the kernel's
double integrals over ``(u, t)``, and from a position pass only those it
reads, ``D`` for the stress tensor and both null-energy combinations,
``D_E`` and ``D_B`` for the field squares.  At fixed ``u`` the position
columns are rational in ``t**2``, so the position pass integrates them
over ``t`` in closed form and over ``u`` alone.  The transverse
null-energy combination integrates the bound sum minus its value at
``t = 1``, so for perfect conductors both of its columns vanish
identically instead of cancelling.

At finite temperature the continuous frequency integral becomes a sum
over Matsubara frequencies ``zeta_n = 2*pi*n/beta`` (half weight at
``n = 0``) and the homogeneous blackbody contribution is added back:
``pi**2/(15*beta**4)`` to the energy density, one third of that to each
pressure, and ``4*pi**2/(45*beta**4)`` to both null-energy combinations.
Beyond those terms the sum approaches the zero-temperature integral only
like ``beta**-3``, and its terms decay like
``exp(-4*pi*n*min(z, a-z)/beta)``.  The same kernel runs at
``kappa = zeta_n + x`` with weight ``kappa**2``, and each quantity is a
single integrand over ``x``: its weights times the columns at every
node.  A sum is predicted to need as many terms as it takes one to fall
below ``rel_tol``.  While the midpoint row needs at most 200 of them,
fewer where ``zeta_n`` passes ``omega_p`` and the reflection
coefficients fall off too, and the sum's own position at most 400 by
the mirror factor alone, the sum is direct: blocks of frequencies share
one ``x`` grid, every evaluated frequency is summed, and the tail is
tested at each block's end until a geometric tail bound meets the
tolerance; the geometric continuation of the last two terms is added.
Near a wall the walls reflect grazing modes at any ``zeta_n``, so the
position count leaves the reflection out.  ``tzz`` counts at the
midpoint, so it takes the midpoint row's route at every position.
Beyond that (large ``beta`` or near a wall) a sum is split: each
column's zero-temperature integral plus 25 windowed Matsubara terms of
it minus their windowed integral, whatever ``beta`` and ``z`` are.  One
pass over ``x`` gives both: the terms, and the integral on a fixed
tanh-sinh rule in ``zeta`` whose weights carry the window.
Every route ends in the same assembly: a quantity is its prefactor times
its weights on the sums, their errors combined in quadrature, plus its
blackbody term.

Sign conventions: negative energy density means the vacuum energy lies
below the free-space value; negative ``pressure_zz`` means the walls
attract.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import dielectric, quadrature
from ._record import record
from .dielectric import PlasmaModel
from .quadrature import (
    QuadratureError,
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


@record
class Geometry:
    """Evaluation position ``z`` in the gap, in units of the gap width.

    Parameters
    ----------
    z : float
        Distance from one wall over the gap width ``a``, 0 < z < 1 and at
        least 1e-100: below that the position pass's decay scale 1/(2z)
        puts its nodes past the float range.  No result reads ``a``
        itself: densities come out in 1/a**4 units, and the CLI converts
        them to J/m**3 from its own ``--separation-um``.
    """

    z: float

    def __post_init__(self):
        if not (math.isfinite(self.z) and 0.0 < self.z < 1.0):
            raise ValueError("position z must satisfy 0 < z < 1")
        if self.z < 1e-100:
            raise ValueError("position z must be at least 1e-100")


@record
class ThermalState:
    """Zero temperature, or a finite inverse temperature ``beta``.

    Parameters
    ----------
    beta : float or None
        Inverse temperature in units of the gap width ``a``; ``None``
        (or infinity, which normalizes to ``None``) means exactly zero
        temperature.  A finite beta must lie within [2**-255, 2**255],
        where the blackbody terms' beta**4 is a normal float.
    """

    beta: float | None = None

    def __post_init__(self):
        if self.beta is not None:
            if math.isinf(self.beta) and self.beta > 0:
                object.__setattr__(self, "beta", None)
            elif not (math.isfinite(self.beta) and self.beta > 0.0):
                raise ValueError("beta must be positive (or None for zero temperature)")
            elif not 2.0**-255 <= self.beta <= 2.0**255:
                raise ValueError("beta must lie within [2**-255, 2**255] (about 1.7e-77 to 5.8e76)")

    @classmethod
    def finite(cls, beta: float) -> "ThermalState":
        """A finite-temperature state with inverse temperature ``beta``.

        Unlike the constructor, it refuses an infinite ``beta``, which
        here is an overflow, not zero temperature.
        """
        if not math.isfinite(beta):
            raise ValueError("beta must be a positive finite number")
        return cls(float(beta))


@record
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


def _dep_scale(z_over_a: float | None) -> float:
    """Decay scale of the integrands: 1/(2*min(z, a-z)), or 1/2 without z."""
    return 0.5 if z_over_a is None else 1.0 / (2.0 * min(z_over_a, 1.0 - z_over_a))


# ----------------------------------------------------------------------
# The spectral kernel.  In polar coordinates u = kappa, t = zeta/kappa
# (zeta = u*t, k = u*sqrt(1 - t**2), dzeta dk = u/sqrt(1 - t**2) du dt)
# every component is u**3 times a polynomial in t**2 times either the
# bound sum b or the interference term I*M.  The zero-temperature bound
# pass integrates over (u, t) directly; finite temperature keeps
# u = kappa and t = zeta_n/kappa for each Matsubara frequency.
# ----------------------------------------------------------------------


def _mirror(kappa, z_over_a):
    return 0.5 * (np.exp(-2.0 * kappa * z_over_a) + np.exp(-2.0 * kappa * (1.0 - z_over_a)))


_BOUND = ("B0", "B2", "N")
_POSITION = (("D",), ("D_E", "D_B"))


def _kernel(kappa, t, weight, omega_p, z_over_a, names):
    """The named columns at (kappa, t), each times ``weight``.

    Bound columns B0, B2, N: b, t**2*b and (1 - 3*t**2)*(b - b(t=1)).
    With z_over_a given, also the position column D = (1 - t**2)*I*M.
    Only the named columns are formed, stored component-major: shape
    (len(names), *broadcast shape), each written into that one array.
    The terms they share are formed once, overwritten in place and
    released as soon as they are used up, so that few arrays are alive
    at once: fresh memory costs page faults, which cost more than the
    arithmetic.
    """
    r_s, r_p = dielectric.rs_rp_ut(kappa, t, omega_p)
    damp = np.exp(-2.0 * kappa)
    # r_s**2*E and r_p**2*E (the latter in r_p's array), and 1 minus each.
    bound_s = r_s * r_s * damp
    den_s = 1.0 - bound_s
    rp_damp = r_p * damp
    bound_p = np.multiply(r_p, rp_damp, out=r_p)
    den_p = 1.0 - bound_p
    out = np.empty((len(names), *den_p.shape))
    column = dict(zip(names, out))
    if "D" in column:
        d = np.subtract(1.0, r_s * rp_damp, out=column["D"])
    del r_s, r_p, damp, rp_damp
    t2 = t * t
    if column.keys() & set(_BOUND):
        bound_s /= den_s
        bound_p /= den_p
        bound = np.add(bound_s, bound_p, out=column.get("B0"))
        bound *= weight
        if "B2" in column:
            np.multiply(t2, bound, out=column["B2"])
        if "N" in column:
            # r_p = -r_s at t = 1, so b - b(t=1) = b_p - b_s: zero wherever
            # b does not depend on t, as for perfect conductors.  It
            # integrates to B0 - 3*B2, because 1 - 3*t**2 integrates to
            # zero over t.
            n = np.subtract(bound_p, bound_s, out=column["N"])
            n *= weight * (1.0 - 3.0 * t2)
    del bound_s, bound_p
    if "D" in column:
        d *= dielectric.rp_plus_rs_ut(kappa, t, omega_p)
        d *= weight * _mirror(kappa, z_over_a) / den_s
        d /= den_p
        d *= 1.0 - t2
    return out


# ----------------------------------------------------------------------
# The zero-temperature position columns, integrated over t in closed
# form.  As in dielectric.rs_rp_ut, r_p = (A - B*tau)/(A + C*tau) with
# tau = t**2, A = omega_p**2*(u + Q), B = omega_p**2*u, C = u*(u + Q)**2
# and Q = sqrt(u**2 + omega_p**2).  With s = exp(-u), E = s**2,
#     1 - r_p**2*E = f1*f2/(A + C*tau)**2,   f_i = a_i + c_i*tau,
#     a1 = A*(1 - s), c1 = C + s*B,   a2 = A*(1 + s), c2 = C - s*B,
# and, exactly, with no pole A + C*tau left:
#     (r_p + r_s)*(1 - r_s*r_p*E)/(1 - r_p**2*E)
#         = B*(1 - tau)*[(1 - r_s*s)/f1 + (1 + r_s*s)/f2],
#     r_p/(1 - r_p**2*E) = (A - B*tau)*(1/f1 + 1/f2)/2.
# Every t-integral is then a sum of the moments
#     V_k(lam) = int_0^1 t**(2k)/(1 + lam*t**2) dt,   k = 0, 1, 2,
# at lam_i = c_i/a_i, over a_i.  With h = u/(u + Q), g2 = (omega_p/(u + Q))**2
# = 1 - 2*h = -r_s and r = omega_p/u, every factor is a sum of positive
# terms:
#     1/lam1 = (1 - s)*r**2/(2 + h*(1 + s)*r**2),
#     1/lam2 = (1 + s)*r**2/(2 + h*(1 - s)*r**2),
#     1 - r_s*s = 1 + g2*s,   1 + r_s*s = (1 - s) + 2*h*s,
# and den_s = 1 - r_s**2*E is the product of the last two.  The moments
# take 1/sqrt(lam), which is about omega_p/(sqrt(2)*u) at large u: lam
# itself would overflow there for omega_p below about 1e-150.
# _position forms D, D_E and D_B from these, and (D_E + D_B)/2 = D, so
# that t00 = (<E**2> + <B**2>)/2.  tests/test_derivation.py checks these
# identities in test_position_pass_factors_without_poles and
# test_field_squares_average_to_the_interference_column.
# ----------------------------------------------------------------------

def _clenshaw_curtis(n):
    """The (n + 1)-point Clenshaw-Curtis rule on [-1, 1], folded onto [0, 1]
    for even integrands: tau = t**2 at its nodes t = cos(k*pi/n),
    k = 0..n/2, and their weights, the middle node t = 0 with half its own.
    """
    k = np.arange(n // 2 + 1)
    j = np.arange(1, n // 2 + 1)
    b = np.where(j == n // 2, 1.0, 2.0) / (4.0 * j * j - 1.0)
    weight = np.where((k == 0) | (k == n // 2), 1.0, 2.0) / n * (
        1.0 - np.cos((2.0 * math.pi / n) * k[:, None] * j) @ b)
    return np.cos(math.pi * k / n) ** 2, weight


# For lam <= 1 the moments' poles lie at least 1 from [-1, 1], where 48
# intervals are exact to rounding.
_CC_TAU, _CC_WEIGHT = _clenshaw_curtis(48)
_CC_MOMENTS = _CC_WEIGHT * _CC_TAU ** np.arange(3)[:, None]


def _t_moments(q):
    """V_0, V_1, V_2 at lam = 1/q**2, for every q >= 0: shape (3, *q.shape).

    Clenshaw-Curtis up to lam = 1.  Above, V_0 = arctan(sqrt(lam))/sqrt(lam)
    and V_k = (1/(2k - 1) - V_(k-1))/lam, which loses at most a factor 15;
    in terms of q, which stays finite where lam would overflow.  Both
    forms: test_t_moments_closed_form_and_recurrence.
    """
    moments = np.empty((3, *q.shape))
    small = q >= 1.0
    q2 = (q[small] ** 2)[:, None]
    moments[:, small] = _CC_MOMENTS @ (q2 / (q2 + _CC_TAU)).T
    q = q[~small]
    inverse = q * q
    v0 = q * np.arctan2(1.0, q)
    v1 = inverse * (1.0 - v0)
    moments[:, ~small] = v0, v1, inverse * (1.0 / 3.0 - v1)
    return moments


def _position(u, omega_p, z_over_a, names):
    """The named position columns' t-integrals at u, weight u**3: shape (u.size, len(names)).

    Each is u**2*M times a factor that grows at most like u, and u**2*M
    is formed from u*exp(-u*z) so that neither overflows for any z the
    Geometry admits.
    """
    u2m = 0.5 * ((u * np.exp(-u * z_over_a)) ** 2 + (u * np.exp(-u * (1.0 - z_over_a))) ** 2)
    out = np.zeros((u.size, len(names)))
    column = dict(zip(names, out.T))
    if math.isinf(omega_p):
        # r_p = -r_s = 1: D vanishes, and the field squares are
        # +-2*u**3*M/(1 - E).
        if "D_E" in column:
            column["D_E"][:] = 2.0 * u2m * u / -np.expm1(-2.0 * u)
            column["D_B"][:] = -column["D_E"]
        return out
    upq = u + np.sqrt(u * u + omega_p * omega_p)
    h = u / upq
    g2 = (omega_p / upq) ** 2
    s = np.exp(-u)
    den = np.stack([-np.expm1(-u), 1.0 + s])
    r = omega_p / u
    v0, v1, v2 = _t_moments(r * np.sqrt(den / (2.0 + h * den[::-1] * r * r)))
    # 1 + r_s*s and 1 - r_s*s.
    rs_plus = den[0] + 2.0 * h * s
    rs_minus = 1.0 + g2 * s
    if "D" in column:
        poles = (v0 - 2.0 * v1 + v2) / (den * np.stack([rs_plus, rs_minus]))
        column["D"][:] = u2m * (u * h) * (poles[0] + poles[1])
    if "D_E" in column:
        bound_s = g2 / (rs_plus * rs_minus)
        p_e = ((2.0 * v0 - v1) - h * (2.0 * v1 - v2)) / den
        p_b = (v1 - h * v2) / den
        column["D_E"][:] = u2m * u * (0.5 * (p_e[0] + p_e[1]) + bound_s / 3.0)
        column["D_B"][:] = -u2m * u * (0.5 * (p_b[0] + p_b[1]) + 5.0 / 3.0 * bound_s)
    return out


# ----------------------------------------------------------------------
# Assembly.  Every quantity is its prefactor times its weights on a set
# of sums, plus its blackbody term at finite temperature.  A sum is a
# zero-temperature integral of columns, a split column (that
# integral plus a windowed Matsubara correction) or a direct Matsubara
# sum of a quantity's combined column.  _joined builds every combined
# result by one rule: evaluations add, and it is converged only if every
# part is.  Two memos keep the sums: those that read no position, which
# a profile's rows share, and the last position's, which the operations
# of one row share.
# ----------------------------------------------------------------------

# Each quantity: its prefactor, its blackbody part times beta**4 (None
# for the field squares, which are evaluated at zero temperature only)
# and its weights on the columns.  A zero-temperature position pass forms
# D alone, or the field squares' D_E and D_B, which only it forms.
# tests/test_derivation.py checks the table's identities exactly.
_QUANTITIES = {
    "t00": (_HALF_PI2, math.pi**2 / 15.0, {"B2": -1.0, "D": 1.0}),
    "txx": (_QUARTER_PI2, math.pi**2 / 45.0, {"B0": 1.0, "B2": -1.0, "D": 1.0}),
    "tzz": (_HALF_PI2, math.pi**2 / 45.0, {"B0": -1.0}),
    "nec_x": (_QUARTER_PI2, 4.0 * math.pi**2 / 45.0, {"N": 1.0, "D": 3.0}),
    "nec_z": (_HALF_PI2, 4.0 * math.pi**2 / 45.0, {"B0": -1.0, "B2": -1.0, "D": 1.0}),
    "sq_e": (_HALF_PI2, None, {"B2": -1.0, "D_E": 1.0}),
    "sq_b": (_HALF_PI2, None, {"B2": -1.0, "D_B": 1.0}),
}
_ROW = ("t00", "txx", "nec_x", "nec_z")


def _summed(weights):
    """Column weights under a Matsubara sum.

    N's subtraction of b(t=1) integrates to zero over continuous t but
    not under a sum over zeta_n, so a sum reads N as B0 - 3*B2.
    """
    weights = dict(weights)
    n = weights.pop("N", 0.0)
    if n:
        weights["B0"] = weights.get("B0", 0.0) + n
        weights["B2"] = weights.get("B2", 0.0) - 3.0 * n
    return weights


def _matrix(weights):
    """The columns that a list of weights reads, and the weights as rows on them."""
    columns = tuple(dict.fromkeys(c for w in weights for c in w))
    return columns, np.array([[w.get(c, 0.0) for c in columns] for w in weights])


def _joined(value, error, *parts, met=True) -> QuadratureResult:
    """A result combined from ``parts``: their evaluations add, and it is
    converged only if every part is and ``met`` holds.  Every combined
    result is built here."""
    return QuadratureResult(value, error, sum(p.evaluations for p in parts),
                            met and all(p.converged for p in parts))


def _zero_t_pass(omega_p, z_over_a, tol, names) -> QuadratureResult:
    """The bound pass of _kernel's columns over (u, t) (z_over_a None), or
    a position pass of the named columns' closed-form t-integrals over u."""
    if z_over_a is not None:
        return integrate_semiinf(lambda u: _position(u, omega_p, z_over_a, names),
                                 _dep_scale(z_over_a), tol)
    return integrate_2d(lambda u, t: _kernel(u, t, u**3, omega_p, None, names).transpose(1, 2, 0),
                        SemiInfinite(_dep_scale(None)), UnitInterval(), tol)


def _frequency_integrals(zeta, matrix, omega_p, z_over_a, tol, names, weights=None):
    """One x-integral per row of ``matrix`` and frequency of ``zeta`` (n, 1);
    with ``weights`` (n, k), one per row of ``matrix`` and column of
    ``weights``, of the frequencies' integrands summed with that column.

    With kappa = zeta + x, k**2 = x*(x + 2*zeta) and k dk = kappa dx
    every inner k-integral becomes one over x on [0, inf), and the kernel
    with weight kappa**2 gives B0 = kappa**2*b, B2 = zeta**2*b and
    D = k**2*I*M.  ``matrix`` combines the named columns; values and
    errors run over its rows, then over zeta or the columns of
    ``weights``.  The kernel takes whole rows of frequencies, as many as
    fit in half of quadrature._BLOCK nodes and one at least; x has at
    most _BLOCK nodes, so no call exceeds a block.  With ``weights`` each
    block is contracted as it is formed, so that no array spans every
    frequency.  All the kernel's arrays have the full node shape here,
    and with half a block the memory a call frees stays with the
    allocator for the next one: a thermal run faults half as often as
    with whole blocks, at the same compute time.  Where omega_p**2
    underflows, the reflection kernels divide 0 by 0 at zeta = 0 and
    read the NaN as their bound, so that warning is silenced.  Every x
    node evaluates the kernel at each frequency, so the pass may take
    ``tol.max_evaluations // zeta.size`` x nodes (15 at least), and its
    ``evaluations`` count those kernel points.
    """
    width = zeta.size if weights is None else weights.shape[1]

    @np.errstate(invalid="ignore")
    def f(x):
        out = (np.empty if weights is None else np.zeros)((len(matrix), width * x.size))
        rows = max(1, quadrature._BLOCK // (2 * x.size))
        for i in range(0, zeta.size, rows):
            kappa = zeta[i : i + rows] + x
            values = _kernel(kappa, zeta[i : i + rows] / kappa, kappa**2, omega_p, z_over_a, names)
            if weights is None:
                np.matmul(matrix, values.reshape(len(names), -1),
                          out=out[:, i * x.size : (i + rows) * x.size])
            else:
                out += matrix @ (weights[i : i + rows].T @ values).reshape(len(names), -1)
        return out.reshape(-1, x.size).T

    budget = Tolerance(tol.rel_tol, tol.abs_tol, max(15, tol.max_evaluations // zeta.size))
    r = integrate_semiinf(f, _dep_scale(z_over_a), budget)
    return QuadratureResult(r.value, r.error_estimate, r.evaluations * zeta.size, r.converged)


def _thermal_direct(omega_p, z_over_a, beta, tol, names) -> QuadratureResult:
    """Matsubara sums of the named quantities' combined columns, term by term.

    Each quantity is one integrand, its weights times the kernel's
    columns at every node, so that each meets the tolerance on its own.
    Every evaluated frequency is summed; the tail is tested at each
    block's end, and its geometric continuation added.  Each term's
    inner-quadrature error joins the tail estimate with the term's
    weight (half for the zero frequency).
    """
    columns, matrix = _matrix([_summed(_QUANTITIES[name][2]) for name in names])
    parts = []

    def summand(zeta):
        parts.append(_frequency_integrals(zeta[:, None], matrix, omega_p, z_over_a, tol, columns))
        return parts[-1].value.reshape(len(names), zeta.size).T

    summed = matsubara_sum(summand, beta, tol)
    inner = np.vstack([p.error_estimate.reshape(len(names), -1).T for p in parts])
    return _joined(summed.value,
                   summed.error_estimate + (np.sum(inner, axis=0) - 0.5 * inner[0]) / beta,
                   *parts, met=summed.converged)


# The split.  With h = 2*pi/beta and a window w = erfc((zeta - Z)/sigma)/2,
# a kernel column g sums to
#     h*sum'(g) = int(g) + [h*sum'(g*w) - int(g*w)] + h*sum'(g*(1-w)) - int(g*(1-w)).
# int(g) is the zero-T column; the bracket takes the 25 frequencies below
# Z + 7*sigma and the windowed integral, on the level-5 tanh-sinh rule of
# s = zeta/(Z + 7*sigma) with w in its weights: 256 frequencies in all.
# Of the rule's 382 nodes the 231 whose windowed weight exceeds 1e-20 of
# the largest are kept: erfc has killed the window at the others.  The
# level-4 sum of the same nodes (every other one) gives the rule's error.
# By Poisson summation the last difference is about
# 4*exp(-(beta*sigma)**2/4)*max|g|/beta, 9.3e-16*max|g|/beta, since
# g*(1-w) is flat at zeta = 0 (1 - w(0) = 1e-17).  _WINDOW holds beta
# times Z, sigma and Z + 7*sigma; scaling all three alike leaves the
# window, its rule and its kept nodes the same in s.
_WINDOW = (72.0, 12.0, 156.0)


def _window(zeta_beta):
    return np.array([0.5 * math.erfc((v - _WINDOW[0]) / _WINDOW[1]) for v in zeta_beta])


# beta*h*w(zeta_n) of the 25 frequencies, half weight at n = 0.
_SPLIT_N = np.arange(math.floor(_WINDOW[2] / (2.0 * math.pi)) + 1)
_SPLIT_WEIGHTS = np.where(_SPLIT_N, 2.0, 1.0) * math.pi * _window(2.0 * math.pi * _SPLIT_N)
# That difference over max|g(zeta_n)|/beta; w(0) and the window past its
# end add less than 1e-16.
_WINDOW_MISS = 4.0 * math.exp(-0.25 * _WINDOW[1] ** 2)


def _split_rule(floor):
    """The split's frequencies times beta, shape (n, 1), and its
    contraction (n, 27): the 25 zeta_n, each its own column, then the
    rule's nodes whose windowed weight exceeds ``floor`` times the
    largest, with beta times their level-5 and level-4 weights."""
    s, by_level = quadrature._axis(None, 5, None, False)
    levels = by_level @ np.array([[1.0, 2.0]] * 5 + [[1.0, 0.0]])
    rule = levels * (_WINDOW[2] * quadrature._DE_STEP / 2**5 * _window(_WINDOW[2] * s))[:, None]
    keep = rule[:, 0] > floor * rule[:, 0].max()
    contraction = np.eye(_SPLIT_N.size + keep.sum(), _SPLIT_N.size + 2)
    contraction[_SPLIT_N.size :, -2:] = rule[keep]
    return np.concatenate([2.0 * math.pi * _SPLIT_N, _WINDOW[2] * s[keep]])[:, None], contraction


_SPLIT_ZETA, _SPLIT_RULE = _split_rule(1e-20)


def _split(omega_p, z_over_a, beta, tol, names) -> QuadratureResult:
    """The named columns (B0, B2 and N, or D) split: each one's
    zero-temperature integral plus h*sum'(g*w) - int(g*w) of it, N's
    being that of B0 - 3*B2.  One x-pass gives each column's 25 terms
    and its windowed integral at levels 5 and 4, all over beta.  The
    errors add: the zero-T pass's, the x-pass's, the rule's change
    |S5 - S4| and the aliasing bound.  The rule's change must meet the
    column's tolerance for the flag, not the windowed integral's: where
    omega_p*beta is small the rule resolves that integral only to about
    1e-6 of itself, yet to 1e-12 of the column, which its zero-temperature
    integral dominates.  The aliasing bound does not enter the flag.
    """
    columns, matrix = _matrix([_summed({c: 1.0}) for c in names])
    zero = _zero_t_pass(omega_p, z_over_a, tol, names)
    sums = _frequency_integrals(_SPLIT_ZETA / beta, matrix / beta, omega_p, z_over_a, tol,
                                columns, _SPLIT_RULE)
    value, error = (a.reshape(len(names), -1) for a in (sums.value, sums.error_estimate))
    g, fine, rule = value[:, :-2], value[:, -2], np.abs(value[:, -2] - value[:, -1])
    error = (error[:, :-2] @ _SPLIT_WEIGHTS + error[:, -2] + rule
             + _WINDOW_MISS * np.max(np.abs(g), axis=1))
    value = zero.value + g @ _SPLIT_WEIGHTS - fine
    return _joined(value, zero.error_estimate + error, zero, sums,
                   met=bool(np.all(rule <= np.maximum(tol.abs_tol, tol.rel_tol * np.abs(value)))))


def _sums(omega_p, z_over_a, beta, tol, names) -> QuadratureResult:
    """The named columns at zero temperature or split, or the named
    quantities' direct Matsubara sums; values and errors run over names."""
    if beta is None:
        return _zero_t_pass(omega_p, z_over_a, tol, names)
    if names[0] in _QUANTITIES:
        return _thermal_direct(omega_p, z_over_a, beta, tol, names)
    return _split(omega_p, z_over_a, beta, tol, names)


# The memos, each sized by the kinds of entry it holds.  The sums that
# read no position: the bound columns (at zero temperature or split) and
# tzz's direct sum.  The last position's: a row's own sums and the field
# squares' columns.  They are the only evaluation caches.
_unplaced = lru_cache(maxsize=2)(_sums)
_placed = lru_cache(maxsize=2)(_sums)


def clear_caches() -> None:
    """Forget all kept sums; later results are bitwise the same."""
    _unplaced.cache_clear()
    _placed.cache_clear()


# A thermal sum is direct while the midpoint row is predicted to need at
# most this many terms, and its own position at most twice as many
# (_direct).  The factor 2 puts the position limit at 400 terms,
# calibrated at omega_p = 100 only: there a split row near a wall whose
# midpoint stays direct also sums tzz directly and pays for the bound
# columns' split, and it met the direct row near 400 terms.  The limits
# were timed before the split's windowed integral became an x-pass, and
# now lie above the crossover: tests/route_table.py times each route of
# a row for a retune (ROADMAP item 19 step 3, a count of kernel points).
_SPLIT_ABOVE = 200


def _falloff(n, omega_p, beta) -> float:
    """ln of a midpoint sum's first term over its n-th: zeta_n from the
    mirror factor, plus -ln|r_s| = 2*asinh(zeta_n/omega_p) at normal
    incidence, which grows once zeta_n passes omega_p and the walls stop
    reflecting (infinite at omega_p = 0, where every term vanishes)."""
    zeta = 2.0 * math.pi * n / beta
    return zeta + (2.0 * math.asinh(zeta / omega_p) if omega_p else math.inf)


def _direct(omega_p, z_over_a, beta, tol) -> bool:
    """Whether a thermal sum at z_over_a is taken directly: the midpoint's
    term _SPLIT_ABOVE is predicted to fall below rel_tol, and the position
    needs at most 2*_SPLIT_ABOVE terms by the mirror factor alone,
    beta*ln(1/rel_tol)*_dep_scale/(2*pi).  The reflection counts only at
    the midpoint: near a wall the terms are set by grazing modes, which
    the walls reflect at any zeta_n, so that they fall like 1/n**2.  A sum
    that reads no position (z_over_a None) counts at the midpoint alone,
    so that it takes the midpoint row's route whatever the position."""
    log_tol = math.log(1.0 / tol.rel_tol)
    return _falloff(_SPLIT_ABOVE, omega_p, beta) >= log_tol and (
        z_over_a is None
        or beta * log_tol * _dep_scale(z_over_a) / (2.0 * math.pi) <= 2 * _SPLIT_ABOVE)


def _quantity(name, geom, model, thermal=None, tol=None) -> QuadratureResult:
    """A _QUANTITIES entry at geom's position, or at none if it reads no
    position column: its prefactor times its weights on its sums, the
    errors combined by hypot, plus blackbody/beta**4 at finite
    temperature.

    Zero temperature and the split read the bound columns and the
    position columns that the weights name.  A direct Matsubara sum
    reads the quantity's own combined column with weight 1, summed at a
    position together with the rest of _ROW.  _direct picks the route from
    the predicted terms, beta*ln(1/rel_tol)*_dep_scale/(2*pi) by the
    mirror factor and fewer at the midpoint where the walls stop
    reflecting.  A row is direct up to _SPLIT_ABOVE of them at the
    midpoint and twice that at its position; tzz counts at the midpoint
    and takes the midpoint row's route.
    """
    tol = tol or Tolerance()
    beta = None if thermal is None else thermal.beta
    prefactor, blackbody, weights = _QUANTITIES[name]
    z_over_a = geom.z if weights.keys() - set(_BOUND) else None
    direct = beta is not None and _direct(model.omega_p, z_over_a, beta, tol)
    if direct:
        wanted = [(z_over_a, (name,) if z_over_a is None else _ROW)]
        prefactor, weights = 2.0 * math.pi * prefactor, {name: 1.0}
    else:
        wanted = [(None, _BOUND)]
        wanted += [(z_over_a, names) for names in _POSITION if weights.keys() & names]
    parts = [(names, (_unplaced if z is None else _placed)(model.omega_p, z, beta, tol, names))
             for z, names in wanted]
    columns = {c: (p.value[i], p.error_estimate[i])
               for names, p in parts for i, c in enumerate(names)}
    value = prefactor * sum(w * columns[c][0] for c, w in weights.items())
    if beta is not None:
        value += blackbody / beta**4
    error = prefactor * math.hypot(*(w * columns[c][1] for c, w in weights.items()))
    return _joined(float(value), float(error), *(p for _, p in parts))


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
    return _quantity("sq_e", geom, model, tol=tol)


def mean_sq_B(
    geom: Geometry, model: PlasmaModel, *, tol: Tolerance | None = None
) -> QuadratureResult:
    """Renormalized <B**2> at position z, zero temperature, in 1/a**4.

    Shares the position-independent integral with mean_sq_E; the
    position-dependent part swaps the roles of the two polarizations.
    """
    return _quantity("sq_b", geom, model, tol=tol)


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
    return _quantity("t00", geom, model, thermal, tol)


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
    return _quantity("tzz", geom, model, thermal, tol)


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
    return _quantity("txx", geom, model, thermal, tol)


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
    tyy = QuadratureResult(txx.value, txx.error_estimate, txx.evaluations, txx.converged)
    return StressDiagonal(t00=t00, txx=txx, tyy=tyy, tzz=tzz)


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
    return _quantity("nec_x", geom, model, thermal, tol)


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
    return _quantity("nec_z", geom, model, thermal, tol)


def near_wall_asymptote(z: float, model: PlasmaModel) -> tuple[float, float]:
    """Leading small-z forms of the energy density and transverse pressure.

    Parameters
    ----------
    z : float
        Distance from the nearer wall, > 0, in units of a.  For points
        near the far wall evaluate at 1 - z; the profile is symmetric.
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
        by beta**4.  test_conductor_constants_follow_from_zeta_4 derives
        the conductor values from zeta(4).
    """
    pc_energy = -math.pi**2 / 720.0
    return {
        "pc_energy_density": pc_energy,
        "pc_pressure_xx": -pc_energy,
        "pc_pressure_yy": -pc_energy,
        "pc_pressure_zz": 3.0 * pc_energy,
        "pc_nec_transverse": 0.0,
        "pc_nec_longitudinal": -math.pi**2 / 180.0,
        "blackbody_energy_coeff": _QUANTITIES["t00"][1],
        "blackbody_pressure_coeff": _QUANTITIES["txx"][1],
        "blackbody_nec_transverse_coeff": _QUANTITIES["nec_x"][1],
    }


# critical_omega_pa's default tolerance and its root search's relative
# width in x = 1/(omega_p*a), which bounds the relative uncertainty of
# the returned omega_p*a too.  Root location needs sign stability, not many
# digits, so the tolerance is relaxed relative to the package default.
# The CLI prints the width, 0.35%, as bracket_rel_width.
CRITICAL_TOLERANCE = Tolerance(rel_tol=1e-7, abs_tol=1e-10)
CRITICAL_REL_WIDTH = 10.0**0.0015 - 1.0


def critical_omega_pa(
    thermal: ThermalState | None = None,
    *,
    tol: Tolerance | None = None,
) -> float | None:
    """Plasma frequency at which the midpoint energy density turns negative.

    One ``bracket_root`` call on energy_density(z = a/2) over
    x = 1/(omega_p*a) in [0, 1], narrowed to CRITICAL_REL_WIDTH by
    safeguarded regula falsi (8 evaluations at zero temperature, at
    beta = 5*a and just above beta*): its ends are omega_p*a = 1 and the
    perfect conductor, which PlasmaModel(inf) evaluates exactly.  Between
    them the midpoint energy density changes sign at most once, so a root
    exists exactly when the two ends differ in sign.  Returns None when
    they do not, which is the outcome at high temperature: the
    conductor's energy density is positive for beta below
    beta* = 3.0402*a, where the root diverges like 1/(beta - beta*).

    Parameters
    ----------
    thermal : ThermalState, optional
    tol : Tolerance, optional
        Tolerance for the underlying energy evaluations; the default is
        ``CRITICAL_TOLERANCE``.

    Returns
    -------
    float or None
        omega_p*a, infinite if the conductor's energy density is exactly 0.

    Raises
    ------
    QuadratureError
        When an evaluation did not converge, since a sign read from it can
        put the root anywhere.
    """
    tol = CRITICAL_TOLERANCE if tol is None else tol

    def omega_pa(x: float) -> float:
        return 1.0 / x if x else math.inf

    def midpoint_energy(x: float) -> float:
        res = energy_density(Geometry(z=0.5), PlasmaModel(omega_pa(x)), thermal, tol=tol)
        if not res.converged:
            raise QuadratureError(f"energy_density did not converge at omega_p*a = {omega_pa(x):g}")
        return res.value

    x = bracket_root(midpoint_energy, 0.0, 1.0, rel_tol=CRITICAL_REL_WIDTH)
    return None if x is None else omega_pa(x)
