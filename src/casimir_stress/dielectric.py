"""Plasma-model dielectric response and interface reflection coefficients.

Both half-spaces follow the collisionless plasma model, whose dielectric
function continued to the imaginary frequency axis (omega = i*zeta) is
eps(i*zeta) = 1 + omega_p**2 / zeta**2.  Everything downstream consumes
the S- and P-polarization reflection coefficients of a single vacuum to
half-space interface evaluated at imaginary frequency, where they are
real, bounded and sign-definite.

The naive textbook ratios cancel catastrophically when zeta is far above
or below omega_p, so the functions here use algebraically equivalent
forms built purely from sums of positive terms:

    r_s = -omega_p**2 / (kappa + kappa1)**2

    r_p = omega_p**2 * (k**2*(2*zeta**2 + omega_p**2)
                        + zeta**2*(zeta**2 + omega_p**2))
          / (kappa*(zeta**2 + omega_p**2) + zeta**2*kappa1)**2

with kappa = sqrt(k**2 + zeta**2) and kappa1 = sqrt(kappa**2 + omega_p**2)
(the plasma model makes kappa1 independent of how k and zeta split).
Both forms remain exact at zeta = 0, where they reduce to the analytic
limits r_p = 1 and r_s = -omega_p**2/(k + sqrt(k**2 + omega_p**2))**2.

Lengths are measured in units of the gap width, so ``omega_p`` here is
the dimensionless product (plasma frequency) * (gap width) / c.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record

__all__ = [
    "PlasmaModel",
    "eps_imag",
    "rs_rp",
    "rs_rp_ut",
    "rp_plus_rs_ut",
]


@record
class PlasmaModel:
    """Half-space material: a single plasma frequency in units of 1/a.

    ``omega_p = 0`` is transparent vacuum, ``omega_p = math.inf`` is the
    perfect conductor (r_s = -1, r_p = +1 at every spectral point).  A
    finite ``omega_p`` may not exceed 1e100: the reflection coefficients
    square it, and from about 1e105 they overflow.
    """

    omega_p: float

    def __post_init__(self):
        if math.isnan(self.omega_p) or self.omega_p < 0.0:
            raise ValueError("omega_p must be >= 0 (math.inf allowed)")
        if 1e100 < self.omega_p < math.inf:
            raise ValueError("a finite omega_p must be at most 1e100 (math.inf allowed)")


def eps_imag(zeta: float, model: PlasmaModel) -> float:
    """Dielectric function on the imaginary frequency axis.

    Parameters
    ----------
    zeta : float
        Imaginary frequency, >= 0, in units of 1/a.
    model : PlasmaModel

    Returns
    -------
    float
        1 + omega_p**2/zeta**2; monotonically decreasing toward 1.  For
        transparent vacuum (omega_p = 0) the value is exactly 1 at any
        zeta.  zeta = 0 with omega_p > 0 is a pole and raises ValueError;
        the reflection functions below do not need it, they use the
        analytic zeta -> 0 limits instead.
    """
    if zeta < 0.0:
        raise ValueError("zeta must be >= 0")
    if model.omega_p == 0.0:
        return 1.0
    if zeta == 0.0:
        raise ValueError("eps_imag diverges at zeta = 0 for omega_p > 0")
    return 1.0 + (model.omega_p / zeta) ** 2


def rs_rp(zeta, k, omega_p: float):
    """Reflection coefficients (r_s, r_p) at (zeta, k); array friendly.

    ``zeta`` and ``k`` may be floats or numpy arrays (broadcast
    together), ``omega_p`` is a scalar.  The point (0, 0) is outside the
    domain; no check is performed here.  The stress integrals use the
    polar form rs_rp_ut; this Cartesian form is its cross-check.
    """
    if omega_p == 0.0:
        zero = np.zeros(np.broadcast(zeta, k).shape)
        return zero, zero.copy()
    if math.isinf(omega_p):
        shape = np.broadcast(zeta, k).shape
        return -np.ones(shape), np.ones(shape)
    k2, z2, wp2 = k * k, zeta * zeta, omega_p * omega_p
    kappa = np.sqrt(z2 + k2)
    kappa1 = np.sqrt(kappa * kappa + wp2)
    rs = -wp2 / (kappa + kappa1) ** 2
    num = wp2 * (k2 * (2.0 * z2 + wp2) + z2 * (z2 + wp2))
    den = kappa * (z2 + wp2) + z2 * kappa1
    # The exact value satisfies rp <= 1 (equality at zeta = 0); rounding
    # can overshoot by one ulp, so pin the analytic bound.  Where omega_p**4
    # underflows (omega_p below about 1e-81) the ratio is 0/0 at zeta = 0,
    # and fmin reads that NaN as the bound.
    rp = np.fmin(num / (den * den), 1.0)
    return rs, rp


def rs_rp_ut(u, t, omega_p: float):
    """Reflection coefficients in polar coordinates (u, t); array friendly.

    r_s depends on u alone; r_p = (A - B*t**2)/(A + C*t**2) with u-only
    A = omega_p**2*(u + Q), B = omega_p**2*u, C = u*(u + Q)**2 and
    Q = sqrt(u**2 + omega_p**2).  A - B = omega_p**2*Q, so cancellation
    costs at most a factor (2*u + Q)/Q <= 3.  Both are the Fresnel
    coefficients at imaginary frequency, as
    test_polar_reflection_is_fresnel_at_imaginary_frequency checks.
    """
    if omega_p == 0.0:
        zero = np.zeros(np.broadcast(u, t).shape)
        return zero, zero.copy()
    if math.isinf(omega_p):
        shape = np.broadcast(u, t).shape
        return -np.ones(shape), np.ones(shape)
    wp2 = omega_p * omega_p
    upq = u + np.sqrt(u * u + wp2)
    rs = -wp2 / (upq * upq)
    a = wp2 * upq
    t2 = t * t
    # The exact value satisfies rp <= 1 (equality at t = 0); rounding can
    # overshoot by one ulp, so pin the analytic bound.  Where omega_p**2
    # underflows, the ratio is 0/0 at t = 0, and fmin reads that NaN as
    # the bound too.
    rp = np.fmin((a - (wp2 * u) * t2) / (a + (u * upq * upq) * t2), 1.0)
    return rs, rp


def rp_plus_rs_ut(u, t, omega_p: float):
    """The sum r_p + r_s without cancellation; >= 0, zero at t = 1.

    The direct sum loses all significance in the conductor regime where
    r_s -> -1 and r_p -> +1; this closed form, whose denominator terms
    are all positive, keeps full precision:

        r_p + r_s = 2*omega_p**2*u*(1 - t**2) /
            (omega_p**2*(u + Q) + u*(2*u*(u + Q) + omega_p**2)*t**2),
        Q = sqrt(u**2 + omega_p**2),

    as test_polar_reflection_is_fresnel_at_imaginary_frequency checks.
    """
    if omega_p == 0.0 or math.isinf(omega_p):
        return np.zeros(np.broadcast(u, t).shape)
    wp2 = omega_p * omega_p
    upq = u + np.sqrt(u * u + wp2)
    t2 = t * t
    # At most 1, since r_s <= 0 and r_p <= 1; as in rs_rp_ut, fmin reads
    # the 0/0 of an underflowed omega_p**2 at t = 0 as that bound.
    ratio = (2.0 * wp2 * u) * (1.0 - t2) / (wp2 * upq + (u * (2.0 * u * upq + wp2)) * t2)
    return np.fmin(ratio, 1.0)
