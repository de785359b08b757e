"""Closed-form laws of the stress tensor where the quadrature is hardest.

Small plasma frequency.  In the p-wave layer ``t < omega_p/u`` let
``s = sqrt(2)*u*t/omega_p``; there ``r_p -> 1/(1 + s**2)`` and
``r_s = O(omega_p**2)``.  Expanding the bound sum as
``sum_{n>=1} (r_p**2*exp(-2*u))**n`` and using

* ``int_0^inf (1 + s**2)**(-2n) ds = (sqrt(pi)/2)*Gamma(2n - 1/2)/Gamma(2n)``,
* ``int_0^inf u**2*exp(-2*n*u) du = 1/(4*n**3)``,

the longitudinal pressure at zero temperature is

    tzz = -SMALL_OMEGA_P_PRESSURE * omega_p * (1 + O(omega_p**2)),
    SMALL_OMEGA_P_PRESSURE = sqrt(pi)/(16*sqrt(2)*pi**2)
                             * sum_{n>=1} Gamma(2n - 1/2)/(Gamma(2n)*n**3).

Its remainder reads about ``-1.8*omega_p**2`` relative at ``omega_p =
1e-4`` and ``1e-6``.
"""

from __future__ import annotations

import mpmath


def _small_omega_p_pressure() -> float:
    # The series converges like n**-3.5, which the default nsum method
    # (Richardson and Shanks) does not extrapolate well: at 25 digits it
    # reads 6.7e-11 low.  Levin's transformation gets every digit.
    with mpmath.workdps(25):
        series = mpmath.nsum(lambda n: mpmath.gamma(2 * n - 0.5) / (mpmath.gamma(2 * n) * n**3),
                             [1, mpmath.inf], method="levin")
        return float(mpmath.sqrt(mpmath.pi) / (16 * mpmath.sqrt(2) * mpmath.pi**2) * series)


SMALL_OMEGA_P_PRESSURE = _small_omega_p_pressure()  # 0.007810418558012995...
