"""The perfect conductor's stress tensor at finite temperature, in closed form.

With ``a = 1``, ``zeta_n = 2*pi*n/beta`` and ``sum'`` halving the
``n = 0`` term, the Lifshitz free energy per area at ``r_s = -1``,
``r_p = 1`` is

    f(beta) = -(1/(4*pi*beta)) * sum'_n [2*zeta_n*Li_2(e**(-2*zeta_n))
                                         + Li_3(e**(-2*zeta_n))],

each frequency's ``k``-integral of ``2*ln(1 - e**(-2*kappa))`` done by the
series in ``e**(-2*kappa)``.  Its ``beta``-derivatives are analytic: with
``d/dzeta Li_k(e**(-2*zeta)) = -2*Li_(k-1)(e**(-2*zeta))`` the bracket's
derivative in ``zeta`` is ``-4*zeta*Li_1``, and ``dzeta_n/dbeta =
-zeta_n/beta``, so

    g'(beta) = d(beta*f)/dbeta = -(1/(pi*beta)) * sum_n zeta_n**2*Li_1(e**(-2*zeta_n)).

The energy is ``g'``, the pressure on the walls ``-d(a**-3*f(beta/a))/da``
at ``a = 1``, which is ``3*f + beta*f' = 2*f + g'``, and each gets the
blackbody term the package adds: ``pi**2/15`` and ``pi**2/45`` over
``beta**4``.  ``txx`` follows from ``t00 = 2*txx + tzz``.  Every component
is the same at every position.  None of this shares a formula with the
package's Matsubara sums, the split at large ``beta`` included.

The sums run at 30 digits until ``e**(-2*zeta_n)`` falls below
``1e-30``, so each value returned is the float nearest the exact one, to
within half an ulp: ``own_error``.  The number of terms grows like
``beta``: 29 at ``beta = 5``, 5,499 at ``beta = 1000``.

``F = f - pi**2/(45*beta**4)`` obeys the temperature-inversion symmetry
``F(4/beta) = (beta/2)**4*F(beta)``.  Since ``t00 = F + beta*F'`` and
``tzz = 3*F + beta*F'``, ``nec_z = 4*F + 2*beta*F'``; differentiating
the symmetry at its self-dual point ``beta = 2`` gives ``F'(2) = -F(2)``,
so ``nec_z`` vanishes at exactly ``beta = 2a``.  Run as a script,
it prints the conductor's components at ``beta = 1000``, which
``tests/_frozen.py`` stores::

    python3 tests/conductor_thermal.py
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 30


def _free_energy_terms(beta):
    """(f, g') at ``beta``, as mpmath numbers."""
    beta = mpmath.mpf(beta)
    last = int(beta * DIGITS * math.log(10.0) / (4.0 * math.pi)) + 2
    f = -mpmath.zeta(3) / 2  # n = 0, half weight: Li_3(1)
    g = mpmath.mpf(0)
    for n in range(1, last + 1):
        zeta = 2 * mpmath.pi * n / beta
        x = mpmath.exp(-2 * zeta)
        f -= 2 * zeta * mpmath.polylog(2, x) + mpmath.polylog(3, x)
        g += zeta**2 * mpmath.log1p(-x)  # -zeta**2 * Li_1(x)
    return f / (4 * mpmath.pi * beta), g / (mpmath.pi * beta)


def conductor_stress(beta: float) -> dict[str, float]:
    """t00, txx, tzz and nec_z of perfect conductors at ``beta``, in 1/a**4."""
    with mpmath.workdps(DIGITS):
        f, g = _free_energy_terms(beta)
        blackbody = mpmath.pi**2 / (15 * mpmath.mpf(beta) ** 4)
        t00 = g + blackbody
        tzz = 2 * f + g + blackbody / 3
        return {"t00": float(t00), "txx": float((t00 - tzz) / 2),
                "tzz": float(tzz), "nec_z": float(t00 + tzz)}


def symmetric_free_energy(beta):
    """(F, F') at ``beta``: F = f - pi**2/(45*beta**4), the conductor's
    free energy plus the gap's blackbody free energy, which has the
    temperature-inversion symmetry, and its analytic derivative
    F' = (g' - f)/beta + 4*pi**2/(45*beta**5).  Call it within
    ``mpmath.workdps(DIGITS)`` to keep the digits."""
    f, g = _free_energy_terms(beta)
    body = mpmath.pi**2 / (45 * mpmath.mpf(beta) ** 4)
    return f - body, (g - f) / beta + 4 * body / beta


def own_error(value: float) -> float:
    """The helper's error on one of its values: half an ulp."""
    return 0.5 * math.ulp(value)


if __name__ == "__main__":
    print({1000.0: conductor_stress(1000.0)})
