"""Thirty-digit zero-temperature reference values by mpmath.

Integrates the energy density between two plasma half-spaces in the
Cartesian spectral coordinates (zeta, k) of the textbook Lifshitz
formulas, as nested one-dimensional mpmath ``quad`` calls (tanh-sinh,
with breakpoints), at 34 working digits::

    python3 tests/mp_oracle.py

It shares no code with the package, which integrates over polar
coordinates (u, t) with its own rules in double precision, and none with
``tests/de_oracle.py``, whose fixed double-precision grids produced
``ORACLE``.  Each point is integrated twice, with two different sets of
breakpoints on both axes; the printed values agree to the digits frozen
as ``MPMATH_ORACLE`` in ``tests/_frozen.py``.  One run takes several
minutes.
"""

from __future__ import annotations

import mpmath as mp

POINTS = [(100, "0.5")]
BREAKS = ([0, 1, 4, 16, mp.inf], [0, 0.5, 2, 8, 32, mp.inf])


def energy_density(omega_p, z, breaks):
    """t00 at zero temperature, in 1/a**4, for plasma frequency omega_p*a
    at position z/a: (1/(2 pi**2)) times the integral over zeta and k of
    (k/kappa)*(-zeta**2*g + k**2*R*C), with g the bound and R the
    position-dependent reflection sums and C the mirror factor."""
    omega_p, z = mp.mpf(omega_p), mp.mpf(z)

    def over_k(zeta):
        eps = 1 + (omega_p / zeta) ** 2

        def f(k):
            kappa = mp.sqrt(k * k + zeta * zeta)
            kappa1 = mp.sqrt(k * k + zeta * zeta * eps)
            rs = (kappa - kappa1) / (kappa + kappa1)
            rp = (eps * kappa - kappa1) / (eps * kappa + kappa1)
            e = mp.exp(-2 * kappa)
            ds, dp = 1 / (1 - rs**2 * e), 1 / (1 - rp**2 * e)
            g = (rs**2 * ds + rp**2 * dp) * e
            r = rs * ds + rp * dp
            c = (mp.exp(-2 * kappa * z) + mp.exp(-2 * kappa * (1 - z))) / 2
            return (k / kappa) * (-(zeta**2) * g + k**2 * r * c)

        return mp.quad(f, breaks)

    return mp.quad(over_k, breaks) / (2 * mp.pi**2)


def main() -> None:
    mp.mp.dps = 34
    for omega_p, z in POINTS:
        values = [energy_density(omega_p, z, breaks) for breaks in BREAKS]
        print(f"({omega_p}, {z}) energy_density:", *(mp.nstr(v, 32) for v in values),
              "difference", mp.nstr(values[0] - values[1], 3))


if __name__ == "__main__":
    main()
