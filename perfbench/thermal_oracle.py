"""Independent finite-temperature reference values for the benchmark gate.

The frozen zero-temperature oracle in ``tests/_frozen.py`` has no
finite-temperature entries, so this module supplies them for the
``thermal`` workload.  It shares no code with the package: textbook
reflection coefficients (with the analytic zero-frequency limit), a
fixed exp-sinh rule in ``k`` at every Matsubara frequency, and a plain
half-weighted Matsubara sum, plus the closed-form blackbody terms.

``FROZEN`` holds the values; regenerate them with

    python3 perfbench/thermal_oracle.py

which evaluates every point at two step sizes differing by 2x and
prints the resolution drift next to each value.

Keys are (omega_p * a, z / a, beta / a); values are in 1/a**4 and use
the CLI column names.  ``nec_x`` and ``nec_z`` are t00 + txx and
t00 + tzz of the same oracle.
"""

import numpy as np

PI = np.pi

FROZEN = {
    (100.0, 0.25, 5.0): {
        "t00": +1.764546528814956e-01,
        "txx": +1.077552289087571e-01,
        "tzz": -3.905580493601854e-02,
        "nec_x": +2.842098817902527e-01,
        "nec_z": +1.373988479454771e-01,
    },
    (100.0, 0.5, 5.0): {
        "t00": +2.650629389446128e-03,
        "txx": +2.085321716273232e-02,
        "tzz": -3.905580493601854e-02,
        "nec_x": +2.350384655217845e-02,
        "nec_z": -3.640517554657241e-02,
    },
    (100.0, 0.75, 5.0): {
        "t00": +1.764546528814956e-01,
        "txx": +1.077552289087571e-01,
        "tzz": -3.905580493601854e-02,
        "nec_x": +2.842098817902527e-01,
        "nec_z": +1.373988479454771e-01,
    },
    (100.0, 0.5, 100.0): {
        "t00": -4.386349733059328e-04,
        "txx": +1.929334306228772e-02,
        "tzz": -3.902532109788134e-02,
        "nec_x": +1.885470808898179e-02,
        "nec_z": -3.946395607118728e-02,
    },
    (100.0, 0.5, 1000.0): {
        "t00": -4.390210390557430e-04,
        "txx": +1.929314811819268e-02,
        "tzz": -3.902531727544119e-02,
        "nec_x": +1.885412707913693e-02,
        "nec_z": -3.946433831449694e-02,
    },
}


def expsinh(h, tmax=3.5):
    """Nodes and weights for [0, inf) with exponential decay."""
    t = np.arange(-round(tmax / h), round(tmax / h) + 1) * h
    x = np.exp(0.5 * PI * np.sinh(t))
    return x, x * 0.5 * PI * np.cosh(t) * h


def reflection(zeta, k, wp):
    """Textbook r_s, r_p on the imaginary axis; zeta = 0 by its limit."""
    kap = np.sqrt(k * k + zeta * zeta)
    kap1 = np.sqrt(k * k + zeta * zeta + wp * wp)
    rs = (kap - kap1) / (kap + kap1)
    if zeta == 0.0:
        return kap, rs, np.ones_like(k)
    eps = 1.0 + (wp / zeta) ** 2
    return kap, rs, (eps * kap - kap1) / (eps * kap + kap1)


def spectral_terms(zeta, wp, z, h):
    """k-integrals of (t00, txx, tzz) at one imaginary frequency."""
    k, w = expsinh(h)
    kap, rs, rp = reflection(zeta, k, wp)
    e = np.exp(-2.0 * kap)
    ds = 1.0 / (1.0 - rs * rs * e)
    dp = 1.0 / (1.0 - rp * rp * e)
    g = (rs * rs * ds + rp * rp * dp) * e
    r = rs * ds + rp * dp
    c = 0.5 * (np.exp(-2.0 * kap * z) + np.exp(-2.0 * kap * (1.0 - z)))
    t00 = np.sum(w * (k / kap) * (-(zeta**2) * g + k * k * r * c)) / (2 * PI**2)
    txx = np.sum(w * (k**3 / kap) * (g + r * c)) / (4 * PI**2)
    tzz = np.sum(w * k * kap * (-g)) / (2 * PI**2)
    return np.array([t00, txx, tzz])


def thermal_point(wp, z, beta, h):
    """(t00, txx, tzz, nec_x, nec_z) at finite temperature."""
    total = 0.5 * spectral_terms(0.0, wp, z, h)
    n = 0
    while True:
        n += 1
        term = spectral_terms(2.0 * PI * n / beta, wp, z, h)
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total)) or n > 100_000:
            break
    t00, txx, tzz = 2.0 * PI / beta * total
    t00 += PI**2 / (15.0 * beta**4)
    txx += PI**2 / (45.0 * beta**4)
    tzz += PI**2 / (45.0 * beta**4)
    return {"t00": t00, "txx": txx, "tzz": tzz, "nec_x": t00 + txx, "nec_z": t00 + tzz}


def main():
    np.seterr(over="ignore", under="ignore")
    for key in FROZEN:
        coarse = thermal_point(*key, h=0.01)
        fine = thermal_point(*key, h=0.005)
        print(f"    {key!r}: {{")
        for name, value in fine.items():
            drift = abs(value - coarse[name]) / abs(value)
            print(f'        "{name}": {value:+.15e},  # resolution drift {drift:.1e}')
        print("    },")


if __name__ == "__main__":
    main()
