"""Reference-value generator for the stress-tensor integrals.

Evaluates the vacuum-gap energy density, pressures and null-energy
combinations on fixed double-exponential grids (no adaptivity), at two
resolutions, and prints the values that are frozen into the test suite.
Run by hand:

    python tests/de_oracle.py

Deliberately independent of the package: plain textbook formulas for the
reflection coefficients, the densities and pressures in Cartesian
coordinates (zeta, k), and plain trapezoidal sums over fixed exp-sinh /
tanh-sinh grids of its own (a wider range, one step, no refinement and no
error model).  The package uses double-exponential rules too, but over
polar coordinates (u, t), with its own node tables and stopping rule, so
agreement is a real cross-check rather than a tautology.  Only the
null-energy combinations are summed in polar coordinates here, from their
textbook form.
"""

import numpy as np

PI = np.pi


def expsinh_nodes(h, tmax=3.5):
    """Nodes/weights for integrals over [0, inf) with exponential decay."""
    t = np.arange(-round(tmax / h), round(tmax / h) + 1) * h
    x = np.exp(0.5 * PI * np.sinh(t))
    w = x * 0.5 * PI * np.cosh(t) * h
    return x, w


def tanhsinh_nodes(h, tmax=3.5):
    """Nodes/weights for integrals over [0, 1]."""
    t = np.arange(-round(tmax / h), round(tmax / h) + 1) * h
    s = 0.5 * PI * np.sinh(t)
    x = 0.5 * (1.0 + np.tanh(s))
    w = 0.25 * PI * np.cosh(t) / np.cosh(s) ** 2 * h
    return x, w


def refl_naive(zeta, k, wp):
    """Textbook S/P reflection coefficients on the imaginary axis."""
    eps = 1.0 + (wp / zeta) ** 2
    kap = np.sqrt(k**2 + zeta**2)
    kap1 = np.sqrt(k**2 + zeta**2 * eps)
    rs = (kap - kap1) / (kap + kap1)
    rp = (eps * kap - kap1) / (eps * kap + kap1)
    return kap, rs, rp


def drp_dt_naive(u, t, wp):
    """Closed-form d(r_p)/dt at fixed u, with zeta = u*t, k = u*sqrt(1 - t**2)."""
    q = np.sqrt(u * u + wp * wp)
    den = u * t * t * (u + q) + wp * wp
    return -4.0 * u * wp * wp * t * q / (den * den)


def kernel_zk(zeta, k, wp, z):
    """g, R, C combinations on a (zeta, k) product grid."""
    kap, rs, rp = refl_naive(zeta, k, wp)
    E = np.exp(-2.0 * kap)
    gs = rs**2 * E / (1.0 - rs**2 * E)
    gp = rp**2 * E / (1.0 - rp**2 * E)
    Ds = 1.0 / (1.0 - rs**2 * E)
    Dp = 1.0 / (1.0 - rp**2 * E)
    C = 0.5 * (np.exp(-2.0 * kap * z) + np.exp(-2.0 * kap * (1.0 - z)))
    return kap, rs, rp, gs, gp, Ds, Dp, C


def stress_quantities(wp, z, h):
    """U, Txx, Tzz, <E^2>, <B^2> by iterated exp-sinh sums."""
    x, w = expsinh_nodes(h)
    zeta = x[:, None]
    wz = w[:, None]
    k = x[None, :]
    wk = w[None, :]
    kap, rs, rp, gs, gp, Ds, Dp, C = kernel_zk(zeta, k, wp, z)
    g = gs + gp
    R = rs * Ds + rp * Dp
    ww = wz * wk

    u_ind = np.sum(ww * (k / kap) * (-(zeta**2)) * g) / (2 * PI**2)
    u_dep = np.sum(ww * (k / kap) * k**2 * R * C) / (2 * PI**2)
    tzz = np.sum(ww * k * kap * (-g)) / (2 * PI**2)
    txx_ind = np.sum(ww * (k**3 / kap) * g) / (4 * PI**2)
    txx_dep = np.sum(ww * (k**3 / kap) * R * C) / (4 * PI**2)
    e2_dep = np.sum(
        ww * (k / kap) * (-(zeta**2) * rs * Ds + (2 * k**2 + zeta**2) * rp * Dp) * C
    ) / (2 * PI**2)
    b2_dep = np.sum(
        ww * (k / kap) * (-(zeta**2) * rp * Dp + (2 * k**2 + zeta**2) * rs * Ds) * C
    ) / (2 * PI**2)
    return {
        "U": u_ind + u_dep,
        "Txx": txx_ind + txx_dep,
        "Tzz": tzz,
        "E2": u_ind + e2_dep,
        "B2": u_ind + b2_dep,
    }


def nec_quantities(wp, z, h):
    """T00+Txx and T00+Tzz in the polar (u, t) spectral coordinates."""
    u, wu = expsinh_nodes(h)
    t, wt = tanhsinh_nodes(h)
    U = u[:, None]
    WU = wu[:, None]
    T = t[None, :]
    WT = wt[None, :]
    Q = np.sqrt(U**2 + wp**2)
    rs = (U - Q) / (U + Q)
    num = U**2 * T**2 + wp**2 - U * T**2 * Q
    den = U**2 * T**2 + wp**2 + U * T**2 * Q
    rp = num / den
    E = np.exp(-2.0 * U)
    gs = rs**2 * E / (1.0 - rs**2 * E)
    gp = rp**2 * E / (1.0 - rp**2 * E)
    R = rs / (1.0 - rs**2 * E) + rp / (1.0 - rp**2 * E)
    C = 0.5 * (np.exp(-2.0 * U * z) + np.exp(-2.0 * U * (1.0 - z)))
    ww = WU * WT * U**3
    g = gs + gp
    nec_x = np.sum(ww * (-(3 * T**2 - 1) * g + 3 * (1 - T**2) * R * C)) / (4 * PI**2)
    nec_z = np.sum(ww * (-(1 + T**2) * g + (1 - T**2) * R * C)) / (2 * PI**2)
    return {"necx": nec_x, "necz": nec_z}


def main():
    # rule sanity: blackbody integral and the perfect-conductor limits
    np.seterr(over="ignore")
    x, w = expsinh_nodes(0.01)
    bb = np.sum(w * x**3 / np.expm1(x))
    print("# rule check: x^3/(e^x-1) ->", bb, "exact", PI**4 / 15)
    for wp in (1e6, 1e8):
        pc = stress_quantities(wp, 0.5, 0.01)
        print(f"# PC check wp={wp:g}: U", pc["U"], "vs", -PI**2 / 720)
        print(f"# PC check wp={wp:g}: Tzz", pc["Tzz"], "vs", -PI**2 / 240)
    pcn = nec_quantities(1e6, 0.5, 0.01)
    print("# PC check: necz", pcn["necz"], "vs", -PI**2 / 180)

    # near-wall window: how close is the full result to the z^-3 asymptote
    for z in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2):
        nw = stress_quantities(100.0, z, 0.008)
        asym_txx = np.sqrt(2.0) * 100.0 / (128 * PI * z**3)
        print(
            f"# near-wall wp=100 z={z:g}: Txx/asym {nw['Txx'] / asym_txx:.6f}"
            f"  U/Txx {nw['U'] / nw['Txx']:.6f}"
        )

    for wp in (10.0, 100.0):
        for z in (0.25, 0.5):
            coarse = stress_quantities(wp, z, 0.01)
            fine = stress_quantities(wp, z, 0.005)
            ncoarse = nec_quantities(wp, z, 0.01)
            nfine = nec_quantities(wp, z, 0.005)
            print(f"wp={wp} z={z}")
            for key in fine:
                rel = abs(fine[key] - coarse[key]) / max(abs(fine[key]), 1e-300)
                print(f"  {key:4s} = {fine[key]:+.15e}   (resolution drift {rel:.2e})")
            for key in nfine:
                rel = abs(nfine[key] - ncoarse[key]) / max(abs(nfine[key]), 1e-300)
                print(f"  {key:4s} = {nfine[key]:+.15e}   (resolution drift {rel:.2e})")
            # internal consistency: both coordinate systems must agree
            print(
                "  consistency necx vs U+Txx:",
                abs(nfine["necx"] - (fine["U"] + fine["Txx"]))
                / max(abs(nfine["necx"]), 1e-300),
            )
            print(
                "  consistency necz vs U+Tzz:",
                abs(nfine["necz"] - (fine["U"] + fine["Tzz"]))
                / max(abs(nfine["necz"]), 1e-300),
            )


if __name__ == "__main__":
    main()
