"""Frozen reference values from the standalone double-exponential oracle.

These numbers were produced by ``tests/de_oracle.py`` (a fixed-grid
tanh-sinh / exp-sinh integrator sharing no code with the package) before
the package internals were written, at two grid resolutions differing by
a factor of two; the resolutions agree with each other to better than
5e-12 relative on every entry, so the digits below are trustworthy well
past the 1e-6 comparisons made in the tests.  Regenerate by running
``python3 tests/de_oracle.py``.

Keys are (omega_p * a, z / a) at zero temperature; values are in 1/a**4
units.
"""

ORACLE = {
    (10.0, 0.25): {
        "energy_density": +7.640236473165863e-01,
        "pressure_xx": +3.951648788988368e-01,
        "pressure_zz": -2.630611048108713e-02,
        "mean_sq_E": +3.106204213409087e+00,
        "mean_sq_B": -1.578156918775916e+00,
        "nec_transverse": +1.159188526217357e+00,
        "nec_longitudinal": +7.377175368366332e-01,
    },
    (10.0, 0.5): {
        "energy_density": +6.863786667548240e-02,
        "pressure_xx": +4.747198857828476e-02,
        "pressure_zz": -2.630611048108713e-02,
        "mean_sq_E": +4.649305696414145e-01,
        "mean_sq_B": -3.276548362904496e-01,
        "nec_transverse": +1.161098552541480e-01,
        "nec_longitudinal": +4.233175619449343e-02,
    },
    (100.0, 0.25): {
        "energy_density": +1.733633843831654e-01,
        "pressure_xx": +1.061943508273184e-01,
        "pressure_zz": -3.902531727147146e-02,
        "mean_sq_E": +4.630561206574904e+00,
        "mean_sq_B": -4.283834437808572e+00,
        "nec_transverse": +2.795577352108898e-01,
        "nec_longitudinal": +1.343380671117732e-01,
    },
    (100.0, 0.5): {
        "energy_density": -4.390214255384217e-04,
        "pressure_xx": +1.929314792296651e-02,
        "pressure_zz": -3.902531727147146e-02,
        "mean_sq_E": +5.849479631209893e-01,
        "mean_sq_B": -5.858260059720664e-01,
        "nec_transverse": +1.885412649754463e-02,
        "nec_longitudinal": -3.946433869712363e-02,
    },
}


# Thirty-digit values from ``python3 tests/mp_oracle.py``: mpmath at 34
# working digits over the Cartesian (zeta, k) coordinates, nested
# tanh-sinh quadratures with two sets of breakpoints that agree to 4e-33
# relative.  ORACLE's energy density at (100, 0.5), where t00 = H*(D - B2)
# cancels about 50x, lies 6.8e-11 relative from this value; the package
# lies 4.6e-15 from it.  ORACLE is kept as it is: perfbench reads it.
#
# Keys are (omega_p * a, z / a) at zero temperature; values in 1/a**4.
MPMATH_ORACLE = {
    (100.0, 0.5): {
        "energy_density": -4.39021425508592997095998474559e-04,
    },
}


# Finite-temperature reference values from the independent oracle in
# ``perfbench/thermal_oracle.py`` (copied from its ``FROZEN`` table).  That
# oracle shares no code with the package: textbook reflection
# coefficients with the analytic zero-frequency limit, a fixed exp-sinh
# rule in k at every Matsubara frequency, a plain half-weighted sum run
# until the terms fall below 1e-18 of it, and the closed-form blackbody
# terms.  Its two step sizes, differing by 2x, agree to 2.1e-15 relative
# or better on every entry, far inside the 1e-10 relative slack the tests
# allow; regenerate with ``python3 perfbench/thermal_oracle.py``.
#
# Keys are (omega_p * a, z / a, beta / a); values are in 1/a**4 and use
# the CLI column names: nec_x = t00 + txx and nec_z = t00 + tzz.
THERMAL_ORACLE = {
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


# A point next to a wall at a plasma frequency so small that the walls
# reflect grazing modes at every Matsubara frequency, so that the direct
# sum's terms fall only like 1/n**2.  From ``perfbench/thermal_oracle.py``'s
# ``thermal_point(1e-3, 1e-4, 5.0, h)`` at h = 0.005, about 3 s, which
# tier-1 does not repeat.  At h = 0.01 it gives t00 = 3978877721.122086
# and txx = 1989438860.5656507, within 2e-14 relative, and the same tzz.
#
# Keys are (omega_p * a, z / a, beta / a); values in 1/a**4.
NEAR_WALL_THERMAL_ORACLE = {
    (1e-3, 1e-4, 5.0): {
        "t00": +3.978877721122027e+09,
        "txx": +1.989438860565620e+09,
        "tzz": -9.214745635811720e-03,
    },
}


# Zero-temperature values at a plasma frequency so small that the p-wave
# reflection lives in a thin layer zeta < omega_p, that is t < omega_p/u
# in polar coordinates.  Produced by ``tests/de_oracle.py``
# (``stress_quantities`` and ``nec_quantities``) at step h = 0.0125.  The
# run at h = 0.025 gives, in the same order,
#   +1.144933213727710e-07, +6.115184200360381e-08, -7.810362634436622e-09,
#   +2.289866849618325e-07, -4.221629052031352e-14,
#   +1.756457785336259e-07, +1.066832942786035e-07,
# within 4.4e-6 relative (mean_sq_B; the rest within 1.4e-6): the oracle's
# textbook reflection coefficients lose digits to cancellation when
# omega_p is far below kappa.  Tests therefore allow 1e-4 relative.  Kept
# apart from ORACLE, which is trusted to 1e-10.
#
# Keys are (omega_p * a, z / a) at zero temperature; values in 1/a**4.
LOW_OMEGA_ORACLE = {
    (1e-6, 0.5): {
        "energy_density": +1.144932454238497e-07,
        "pressure_xx": +6.115179860426321e-08,
        "pressure_zz": -7.810351784676682e-09,
        "mean_sq_E": +2.289865330641772e-07,
        "mean_sq_B": -4.221647774445240e-14,
        "nec_transverse": +1.756457785335605e-07,
        "nec_longitudinal": +1.066832942784297e-07,
    },
}


# The perfect conductor's components at beta = 1000, where the closed form
# of ``tests/conductor_thermal.py`` sums 5,499 Matsubara terms of mpmath
# polylogarithms at 30 digits, about a second, which tier-1 does not
# repeat.  Printed by ``python3 tests/conductor_thermal.py``; each value
# is the float nearest the 30-digit one.
#
# Keys are beta / a; values are in 1/a**4 and the same at every position.
CONDUCTOR_THERMAL = {
    1000.0: {
        "t00": -0.013707783507775292,
        "txx": 0.013707784081715186,
        "tzz": -0.04112335167120566,
        "nec_z": -0.05483113517898095,
    },
}
