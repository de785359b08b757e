"""The identities the package's formulas rest on, in exact arithmetic.

Each test names the comment block or docstring it checks, and that block
names the test.  The tables are read in exact fractions; the reflection
coefficients, the position pass's factorization, the t-moments and the
perfect conductor's constants are checked with sympy.
"""

import math
from fractions import Fraction

import numpy as np
import sympy as sp

from casimir_stress import dielectric, stress
from test_acceptance import PC_FIRST_ORDER

# The polar spectral coordinates u = kappa and t = zeta/kappa, tau = t**2,
# Q = sqrt(u**2 + omega_p**2) > u, s = exp(-u), and the moments' lam.  With
# omega_p**2 written as Q**2 - u**2 every identity below is rational.
U, T, Q, S, LAM = sp.symbols("u t Q s lam", positive=True)
TAU = T**2
WP2 = Q**2 - U**2
# The first-order expansions in eta = 1/omega_p, the series variable
# x = exp(-u) and its summation index.
ETA, X = sp.symbols("eta x", positive=True)
N = sp.symbols("n", integer=True, positive=True)


def _identical(left, right):
    """Whether two rational expressions are the same function."""
    return sp.cancel(sp.together(left - right)) == 0


def _polar(wp2=WP2, q=Q):
    """r_s, r_p and (A, B, C) as dielectric.rs_rp_ut's docstring gives them."""
    a, b, c = wp2 * (U + q), wp2 * U, U * (U + q) ** 2
    return -wp2 / (U + q) ** 2, (a - b * TAU) / (a + c * TAU), (a, b, c)


def _pi2_coefficient(value, power):
    """``value / pi**power`` as a small fraction, which must give back
    ``value`` to rounding: the table holds that rational times pi**power."""
    coefficient = Fraction(value / math.pi**power).limit_denominator(1000)
    assert math.isclose(float(coefficient) * math.pi**power, value, rel_tol=4e-16), value
    return coefficient


def _table():
    """Each quantity as its prefactor's coefficient of 1/pi**2 times its
    weights, read as under a Matsubara sum (N as B0 - 3*B2), and its
    blackbody coefficient of pi**2."""
    table = {}
    for name, (prefactor, blackbody, weights) in stress._QUANTITIES.items():
        scale = _pi2_coefficient(prefactor, -2)
        columns = {c: scale * Fraction(w) for c, w in stress._summed(weights).items()}
        table[name] = columns, None if blackbody is None else _pi2_coefficient(blackbody, 2)
    return table


def _combine(table, terms):
    """sum of coefficient * quantity over ``terms``, exactly."""
    columns, blackbody = {}, Fraction(0)
    for name, coefficient in terms.items():
        weights, body = table[name]
        for c, w in weights.items():
            columns[c] = columns.get(c, Fraction(0)) + coefficient * w
        blackbody += coefficient * body
    return {c: w for c, w in columns.items() if w}, blackbody


def test_quantity_table_is_traceless():
    # stress._QUANTITIES: -t00 + 2*txx + tzz = 0, column by column and in
    # the blackbody terms.
    assert _combine(_table(), {"t00": -1, "txx": 2, "tzz": 1}) == ({}, 0)


def test_quantity_table_null_energy_rows():
    # stress._QUANTITIES and _summed: nec_x = t00 + txx once N reads as
    # B0 - 3*B2, and nec_z = t00 + tzz.
    table = _table()
    for nec, other in (("nec_x", "txx"), ("nec_z", "tzz")):
        assert _combine(table, {"t00": 1, other: 1}) == _combine(table, {nec: 1}), nec


def test_quantity_table_blackbody_coefficients():
    # The module docstring: pi**2/15 to the energy density, a third of that
    # to each pressure, 4*pi**2/45 to both null-energy combinations.
    blackbody = {name: body for name, (_, body) in _table().items() if body is not None}
    assert blackbody == {"t00": Fraction(1, 15), "txx": Fraction(1, 45), "tzz": Fraction(1, 45),
                         "nec_x": Fraction(4, 45), "nec_z": Fraction(4, 45)}


def test_polar_reflection_is_fresnel_at_imaginary_frequency():
    # dielectric.rs_rp_ut and rp_plus_rs_ut, their docstrings: the polar
    # r_s, r_p and the closed form of r_p + r_s are the Fresnel
    # coefficients at eps = 1 + omega_p**2/zeta**2, zeta = u*t and
    # k = u*sqrt(1 - t**2), and the code evaluates those formulas.
    zeta, k2 = U * T, U**2 * (1 - TAU)
    eps = 1 + WP2 / zeta**2
    kappa = sp.sqrt(sp.expand(zeta**2 + k2))
    kappa1 = sp.sqrt(sp.expand(eps * zeta**2 + k2))
    assert (kappa, kappa1) == (U, Q)
    r_s, r_p, _ = _polar()
    assert _identical(r_s, (kappa - kappa1) / (kappa + kappa1))
    assert _identical(r_p, (eps * kappa - kappa1) / (eps * kappa + kappa1))
    total = 2 * WP2 * U * (1 - TAU) / (WP2 * (U + Q) + U * (2 * U * (U + Q) + WP2) * TAU)
    assert _identical(r_p + r_s, total)
    for u, t, omega_p in ((0.3, 0.2, 2.0), (5.0, 0.9, 0.1), (1.0, 0.5, 1e3)):
        exact_u, exact_wp = sp.Rational(u), sp.Rational(omega_p)
        point = {U: exact_u, T: sp.Rational(t), Q: sp.sqrt(exact_u**2 + exact_wp**2)}
        expected = [float(e.subs(point).evalf(30)) for e in (r_s, r_p, total)]
        got = [*dielectric.rs_rp_ut(u, t, omega_p), dielectric.rp_plus_rs_ut(u, t, omega_p)]
        assert np.allclose(got, expected, rtol=1e-14, atol=0.0), (u, t, omega_p)


def test_position_pass_factors_without_poles():
    # stress, the block above _clenshaw_curtis: 1 - r_p**2*E = f1*f2/(A + C*tau)**2,
    # the interference identity, r_p/(1 - r_p**2*E), and the factored
    # 1/lam1, 1/lam2, 1 - r_s*s, 1 + r_s*s and den_s.
    r_s, r_p, (a, b, c) = _polar()
    damp = S**2
    a1, c1, a2, c2 = a * (1 - S), c + S * b, a * (1 + S), c - S * b
    f1, f2 = a1 + c1 * TAU, a2 + c2 * TAU
    assert _identical(1 - r_p**2 * damp, f1 * f2 / (a + c * TAU) ** 2)
    assert _identical((r_p + r_s) * (1 - r_s * r_p * damp) / (1 - r_p**2 * damp),
                      b * (1 - TAU) * ((1 - r_s * S) / f1 + (1 + r_s * S) / f2))
    assert _identical(r_p / (1 - r_p**2 * damp), (a - b * TAU) * (1 / f1 + 1 / f2) / 2)
    h, g2, r2 = U / (U + Q), WP2 / (U + Q) ** 2, WP2 / U**2
    assert _identical(g2, 1 - 2 * h) and _identical(g2, -r_s)
    assert _identical(a1 / c1, (1 - S) * r2 / (2 + h * (1 + S) * r2))
    assert _identical(a2 / c2, (1 + S) * r2 / (2 + h * (1 - S) * r2))
    assert _identical(1 - r_s * S, 1 + g2 * S)
    assert _identical(1 + r_s * S, (1 - S) + 2 * h * S)
    assert _identical(1 - r_s**2 * damp, (1 + g2 * S) * ((1 - S) + 2 * h * S))


def test_t_moments_closed_form_and_recurrence():
    # stress._t_moments: V_0 = arctan(sqrt(lam))/sqrt(lam) and
    # V_k = (1/(2k - 1) - V_(k-1))/lam.
    moments = [sp.integrate(T ** (2 * k) / (1 + LAM * TAU), (T, 0, 1)) for k in range(3)]
    assert sp.simplify(moments[0] - sp.atan(sp.sqrt(LAM)) / sp.sqrt(LAM)) == 0
    for k in (1, 2):
        assert sp.simplify(moments[k] - (sp.Rational(1, 2 * k - 1) - moments[k - 1]) / LAM) == 0


def _u_integral(power, closed, coefficient, rate):
    """int_0^oo u**power * closed(exp(-u)) du for the series
    closed(x) = sum_{n>=1} coefficient(n)*x**rate(n), which is checked
    through 12 terms, term by term: int u**p*exp(-r*u) du = p!/r**(p + 1)."""
    partial = sum((coefficient * X**rate).subs(N, m) for m in range(1, 13))
    assert sp.expand(sp.series(closed, X, 0, rate.subs(N, 13)).removeO() - partial) == 0
    return sp.summation(coefficient * sp.factorial(power) / rate ** (power + 1), (N, 1, sp.oo))


def test_conductor_constants_follow_from_zeta_4():
    # stress.reference_limits and criterion 1's PC_FIRST_ORDER
    # (tests/test_acceptance.py, its docstring's derivation): each
    # quantity of stress._QUANTITIES, its N read as B0 - 3*B2, integrates
    # u**3*(w_B0 + w_B2*t**2)*b + u**3*w_D*(1 - t**2)*I*M over u > 0,
    # 0 < t < 1, at the midpoint M = exp(-u).  With E = x**2, x = exp(-u),
    # the conductor's b = 2E/(1 - E) and I = 0; to first order in
    # eta = 1/omega_p, from the polar r_s and r_p, b gains
    # -4*u*(1 + t**2)*E/(1 - E)**2*eta and I*M = 2*u*(1 - t**2)*(1 + E)*x/(1 - E)**2*eta.
    zeta4 = sp.pi**4 / 90
    r_s, r_p, _ = _polar(1 / ETA**2, sp.sqrt(U**2 + 1 / ETA**2))
    r_s, r_p = (sp.series(r, ETA, 0, 2).removeO() for r in (r_s, r_p))
    assert sp.expand(r_s - (-1 + 2 * U * ETA)) == 0 and sp.expand(r_p - (1 - 2 * U * TAU * ETA)) == 0
    damp = X**2
    bound = sum(r**2 * damp / (1 - r**2 * damp) for r in (r_s, r_p))
    interference = sum(r / (1 - r**2 * damp) for r in (r_s, r_p)) * X
    # The series: x**2/(1 - x**2) = sum x**(2n), x**2/(1 - x**2)**2 =
    # sum n*x**(2n) and x/(1 - x)**2 = sum n*x**n.
    even, even2, every = damp / (1 - damp), damp / (1 - damp) ** 2, X / (1 - X) ** 2
    assert _identical(bound.subs(ETA, 0), 2 * even) and interference.subs(ETA, 0) == 0
    assert _identical(sp.diff(bound, ETA).subs(ETA, 0), -4 * U * (1 + TAU) * even2)
    assert _identical(sp.diff(interference, ETA).subs(ETA, 0),
                      2 * U * (1 - TAU) * (every - 2 * even2))
    assert _identical(X * (1 + damp) / (1 - damp) ** 2, every - 2 * even2)
    u3_even = _u_integral(3, even, sp.Integer(1), 2 * N)
    u4_even2 = _u_integral(4, even2, N, 2 * N)
    u4_odd = _u_integral(4, every, N, N) - 2 * u4_even2
    assert u4_even2 == sp.Rational(3, 4) * zeta4 == sp.pi**4 / 120
    assert u4_odd == 24 * sp.Rational(15, 16) * zeta4 == sp.pi**4 / 4
    conductor, first = {}, {}
    for name in ("t00", "txx", "tzz", "nec_x", "nec_z"):
        prefactor, _, weights = stress._QUANTITIES[name]
        coefficient = _pi2_coefficient(prefactor, -2)
        prefactor = sp.Rational(coefficient.numerator, coefficient.denominator) / sp.pi**2
        weights = {c: sp.nsimplify(w) for c, w in stress._summed(weights).items()}
        on_b = weights.get("B0", 0) + weights.get("B2", 0) * TAU
        on_im = weights.get("D", 0) * (1 - TAU)
        conductor[name] = prefactor * 2 * sp.integrate(on_b, (T, 0, 1)) * u3_even
        first[name] = prefactor * (sp.integrate(-4 * (1 + TAU) * on_b, (T, 0, 1)) * u4_even2
                                   + sp.integrate(2 * (1 - TAU) * on_im, (T, 0, 1)) * u4_odd)
    limits = stress.reference_limits()
    for key, name in (("pc_energy_density", "t00"), ("pc_pressure_xx", "txx"),
                      ("pc_pressure_yy", "txx"), ("pc_pressure_zz", "tzz"),
                      ("pc_nec_transverse", "nec_x"), ("pc_nec_longitudinal", "nec_z")):
        assert math.isclose(limits[key], float(conductor[name]), rel_tol=4e-16), key
    assert conductor == {"t00": -sp.pi**2 / 720, "txx": sp.pi**2 / 720, "tzz": -sp.pi**2 / 240,
                         "nec_x": 0, "nec_z": -sp.pi**2 / 180}
    derived = {name: first[name] / conductor[name] for name in ("t00", "txx", "tzz", "nec_z")}
    derived["nec_x"] = first["nec_x"]
    assert derived == {"t00": sp.Rational(-512, 5), "txx": sp.Rational(216, 5),
                       "tzz": sp.Rational(-16, 3), "nec_z": sp.Rational(-148, 5),
                       "nec_x": 91 * sp.pi**2 / 450}
    for name, value in PC_FIRST_ORDER.items():
        assert math.isclose(value, float(derived[name]), rel_tol=4e-16), name


def test_field_squares_average_to_the_interference_column():
    # stress, the block above _clenshaw_curtis: _position's closed forms
    # give (D_E + D_B)/2 = D, with V_1 and V_2 from _t_moments' recurrence
    # and V_0 left free at each of the two poles, so that
    # t00 = (<E**2> + <B**2>)/2 by the _QUANTITIES weights.  The code's
    # columns agree to rounding at every omega_p, where D is small beside
    # D_E and D_B.  With h = u/(u + Q), g2 = 1 - 2*h
    # (test_position_pass_factors_without_poles) and r**2 = g2/h**2, every
    # factor is rational in h and s.
    h = sp.symbols("h", positive=True)
    g2 = 1 - 2 * h
    r2 = g2 / h**2
    den = (1 - S, 1 + S)
    rs_plus, rs_minus = den[0] + 2 * h * S, 1 + g2 * S
    inverse_lam = ((1 - S) * r2 / (2 + h * (1 + S) * r2), (1 + S) * r2 / (2 + h * (1 - S) * r2))
    moments = []
    for v0, q2 in zip(sp.symbols("v0_1 v0_2"), inverse_lam):
        v1 = q2 * (1 - v0)
        moments.append((v0, v1, q2 * (sp.Rational(1, 3) - v1)))
    (a1, b1, c1), (a2, b2, c2) = moments
    d = U * h * ((a1 - 2 * b1 + c1) / (den[0] * rs_plus) + (a2 - 2 * b2 + c2) / (den[1] * rs_minus))
    bound_s = g2 / (rs_plus * rs_minus)
    d_e = U * (sum(((2 * a - b) - h * (2 * b - c)) / q for (a, b, c), q in zip(moments, den)) / 2
               + bound_s / 3)
    d_b = -U * (sum((b - h * c) / q for (a, b, c), q in zip(moments, den)) / 2
                + sp.Rational(5, 3) * bound_s)
    assert _identical((d_e + d_b) / 2, d)
    u = np.array([0.01, 0.3, 1.0, 5.0, 30.0])
    for omega_p in (1e-3, 1.0, 100.0, 1e4):
        (column,) = stress._position(u, omega_p, 0.3, ("D",)).T
        e, b = stress._position(u, omega_p, 0.3, ("D_E", "D_B")).T
        assert np.all(np.abs((e + b) / 2 - column) <= 1e-15 * np.maximum(abs(e), abs(b))), omega_p
