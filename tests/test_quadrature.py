"""Tests for the double-exponential quadrature, thermal sum, and root bracketing."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from casimir_stress import quadrature
from casimir_stress.quadrature import (
    _EXP_SINH_1D,
    QuadratureError,
    SemiInfinite,
    Tolerance,
    UnitInterval,
    _axis,
    bracket_root,
    integrate_2d,
    integrate_semiinf,
    integrate_unit,
    matsubara_sum,
)


def test_results_past_the_float_range_raise():
    # Finite integrand values whose sum overflows used to come back as an
    # inf value with converged=True, because nan > bound is False.  Each
    # entry now raises, and warns of nothing on the way.
    def full(*args):
        return np.full(np.broadcast_shapes(*(a.shape for a in args)), 1e307)

    cases = [
        ("integrate_semiinf", lambda: integrate_semiinf(full, 1.0)),
        ("integrate_2d", lambda: integrate_2d(full, SemiInfinite(1.0), UnitInterval())),
        ("matsubara_sum", lambda: matsubara_sum(full, 1.0)),
        ("matsubara_sum", lambda: matsubara_sum(lambda z: 1e307 * np.exp(-z), 1e-3)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in cases:
            with pytest.raises(QuadratureError, match=f"^{name} result is not finite"):
                call()


def test_exponential_on_half_line():
    res = integrate_semiinf(lambda x: np.exp(-x), decay_scale=1.0)
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-12
    assert abs(res.value - 1.0) <= 10.0 * res.error_estimate + 1e-13


def test_bose_weighted_cubic_matches_closed_form():
    # integral of x**3 / (e**x - 1) over [0, inf) equals pi**4 / 15.
    # The integrand is written with expm1 so large x underflows cleanly
    # instead of overflowing.
    def f(x):
        return x**3 * np.exp(-x) / (-np.expm1(-x))

    res = integrate_semiinf(f, decay_scale=1.0, tol=Tolerance(rel_tol=1e-12))
    exact = math.pi**4 / 15.0
    assert res.converged
    assert abs(res.value - exact) <= 1e-10


def test_damped_quadratic_with_mismatched_scale():
    # integral of x**2 e**(-2x) = 1/4 and of e**(-x) = 1; the decay scales
    # are deliberately wrong, up to a thousandfold too small, to confirm
    # that a mismatch only costs work.
    cases = [
        (lambda x: x**2 * np.exp(-2.0 * x), 2.0, 0.25),
        (lambda x: x**2 * np.exp(-2.0 * x), 0.01, 0.25),
        (lambda x: np.exp(-x), 0.1, 1.0),
        (lambda x: np.exp(-x), 0.01, 1.0),
        (lambda x: np.exp(-x), 1e-3, 1.0),
    ]
    for f, scale, exact in cases:
        res = integrate_semiinf(f, decay_scale=scale)
        assert res.converged
        assert abs(res.value - exact) <= 1e-12


def test_unit_interval_with_cancellation():
    # integral of 3t**2 - 1 over [0, 1] vanishes identically.
    res = integrate_unit(lambda t: 3.0 * t**2 - 1.0)
    assert res.converged
    assert abs(res.value) <= 1e-13


def test_unit_interval_polynomial():
    res = integrate_unit(lambda t: t * (1.0 - t**2))
    assert res.converged
    assert abs(res.value - 0.25) <= 1e-13


def test_two_dimensional_product_exponential():
    res = integrate_2d(
        lambda x, y: np.exp(-x - y),
        outer=SemiInfinite(1.0),
        inner=SemiInfinite(1.0),
    )
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-10
    assert abs(res.value - 1.0) <= 10.0 * res.error_estimate + 1e-12


def test_two_dimensional_mixed_domains():
    # integral over x in [0, inf), t in [0, 1] of e**(-x) * t**2 = 1/3.
    res = integrate_2d(
        lambda x, t: math.exp(-x) * t**2,
        outer=SemiInfinite(1.0),
        inner=UnitInterval(),
    )
    assert res.converged
    assert abs(res.value - 1.0 / 3.0) <= 1e-10


def test_scalar_only_integrand_is_accepted():
    # math.exp rejects arrays, forcing the scalar fallback path.
    res = integrate_unit(lambda t: math.exp(-t))
    assert res.converged
    assert abs(res.value - (1.0 - math.exp(-1.0))) <= 1e-12


def test_error_estimates_are_honest():
    cases = [
        (integrate_semiinf(lambda x: np.exp(-x) * np.cos(x), 1.0), 0.5),
        (integrate_semiinf(lambda x: x * np.exp(-x), 1.0), 1.0),
        (integrate_unit(lambda t: np.sqrt(np.maximum(t, 0.0)), None), 2.0 / 3.0),
    ]
    for res, exact in cases:
        assert abs(res.value - exact) <= 10.0 * res.error_estimate + 1e-12


def test_tightening_tolerance_does_not_hurt():
    def f(x):
        return np.exp(-x) * np.sin(3.0 * x)

    exact = 3.0 / 10.0
    loose = integrate_semiinf(f, 1.0, tol=Tolerance(rel_tol=1e-5))
    tight = integrate_semiinf(f, 1.0, tol=Tolerance(rel_tol=1e-11))
    assert abs(tight.value - exact) <= abs(loose.value - exact) + 1e-14
    assert abs(tight.value - exact) <= 1e-11
    assert tight.evaluations >= loose.evaluations


def test_results_are_deterministic():
    def f(x):
        return np.log1p(x) * np.exp(-1.7 * x)

    a = integrate_semiinf(f, 0.6, tol=Tolerance(rel_tol=1e-10))
    b = integrate_semiinf(f, 0.6, tol=Tolerance(rel_tol=1e-10))
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


def test_non_finite_integrand_raises(monkeypatch):
    def f(x):
        return np.where(x < 1.0, np.nan, np.exp(-x))

    with pytest.raises(QuadratureError, match=r"at x = "):
        integrate_semiinf(f, 1.0)
    with pytest.raises(QuadratureError, match=r"\(x, y\)"):
        integrate_2d(lambda x, y: f(x) * y, SemiInfinite(1.0), UnitInterval())

    # Blocks of 8 nodes put each bad node below in a later block of a
    # later level.  The message names the first bad node in evaluation
    # order, also where a +inf and a -inf in one group sum to a NaN.
    monkeypatch.setattr(quadrature, "_BLOCK", 8)
    half_line = SemiInfinite(1.0)
    x = _axis(1.0, 2, _EXP_SINH_1D, True)[0]
    for bad in ({x[12]: np.nan}, {x[11]: -np.inf, x[13]: np.inf}):

        def g(x):
            values = np.exp(-x)
            for node, value in bad.items():
                values = np.where(x == node, value, values)
            return values

        with pytest.raises(QuadratureError, match=re.escape(f"x = {float(min(bad))!r}")):
            integrate_semiinf(g, 1.0)
    x = _axis(1.0, 1, None, True)[0]
    y = _axis(None, 0, None, False)[0]
    for bad in ({(x[7], y[3]): np.nan}, {(x[5], y[2]): np.inf, (x[5], y[6]): -np.inf}):

        def h(u, t):
            values = np.exp(-u) * t
            for (a, b), value in bad.items():
                values = np.where((u == a) & (t == b), value, values)
            return values

        at = tuple(map(float, min(bad)))
        with pytest.raises(QuadratureError, match=re.escape(f"(x, y) = {at!r}")):
            integrate_2d(h, half_line, UnitInterval())


def test_evaluation_budget_reports_non_convergence():
    # A one-dimensional pass that its budget stops warns like a double
    # integral, naming the level it reached.
    tol = Tolerance(rel_tol=1e-14, abs_tol=1e-300, max_evaluations=200)
    for integrate, f in (
        (lambda f: integrate_semiinf(f, 1.0, tol=tol), lambda x: np.exp(-x) * np.cos(10.0 * x)),
        (lambda f: integrate_unit(f, tol=tol), lambda t: np.cos(40.0 * t)),
    ):
        with pytest.warns(UserWarning, match=r"did not meet its tolerance: stopped at level \d+ in x after \d+ nodes"):
            res = integrate(f)
        assert not res.converged
        assert res.evaluations <= 200


def test_one_dimensional_levels_reuse_every_node():
    # Each level adds nodes between the earlier ones, so a pass evaluates
    # every abscissa of its deepest level once and no other.  The first
    # integrand call takes every node through level 4, and each later
    # level one more call, so a pass that ends at level L > 4 makes
    # L - 3 calls.  The half-line case has a component a million times
    # smaller than the other, which must meet the relative tolerance on
    # its own scale.
    def semi(x):
        return np.stack([np.exp(-x) * np.cos(x), 1e-6 * x * np.exp(-x)], axis=-1)

    cases = [
        (lambda f, tol=None: integrate_semiinf(f, 0.7, tol), semi, 0.7, _EXP_SINH_1D),
        (integrate_unit, lambda t: np.sqrt(t) * np.cos(3.0 * t), None, None),
    ]
    for integrate, g, scale, span in cases:
        seen, calls = [], []

        def f(x):
            seen.extend(x.tolist())
            calls.append(x.size)
            return g(x)

        res = integrate(f)
        assert res.converged
        assert len(seen) == len(set(seen)) == res.evaluations
        level = 0
        while _axis(scale, level, span, False)[0].size < res.evaluations:
            level += 1
        assert level >= 4
        assert set(_axis(scale, level, span, False)[0].tolist()) == set(seen)
        assert len(calls) == max(level - 3, 1)
        assert calls[0] == _axis(scale, 4, span, False)[0].size

        # A pass whose change meets a loose tolerance before level 4
        # still evaluates every node through level 4 in one call, and
        # reports what it paid for: the level-4 total, with the change
        # from level 3 as its error.
        seen.clear()
        calls.clear()
        loose = Tolerance(rel_tol=1e-3, abs_tol=0.0)
        res = integrate(f, loose)
        assert res.converged and len(calls) == 1
        assert res.evaluations == len(seen) == _axis(scale, 4, span, False)[0].size
        sums = []
        for level in range(5):
            # A node's weight is its matrix row's sum, exactly: each row
            # holds one nonzero entry.
            x, matrix = _axis(scale, level, span, False)
            w = matrix.sum(axis=1)
            sums.append(quadrature._DE_STEP / 2**level * (w @ np.asarray(g(x)).reshape(x.size, -1)))
        changes = [np.abs(b - a) for a, b in zip(sums, sums[1:])]
        stop = next(i for i, c in enumerate(changes, 1) if np.all(c <= loose.rel_tol * np.abs(sums[i])))
        assert stop < 4
        assert np.allclose(res.value, sums[4], rtol=1e-14, atol=0.0)
        # Both totals agree to 1e-14 of |S4|, so their change does to twice that.
        assert np.all(np.abs(res.error_estimate - changes[3]) <= 2e-14 * np.abs(sums[4]))

    exact = np.array([0.5, 1e-6])
    res = integrate_semiinf(semi, 0.7, Tolerance(rel_tol=1e-10, abs_tol=0.0))
    assert res.value.shape == res.error_estimate.shape == (2,)
    assert np.all(np.abs(res.value - exact) <= 1e-10 * exact)


def test_half_line_tables_serve_every_decay_scale():
    # One scale-1 table per level serves every decay scale: each scale's
    # tables are bitwise scale times it, and its nodes bitwise those of a
    # table built for that scale.  Every table is read-only, and the
    # newest level's weights are a contiguous column.
    _axis.cache_clear()
    h = quadrature._DE_STEP / 2**3
    tau = np.arange(math.ceil(-3.75 / h), math.floor(1.8 / h) + 1) * h
    tables = {scale: _axis(scale, 3, None, False) for scale in (0.5, 7.3)}
    unit_x, unit_matrix = _axis(1.0, 3, None, False)
    assert _axis.cache_info().misses == 3
    for scale, (x, matrix) in tables.items():
        assert np.array_equal(x, scale * unit_x) and np.array_equal(matrix, scale * unit_matrix)
        built = scale * np.exp(0.5 * math.pi * np.sinh(tau))
        order = np.argsort(x)
        assert np.array_equal(x[order], built)
        weight = matrix.sum(axis=1)
        assert np.allclose(weight[order], built * 0.5 * math.pi * np.cosh(tau), rtol=1e-15, atol=0.0)
        newest, column = _axis(scale, 3, None, True)
        assert np.array_equal(newest, x[-newest.size :])
        assert np.array_equal(column[:, 0], matrix[-newest.size :, -1])
        assert column.shape == (newest.size, 1) and column.flags.c_contiguous
        for table in (x, matrix, newest, column):
            assert not table.flags.writeable


def test_two_dimensional_vector_components_meet_their_own_tolerance():
    # A column a million times smaller than the other must still meet the
    # relative tolerance on its own scale.
    def f(x, t):
        decay = np.exp(-x)
        small = 1e-6 * np.sqrt(x) * decay * np.cos(3.0 * t)
        return np.stack([decay * t**2, small], axis=-1)

    exact = np.array([1.0 / 3.0, 1e-6 * 0.5 * math.sqrt(math.pi) * math.sin(3.0) / 3.0])
    tol = Tolerance(rel_tol=1e-10, abs_tol=0.0)
    res = integrate_2d(f, SemiInfinite(1.0), UnitInterval(), tol)
    assert res.converged
    assert res.value.shape == res.error_estimate.shape == (2,)
    assert np.all(np.abs(res.value - exact) <= 1e-10 * np.abs(exact))
    assert np.all(np.abs(res.value - exact) <= res.error_estimate + 1e-15 * np.abs(exact))


def test_two_dimensional_budget_caps_the_whole_call():
    # The budget counts the nodes of every level together: a tolerance it
    # cannot reach ends unconverged, with a warning, inside the budget.
    tol = Tolerance(rel_tol=1e-14, abs_tol=1e-300, max_evaluations=2000)
    with pytest.warns(UserWarning, match=r"stopped at level \d+ in x and level \d+ in y"):
        res = integrate_2d(
            lambda x, y: np.exp(-x - y) * np.cos(10.0 * y),
            outer=SemiInfinite(1.0),
            inner=SemiInfinite(1.0),
            tol=tol,
        )
    assert not res.converged
    assert res.evaluations <= 2000


def test_two_dimensional_half_line_reaches_a_hundred_decay_scales():
    # A 2-D half-line axis ends at 100*decay_scale, where integrate_semiinf
    # reaches 7e6*decay_scale: a scale 200 times too small leaves most of
    # the integral (200) past the last node.  The 1-D pass takes it in
    # 361 nodes; the 2-D pass must not call its truncated total converged.
    f = lambda x, y: np.exp(-x / 200.0) + 0.0 * y  # noqa: E731
    assert integrate_semiinf(lambda x: np.exp(-x / 200.0), 1.0).converged
    with pytest.warns(UserWarning, match="integrate_2d did not meet its tolerance"):
        res = integrate_2d(f, SemiInfinite(1.0), UnitInterval(),
                           Tolerance(max_evaluations=200_000))
    assert not res.converged
    assert res.value < 100.0 and res.evaluations <= 200_000


def test_two_dimensional_rule_refines_each_axis_on_its_own():
    # cos(3*x) needs a finer x rule than exp(-y) needs in y, and the
    # mirror case the other way round.  Each pass ends on a grid whose
    # finer axis carries more nodes than the other, short of the square
    # grid of the finer axis, and as accurate as the square grid would be.
    exact = 1.0 / 10.0
    for axis in (0, 1):
        seen = (set(), set())

        def f(x, y):
            seen[0].update(x.ravel().tolist())
            seen[1].update(y.ravel().tolist())
            return np.exp(-x - y) * np.cos(3.0 * (x, y)[axis])

        res = integrate_2d(f, SemiInfinite(1.0), SemiInfinite(1.0))
        assert res.converged
        assert abs(res.value - exact) <= 1e-12 * exact
        assert abs(res.value - exact) <= res.error_estimate
        nx, ny = len(seen[0]), len(seen[1])
        assert nx * ny == res.evaluations
        assert (nx > ny) == (axis == 0)
        assert res.evaluations < max(nx, ny) ** 2


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1e-3)
    with pytest.raises(ValueError):
        Tolerance(max_evaluations=3)
    with pytest.raises(ValueError):
        SemiInfinite(0.0)
    with pytest.raises(ValueError):
        integrate_semiinf(lambda x: np.exp(-x), decay_scale=-1.0)


def test_matsubara_sum_geometric_case():
    # g(z) = e**(-z) gives (1/beta) * (1/2 + e**(-2 pi / beta) / (1 - e**(-2 pi / beta))).
    res = matsubara_sum(lambda z: math.exp(-z), beta=1.0)
    q = math.exp(-2.0 * math.pi)
    exact = 0.5 + q / (1.0 - q)
    assert res.converged
    assert abs(res.value - exact) <= 1e-12
    assert abs(res.value - exact) <= 10.0 * res.error_estimate + 1e-15


def test_matsubara_sum_approaches_integral_at_large_beta():
    # For slowly spaced frequencies the weighted sum approximates
    # (1/(2 pi)) * integral of g, here 1/(2 pi).
    res = matsubara_sum(lambda z: math.exp(-z), beta=1e3)
    exact = 1.0 / (2.0 * math.pi)
    assert res.converged
    assert abs(res.value - exact) <= 2e-3 * exact


def test_matsubara_sum_meets_its_tolerance_on_slowly_decaying_sums():
    # Small terms alone do not end the sum: the geometric tail they leave
    # must be within the tolerance too.
    tol = Tolerance()
    for beta in (100.0, 1e3):
        q = math.exp(-2.0 * math.pi / beta)
        exact = (0.5 + q / (1.0 - q)) / beta
        res = matsubara_sum(lambda z: math.exp(-z), beta, tol)
        assert res.converged
        assert abs(res.value - exact) <= 2.0 * tol.rel_tol * exact
        assert abs(res.value - exact) <= res.error_estimate
        # The geometric continuation of the last two terms is this
        # series' exact tail: 3.5e-16 and 1.0e-14 relative, where the
        # estimates are 6.0e-11 and 8.8e-10.
        assert abs(res.value - exact) <= 1e-13 * exact


def test_matsubara_sum_grows_its_blocks_and_sums_term_by_term():
    # The summand sees 8, 16 and 32 frequencies, then 64 at a time, and
    # the tail is tested at each block's end, so every evaluated term is
    # summed.  Whatever the blocks, each running sum adds one term after
    # another, so the value is bitwise that of np.cumsum over every
    # evaluated term, with half weight at n = 0, plus the geometric
    # continuation c**2/(b - c) of the last two terms b and c.
    def vector(z):
        return np.stack([np.exp(-z), z * np.exp(-0.5 * z)], axis=-1)

    for g, beta, blocks in ((lambda z: np.exp(-z), 3.0, [8, 16]),
                            (lambda z: np.exp(-z), 1e3, [8, 16, 32, 64, 64]),
                            (vector, 200.0, [8, 16, 32, 64, 64])):
        sizes = []

        def summand(zeta):
            sizes.append(zeta.size)
            return g(zeta)

        res = matsubara_sum(summand, beta)
        assert res.converged
        assert sizes[: len(blocks)] == blocks
        assert set(sizes[3:]) <= {64}
        assert res.evaluations == sum(sizes)
        if beta == 3.0:
            assert sizes == blocks
        terms = np.asarray(g(2.0 * math.pi * np.arange(res.evaluations, dtype=float) / beta))
        terms[0] *= 0.5
        b, c = terms[-2:]
        assert np.all(np.abs(c) < np.abs(b))
        assert np.array_equal(res.value, (np.cumsum(terms, axis=0)[-1] + c**2 / (b - c)) / beta)


def test_matsubara_sum_of_power_laws_lies_within_its_estimate():
    # Terms (1 + zeta)**-p fall like n**-p, and their tail is about
    # n*g_n/(p - 1), not the geometric bound the estimate holds.  With
    # the geometric continuation of the last two terms added, p = 3 and 4
    # lie within their estimates (0.50 and 0.33 of them, against 1.50 and
    # 1.33 without it), by mpmath's Euler-Maclaurin sum.  At p = 2 the sum
    # runs to the 1e5-term cap and says so (ROADMAP item 19 step 1).
    for p in (2, 3, 4):
        for beta in (2.0 * math.pi, 20.0):
            res = matsubara_sum(lambda z: (1.0 + z) ** -p, beta)
            if p == 2:
                assert not res.converged and res.evaluations == 100_001
                continue
            with mpmath.workdps(30):
                h = 2 * mpmath.pi / beta
                exact = (0.5 + mpmath.nsum(lambda n: (1 + h * n) ** -p, [1, mpmath.inf],
                                           method="euler-maclaurin")) / beta
            assert res.converged
            assert abs(res.value - exact) <= res.error_estimate, (p, beta, res)


def test_matsubara_sum_keeps_every_term_it_evaluates():
    # At beta = 3 the terms exp(-2*pi*n/3) meet the tail rule by term 12,
    # but the sum stops only at the end of its second block, and all 24
    # terms reach the value: (0.5 + q/(1 - q))/beta with q = exp(-2*pi/3),
    # to a few ulp.  A sum that stopped at term 12 would miss it by 2e-11.
    beta = 3.0
    q = math.exp(-2.0 * math.pi / beta)
    exact = (0.5 + q / (1.0 - q)) / beta
    res = matsubara_sum(lambda z: np.exp(-z), beta)
    assert res.converged and res.evaluations == 24
    assert abs(res.value - exact) <= 4.0 * math.ulp(exact)


def test_level_totals_keep_their_bits():
    # Each pass keeps every level's total once reduced.  These values
    # were frozen from a driver that reduced every total anew in every
    # round, and they must not move in any bit.  The integrate_unit pass
    # meets its tolerance from level 3 but reports level 4, the deepest
    # its first call evaluates; that literal was frozen from the one
    # round loop.  A trivial pass takes its 181 nodes in one integrand
    # call.
    calls = []

    def trivial(x):
        calls.append(x.size)
        return np.exp(-x)

    res = integrate_semiinf(trivial, 1.0)
    assert calls == [181] and res.evaluations == 181
    assert (res.value, res.error_estimate) == (0.9999999999999984, 2.3314683517128287e-15)
    frozen = [
        # Levels 8 and 9: nine and ten groups, summed pairwise.
        (integrate_semiinf(lambda x: np.exp(-x) * np.cos(10.0 * x), 1.0),
         0.009900990099006808, 2.1180973641676815e-15, 2881),
        (integrate_semiinf(lambda x: np.exp(-x) * np.cos(20.0 * x), 1.0),
         0.0024937655860317654, 2.4936649967166602e-15, 5761),
        (integrate_semiinf(lambda x: np.stack([np.exp(-x) * np.cos(x), 1e-6 * x * np.exp(-x)],
                                              axis=-1), 0.7),
         [0.4999999999999984, 1e-06], [9.159339953157541e-14, 0.0], 361),
        (integrate_unit(lambda t: np.sqrt(t) * np.cos(3.0 * t)),
         -0.12461872214188974, 2.7755575615628914e-17, 191),
        (integrate_2d(lambda x, y: np.exp(-x - y) * np.cos(3.0 * x),
                      SemiInfinite(1.0), SemiInfinite(1.0)),
         0.0999999999999971, 4.896222316475018e-13, 88357),
    ]
    for res, value, error, evaluations in frozen:
        assert res.converged and res.evaluations == evaluations
        assert np.array_equal(res.value, value) and np.array_equal(res.error_estimate, error)


def test_matsubara_sum_returns_an_unconverged_result_at_its_term_cap():
    # A summand of ones never decays: the sum stops after n = 100000 and
    # its error estimate falls back on the last term.
    res = matsubara_sum(lambda w: np.ones_like(w), 2.0)
    assert not res.converged
    assert res.evaluations == 100_001
    assert res.value == (0.5 + 100_000) / 2.0
    assert math.isfinite(res.error_estimate) and res.error_estimate >= 0.5


def test_matsubara_sum_validation():
    with pytest.raises(ValueError):
        matsubara_sum(lambda z: 0.0, beta=0.0)
    with pytest.raises(ValueError):
        matsubara_sum(lambda z: 0.0, beta=math.inf)


def test_bracket_root_finds_cosine_zero():
    root = bracket_root(math.cos, 1.0, 2.0, rel_tol=1e-12)
    assert root is not None
    assert abs(root - math.pi / 2.0) <= 1e-11


def test_bracket_root_returns_none_without_sign_change():
    assert bracket_root(lambda x: x**2 + 1.0, -1.0, 1.0) is None


def test_bracket_root_rejects_bad_input():
    with pytest.raises(ValueError):
        bracket_root(math.cos, 2.0, 1.0)
    with pytest.raises(QuadratureError):
        bracket_root(lambda x: math.nan, 0.0, 1.0)
    for rel_tol in (math.nan, -1e-10):
        with pytest.raises(ValueError):
            bracket_root(math.cos, 1.0, 2.0, rel_tol=rel_tol)
    # A non-finite value inside the bracket is a numerical failure too,
    # wherever the search steps first.
    with pytest.raises(QuadratureError, match="non-finite value in bracket_root at"):
        bracket_root(lambda x: x - 0.25 if x in (0.0, 1.0) else math.nan, 0.0, 1.0)


def test_bracket_root_returns_an_exact_zero_at_a_midpoint():
    # The first regula falsi point of (x - 0.5)**3 on [0, 1] is the
    # midpoint, an exact zero: the search ends there.  So it does at any
    # point, here the first to fall in a band where f is exactly 0.
    for f, band, most in [(lambda x: (x - 0.5) ** 3, (0.5, 0.5), 3),
                          (lambda x: max(x - 0.3, 0.0) - max(0.29 - x, 0.0), (0.29, 0.3), 9)]:
        calls = []

        def g(x):
            calls.append(x)
            return f(x)

        root = bracket_root(g, 0.0, 1.0)
        assert band[0] <= root <= band[1] and calls[-1] == root and f(root) == 0.0
        assert len(calls) <= most


def _bisection_points(f, lo, hi, rel_tol):
    """The points at which bisection to bracket_root's width rule evaluates f."""
    points = [lo, hi]
    flo = f(lo)
    while hi - lo > rel_tol * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        points.append(mid)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return points


def test_bracket_root_evaluates_at_most_once_more_than_bisection():
    # Regula falsi alone crawls toward a flat high-order root from one
    # side, and toward the root of a step from both; next to an end
    # whose value is 1e-300 its point is that end, and the midpoint is
    # taken instead.  The projection
    # toward the midpoint keeps each search within one evaluation of
    # bisection's (36 to 39 points here), where regula falsi with a
    # midpoint after two steps that failed to halve the bracket took
    # 76 on (x - 0.3)**9.  A smooth root takes far fewer points than
    # bisection: 10 against 35 for sqrt(2).
    for f, lo, hi, root in [(lambda x: (x - 0.3) ** 9, 0.0, 1.0, 0.3),
                            (lambda x: (x - 0.3) ** 3, 0.0, 1.0, 0.3),
                            (lambda x: x**9 - 1e-9, 0.0, 1.0, 0.1),
                            (lambda x: -1.0 if x < 0.7 else 1.0, 0.0, 1.0, 0.7),
                            (lambda x: math.exp(x) - 1e5, 0.0, 20.0, math.log(1e5)),
                            (lambda x: x - 0.5 - 1e-300, 0.5, 1.0, 0.5),
                            (lambda x: x * x - 2.0, 1.0, 2.0, math.sqrt(2.0))]:
        calls = []

        def g(x):
            calls.append(x)
            return f(x)

        found = bracket_root(g, lo, hi, rel_tol=1e-10)
        assert abs(found - root) <= 1e-10 * hi
        assert len(calls) <= len(_bisection_points(f, lo, hi, 1e-10)) + 1
    assert len(calls) <= 10


def test_bracket_root_stops_on_adjacent_floats_at_zero_tolerance():
    # x*x - 2 has no floating-point zero, so only the adjacent-float stop ends the loop.
    root = bracket_root(lambda x: x * x - 2.0, 1.0, 2.0, rel_tol=0.0)
    assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))


def test_bracket_root_exact_endpoint_zero():
    assert bracket_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bracket_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
