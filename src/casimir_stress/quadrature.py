"""Deterministic quadrature for exponentially decaying integrands.

Every integral in this package has the same shape: a smooth integrand on
[0, inf) that dies off exponentially with a scale known in advance,
either alone or together with a second variable on [0, inf) or [0, 1].

Every integral, in one dimension or two, runs through one driver on
the double-exponential rules: exp-sinh on a half-line, tanh-sinh on
[0, 1].  The first integrand call takes levels 0 to 4 of a single
integral, levels 0 to 3 of both axes of a double one, and each axis
starts at the deepest level that call evaluated.  While an axis's change
from its previous level misses the tolerance, its step is halved, with
every earlier node reused.  The value is the total at the levels
reached, and the error estimate that change (in two dimensions, the sum
of both axes' changes, each axis refined on its own).  A pass that its
evaluation budget stops warns, naming the level of each axis.  A
non-finite integrand value, result or error estimate raises
QuadratureError.  Refinement and accumulation order are fixed, so
repeated runs return bit-identical values; nothing here depends on
threads, hashing or global state (the one cache, of node tables, holds
read-only tables equal to rebuilt ones).

Integrands are called with numpy arrays of abscissae and should return
an array of their broadcast shape, or one row of components per node for
a vector-valued integral.  Plain scalar functions (for example
``math``-based lambdas) are detected on the first call and evaluated
point by point instead.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from ._record import record

__all__ = [
    "Tolerance",
    "QuadratureResult",
    "QuadratureError",
    "SemiInfinite",
    "UnitInterval",
    "integrate_semiinf",
    "integrate_unit",
    "integrate_2d",
    "matsubara_sum",
    "bracket_root",
]


class QuadratureError(RuntimeError):
    """An integrand value, or a result or its error estimate, is not finite."""


@record
class Tolerance:
    """Termination targets for one integration pass.

    A pass is accepted once its error estimate drops below
    max(abs_tol, rel_tol*|value|), for every component of a vector
    integrand.  ``max_evaluations`` caps the integrand evaluations of one
    integrate_semiinf, integrate_unit or integrate_2d call, every node of
    its final grid together; when it would be exceeded the result is
    returned with ``converged=False`` rather than raising.  It must
    admit the first grid of a one-dimensional pass.  matsubara_sum has
    its own cap on the number of terms, sums every frequency it
    evaluates, and stops after the first block of frequencies at whose
    end its geometric tail is within rel_tol*|sum| + abs_tol; it then
    adds the geometric continuation of its last two terms, which that
    tail bounds.

    A stress quantity combines several passes, and its ``converged``
    means that every one of them met its tolerance in each of its
    columns, within its budget.  It says nothing more of the quantity:
    where the columns cancel, its relative estimate may exceed rel_tol
    (t00 = H*(D - B2) cancels about 50x at omega_p = 100, z = 0.5).  A
    split column's windowed integral lies on a fixed rule in zeta, whose
    change from its coarser level enters the column's error estimate and
    must meet the column's tolerance, like a pass's change; the column's
    Poisson bound enters its error estimate but not its flag.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_evaluations: int = 10_000_000

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be a positive finite number")
        if not (self.abs_tol >= 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be non-negative and finite")
        if self.max_evaluations < 15:
            raise ValueError("max_evaluations must be at least 15")


@record
class QuadratureResult:
    """Value of an integral together with bookkeeping.

    ``value`` is the total at the deepest level evaluated, level 4 at
    least for a single integral unless the budget is smaller.
    ``error_estimate`` is an upper-bound style estimate: the change from
    the previous level (in two dimensions, the sum of each axis's change
    from its previous level); ``evaluations`` counts the nodes at which
    the integrand was evaluated, every node of the value's level;
    ``converged`` records whether the tolerance targets were met within
    budget.
    ``value`` and ``error_estimate`` are arrays for a vector integrand.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


@record
class SemiInfinite:
    """Domain marker: [0, inf) with the given exponential decay scale.

    The scale sets how far the nodes reach: to 7e6*decay_scale in
    integrate_semiinf, only to 100*decay_scale on an axis of integrate_2d.
    """

    decay_scale: float

    def __post_init__(self):
        if not (self.decay_scale > 0.0 and math.isfinite(self.decay_scale)):
            raise ValueError("decay_scale must be a positive finite number")


@record
class UnitInterval:
    """Domain marker: [0, 1]."""


_DEFAULT_TOL = Tolerance()


def _scalar_tolerant(f):
    """Wrap ``f`` so it maps abscissa arrays to an array of their broadcast
    shape plus one axis of components (one for a scalar integrand).

    Vectorized callables pass through; scalar-only callables (detected by
    a failed or mis-shaped array call) fall back to a point loop.  The
    wrapper's ``vector`` records whether ``f`` returned components.
    """

    def call(*args):
        shape = np.broadcast(*args).shape
        if not call.loop:
            try:
                y = np.asarray(f(*args), dtype=float)
                if y.shape[: len(shape)] == shape and y.ndim <= len(shape) + 1:
                    call.vector = y.ndim > len(shape)
                    return y.reshape(*shape, -1)
            except (TypeError, ValueError):
                pass
            call.loop = True
        points = zip(*(np.broadcast_to(a, shape).ravel() for a in args))
        return np.array([float(f(*p)) for p in points]).reshape(*shape, 1)

    call.loop = call.vector = False
    return call


def _block_sums(values, weights, *axes):
    """Sums of one block of ``values`` times ``weights`` over its last node axis.

    ``values`` has one axis per abscissa array in ``axes``, then one of
    components; the product runs over its component-major view.  The
    weights are positive, so a non-finite value makes some sum non-finite.
    Only then is the block searched: QuadratureError names its first
    non-finite node, x, or (x, y) for two axes.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        sums = values.transpose(-1, *range(values.ndim - 1)) @ weights
    if not np.isfinite(sums).all():
        bad = np.argwhere(~np.isfinite(values).all(axis=-1))
        if bad.size:
            point = tuple(float(np.ravel(a)[i]) for a, i in zip(axes, bad[0]))
            at = f"x = {point[0]!r}" if len(point) == 1 else f"(x, y) = {point!r}"
            raise QuadratureError(f"integrand returned a non-finite value at {at}")
    return sums


def _finite(name, value, error):
    """Raise QuadratureError unless a result is finite (``nan > bound`` is False)."""
    if not (np.isfinite(value).all() and np.isfinite(error).all()):
        raise QuadratureError(f"{name} result is not finite: value {value.tolist()}, "
                              f"error {error.tolist()}")


# Double-exponential rules (Takahasi & Mori 1974) put the nodes of each
# axis at tau = i*h with h = _DE_STEP/2**level, so a level keeps every
# node of the one before and adds the odd i between them.  exp-sinh maps
# tau onto [0, inf) as x = L*exp(pi/2*sinh(tau)); its range keeps x/L
# between 3e-15, where exp(-2*x) still differs from 1 for any L >= 0.5
# (so 1 - r**2*exp(-2*x) never vanishes), and 100, past which exp(-x/L)
# decay leaves nothing.  tanh-sinh maps tau onto (0, 1); its range stops
# 1.3e-16 short of 1, which is never evaluated, with weights below 5e-15
# left out, but reaches down to 5e-38, where narrow layers such as the
# p-wave layer t < omega_p/u still carry weight.  With the first step
# 0.6 the stress integrands are accurate to about 1e-12 at h = 0.075 on
# the t axis and a level later on the u axis, which is why each axis is
# refined on its own.
_DE_STEP = 0.6
_EXP_SINH = (-3.75, 1.8)
# A one-dimensional half-line pass reaches x/L = 7e6 instead: its decay
# scale comes from the caller, and one 1000 times too small must cost
# levels, not the far part of the integral.
_EXP_SINH_1D = (-3.75, 3.0)
_TANH_SINH = (-4.0, 3.15)
# One-dimensional integrand calls take at most this many nodes, bounding
# memory: 32 KB an array, far below the size from which the allocator
# maps fresh pages for every allocation.  A double integral's calls take
# whole rows of y, one x node each, as many as fit and one at least, so
# from level 9 of the y axis (4,737 nodes on a half-line, 6,102 on
# [0, 1]) a call takes one row longer than this.
_BLOCK = 4096
# The deepest level that a pass's first integrand call evaluates, and the
# level each axis starts from, by the number of axes.  A single integral
# evaluates its 181 or 191 nodes through level 4 at once and reports no
# coarser total: most passes end there, and for a small integrand such as
# the zero-temperature position pass's one call on all of them costs far
# less than four calls level by level.  A double integral refines each
# axis on its own from level 3 of both (75 by 96 nodes for the bound
# pass): every zero-temperature bound pass reaches that grid, so no round
# is spent below it.  Only an integrand that is zero everywhere pays more,
# 7,200 nodes where levels 0 and 1 would stop at 456.
_FIRST_LEVEL = {1: 4, 2: 3}


@lru_cache(maxsize=128)
def _axis(scale, level, span, newest):
    """Read-only nodes of one axis up to ``level`` and their weights by group.

    The axis is the half-line of decay scale ``scale``, or [0, 1] where
    that is None; ``span`` replaces its tau range.  Returns (x, matrix):
    x is ordered by the level that adds each node, and column g of the
    (nodes, groups) matrix holds the weights of the nodes that level g
    adds, zeros elsewhere.  Weights leave out the step, so a node keeps
    its weight from level to level.  With ``newest``, only the nodes that
    ``level`` adds, as one group.  A half-line table is built at scale 1
    and scaled, so that one build serves every scale.
    """
    if scale not in (None, 1.0):
        tables = [scale * table for table in _axis(1.0, level, span, newest)]
    else:
        h = _DE_STEP / 2**level
        lo, hi = span or (_TANH_SINH if scale is None else _EXP_SINH)
        index = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
        first = np.full(index.size, level)
        for k in range(1, level + 1):
            first[index % 2**k == 0] = level - k
        order = np.argsort(first, kind="stable")
        first, tau = first[order], index[order] * h
        s = 0.5 * math.pi * np.sinh(tau)
        if scale is None:
            x = 1.0 / (1.0 + np.exp(-2.0 * s))
            weight = (0.25 * math.pi) * np.cosh(tau) / np.cosh(s) ** 2
        else:
            x = np.exp(s)
            weight = x * (0.5 * math.pi) * np.cosh(tau)
        groups = np.arange(level if newest else 0, level + 1)
        keep = first >= groups[0]
        tables = [x[keep], np.where(first[keep, None] == groups, weight[keep, None], 0.0)]
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def _grid_sums(fs, axes):
    """Sums of the weighted integrand over every tuple of node groups.

    ``axes`` holds (nodes, weight matrix) per axis, as _axis returns
    them; returns shape (groups per axis..., m).  One-dimensional
    integrand calls take at most _BLOCK nodes; two-dimensional ones take
    whole rows of y, one x node each, as many as fit in _BLOCK and one
    at least, so a row longer than _BLOCK is one call.  Matrix products
    with one weight column per group contract each block's last axis,
    then in two dimensions the x axis.
    """
    x, by_x = axes[0]
    if len(axes) == 1:
        return sum(
            _block_sums(fs(x[i : i + _BLOCK]), by_x[i : i + _BLOCK], x[i : i + _BLOCK])
            for i in range(0, x.size, _BLOCK)
        ).T
    y, by_y = axes[1]
    rows = max(1, _BLOCK // y.size)
    per_row = np.concatenate([
        _block_sums(fs(x[i : i + rows, None], y[None, :]), by_y, x[i : i + rows], y)
        for i in range(0, x.size, rows)
    ], axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        return (by_x.T @ per_row).transpose(1, 2, 0)


def _integrate(name, f, axes, tol):
    """The double-exponential pass behind the public function ``name``.

    ``axes`` holds (decay scale, tau span) for each of one or two axes,
    x first, as _axis reads them.  Each axis has its own level; refining
    one halves its step and evaluates only the nodes it adds.  ``parts``
    keeps sums by the levels at which their nodes first appear, so the
    value with any axis one level coarser costs no evaluation, and
    ``totals`` keeps each total once reduced.  The first integrand call
    evaluates every level through _FIRST_LEVEL (4 in one dimension, 3 in
    two), or as deep as the budget admits, level 0 at least, and every
    axis starts there.  Each round refines every axis whose change from
    its coarser level misses the tolerance in some component, and the
    pass ends when none does; the value is the total at the levels
    reached and the error estimate the sum of the axes' changes.  A
    refinement that would take the node count past
    ``tol.max_evaluations`` does not run: the result then carries
    ``converged=False`` and a warning names the levels reached.
    """
    tol = tol or _DEFAULT_TOL
    fs = _scalar_tolerant(f)
    over = tuple(range(len(axes)))
    totals = {}

    def size(levels):
        # Node counts do not depend on the scale: read the scale-1 tables.
        return math.prod([_axis(scale and 1.0, l, span, False)[0].size
                          for (scale, span), l in zip(axes, levels)])

    def grid(levels, newest=None):
        return [_axis(scale, l, span, a == newest)
                for a, ((scale, span), l) in enumerate(zip(axes, levels))]

    def estimate(levels):
        key = tuple(levels)
        if key not in totals:
            step = math.prod([_DE_STEP / 2**l for l in levels])
            totals[key] = step * np.add.reduce(parts[tuple([slice(l + 1) for l in levels])], over)
        return totals[key]

    first = _FIRST_LEVEL[len(axes)]
    while first and size([first] * len(axes)) > tol.max_evaluations:
        first -= 1
    levels = [first] * len(axes)
    parts = _grid_sums(fs, grid(levels))
    total = estimate(levels)
    error = np.abs(total)
    converged = False
    while levels[0] and np.isfinite(total).all():
        changes = [
            np.abs(total - estimate(levels[:a] + [l - 1] + levels[a + 1 :]))
            for a, l in enumerate(levels)
        ]
        error = sum(changes[1:], changes[0])
        bound = np.maximum(tol.abs_tol, tol.rel_tol * np.abs(total))
        refine = [bool((change > bound).any()) for change in changes]
        if not any(refine):
            converged = True
            break
        if size([l + r for l, r in zip(levels, refine)]) > tol.max_evaluations:
            break
        for a in over:
            if refine[a]:
                levels[a] += 1
                parts = np.concatenate([parts, _grid_sums(fs, grid(levels, a))], axis=a)
        total = estimate(levels)
    evaluations = size(levels)
    _finite(name, total, error)
    if not converged:
        reached = " and ".join(f"level {l} in {v}" for l, v in zip(levels, "xy"))
        warnings.warn(
            f"{name} did not meet its tolerance: stopped at {reached} "
            f"after {evaluations} nodes",
            stacklevel=3,
        )
    if fs.vector:
        return QuadratureResult(total, error, evaluations, converged)
    return QuadratureResult(float(total[0]), float(error[0]), evaluations, converged)


def integrate_unit(f, tol: Tolerance | None = None) -> QuadratureResult:
    """Integrate ``f`` over [0, 1].

    Parameters
    ----------
    f : callable
        Integrand; called with an abscissa array, scalar fallback applies.
        It may return shape (n, m) for m components integrated together.
    tol : Tolerance, optional
        Termination targets; package defaults when omitted.

    Returns
    -------
    QuadratureResult
        From tanh-sinh nodes, which never include the endpoints, so
        integrable endpoint behavior is fine.  The first integrand call
        takes every node through level 4 (191 nodes), or as deep as
        ``tol.max_evaluations`` admits, and each later level one call
        more.  The value is the total at the deepest level evaluated,
        level 4 at least, and the error estimate its change from the
        coarser level; the pass ends at the first level whose change
        meets the tolerance, and ``evaluations`` counts its nodes.  A pass
        stopped by ``tol.max_evaluations`` warns and carries
        ``converged=False``.  A non-finite integrand value (named by its
        abscissa), result or error estimate raises QuadratureError.
    """
    return _integrate("integrate_unit", f, [(None, None)], tol)


def integrate_semiinf(f, decay_scale: float, tol: Tolerance | None = None) -> QuadratureResult:
    """Integrate ``f`` over [0, inf) assuming exponential decay.

    Parameters
    ----------
    f : callable
        Integrand; called with an abscissa array, scalar fallback applies.
        It may return shape (n, m) for m components integrated together.
    decay_scale : float
        Expected scale L of the falloff, exp(-x/L) style.  The exp-sinh
        nodes x = L*exp(pi/2*sinh(tau)) reach from 3e-15*L to 7e6*L.
        A mismatched scale costs extra levels, not correctness.
    tol : Tolerance, optional

    Returns
    -------
    QuadratureResult
        Of shape (m,) values and errors for an (n, m) integrand, each
        component meeting the tolerance on its own.  Value, levels, error
        estimate, budget and ``evaluations`` are as for integrate_unit,
        warning included; through level 4 there are 181 nodes.

    Notes
    -----
    The integrand is assumed to vanish beyond 7e6*L; that is exactly the
    exponential-decay contract.  A non-finite integrand value, result or
    error estimate raises QuadratureError.
    """
    scale = SemiInfinite(decay_scale).decay_scale
    return _integrate("integrate_semiinf", f, [(scale, _EXP_SINH_1D)], tol)


def integrate_2d(
    f,
    outer: SemiInfinite,
    inner: Union[SemiInfinite, UnitInterval],
    tol: Tolerance | None = None,
) -> QuadratureResult:
    """Double integral of ``f(x, y)``, x over [0, inf), y over ``inner``.

    Parameters
    ----------
    f : callable
        Called as ``f(x, y)`` with read-only x of shape (r, 1) and y of
        shape (1, n); returns an (r, n) array, or (r, n, m) for m components
        integrated together (scalar fallback applies, node by node).  An
        (r, n, m) view of component-major (m, r, n) storage, such as
        ``np.stack(columns).transpose(1, 2, 0)``, is summed without a copy.
    outer : SemiInfinite
        Decay scale L for the x integration.  A half-line axis here ends
        at 100*L (integrate_semiinf reaches 7e6*L) and whatever lies
        beyond is left out, so L must not fall far below the integrand's
        own decay scale.
    inner : SemiInfinite or UnitInterval
        Domain of the y integration.
    tol : Tolerance, optional

    Returns
    -------
    QuadratureResult
        From a tensor-product double-exponential rule: exp-sinh on a
        half-line, tanh-sinh on [0, 1].  Each axis has its own level and
        is refined while its change from its coarser level misses the
        tolerance in some component; ``error_estimate`` is the sum of
        the two axes' changes.  ``evaluations`` counts nodes.  The first
        grid always runs; a refinement that would take the count past
        ``tol.max_evaluations`` does not, and the result then carries
        ``converged=False`` and a warning names the levels reached.
        Values and errors have shape (m,) for an (r, n, m) integrand.
        A non-finite integrand value, result or error raises QuadratureError.
    """
    axes = [(outer.decay_scale, None), (getattr(inner, "decay_scale", None), None)]
    return _integrate("integrate_2d", f, axes, tol)


def _ratio(num, den):
    """num/den of non-negative arrays, with 0/0 = 0 and x/0 = inf."""
    return np.divide(num, den, out=np.where(num > 0.0, np.inf, 0.0), where=den > 0.0)


def matsubara_sum(g, beta: float, tol: Tolerance | None = None) -> QuadratureResult:
    """Weighted thermal sum (1/beta) * [g(0)/2 + sum_{n>=1} g(2*pi*n/beta)].

    ``g`` gets arrays of consecutive frequencies, 8 of them first, then
    16, 32 and from then on 64 at a time, and returns one value, or one
    row of m components, per frequency (scalar fallback applies).  The
    n = 0 term carries half weight.  Every evaluated frequency is summed,
    each running sum adding one term after another, whatever the blocks.
    The tail is tested at each block's end: summation stops after the
    first block where every component's geometric tail is within
    rel_tol*|sum| + abs_tol (unscaled); the decay ratio is the larger of
    the block's last two term ratios and the tail is summed from the
    larger of its last two terms, so a term that is small only by a sign
    change cannot end the sum.  Once it has converged, each component
    adds the continuation c**2/(b - c) of its last two terms b and c,
    where |c| < |b| and it is finite: Aitken's delta-squared on the
    partial sums, and the exact tail of a geometric series.  That is at
    most the tail bound, so the value moves by less than its estimate.
    A hard cap of 1e5 terms returns ``converged=False``, with nothing
    added.  The error estimate is that tail plus abs_tol, over beta;
    values and errors have shape (m,) for m components.
    ``evaluations`` counts the terms summed, which are all the terms
    evaluated; a sum or error that is not finite raises QuadratureError.
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError("beta must be a positive finite number")
    tol = tol or _DEFAULT_TOL
    gs = _scalar_tolerant(g)
    cap = 100_000
    converged = False
    n, total, count = 0, 0.0, 8
    while n <= cap and not converged and np.isfinite(total).all():
        block = gs(2.0 * math.pi * np.arange(n, min(n + count, cap + 1), dtype=float) / beta)
        count = min(2 * count, 64)
        if n == 0:
            total, block, n = 0.5 * block[0], block[1:], 1
        n += len(block)
        with np.errstate(invalid="ignore", over="ignore"):
            total = np.cumsum(np.vstack([total, block]), axis=0)[-1]
        # The tail after the block's last term, from its last three.
        a, b, c = np.abs(block[-3:])
        ratio = np.maximum(_ratio(c, b), _ratio(b, a))
        tail = np.divide(np.maximum(b, c) * ratio, 1.0 - ratio,
                         out=np.full_like(ratio, np.inf), where=ratio < 1.0)
        converged = bool(np.all(tail <= tol.rel_tol * np.abs(total) + tol.abs_tol))
    if converged:
        # Aitken's delta-squared on the partial sums: the signed tail
        # c**2/(b - c) of the geometric series through the last two terms,
        # added where they fall (|c| < |b|, so within the tail bound).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rest = block[-1] ** 2 / (block[-2] - block[-1])
        total = total + np.where((c < b) & np.isfinite(rest), rest, 0.0)
    else:
        tail = np.where(np.isfinite(tail), tail, np.maximum(b, c))
    with np.errstate(over="ignore"):
        value, error = total / beta, (tail + tol.abs_tol) / beta
    _finite("matsubara_sum", value, error)
    if not gs.vector:
        value, error = float(value[0]), float(error[0])
    return QuadratureResult(value, error, n, converged)


def bracket_root(
    f: Callable[[float], float], lo: float, hi: float, rel_tol: float = 1e-10
):
    """Locate a sign change of ``f`` on [lo, hi] by safeguarded regula falsi.

    Each step evaluates f once, at the regula falsi point of the bracket
    with the Illinois modification (Dowell & Jarratt 1971: the value at
    an end kept twice in a row is halved, so that both ends close in),
    or at the midpoint where that point is not strictly inside.  As in
    the ITP method (Oliveira & Takahashi 2021) the point is then moved
    0.2*width**2/(initial width) toward the midpoint, so that a root
    approached from one side is passed, and into the interval about the
    midpoint that leaves a bracket no wider than twice bisection's after
    as many steps.  So f is evaluated at most once more than bisection
    would, and far less often near a simple root.

    Returns the midpoint of the final bracket once its width is below
    rel_tol relative to the endpoint magnitudes, or once its ends are
    adjacent floats (rel_tol = 0 asks for that); a NaN or negative
    rel_tol raises ValueError.  An exact zero of f ends the search at
    its point.  Returns None when f(lo) and f(hi) have the same sign (no
    bracketed root); that outcome is deliberately distinct from
    numerical failure, which raises QuadratureError on a non-finite
    value of f.
    """
    if not (lo < hi):
        raise ValueError("need lo < hi")
    if not (rel_tol >= 0.0):
        raise ValueError("rel_tol must be non-negative")
    flo = float(f(lo))
    fhi = float(f(hi))
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise QuadratureError("non-finite endpoint value in bracket_root")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        return None
    span = reach = hi - lo
    kept = 0
    while (hi - lo) > rel_tol * max(abs(lo), abs(hi), 1e-300):
        mid, width = 0.5 * (lo + hi), hi - lo
        if not (lo < mid < hi):
            break
        x = hi - fhi * (width / (fhi - flo))
        if not (lo < x < hi):
            x = mid
        shift = 0.2 * width * width / span
        x = x + math.copysign(shift, mid - x) if shift <= abs(mid - x) else mid
        radius = max(reach - 0.5 * width, 0.0)
        x, reach = min(max(x, mid - radius), mid + radius), 0.5 * reach
        fx = float(f(x))
        if not math.isfinite(fx):
            raise QuadratureError(f"non-finite value in bracket_root at {x!r}")
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
            fhi *= 0.5 if kept == 1 else 1.0
            kept = 1
        else:
            hi, fhi = x, fx
            flo *= 0.5 if kept == -1 else 1.0
            kept = -1
    return 0.5 * (lo + hi)
