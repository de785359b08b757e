"""Time both thermal routes around the split threshold, point by point.

For each plasma frequency, position and inverse temperature of a grid
whose predicted direct-sum terms span 100 to 400, and at two points
next to a wall where ``beta*omega_p`` is small, it evaluates the five
CLI quantities with the memos cleared: with every sum forced direct,
with every sum forced through the split, with the position sums split
and ``tzz`` direct, and as ``stress`` routes them, alternating the four.
It prints::

    PYTHONPATH=src python3 tests/route_table.py [REPEATS]

* ``terms``: the predicted direct-sum terms at the row's position by
  the mirror factor, ``beta*ln(1/rel_tol)*_dep_scale(z)/(2*pi)``;
* ``mid``: those at the midpoint, by ``stress._falloff``, which also
  counts the reflection coefficients' fall;
* ``route``: the route ``stress`` takes for the row's position sums and
  for ``tzz`` (``d`` direct, ``s`` split);
* ``direct``, ``split``, ``s+tzz``, ``routed``: median milliseconds of
  the five quantities over REPEATS rounds (default 9), and beside each
  the row's kernel points in thousands: the ``evaluations`` of the
  distinct sums it reads, so the closed-form position passes' nodes
  (181 each) count too; ``s+tzz`` is the route of a row near a wall
  whose midpoint is summed directly;
* ``unconv``: the forced routes whose row did not converge;
* ``dev``: where ``perfbench/thermal_oracle.py`` has the point, each
  forced route's worst relative deviation from it over the five
  quantities;
* ``N over``: where the split's bound columns report ``converged`` with
  ``N``'s error estimate above its tolerance ``max(abs_tol,
  rel_tol*|N|)``, the ratio of the two.  Those columns read no position,
  so the entry repeats across positions.
"""

from __future__ import annotations

import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from casimir_stress import PlasmaModel, ThermalState, stress
from casimir_stress.stress import Geometry, Tolerance

ROOT = Path(__file__).resolve().parent.parent
OMEGAS = (1e-3, 1.0, 100.0, 1e4)
POSITIONS = (0.5, 0.25, 0.1)
# beta times the decay scale 1/(2*min(z, 1 - z)): about 99, 148, 198,
# 247, 330 and 396 predicted terms at the default tolerance.
SCALED_BETAS = (30.0, 45.0, 60.0, 75.0, 100.0, 120.0)
# Next to a wall the direct terms fall only like 1/n**2 where the walls
# reflect grazing modes: the direct row at the first point stops
# unconverged at the term cap.
NEAR_WALL = ((0.01, 1e-6, 10.0), (1e-3, 1e-4, 5.0))
OPERATIONS = (stress.energy_density, stress.pressure_xx, stress.pressure_zz,
              stress.nec_transverse, stress.nec_longitudinal)
NAMES = ("t00", "txx", "tzz", "nec_x", "nec_z")


def _oracle() -> dict:
    path = ROOT / "perfbench" / "thermal_oracle.py"
    spec = importlib.util.spec_from_file_location("independent_thermal_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FROZEN


def position_terms(z: float, beta: float, tol: Tolerance) -> float:
    """The terms that the mirror factor predicts at z."""
    return beta * math.log(1.0 / tol.rel_tol) * stress._dep_scale(z) / (2.0 * math.pi)


def midpoint_terms(omega_p: float, beta: float, tol: Tolerance) -> int:
    """The first n whose term stress._falloff predicts below rel_tol."""
    log_tol = math.log(1.0 / tol.rel_tol)
    lo, hi = 0, 1
    while stress._falloff(hi, omega_p, beta) < log_tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if stress._falloff(mid, omega_p, beta) < log_tol else (lo, mid)
    return hi


def row(omega_p: float, z: float, beta: float, thresholds: tuple) -> tuple[float, list]:
    """(seconds, results) of the five quantities with cold memos, each
    evaluated with its own value of stress._SPLIT_ABOVE."""
    saved = stress._SPLIT_ABOVE
    stress.clear_caches()
    try:
        start = time.perf_counter()
        results = []
        for op, threshold in zip(OPERATIONS, thresholds):
            stress._SPLIT_ABOVE = threshold
            results.append(op(Geometry(z), PlasmaModel(omega_p), ThermalState.finite(beta)))
        return time.perf_counter() - start, results
    finally:
        stress._SPLIT_ABOVE = saved
        stress.clear_caches()


def kernel_points(omega_p: float, z: float, beta: float, thresholds: tuple) -> int:
    """The evaluations of the distinct sums that a cold row reads, each
    taken once from the memo that holds it."""
    sums = {}
    saved = stress._unplaced, stress._placed
    try:
        for name, memo in zip(("_unplaced", "_placed"), saved):
            def read(*key, _memo=memo):
                sums[key] = _memo(*key)
                return sums[key]

            read.cache_clear = memo.cache_clear
            setattr(stress, name, read)
        row(omega_p, z, beta, thresholds)
    finally:
        stress._unplaced, stress._placed = saved
    return sum(result.evaluations for result in sums.values())


def bound_overrun(omega_p: float, beta: float, tol: Tolerance) -> float | None:
    """N's error over its tolerance in the split bound columns, where they
    report converged above it; None otherwise."""
    split = stress._split(omega_p, None, beta, tol, stress._BOUND)
    n = stress._BOUND.index("N")
    ratio = split.error_estimate[n] / max(tol.abs_tol, tol.rel_tol * abs(split.value[n]))
    return ratio if split.converged and ratio > 1.0 else None


def main(argv: list[str]) -> None:
    repeats = int(argv[0]) if argv else 9
    tol = Tolerance()
    oracle = _oracle()
    tzz = OPERATIONS.index(stress.pressure_zz)
    routes = {"direct": (math.inf,) * 5, "split": (0.0,) * 5,
              "s+tzz": tuple(math.inf if i == tzz else 0.0 for i in range(5)),
              "routed": (stress._SPLIT_ABOVE,) * 5}
    print(f"threshold {stress._SPLIT_ABOVE} predicted terms; medians of {repeats} "
          "alternated rounds, milliseconds")
    print(f"{'omega_p':>7} {'z':>6} {'beta':>6} {'terms':>10} {'mid':>5} {'route':>5}",
          *(f"{name:>7} {'kpts':>6}" for name in routes),
          f"{'unconv':>12} {'dev direct':>10} {'dev split':>10} {'N over':>7}")
    np.seterr(over="ignore", under="ignore")
    points = [(omega_p, z, scaled * 2.0 * min(z, 1.0 - z))
              for omega_p in OMEGAS for z in POSITIONS for scaled in SCALED_BETAS]
    for omega_p, z, beta in points + list(NEAR_WALL):
        times = {name: [] for name in routes}
        unconverged = set()
        for _ in range(repeats):
            for name, thresholds in routes.items():
                seconds, results = row(omega_p, z, beta, thresholds)
                times[name].append(seconds)
                if not all(r.converged for r in results):
                    unconverged.add(name)
        route = "".join("d" if stress._direct(omega_p, at, beta, tol) else "s"
                        for at in (z, None))
        ref = oracle.get((omega_p, z, beta))
        dev = ["-"] * 2
        if ref is not None:
            for i, name in enumerate(("direct", "split")):
                results = row(omega_p, z, beta, routes[name])[1]
                dev[i] = f"{max(abs(r.value / ref[c] - 1.0) for r, c in zip(results, NAMES)):.1e}"
        over = bound_overrun(omega_p, beta, tol)
        print(f"{omega_p:7g} {z:6g} {beta:6g} {position_terms(z, beta, tol):10.1f} "
              f"{midpoint_terms(omega_p, beta, tol):5d} {route:>5}",
              *(f"{1e3 * statistics.median(t):7.2f} "
                f"{kernel_points(omega_p, z, beta, routes[name]) / 1e3:6.1f}"
                for name, t in times.items()),
              f"{','.join(sorted(unconverged)) or '-':>12} {dev[0]:>10} {dev[1]:>10} "
              f"{'-' if over is None else f'{over:.1f}x':>7}",
              flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
