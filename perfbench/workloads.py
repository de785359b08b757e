"""The three benchmark workloads as lists of CLI argument vectors.

Each workload is a fixed list of ``casimir-stress`` invocations plus one
invocation drawn from a seeded generator, so a run with a given seed
always hands the program the same inputs.  Every invocation runs with
``--jobs 1``; parallelism is not what these workloads measure.

Why these three:

* ``profile``: zero-temperature position profiles at fixed plasma
  frequency.  Rows share ``omega_p``, so z-independent integrals are
  computed once and reused; this is where batching over positions and
  the removal of the caches show.  The near-wall row (decay scale 500)
  is where a shared grid could lose accuracy.
* ``sweep``: zero temperature, one position, many plasma frequencies,
  plus the ``critical`` root search.  Nothing is reused between rows;
  vectorizing over ``omega_p`` and faster root steps show here, while
  profile batching is bypassed.  Covers JSON output too.
* ``thermal``: Matsubara sums only, no two-dimensional integrals.  Cost
  grows with the number of terms, i.e. with ``beta``; vectorizing the
  Matsubara sum shows here and nowhere else.
"""

from __future__ import annotations

import math
import random

NAMES = ("profile", "sweep", "thermal")

_FIXED = {
    "profile": [
        "profile --omega-pa 100 --z 0.05:0.95 --grid 19",
        "profile --omega-pa 10 --z 0.25:0.75 --grid 3",
        "profile --omega-pa 100 --z 0.25:0.75 --grid 3",
        "profile --omega-pa 100 --z 0.001",
        "profile --omega-pa inf --z 0.25:0.75 --grid 3",
        "profile --omega-pa 0 --z 0.5",
        "nec --omega-pa 100 --z 0.05:0.95 --grid 19",
    ],
    "sweep": [
        "sweep --omega-pa 1:1e4 --z 0.5 --grid 25 --format json",
        "critical",
    ],
    "thermal": [
        "profile --omega-pa 100 --z 0.05:0.95 --grid 19 --beta-over-a 5",
        "profile --omega-pa 100 --z 0.5 --beta-over-a 100",
        "profile --omega-pa 100 --z 0.5 --beta-over-a 1000",
        "profile --omega-pa 0 --z 0.25:0.75 --grid 3 --beta-over-a 5",
        "profile --omega-pa 100 --z 0.25:0.75 --grid 3 --si --separation-um 1 --kelvin 300",
        "critical --beta-over-a 5",
        "critical --beta-over-a 2.5",
    ],
}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _seeded_tail(name: str, rng: random.Random) -> str:
    if name == "profile":
        omega = _log_uniform(rng, 10.0, 1e3)
        z_lo = rng.uniform(0.02, 0.2)
        z_hi = rng.uniform(0.8, 0.98)
        return f"profile --omega-pa {omega:.6g} --z {z_lo:.6g}:{z_hi:.6g} --grid 3"
    if name == "sweep":
        lo = _log_uniform(rng, 0.1, 10.0)
        hi = _log_uniform(rng, 1e3, 1e5)
        z = rng.uniform(0.1, 0.9)
        return f"sweep --omega-pa {lo:.6g}:{hi:.6g} --z {z:.6g} --grid 3"
    beta = _log_uniform(rng, 2.5, 50.0)
    # One position: the cost grows with beta, and at three positions the
    # tail alone made pass times differ by 10% between seeds.
    return f"profile --omega-pa 100 --z 0.5 --beta-over-a {beta:.6g}"


def invocations(name: str, seed: int) -> list[list[str]]:
    """Argument vectors of one pass of workload ``name`` for ``seed``.

    The fixed invocations come first; the seeded one is always last.
    """
    if name not in _FIXED:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    lines = [*_FIXED[name], _seeded_tail(name, random.Random(f"{name}:{seed}"))]
    return [[*line.split(), "--jobs", "1"] for line in lines]
