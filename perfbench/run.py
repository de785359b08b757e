"""Benchmark of the casimir-stress command line, end to end and per layer.

    python3 perfbench/run.py --workload {profile,sweep,thermal} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package runs from ``src``
(``PYTHONPATH=src``), it need not be installed.  Every invocation starts
a fresh interpreter, one at a time, with BLAS/OpenMP threads pinned to
one, so no cache of the package survives from one invocation or pass to
the next.

``--trace 0`` runs one warm-up pass (not counted), times a fresh
interpreter importing ``casimir_stress.cli`` several times, then repeats
the workload's pass while the next one still fits in ``--seconds`` (at
least once) and reports medians.  ``--trace 1`` runs an untraced and a
traced pass in pairs the same way; the traced pass goes through
``trace_child.py`` and must print byte-identical output.  Every pass is
checked row by row (``gate.py``), and must print what the first pass
printed.

The host's speed swings by up to 2x for seconds to minutes at a time,
with CPU time tracking wall time, so raw pass times of runs a few minutes
apart differ by 30%.  Short runs of a fixed reference loop
(``reference_seconds``) are therefore timed before every invocation,
after every pass and before and after every set-up interpreter.  Each
invocation's time and each set-up time is divided by the reference
times right before and after it, so the host's speed cancels:
``wall_ref`` is the median over passes of the sum of those ratios, and
``setup_s`` scales its ratio back to seconds on a host where one
reference chunk takes ``REFERENCE_NOMINAL_S``.  The raw ``wall_s`` and
set-up times are printed with the summary on standard error.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (rows) and ``metrics``; a readable summary,
``failed_frac`` included, goes to standard error.  The exit status is 0
only when every row passed the gate.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import workloads
from gate import Gate
from trace_child import CALLABLE_SPAN, QUADRATURE_FNS, SPANS_MARKER, STRESS_OPS

ROOT = Path(__file__).resolve().parent.parent
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"
SETUP_RUNS = 9
# Children are killed when a run gets this close to its 180 s limit.
DEADLINE_S = 170.0
REFERENCE_ITERATIONS = 2_000
REFERENCE_CHUNKS = 3
# About one chunk's time on the host the baseline was measured on.
REFERENCE_NOMINAL_S = 0.025
_REFERENCE_X = np.linspace(0.01, 1.0, 57)

END_TO_END_UNITS = {
    "wall_ref": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ref_max_rel_err": "1",
    "trace_max_rel_residual": "1",
    "route_max_rel_residual": "1",
}
PER_LAYER_UNITS = {
    "cli.main_s": "s", "cli.self_s": "s", "cli.rows": "count", "cli.bytes_out": "B",
    **{f"stress.{op}.{kind}": unit for op in STRESS_OPS
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "stress.self_s": "s", "stress.integrand_self_s": "s",
    "stress.evals_per_row": "count", "stress.warnings": "count",
    **{f"quadrature.{fn}.{kind}": unit for fn in QUADRATURE_FNS
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "quadrature.self_s": "s", "quadrature.integrand_calls": "count",
    "quadrature.nodes": "count", "quadrature.nodes_per_call": "count",
    "quadrature.matsubara_terms": "count", "quadrature.root_f_calls": "count",
    "quadrature.integrate_2d.calls_per_row": "count", "quadrature.unconverged": "count",
    "dielectric.calls": "count", "dielectric.nodes": "count",
    "dielectric.nodes_per_call": "count", "dielectric.self_s": "s",
    "dielectric.ns_per_node": "ns",
    "trace.overhead_frac": "1",
}
SUMMARY_UNITS = {"wall_s": "s", "setup_raw_s": "s", "failed_frac": "1"}
CALLABLE_SPANS = tuple(dict.fromkeys(CALLABLE_SPAN.values()))
LAYER_SELF_TIMES = ("cli.self_s", "stress.self_s", "stress.integrand_self_s",
                    "quadrature.self_s", "dielectric.self_s")


def reference_seconds() -> float:
    """Wall time of a fixed loop shaped like the package's hot path.

    Python bookkeeping (a bounded heap) around arithmetic on 57-element
    arrays, as in one Gauss-Kronrod panel batch.  It shares no code with
    the package, so it measures only how fast the host runs such code
    right now.
    """
    heap: list = []
    total = 0.0
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        y = np.exp(-_REFERENCE_X * (1 + i % 7)) * np.sqrt(_REFERENCE_X**2 + 1.0)
        total += float(np.einsum("j,j->", _REFERENCE_X, y / (1.0 + _REFERENCE_X)))
        heapq.heappush(heap, (-total, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


class Pass(NamedTuple):
    """One gated pass over a workload's invocations."""

    wall: float
    wall_ref: float
    outcomes: list
    records: list


class Runner:
    """Runs invocations in fresh interpreters and gates their output."""

    def __init__(self, argvs: list[list[str]]):
        self.argvs = argvs
        self.gate = Gate(ROOT)
        self.deadline = time.monotonic() + DEADLINE_S
        self.outcomes = []
        self.fixed_outcomes = []
        self.references = []
        self.first_output = None
        self.env = dict(os.environ)
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def _run(self, cmd: list[str]) -> subprocess.CompletedProcess:
        timeout = max(1.0, self.deadline - time.monotonic())
        return subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              timeout=timeout, check=False)

    def _time_reference(self) -> list[float]:
        chunks = [reference_seconds() for _ in range(REFERENCE_CHUNKS)]
        self.references.extend(chunks)
        return chunks

    def time_setup(self) -> tuple[float, float]:
        """Raw seconds for a fresh interpreter to import the CLI and exit,
        and the same at the nominal reference speed."""
        before = self._time_reference()
        start = time.perf_counter()
        done = self._run([sys.executable, "-c", "import casimir_stress.cli"])
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"import failed: {done.stderr.decode(errors='replace')}")
        speed = statistics.mean(before + self._time_reference())
        return elapsed, elapsed * REFERENCE_NOMINAL_S / speed

    def run_pass(self, traced: bool = False) -> Pass:
        """One gated pass.

        The reference loop is timed before each invocation and after the
        last.  A traced pass runs every invocation through
        ``trace_child.py`` and returns one span record per invocation.
        """
        outputs = []
        times = []
        records = []
        marks = []
        for argv in self.argvs:
            marks.append(self._time_reference())
            entry = [str(TRACE_CHILD)] if traced else ["-m", "casimir_stress.cli"]
            start = time.perf_counter()
            done = self._run([sys.executable, *entry, *argv])
            times.append(time.perf_counter() - start)
            outputs.append((done.returncode, done.stdout))
            if traced:
                last = done.stderr.decode(errors="replace").rstrip("\n").rpartition("\n")[2]
                if not last.startswith(SPANS_MARKER):
                    raise RuntimeError(f"traced {' '.join(argv)} gave no spans: {last}")
                records.append(json.loads(last[len(SPANS_MARKER):]))
        marks.append(self._time_reference())
        wall = sum(times)
        wall_ref = sum(t / statistics.mean(marks[i] + marks[i + 1])
                       for i, t in enumerate(times))
        print(f"{'traced' if traced else 'plain'} pass {wall:.3f} s: "
              + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
        if self.first_output is None:
            self.first_output = [stdout for _, stdout in outputs]
        outcomes = []
        for argv, (code, stdout), first in zip(self.argvs, outputs, self.first_output):
            outcome = self.gate.check(argv, code, stdout)
            if stdout != first and not outcome.failed:
                outcome.failed = outcome.attempted
                outcome.problems.append("output differs from the first pass")
            for problem in outcome.problems:
                print(f"FAIL {' '.join(argv)}: {problem}", file=sys.stderr)
            outcomes.append(outcome)
        self.outcomes.extend(outcomes)
        self.fixed_outcomes.extend(outcomes[:-1])
        return Pass(wall, wall_ref, outcomes, records)


def repeat(seconds: float, one_pass, estimate: float) -> list:
    """Results of ``one_pass()`` calls made while the next should fit.

    ``one_pass`` returns a tuple whose first item is its wall time; the
    median so far predicts the next one.  Always calls at least once.
    """
    results = []
    start = time.monotonic()
    while not results or time.monotonic() - start + estimate <= seconds:
        results.append(one_pass())
        estimate = statistics.median(r[0] for r in results)
    return results


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    warm_wall = runner.run_pass().wall
    setup_raw, setup = zip(*(runner.time_setup() for _ in range(SETUP_RUNS)))
    passes = repeat(seconds, runner.run_pass, warm_wall)
    walls = [p.wall for p in passes]
    print(f"warm-up pass {warm_wall:.3f} s; measured passes "
          + ", ".join(f"{w:.3f}" for w in walls) + " s; raw set-up "
          + " ".join(f"{t:.4f}" for t in setup_raw) + " s; reference chunks "
          + " ".join(f"{r:.4f}" for r in runner.references), file=sys.stderr)
    # Accuracy is taken over the fixed invocations, the same for every
    # seed; over the seeded tail the figures would depend on the seed.
    outcomes = runner.fixed_outcomes
    return {
        "wall_ref": statistics.median(p.wall_ref for p in passes),
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "setup_raw_s": statistics.median(setup_raw),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ref_max_rel_err": max((e for o in outcomes for e in o.ref_errors), default=0.0),
        "trace_max_rel_residual": max(
            (r for o in outcomes for r in o.trace_residuals), default=0.0),
        "route_max_rel_residual": max(
            (r for o in outcomes for r in o.route_residuals), default=0.0),
    }


def layer_metrics(records: list[dict], outcomes, untraced: float, traced: float):
    """Per-layer metrics of one traced pass from its span records."""
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    for record in records:
        for name, values in record["spans"].items():
            spans[name] = [a + b for a, b in zip(spans.get(name, [0, 0.0, 0.0]), values)]
        for key, value in record["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def calls(name):
        return spans.get(name, [0])[0]

    def total(name):
        return spans.get(name, [0, 0.0])[1]

    def own(names):
        return sum(spans[name][2] for name in names if name in spans)

    rows = max(sum(o.rows for o in outcomes), 1)
    dielectric = [name for name in spans if name.startswith("dielectric.")]
    m = {
        "cli.main_s": total("cli.main"),
        "cli.self_s": own(["cli.main"]),
        "cli.rows": sum(o.rows for o in outcomes),
        "cli.bytes_out": sum(o.bytes_out for o in outcomes),
        "stress.self_s": own([f"stress.{op}" for op in STRESS_OPS]),
        "stress.integrand_self_s": own(CALLABLE_SPANS),
        "stress.evals_per_row": counts["evaluations"] / rows,
        "stress.warnings": counts["warnings"],
        "quadrature.self_s": own([f"quadrature.{fn}" for fn in QUADRATURE_FNS]),
        "quadrature.integrand_calls": calls("stress.integrand"),
        "quadrature.nodes": counts["nodes.integrand"],
        "quadrature.matsubara_terms": calls("stress.summand"),
        "quadrature.root_f_calls": calls("stress.root_f"),
        "quadrature.integrate_2d.calls_per_row": calls("quadrature.integrate_2d") / rows,
        "quadrature.unconverged": counts["unconverged"],
        "dielectric.calls": sum(calls(name) for name in dielectric),
        "dielectric.nodes": counts["nodes.dielectric"],
        "dielectric.self_s": own(dielectric),
        "trace.overhead_frac": (traced - untraced) / untraced,
    }
    for op in STRESS_OPS:
        m[f"stress.{op}.calls"] = calls(f"stress.{op}")
        m[f"stress.{op}.s"] = total(f"stress.{op}")
    for fn in QUADRATURE_FNS:
        m[f"quadrature.{fn}.calls"] = calls(f"quadrature.{fn}")
        m[f"quadrature.{fn}.s"] = total(f"quadrature.{fn}")
    m["quadrature.nodes_per_call"] = m["quadrature.nodes"] / max(m["quadrature.integrand_calls"], 1)
    m["dielectric.nodes_per_call"] = m["dielectric.nodes"] / max(m["dielectric.calls"], 1)
    m["dielectric.ns_per_node"] = 1e9 * m["dielectric.self_s"] / max(m["dielectric.nodes"], 1)

    # The self times add up to cli.main_s by construction; this catches a
    # broken span stack.  What can really escape is an entry point that
    # runs without its callable wrapped, so check those spans too.
    gap = sum(m[name] for name in LAYER_SELF_TIMES) - m["cli.main_s"]
    if abs(gap) > 1e-9 * max(m["cli.main_s"], 1.0):
        raise RuntimeError(f"layer self times miss cli.main_s by {gap:.3e} s")
    for fn, span in CALLABLE_SPAN.items():
        if calls(f"quadrature.{fn}") and not calls(span):
            raise RuntimeError(f"quadrature.{fn} ran, but no {span} span did")
    return m


def per_layer(runner: Runner, seconds: float) -> dict[str, float]:
    runner.run_pass()

    def pair():
        untraced = runner.run_pass().wall
        traced = runner.run_pass(traced=True)
        return (untraced + traced.wall,
                layer_metrics(traced.records, traced.outcomes, untraced, traced.wall))

    pairs = repeat(seconds, pair, 0.0)
    return {name: statistics.median(p[1][name] for p in pairs) for name in PER_LAYER_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in ("src/casimir_stress/cli.py", "tests/_frozen.py", "docs/output-schema.json"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} is missing; run from a source checkout",
                  file=sys.stderr)
            return 2

    runner = Runner(workloads.invocations(args.workload, args.seed))
    for argv in runner.argvs:
        print("casimir-stress " + " ".join(argv), file=sys.stderr)
    try:
        if args.trace:
            values, units = per_layer(runner, args.seconds), PER_LAYER_UNITS
        else:
            values, units = end_to_end(runner, args.seconds), END_TO_END_UNITS
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(o.attempted for o in runner.outcomes)
    failed = sum(o.failed for o in runner.outcomes)
    values["failed_frac"] = failed / attempted
    for name, unit in {**units, **SUMMARY_UNITS}.items():
        if name in values:
            print(f"{name:40s} {values[name]:.6g} {unit}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
