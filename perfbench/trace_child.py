"""Run one CLI invocation with its layer boundaries timed from outside.

    python3 perfbench/trace_child.py ARGV...

Wraps the public functions of ``cli``, ``stress``, ``quadrature`` and
``dielectric`` in the namespace each caller looks them up in, runs
``casimir_stress.cli.main(ARGV)`` and, when it returns, prints per-span
aggregates as the last line of standard error, after ``SPANS_MARKER``.
Standard output is the CLI's own, byte for byte.

Each span records calls, total time and self time (total minus the
time of the spans it encloses), so the self times of all spans add up
to the duration of ``cli.main``.  Spans are aggregated by name in
memory as they end; nothing is written before the CLI returns.  Span
names:

* ``cli.main``;
* ``stress.<op>`` for the six stress operations the CLI uses, wrapped in
  ``cli`` (which binds them at import) and in ``stress`` itself (where
  ``critical_omega_pa`` and the thermal ``nec_longitudinal`` call them);
* ``quadrature.<fn>`` for the five quadrature entry points, wrapped in
  ``stress`` and in ``quadrature``, where ``integrate_2d`` looks up its
  inner passes;
* ``stress.integrand``, ``stress.summand``, ``stress.root_f``: the
  callables ``stress`` hands to the quadrature entry points;
* ``dielectric.<fn>`` for the three reflection kernels, which ``stress``
  reaches as module attributes.

Before it runs the CLI, the tracer refuses (exit status 3) when a layer
calls a function of the layer below that no span would time: a stress
function bound in ``cli``, a quadrature function bound in ``stress`` or
a ``dielectric.<fn>`` attribute in the source of ``stress`` that is not
in the lists below.  Such a call's time would land unnoticed in its
caller's self time.
"""

from __future__ import annotations

import ast
import inspect
import json
import sys
import time
import warnings

STRESS_OPS = ("energy_density", "pressure_xx", "pressure_zz", "nec_transverse",
              "nec_longitudinal", "critical_omega_pa")
QUADRATURE_FNS = ("integrate_2d", "integrate_semiinf", "integrate_unit",
                  "matsubara_sum", "bracket_root")
DIELECTRIC_FNS = ("rs_rp", "rs_rp_ut", "rp_plus_rs_ut")
# Stress functions the CLI calls untimed: a table of constants, no work.
UNTIMED_STRESS = ("reference_limits",)
# Span of the callable that stress passes as each entry point's first argument.
CALLABLE_SPAN = {"integrate_2d": "stress.integrand", "integrate_semiinf":
                 "stress.integrand", "integrate_unit": "stress.integrand",
                 "matsubara_sum": "stress.summand", "bracket_root": "stress.root_f"}
SPANS_MARKER = "perfbench-spans "


def uncovered(cli, stress, dielectric, stress_source: str) -> list[str]:
    """Functions of a lower layer that a caller reaches without a span."""
    missing = []
    for caller, module, traced in (
            (cli, "casimir_stress.stress", STRESS_OPS + UNTIMED_STRESS),
            (cli, "casimir_stress.quadrature", ()),
            (cli, "casimir_stress.dielectric", ()),
            (stress, "casimir_stress.quadrature", QUADRATURE_FNS)):
        for name, value in vars(caller).items():
            if (inspect.isfunction(value) and value.__module__ == module
                    and name not in traced):
                missing.append(f"{caller.__name__}.{name}")
    for node in ast.walk(ast.parse(stress_source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "dielectric" and node.attr not in DIELECTRIC_FNS
                and inspect.isfunction(getattr(dielectric, node.attr, None))):
            missing.append(f"dielectric.{node.attr}")
    return sorted(set(missing))


class Tracer:
    """Span aggregates: name -> [calls, total_s, self_s], plus counters."""

    def __init__(self, cli, stress, quadrature, dielectric):
        self.modules = (cli, stress, quadrature, dielectric)
        self.spans: dict[str, list] = {}
        self.counts = {"nodes.integrand": 0, "nodes.dielectric": 0,
                       "unconverged": 0, "warnings": 0, "evaluations": 0}
        self._stack = [0.0]

    def wrap(self, name, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` counts."""
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - inner
            if after is not None:
                after(args, result)
            return result

        return traced

    def _nodes(self, key):
        counts = self.counts

        def after(args, _):
            nodes = 1
            for arg in args:
                size = getattr(arg, "size", 1)
                if size > nodes:
                    nodes = size
            counts[key] += nodes

        return after

    def _quadrature_entry(self, fn_name, fn, wrap_callable):
        def after(_, result):
            if getattr(result, "converged", True) is False:
                self.counts["unconverged"] += 1

        traced = self.wrap(f"quadrature.{fn_name}", fn, after)
        if not wrap_callable:
            return traced
        span = CALLABLE_SPAN[fn_name]
        counter = self._nodes("nodes.integrand") if span == "stress.integrand" else None

        def entry(f, *args, **kwargs):
            return traced(self.wrap(span, f, counter), *args, **kwargs)

        return entry

    def install(self):
        """Replace the traced functions in their callers' namespaces."""
        cli, stress, quadrature, dielectric = self.modules

        def record_evaluations(_, result):
            self.counts["evaluations"] += getattr(result, "evaluations", 0)

        for op in STRESS_OPS:
            fn = getattr(stress, op)
            setattr(cli, op, self.wrap(f"stress.{op}", fn, record_evaluations))
            setattr(stress, op, self.wrap(f"stress.{op}", fn))
        for fn_name in QUADRATURE_FNS:
            fn = getattr(quadrature, fn_name)
            if hasattr(stress, fn_name):
                setattr(stress, fn_name, self._quadrature_entry(fn_name, fn, True))
            setattr(quadrature, fn_name, self._quadrature_entry(fn_name, fn, False))
        for fn_name in DIELECTRIC_FNS:
            fn = getattr(dielectric, fn_name)
            setattr(dielectric, fn_name,
                    self.wrap(f"dielectric.{fn_name}", fn, self._nodes("nodes.dielectric")))
        original_warn = warnings.warn

        def counted_warn(message, category=None, stacklevel=1, **kwargs):
            self.counts["warnings"] += 1
            original_warn(message, category, stacklevel + 1, **kwargs)

        warnings.warn = counted_warn

    def run(self, argv):
        """Run ``cli.main(argv)`` as the root span; returns its status."""
        return self.wrap("cli.main", self.modules[0].main)(argv)


def main() -> int:
    # Imported here so that run.py can read the name lists above without
    # importing the package it has yet to check for.
    from casimir_stress import cli, dielectric, quadrature, stress

    missing = uncovered(cli, stress, dielectric, inspect.getsource(stress))
    if missing:
        print(f"trace_child: no span would time {', '.join(missing)}", file=sys.stderr)
        return 3
    tracer = Tracer(cli, stress, quadrature, dielectric)
    tracer.install()
    status = tracer.run(sys.argv[1:])
    sys.stdout.flush()
    print(SPANS_MARKER + json.dumps({"spans": tracer.spans, "counts": tracer.counts}),
          file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
