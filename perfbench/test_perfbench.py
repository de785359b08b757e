"""Tests of the benchmark itself: inputs, gate and span accounting.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import inspect
import json
import subprocess
import sys
import types

from casimir_stress import cli, dielectric, quadrature, stress

import workloads
from gate import Gate
from run import (END_TO_END_UNITS, LAYER_SELF_TIMES, PER_LAYER_UNITS, ROOT, TRACE_CHILD,
                 layer_metrics)
from trace_child import SPANS_MARKER, uncovered

FAST = ["--rel-tol", "1e-6", "--abs-tol", "1e-10", "--jobs", "1"]


def test_benchmark_json_lists_the_metrics_the_command_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in bench[key]} == units
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


def test_same_seed_gives_same_argv_and_only_the_tail_varies():
    for name in workloads.NAMES:
        first = workloads.invocations(name, 7)
        assert first == workloads.invocations(name, 7)
        other = workloads.invocations(name, 8)
        assert first[:-1] == other[:-1]
        assert first[-1] != other[-1]


def test_gate_rejects_a_doctored_oracle_row(tmp_path):
    argv = ["profile", "--omega-pa", "100", "--z", "0.5", "--jobs", "1"]
    out = tmp_path / "row.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    gate = Gate(ROOT)
    honest = gate.check(argv, 0, text.encode())
    assert honest.failed == 0 and honest.ref_errors

    header, row = text.splitlines()[-2:]
    cells = row.split(",")
    t00 = header.split(",").index("t00")
    cells[t00] = format(float(cells[t00]) * (1.0 + 1e-6), ".17g")
    doctored = text.replace(row, ",".join(cells))
    outcome = gate.check(argv, 0, doctored.encode())
    assert outcome.failed == 1
    assert "t00" in outcome.problems[0]
    assert gate.check(argv, 2, text.encode()).failed == 1
    assert gate.check(argv, 0, text.replace("converged", "ok").encode()).failed == 1


def test_residuals_count_no_lower_than_the_requested_tolerance():
    argv = ["profile", "--omega-pa", "inf", "--z", "0.5", "--jobs", "1"]
    text = subprocess.run([sys.executable, "-m", "casimir_stress.cli", *argv],
                          capture_output=True, env={"PYTHONPATH": str(ROOT / "src")},
                          check=True).stdout
    outcome = Gate(ROOT).check(argv, 0, text)
    assert outcome.failed == 0
    assert outcome.trace_residuals == [1e-9]
    assert outcome.route_residuals == [1e-9, 1e-9]


def test_tracer_names_a_lower_layer_function_it_would_not_time():
    source = inspect.getsource(stress)
    assert uncovered(cli, stress, dielectric, source) == []

    def integrate_line(f):
        return f

    integrate_line.__module__ = quadrature.__name__
    fake_stress = types.SimpleNamespace(__name__="stress", integrate_line=integrate_line,
                                        integrate_2d=quadrature.integrate_2d)
    assert uncovered(cli, fake_stress, dielectric, source) == ["stress.integrate_line"]
    fake_cli = types.SimpleNamespace(__name__="cli", mean_sq_E=stress.mean_sq_E,
                                     energy_density=stress.energy_density)
    assert uncovered(fake_cli, stress, dielectric, source) == ["cli.mean_sq_E"]
    assert uncovered(cli, stress, dielectric, source + "\ndielectric.eps_imag(1.0, m)\n") == [
        "dielectric.eps_imag"]


def test_traced_run_prints_the_same_bytes_and_its_self_times_close():
    argv = ["profile", "--omega-pa", "10", "--z", "0.5", *FAST]
    env = {"PYTHONPATH": str(ROOT / "src")}
    plain = subprocess.run([sys.executable, "-m", "casimir_stress.cli", *argv],
                           capture_output=True, env=env, check=True)
    traced = subprocess.run([sys.executable, str(TRACE_CHILD), *argv],
                            capture_output=True, env=env, check=True)
    assert traced.stdout == plain.stdout
    last = traced.stderr.decode().rstrip("\n").rpartition("\n")[2]
    assert last.startswith(SPANS_MARKER)

    outcome = Gate(ROOT).check(argv, 0, traced.stdout)
    m = layer_metrics([json.loads(last[len(SPANS_MARKER):])], [outcome], 1.0, 1.0)
    layers = sum(m[name] for name in LAYER_SELF_TIMES)
    assert abs(layers - m["cli.main_s"]) <= 1e-9 * m["cli.main_s"]
    assert all(m[name] > 0.0 for name in LAYER_SELF_TIMES)
    assert m["quadrature.integrate_2d.calls"] > 0
    assert m["quadrature.matsubara_sum.calls"] == 0
    assert m["dielectric.nodes_per_call"] > 1
