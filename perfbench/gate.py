"""Correctness gate: every row the CLI prints is checked before it counts.

A row fails when its invocation exits with a nonzero status, when its
``converged`` cell is 0, when ``nec_x`` is negative, when its output
does not validate against ``docs/output-schema.json`` (JSON output), or
when it misses an independent reference by more than its own error
estimate plus ``ORACLE_REL`` (the references' own uncertainty):

* zero temperature, a ``tests/_frozen.py`` point: the frozen oracle;
* zero temperature, ``omega_p = inf``: the perfect-conductor tensor;
* zero temperature, ``omega_p = 0``: exact zeros;
* finite temperature, ``omega_p = 0``: the blackbody values;
* finite temperature, a ``thermal_oracle.FROZEN`` point: that oracle.

Besides pass/fail the gate collects three accuracy figures per row: the
relative deviation from each nonzero reference, the tracelessness
residual and the residual between each separately integrated null-energy
term and the sum of its components.  A residual is counted no lower than
the row's requested ``rel_tol``: below it, the identities hold to
rounding, and rounding moves with any rewrite of the engine without a
digit being lost.
"""

from __future__ import annotations

import json
import math
import runpy
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

import thermal_oracle

ORACLE_REL = 1e-10
KEY_REL = 1e-12

_PI2 = math.pi**2
CONDUCTOR = {
    "t00": -_PI2 / 720.0,
    "txx": _PI2 / 720.0,
    "tyy": _PI2 / 720.0,
    "tzz": -3.0 * _PI2 / 720.0,
    "nec_x": 0.0,
    "nec_z": -_PI2 / 180.0,
}
_ORACLE_COLUMNS = {
    "energy_density": ("t00",),
    "pressure_xx": ("txx", "tyy"),
    "pressure_zz": ("tzz",),
    "nec_transverse": ("nec_x",),
    "nec_longitudinal": ("nec_z",),
}
# Where the midpoint energy density changes sign, bracketed by the signs
# of the references: t00(10, 0.5) > 0 > t00(100, 0.5) at zero
# temperature, and t00(100, 0.5) > 0 at beta = 5.  At beta = 2.5 it never
# changes sign.
CRITICAL_RANGE = {math.inf: (10.0, 100.0), 5.0: (100.0, 1e5), 2.5: None}


def blackbody(beta: float) -> dict[str, float]:
    """Stress components of the free thermal field, omega_p = 0."""
    energy = _PI2 / (15.0 * beta**4)
    pressure = _PI2 / (45.0 * beta**4)
    return {
        "t00": energy,
        "txx": pressure,
        "tyy": pressure,
        "tzz": pressure,
        "nec_x": energy + pressure,
        "nec_z": energy + pressure,
    }


@dataclass
class Outcome:
    """Gate result of one invocation's output."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    ref_errors: list[float] = field(default_factory=list)
    trace_residuals: list[float] = field(default_factory=list)
    route_residuals: list[float] = field(default_factory=list)
    rows: int = 0
    bytes_out: int = 0


class Gate:
    """Checks CLI outputs against the references of one checkout."""

    def __init__(self, root: Path):
        frozen = runpy.run_path(str(root / "tests" / "_frozen.py"))["ORACLE"]
        self.zero_t = {
            key: {col: value for name, value in entry.items()
                  for col in _ORACLE_COLUMNS.get(name, ())}
            for key, entry in frozen.items()
        }
        self.thermal = thermal_oracle.FROZEN
        schema = json.loads((root / "docs" / "output-schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)

    def check(self, argv: list[str], returncode: int, stdout: bytes) -> Outcome:
        """Gate one invocation: its argv, exit status and standard output."""
        out = Outcome(attempted=expected_rows(argv), bytes_out=len(stdout))
        if returncode != 0:
            return _reject(out, f"exit status {returncode}")
        try:
            doc = parse_output(stdout.decode("utf-8"))
            if option(argv, "--format") == "json":
                errors = [e.message for e in self.validator.iter_errors(doc["raw"])]
                if errors:
                    return _reject(out, f"schema: {errors[0]}")
            rows = doc["rows"]
            out.rows = len(rows)
            if len(rows) != out.attempted:
                return _reject(out, f"{len(rows)} rows, expected {out.attempted}")
            spec = doc["spec"]
            for row in rows:
                cells = dict(zip(doc["columns"], row))
                if spec["command"] == "critical":
                    problem = _check_critical(cells)
                else:
                    problem = self._check_row(spec, cells, out)
                if problem:
                    out.failed += 1
                    out.problems.append(problem)
        except (KeyError, TypeError, ValueError) as exc:
            return _reject(out, f"malformed output: {exc!r}")
        return out

    def _check_row(self, spec: dict, cells: dict, out: Outcome) -> str | None:
        if cells["converged"] != 1:
            return "converged=0"
        if "nec_x" in cells and cells["nec_x"] < 0.0:
            return f"nec_x = {cells['nec_x']!r} < 0"
        zero_t = spec["beta_over_a"] == "inf"
        if "t00" in cells:
            floor = spec["rel_tol"]
            out.trace_residuals.append(_residual(
                cells["t00"] - 2.0 * cells["txx"] - cells["tzz"],
                abs(cells["t00"]) + 2.0 * abs(cells["txx"]) + abs(cells["tzz"]), floor))
            out.route_residuals.append(_residual(
                cells["nec_x"] - (cells["t00"] + cells["txx"]),
                abs(cells["t00"]) + abs(cells["txx"]), floor))
            if zero_t:
                out.route_residuals.append(_residual(
                    cells["nec_z"] - (cells["t00"] + cells["tzz"]),
                    abs(cells["t00"]) + abs(cells["tzz"]), floor))
        if spec["si"]:
            return None
        omega = cells.get("omega_pa", _number(spec["omega_pa"]))
        z = cells.get("z_over_a", spec["z_over_a"])
        if zero_t:
            if omega == 0.0:
                nonzero = [c for c in CONDUCTOR if c in cells and cells[c] != 0.0]
                return f"omega_p = 0 gives nonzero {nonzero[0]}" if nonzero else None
            ref = CONDUCTOR if math.isinf(omega) else _lookup(self.zero_t, (omega, z))
        else:
            beta = spec["beta_over_a"]
            ref = blackbody(beta) if omega == 0.0 else _lookup(self.thermal, (omega, z, beta))
        if ref is None:
            return None
        for col, expected in ref.items():
            if col not in cells:
                continue
            got, err = cells[col], cells[f"err_{col}"]
            miss = abs(got - expected)
            if expected != 0.0:
                out.ref_errors.append(miss / abs(expected))
            if not miss <= ORACLE_REL * abs(expected) + err:
                return (f"{col} = {got!r} misses reference {expected!r} by {miss:.3e} "
                        f"(error estimate {err:.3e})")
        return None


def _reject(out: Outcome, problem: str) -> Outcome:
    out.failed = out.attempted
    out.problems.append(problem)
    return out


def _residual(num: float, den: float, floor: float) -> float:
    """``|num| / den`` (0/0 counts as 0), but no lower than ``floor``."""
    return max(0.0 if den == 0.0 else abs(num) / den, floor)


def _number(value):
    return math.inf if value == "inf" else value


def _lookup(table: dict, key: tuple) -> dict | None:
    for ref_key, ref in table.items():
        if all(abs(a - b) <= KEY_REL * abs(b) for a, b in zip(key, ref_key)):
            return ref
    return None


def _check_critical(cells: dict) -> str | None:
    beta = _number(cells["beta_over_a"])
    root = cells["critical_omega_pa"]
    if beta not in CRITICAL_RANGE:
        return None
    expected = CRITICAL_RANGE[beta]
    if expected is None:
        return None if root == "none" else f"critical root {root!r} where none exists"
    if root == "none" or not expected[0] < root < expected[1]:
        return f"critical root {root!r} outside {expected}"
    if not cells["bracket_rel_width"] > 0.0:
        return "critical root without a bracket width"
    return None


def option(argv: list[str], name: str, default: str = "") -> str:
    """Value of option ``name`` in ``argv``, or ``default``."""
    return argv[argv.index(name) + 1] if name in argv else default


def expected_rows(argv: list[str]) -> int:
    """Rows an invocation should print: ``--grid`` for a range, else one."""
    ranged = ":" in option(argv, "--z") + option(argv, "--omega-pa")
    return int(option(argv, "--grid", "25")) if ranged else 1


def parse_output(text: str) -> dict:
    """Spec, columns and numeric rows of CSV or JSON CLI output."""
    if text.startswith("{"):
        raw = json.loads(text)
        return {"raw": raw, "spec": raw["spec"], "columns": raw["columns"],
                "rows": raw["rows"]}
    spec: dict = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# spec."):
            key, _, value = line[len("# spec."):].partition("=")
            spec[key] = json.loads(value)
        elif not line.startswith("#"):
            lines.append(line.split(","))
    if not spec or not lines:
        raise ValueError("no spec or no header")
    return {"raw": None, "spec": spec, "columns": lines[0],
            "rows": [[_cell(c) for c in row] for row in lines[1:]]}


def _cell(text: str):
    try:
        value = float(text)
    except ValueError:
        return text
    return int(value) if text.isdigit() else value
