"""Regenerate ``tests/_golden.py``: the benchmark workloads' CLI output.

Runs each invocation of the table through ``cli.main`` in process, with
the memos cleared first, prints every cell, exit status and digest that
moved from the stored table (value cells with both error estimates, for
the change log), then one summary line per moved invocation (the cells
moved, the largest relative move of a value cell and the largest move
over its two estimates), and rewrites the table::

    PYTHONPATH=src python3 tests/regen_golden.py

``tests/test_golden.py`` imports ``run``, ``digest`` and ``table`` from
here, so the test and the table read the output the same way.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from _golden import GOLDEN, REFERENCES
from casimir_stress import cli, stress

TABLE = Path(__file__).resolve().parent / "_golden.py"

HEADER = '''"""CLI output of the benchmark workloads' invocations, as a tier-1 check.

The 25 distinct invocations of ``perfbench/workloads.py`` for seeds 1-3
(the fixed lists and each seed's tail), without ``--jobs``, which has no
effect.  For each: the exit status, SHA-256 digests of stdout and stderr,
and the output's columns and data rows as printed.  ``REFERENCES`` holds
the analytic limits every output carries.  Generated by
``tests/regen_golden.py``; ``tests/test_golden.py`` checks it.
"""

'''


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of ``cli.main(argv)`` with cold memos."""
    stress.clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table(stdout: str):
    """(columns, rows, references) of a CSV or JSON output, every cell and
    reference as the text printed; ``(None, [], {})`` for no output."""
    if not stdout:
        return None, [], {}
    if stdout.startswith("{"):
        doc = json.loads(stdout, parse_float=str, parse_int=str)
        return doc["columns"], doc["rows"], doc["references"]
    lines = stdout.splitlines()
    references = dict(line[len("# ref."):].split("=", 1) for line in lines
                      if line.startswith("# ref."))
    columns, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    return columns, rows, references


def _entry(argv: str) -> tuple[dict, dict]:
    status, out, err = run(argv.split())
    columns, rows, references = table(out)
    entry = {"argv": argv, "status": status, "stdout": digest(out), "stderr": digest(err),
             "columns": columns, "rows": rows}
    return entry, references


def _number(cell) -> float | None:
    """A printed cell as a float, or None for text such as a flag."""
    try:
        return float(cell) if isinstance(cell, str) else None
    except ValueError:
        return None


def _moves(old: dict, new: dict) -> tuple[list[str], str]:
    """Every key and cell of ``new`` that differs from ``old``, and a
    summary: the cells moved, the largest relative move of a value cell,
    and the largest move of one over its old and new estimates summed."""
    lines = [f"  {key}: {old[key]} -> {new[key]}" for key in ("status", "stdout", "stderr",
                                                               "columns") if old[key] != new[key]]
    columns = new["columns"] or []
    cells, relative, over = 0, 0.0, []
    for old_row, row in zip(old["rows"], new["rows"]):
        for name, old_cell, cell in zip(columns, old_row, row):
            if old_cell == cell:
                continue
            cells += 1
            err = "err_" + name
            estimates = ""
            before, after = _number(old_cell), _number(cell)
            if not name.startswith("err_") and before and after is not None:
                relative = max(relative, abs(after - before) / abs(before))
            if err in columns:
                errs = old_row[columns.index(err)], row[columns.index(err)]
                estimates = f" (err {errs[0]} -> {errs[1]})"
                if float(errs[0]) + float(errs[1]):
                    over.append(abs(after - before) / (float(errs[0]) + float(errs[1])))
            lines.append(f"  {name} at {columns[0]} = {row[0]}: {old_cell} -> {cell}{estimates}")
    if len(old["rows"]) != len(new["rows"]):
        lines.append(f"  rows: {len(old['rows'])} -> {len(new['rows'])}")
    summary = (f"{new['argv']}: {cells} cells moved, largest relative move {relative:.2g}, "
               f"largest move over the two estimates {f'{max(over):.2g}' if over else '-'}")
    return lines, summary


def _render(entries: list[dict], references: dict) -> str:
    lines = [HEADER + f"REFERENCES = {references!r}", "", "GOLDEN = ["]
    for entry in entries:
        lines.append("    {")
        for key in ("argv", "status", "stdout", "stderr", "columns"):
            lines.append(f"        {key!r}: {entry[key]!r},")
        lines.append("        'rows': [")
        lines.extend(f"            {row!r}," for row in entry["rows"])
        lines.extend(["        ],", "    },"])
    return "\n".join([*lines, "]", ""])


def main() -> int:
    entries, moved, summaries = [], 0, []
    for old in GOLDEN:
        new, printed = _entry(old["argv"])
        # --si prints them in J/m**3; tests/test_golden.py checks those.
        if "--si" not in old["argv"]:
            references = printed
            if references != REFERENCES:
                print(f"{old['argv']}: references {REFERENCES} -> {references}")
                moved += 1
        lines, summary = _moves(old, new)
        if lines:
            print(old["argv"], *lines, sep="\n")
            moved += len(lines)
            summaries.append(summary)
        entries.append(new)
    print(*summaries, sep="\n")
    TABLE.write_text(_render(entries, references), encoding="utf-8")
    print(f"{moved} moved; wrote {TABLE.name} ({len(entries)} invocations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
