"""Count the lines and the code lines of each module under ``src/``,
and time its compilation.

Code lines are the lines that are left after skipping blank lines,
comment-only lines and the lines of module, class and function
docstrings.  This is the one rule by which the change log and the
roadmap quote the size of the package::

    python3 tests/code_lines.py

The last column is the median of repeated ``compile()`` calls on the
module's source, in milliseconds: what a process without cached
bytecode (``PYTHONDONTWRITEBYTECODE=1`` in a fresh checkout) pays on
import before running any of it.
"""

from __future__ import annotations

import ast
import statistics
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int, float]:
    """(lines, code lines, compile milliseconds) of one source file."""
    text = path.read_text(encoding="utf-8")
    skipped = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in skipped and line.strip() and not line.lstrip().startswith("#"))
    times = []
    for _ in range(15):
        start = time.perf_counter()
        compile(text, str(path), "exec", dont_inherit=True)
        times.append(time.perf_counter() - start)
    return len(lines), code, 1e3 * statistics.median(times)


def main() -> None:
    total_lines = total_code = total_ms = 0
    print(f"{'module':40} {'lines':>6} {'code':>6} {'compile ms':>10}")
    for path in sorted(SRC.rglob("*.py")):
        lines, code, ms = count(path)
        total_lines, total_code, total_ms = total_lines + lines, total_code + code, total_ms + ms
        print(f"{path.relative_to(SRC)!s:40} {lines:6,} {code:6,} {ms:10.2f}")
    print(f"{'total':40} {total_lines:6,} {total_code:6,} {total_ms:10.2f}")


if __name__ == "__main__":
    main()
