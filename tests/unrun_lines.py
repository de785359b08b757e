"""List the lines of the package's function bodies that tier-1 never runs.

Runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, recording only the lines of files under
``src/``, then prints per module every line that the code objects of its
functions, methods, lambdas and generator expressions hold (by
``co_lines``) and that never ran::

    python3 tests/unrun_lines.py [PYTEST ARGS...]

Module and class bodies are left out: importing a module runs them.  A
subprocess that a test starts is not traced, so code that only such a
process reaches is listed (the process entry ``cli.run`` is also called
in process).  Tracing about doubles the suite's time.  The exit status
is pytest's when that is not 0, else 1 if any line is listed and 0 if
none is, so a run that exits 0 has found every line run.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def body_lines(code) -> set[int]:
    """Lines of the function bodies in ``code`` and the code objects it holds."""
    lines = set()
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= body_lines(const)
    if code.co_flags & 0x2:  # CO_NEWLOCALS: a function, not a module or class body
        lines |= {line for _, _, line in code.co_lines()
                  if line is not None and line != code.co_firstlineno}
    return lines


def main(args: list[str]) -> int:
    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              "--rootdir", str(ROOT), *(args or [str(ROOT)])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        unrun = sorted(body_lines(code) - ran.get(str(path), set()))
        total += len(unrun)
        print(f"{path.relative_to(SRC)}: {len(unrun)} unrun", *map(str, unrun))
    print(f"total: {total} unrun")
    return int(status) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
