"""The benchmark workloads' CLI output against the table in ``_golden.py``.

A change that moves output bytes on purpose regenerates the table with
``tests/regen_golden.py``, which prints every moved cell; the value
checks still hold the new cells to the stored ones within the estimates.
"""

import os
import subprocess
import sys
from pathlib import Path

from _golden import GOLDEN, REFERENCES
from regen_golden import digest, run, table

from casimir_stress import cli
from casimir_stress.units import to_si_energy_density

# The references in J/m**3 for a 1 micrometer gap, as every --si
# invocation of the table prints them: scaled like its rows.
SI_REFERENCES = {name: repr(float(value) * to_si_energy_density(1.0, 1e-6))
                 for name, value in REFERENCES.items()}


def _assert_cells_agree(argv, columns, row, stored):
    """Each value within its own and the stored error estimate of the
    stored value, each ``critical`` root within both bracket widths, and
    every other cell (axis, converged flag, ``none``) as printed."""
    new, old = dict(zip(columns, row)), dict(zip(columns, stored))
    for name in columns:
        if name.startswith("err_") or name == "bracket_rel_width":
            continue  # estimates; the digests pin them
        if "err_" + name in columns:
            bound = float(new["err_" + name]) + float(old["err_" + name])
        elif name == "critical_omega_pa" and old[name] != "none":
            bound = (float(new[name]) * float(new["bracket_rel_width"])
                     + float(old[name]) * float(old["bracket_rel_width"]))
        else:
            assert new[name] == old[name], (argv, name)
            continue
        assert abs(float(new[name]) - float(old[name])) <= bound, (argv, name, row[0])


def test_workload_invocations_print_the_stored_bytes():
    for entry in GOLDEN:
        argv = entry["argv"]
        status, out, err = run(argv.split())
        assert status == entry["status"], argv
        columns, rows, references = table(out)
        if "--si" in argv:
            assert references == SI_REFERENCES, argv
        else:
            assert references == REFERENCES, argv  # the limits, exactly
        assert columns == entry["columns"], argv
        assert len(rows) == len(entry["rows"]), argv
        for row, stored in zip(rows, entry["rows"]):
            _assert_cells_agree(argv, columns, row, stored)
        assert (digest(out), digest(err)) == (entry["stdout"], entry["stderr"]), argv


def test_a_fresh_process_prints_the_in_process_bytes():
    # critical reads the memos, which a fresh process starts without.
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    for argv in ("critical --beta-over-a 5", "sweep --omega-pa 1:1e4 --z 0.5 --grid 25 --format json",
                 "profile --omega-pa 100 --z 0.25:0.75 --grid 3 --si --separation-um 1 --kelvin 300"):
        entry = next(entry for entry in GOLDEN if entry["argv"] == argv)
        fresh = subprocess.run([sys.executable, "-m", "casimir_stress.cli", *argv.split()],
                               env=env, capture_output=True)
        assert fresh.returncode == entry["status"], argv
        printed = digest(fresh.stdout.decode()), digest(fresh.stderr.decode())
        assert printed == (entry["stdout"], entry["stderr"]), argv
