"""Tests for the command line interface."""

import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from casimir_stress import cli
from casimir_stress.quadrature import QuadratureResult
from casimir_stress.stress import CRITICAL_REL_WIDTH, reference_limits
from casimir_stress.units import BOLTZMANN, HBAR, SPEED_OF_LIGHT

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "output-schema.json"

FAST = ["--rel-tol", "1e-6", "--abs-tol", "1e-10"]


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else None


def parse_csv(text):
    header = None
    rows = []
    preamble = []
    for line in text.splitlines():
        if line.startswith("#"):
            preamble.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return preamble, header, rows


def test_limits_table_holds_the_analytic_constants(capsys):
    assert cli.main(["limits"]) == 0
    preamble, header, rows = parse_csv(capsys.readouterr().out)
    assert preamble[0] == "# casimir-stress limits"
    assert header == ["name", "value"]
    table = {name: float(value) for name, value in rows}
    refs = reference_limits()
    for key, expected in refs.items():
        assert table[key] == expected, key  # %.17g round-trips exactly


def test_limits_with_finite_temperature(capsys):
    assert cli.main(["limits", "--beta-over-a", "2"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    table = {name: float(value) for name, value in rows}
    assert abs(table["blackbody_energy_at_beta"] - math.pi**2 / 240.0) <= 1e-16
    assert abs(table["blackbody_pressure_at_beta"] - math.pi**2 / 720.0) <= 1e-16


def test_profile_json_matches_published_schema(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "profile.json",
        ["profile", "--omega-pa", "inf", "--z", "0.25:0.75", "--grid", "3",
         "--format", "json", *FAST],
    )
    assert code == 0
    doc = json.loads(text)
    if jsonschema is not None:
        schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
        jsonschema.validate(doc, schema)
    assert doc["columns"][0] == "z_over_a"
    assert doc["spec"]["command"] == "profile"
    assert doc["spec"]["omega_pa"] == "inf"
    assert doc["spec"]["units"] == "a^-4"
    assert len(doc["rows"]) == 3
    # Conductor-limit midpoint energy density sits at the reference value.
    mid = doc["rows"][1]
    t00 = mid[doc["columns"].index("t00")]
    assert abs(t00 - doc["references"]["pc_energy_density"]) <= 1e-9
    # abs_tol = 0 is a valid tolerance, so its document is valid too.
    code, text = run_to_file(
        tmp_path,
        "exact.json",
        ["profile", "--omega-pa", "100", "--z", "0.5", "--abs-tol", "0", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(text)
    if jsonschema is not None:
        jsonschema.validate(doc, schema)
    assert doc["spec"]["abs_tol"] == 0.0


def test_nec_conductor_limit(capsys):
    assert cli.main(["nec", "--omega-pa", "inf", "--z", "0.5", *FAST]) == 0
    _, header, rows = parse_csv(capsys.readouterr().out)
    assert header[0] == "z_over_a"
    row = dict(zip(header, rows[0]))
    assert abs(float(row["nec_x"])) <= 1e-10
    assert abs(float(row["nec_z"]) + math.pi**2 / 180.0) <= 1e-9
    assert row["converged"] == "1"


def test_transparent_walls_give_zero_rows(capsys):
    assert cli.main(["profile", "--omega-pa", "0", "--z", "0.5", *FAST]) == 0
    _, header, rows = parse_csv(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    for name in ("t00", "txx", "tyy", "tzz", "nec_x", "nec_z"):
        assert float(row[name]) == 0.0


def test_repeated_runs_are_byte_identical(tmp_path):
    argv = ["profile", "--omega-pa", "10", "--z", "0.2:0.8", "--grid", "3", *FAST]
    _, first = run_to_file(tmp_path, "a.csv", argv)
    _, second = run_to_file(tmp_path, "b.csv", argv)
    assert first == second


def test_parallel_output_matches_serial(tmp_path):
    argv = ["nec", "--omega-pa", "5", "--z", "0.2:0.8", "--grid", "3", *FAST]
    _, serial = run_to_file(tmp_path, "serial.csv", [*argv, "--jobs", "1"])
    _, parallel = run_to_file(tmp_path, "parallel.csv", [*argv, "--jobs", "2"])
    # The jobs count is an execution detail, not part of the result spec,
    # so the two files must agree byte for byte.
    assert serial == parallel


def test_cold_thermal_row_near_a_wall_converges(tmp_path):
    # The direct Matsubara sum stopped here at its 1e5-term cap.
    argv = ["profile", "--omega-pa", "100", "--z", "0.001", "--beta-over-a", "1000"]
    code, text = run_to_file(tmp_path, "cold.csv", argv)
    assert code == 0
    _, header, rows = parse_csv(text)
    assert len(rows) == 1
    assert rows[0][header.index("converged")] == "1"


def python(args, **kwargs):
    """Run a fresh interpreter that imports this checkout's package."""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, **kwargs)


def test_cli_import_loads_no_optional_module():
    # Importing the CLI sets the start-up time of every invocation.
    optional = ("scipy", "mpmath", "matplotlib", "jsonschema", "numpy.polynomial")
    script = (
        "import sys, casimir_stress.cli\n"
        f"print(','.join(m for m in {optional!r} if m in sys.modules))"
    )
    out = python(["-c", script], check=True)
    assert out.stdout.strip() == ""


def test_cli_import_loads_no_dataclasses():
    # The package's records generate no code at import; dataclasses may
    # only be present because numpy loaded it first.
    script = (
        "import sys, numpy\n"
        "before = 'dataclasses' in sys.modules\n"
        "import casimir_stress.cli\n"
        "print(before, 'dataclasses' in sys.modules)"
    )
    out = python(["-c", script], check=True)
    before, after = out.stdout.split()
    assert after == before


@pytest.mark.parametrize("argv, status", [
    (["profile", "--omega-pa", "10", "--z", "0.2:0.8", "--grid", "3", *FAST], 0),
    (["profile", "--omega-pa", "-3", "--z", "0.5"], 1),
    (["critical", "--rel-tol", "1e-300", "--abs-tol", "0"], 2),
])
def test_process_entry_prints_what_main_prints(argv, status, capsys):
    # python -m runs cli.run, which freezes the heap before the exit.
    assert cli.main(argv) == status
    out, err = capsys.readouterr()
    done = python(["-m", "casimir_stress.cli", *argv])
    assert (done.stdout, done.stderr, done.returncode) == (out, err, status)


def test_process_entry_writes_the_whole_file(tmp_path):
    argv = ["sweep", "--omega-pa", "1:100", "--z", "0.5", "--grid", "3", "--format", "json",
            *FAST]
    code, text = run_to_file(tmp_path, "main.json", argv)
    out = tmp_path / "run.json"
    done = python(["-m", "casimir_stress.cli", *argv, "--out", str(out)])
    assert (done.returncode, done.stdout, done.stderr) == (code, "", "")
    assert out.read_text(encoding="utf-8") == text


def test_process_entry_freezes_the_heap_and_main_does_not(capsys):
    script = (
        "import gc\n"
        "from casimir_stress import cli\n"
        "status = cli.run(['profile', '--omega-pa', '-3', '--z', '0.5'])\n"
        "print(status, gc.get_freeze_count() > 0)"
    )
    assert python(["-c", script], check=True).stdout.split() == ["1", "True"]
    frozen = gc.get_freeze_count()
    assert cli.main(["limits"]) == 0
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()


def test_process_entry_in_process_prints_what_main_prints(capsys):
    # cli.run freezes the heap of this process too; unfreeze it after.
    assert cli.main(["limits"]) == 0
    expected = capsys.readouterr()
    try:
        assert cli.run(["limits"]) == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert capsys.readouterr() == expected


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"casimir-stress": "casimir_stress.cli:run"}


def test_sweep_grid_is_logarithmic_with_exact_endpoints(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "sweep.json",
        ["sweep", "--omega-pa", "10:1000", "--z", "0.5", "--grid", "3",
         "--format", "json", *FAST],
    )
    assert code == 0
    doc = json.loads(text)
    omegas = [row[0] for row in doc["rows"]]
    assert abs(omegas[0] - 10.0) <= 1e-12 * 10.0
    assert abs(omegas[1] - 100.0) <= 1e-10 * 100.0
    assert abs(omegas[2] - 1000.0) <= 1e-10 * 1000.0


def test_csv_cells_round_trip_against_json(tmp_path):
    argv = ["nec", "--omega-pa", "7", "--z", "0.4", *FAST]
    _, csv_text = run_to_file(tmp_path, "x.csv", argv)
    _, json_text = run_to_file(tmp_path, "x.json", [*argv, "--format", "json"])
    _, header, rows = parse_csv(csv_text)
    doc = json.loads(json_text)
    assert header == doc["columns"]
    for cell, value in zip(rows[0], doc["rows"][0]):
        if isinstance(value, float):
            assert float(cell) == value  # 17 significant digits round-trip


def test_critical_command_reports_none_when_hot(capsys):
    assert cli.main(["critical", "--beta-over-a", "2.5"]) == 0
    _, header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["beta_over_a", "critical_omega_pa", "bracket_rel_width"]
    assert rows[0][0] == "2.5"
    assert rows[0][1] == "none"


def test_critical_command_reads_the_conductor_end(capsys):
    # beta* = 3.0402 separates none from a root; just above it the root
    # lies beyond omega_p*a = 1e5.
    assert cli.main(["critical", "--beta-over-a", "3.0"]) == 0
    assert parse_csv(capsys.readouterr().out)[2][0][1] == "none"
    assert cli.main(["critical", "--beta-over-a", "3.0405"]) == 0
    row = parse_csv(capsys.readouterr().out)[2][0]
    assert 1e5 < float(row[1]) < 1e6
    assert float(row[2]) == CRITICAL_REL_WIDTH


def test_config_file_defaults_and_cli_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"omega_pa": "inf", "z": "0.25", "rel_tol": 1e-6, "abs_tol": 1e-10}),
        encoding="utf-8",
    )
    out = tmp_path / "run.json"
    code = cli.main(
        ["profile", "--config", str(config), "--z", "0.5", "--format", "json",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["spec"]["omega_pa"] == "inf"  # from the config file
    assert doc["spec"]["z_over_a"] == 0.5  # the flag wins over the file
    assert doc["spec"]["rel_tol"] == 1e-6


def test_config_entries_print_the_bytes_of_the_same_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "omega_pa": "inf", "z": "0.25:0.75", "grid": 3, "rel_tol": 1e-6,
        "abs_tol": "1e-10", "beta_over_a": None, "si": True, "separation_um": 2,
        "emit_plot_script": False,
    }), encoding="utf-8")
    flags = ["--omega-pa", "inf", "--z", "0.25:0.75", "--grid", "3", "--rel-tol", "1e-6",
             "--abs-tol", "1e-10", "--si", "--separation-um", "2"]
    code, from_config = run_to_file(tmp_path, "config.csv", ["profile", "--config", str(config)])
    assert code == 0
    _, from_flags = run_to_file(tmp_path, "flags.csv", ["profile", *flags])
    assert from_config == from_flags


# Config entries that each ran with a wrong value or ended in a traceback
# when config values skipped the flags' parsing, with the command line
# they join and the flag the diagnostic must name.
CONFIG_CASES = [
    (["limits", "--separation-um", "1"], {"si": "no"}, "--si"),
    (["profile", "--z", "0.5", *FAST], {"omega_pa": True}, "--omega-pa"),
    (["profile", "--omega-pa", "10", "--z", "0.2:0.8", *FAST], {"grid": 2.7}, "--grid"),
    (["limits"], {"grid": "x"}, "--grid"),
    (["limits"], {"rel_tol": "abc"}, "--rel-tol"),
    (["limits"], {"jobs": "two"}, "--jobs"),
    (["limits", "--si", "--separation-um", "1", "--beta-over-a", "5"], {"kelvin": "300"},
     "--kelvin"),
    (["limits", "--si", "--kelvin", "1e100"], {"separation_um": "1"}, "--separation-um"),
    (["limits"], {"output_format": "xml"}, "--format"),
]


def test_bad_config_entries_are_usage_errors(tmp_path, capsys):
    config = tmp_path / "config.json"
    for argv, entries, flag in CONFIG_CASES:
        config.write_text(json.dumps(entries), encoding="utf-8")
        code = cli.main([*argv, "--config", str(config)])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("casimir-stress: error:")]
        assert code == 1, entries
        assert any(flag in line for line in errors), (entries, errors)


def test_unknown_config_key_is_a_usage_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"omega": 1.0}), encoding="utf-8")
    assert cli.main(["limits", "--config", str(config)]) == 1


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config file"),
    ("{", "config file is not valid JSON"),
    ("[1, 2]", "config file must hold a JSON object"),
])
def test_unreadable_config_files_are_usage_errors(text, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    assert cli.main(["limits", "--config", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"casimir-stress: error: {message}") and err.count("\n") == 1, err


def test_usage_errors_exit_with_one(capsys):
    assert cli.main(["profile"]) == 1  # --omega-pa and --z missing
    assert cli.main(["profile", "--omega-pa", "10", "--z", "1.5"]) == 1
    assert cli.main(["profile", "--omega-pa", "-3", "--z", "0.5"]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["sweep", "--omega-pa", "10", "--z", "0.5"]) == 1  # needs a range
    assert cli.main(["sweep", "--omega-pa", "0:10", "--z", "0.5"]) == 1  # log axis
    assert cli.main(["profile", "--omega-pa", "10", "--z", "0.2:0.8", "--grid", "1"]) == 1
    # --grid is checked whether or not a range uses it.
    assert cli.main(["profile", "--omega-pa", "10", "--z", "0.5", "--grid", "-3"]) == 1
    assert cli.main(["limits", "--grid", "1"]) == 1
    assert cli.main(["limits", "--z", "0.1:0.2"]) == 1
    capsys.readouterr()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0


def test_unconverged_rows_exit_with_two(tmp_path, monkeypatch, capsys):
    def unconverged(geom, model, thermal, tol):
        return QuadratureResult(0.0, 1.0, 0, False)

    monkeypatch.setattr(cli, "nec_transverse", unconverged)
    monkeypatch.setattr(cli, "nec_longitudinal", unconverged)
    out = tmp_path / "bad.csv"
    code = cli.main(["nec", "--omega-pa", "3", "--z", "0.2:0.8", "--grid", "2", "--out", str(out)])
    assert code == 2
    # The data is still written so the partial result can be inspected.
    _, _, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert rows == [["0.20000000000000001", "0", "1", "0", "1", "0"],
                    ["0.80000000000000004", "0", "1", "0", "1", "0"]]
    assert capsys.readouterr().err == (
        "casimir-stress: one or more points did not converge; see the converged column\n")


def test_an_unconverged_row_prints_its_note_after_the_table(capsys):
    # The direct quadrature cannot meet rel_tol = 1e-300 without abs_tol.
    argv = ["profile", "--omega-pa", "100", "--z", "0.5", "--abs-tol", "0", "--rel-tol", "1e-300"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    _, header, rows = parse_csv(out)
    assert len(rows) == 1 and rows[0][header.index("converged")] == "0"
    note, last = err.splitlines()
    assert note.startswith("casimir-stress: note: integrate_2d did not meet its tolerance")
    assert last == "casimir-stress: one or more points did not converge; see the converged column"


def test_notes_are_the_sorted_distinct_warnings_of_the_whole_command(monkeypatch, capsys):
    def warns(text):
        def op(geom, model, thermal, tol):
            warnings.warn(f"{text} at z = {geom.z}")
            return QuadratureResult(1.0, 0.0, 1, True)
        return op

    monkeypatch.setattr(cli, "nec_transverse", warns("b"))
    monkeypatch.setattr(cli, "nec_longitudinal", warns("a"))
    assert cli.main(["nec", "--omega-pa", "3", "--z", "0.25:0.5", "--grid", "2"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"casimir-stress: note: {text} at z = {z}" for text in "ab" for z in (0.25, 0.5)]


# A range's first and last rows are its ends as given.  Each of these
# rounded its last row past the range: two were refused by the row's own
# check, and the third printed 123.45599999999999.
@pytest.mark.parametrize("argv, ends", [
    (["profile", "--omega-pa", "10", "--z", "0.3:0.9999999999999999", "--grid", "3"],
     ("0.29999999999999999", "0.99999999999999989")),
    (["sweep", "--omega-pa", "1:1e100", "--z", "0.5", "--grid", "12"], ("1", "1e+100")),
    (["sweep", "--omega-pa", "1:123.456", "--z", "0.5", "--grid", "2"], ("1", "123.456")),
])
def test_range_rows_end_on_the_given_ends(argv, ends, capsys):
    assert cli.main([*argv, *FAST]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert (rows[0][0], rows[-1][0]) == ends
    assert len(rows) == int(argv[-1])


# Inputs at the ends of the float range, with the flag the diagnostic
# must name.  Each used to end in a traceback (ZeroDivisionError or
# OverflowError from beta**4 or the SI scale), print zeros (an infinite
# separation) or blame omega_p for an infinite range end.
EXTREME_INPUTS = [
    (["profile", "--omega-pa", "10", "--z", "0.5", "--beta-over-a", "1e-100"], "--beta-over-a"),
    (["limits", "--beta-over-a", "1e-100"], "--beta-over-a"),
    (["profile", "--omega-pa", "10", "--z", "0.5", "--beta-over-a", "1e300"], "--beta-over-a"),
    (["limits", "--beta-over-a", "1e300"], "--beta-over-a"),
    (["limits", "--si", "--separation-um", "1e-300"], "--separation-um"),
    (["profile", "--omega-pa", "10", "--z", "0.5", "--si", "--separation-um", "1e-300"],
     "--separation-um"),
    (["limits", "--si", "--separation-um", "1e300", "--kelvin", "1"], "--separation-um"),
    (["limits", "--si", "--separation-um", "1e60", "--kelvin", "1e30"], "--kelvin"),
    (["limits", "--si", "--separation-um", "inf"], "--separation-um"),
    (["sweep", "--omega-pa", "1:inf", "--z", "0.5"], "--omega-pa"),
    # Past the model's and the geometry's bounds the quadrature overflowed
    # and the run ended in "numerical failure" (exit 2).
    (["profile", "--omega-pa", "1e105", "--z", "0.5"], "--omega-pa"),
    (["profile", "--omega-pa", "1e150", "--z", "0.5"], "--omega-pa"),
    (["sweep", "--omega-pa", "1:1e150", "--z", "0.5"], "--omega-pa"),
    (["profile", "--omega-pa", "10", "--z", "1e-110"], "--z"),
    (["nec", "--omega-pa", "10", "--z", "1e-200:0.5"], "--z"),
    (["limits", "--si", "--separation-um", "1", "--kelvin", "inf"], "--kelvin"),
    (["limits", "--si", "--separation-um", "1", "--kelvin", "nan"], "--kelvin"),
    # beta/a overflows to inf here, which used to read as zero temperature.
    (["limits", "--si", "--separation-um", "1e-60", "--kelvin", "1e-300"], "--kelvin"),
    # k_B*T underflows to zero here, which ended in a ZeroDivisionError.
    (["limits", "--si", "--separation-um", "1", "--kelvin", "1e-310"], "--kelvin"),
    # Options a command does not read are still checked by their types.
    (["critical", "--z", "7", "--omega-pa", "-5"], "--omega-pa"),
    (["limits", "--rel-tol", "-1"], "--rel-tol"),
    # Values that start with '-' but are not plain decimals reach their
    # checks instead of being read as flags.
    (["limits", "--beta-over-a", "-inf"], "--beta-over-a"),
    (["nec", "--omega-pa", "10", "--z", "-1e-3:0.5"], "--z"),
    (["profile", "--omega-pa", "-1e-3", "--z", "0.5"], "--omega-pa"),
    (["profile", "--omega-pa", "10", "--z", "0.5", "--rel-tol", "-1e-9"], "--rel-tol"),
    (["limits", "--jobs", "0"], "--jobs"),
    # Values and ranges that do not parse, and options a command does not take.
    (["profile", "--omega-pa", "10", "--z", "abc"], "--z"),
    (["profile", "--omega-pa", "10", "--z", "0.1:x"], "--z"),
    (["profile", "--omega-pa", "10", "--z", "0.8:0.2"], "--z"),
    (["profile", "--omega-pa", "10", "--z", "0.1:0.2:0.3"], "--z"),
    (["limits", "--beta-over-a", "1:2"], "--beta-over-a"),
    (["limits", "--si", "--separation-um", "1", "--kelvin", "-1"], "--kelvin"),
    (["profile", "--omega-pa", "1:10", "--z", "0.5"], "--omega-pa"),
    (["profile", "--omega-pa", "10"], "--z"),
    (["sweep", "--z", "0.5"], "--omega-pa"),
    (["sweep", "--omega-pa", "1:10", "--z", "0.1:0.2"], "--z"),
]


def test_extreme_inputs_end_in_a_one_line_diagnostic(tmp_path, capsys):
    for argv, flag in EXTREME_INPUTS:
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert err.startswith("casimir-stress: error:") and err.count("\n") == 1, (argv, err)
        assert flag in err, (argv, err)
    # Inside the range the rows converge.
    for omega, beta in (("10", "1e-70"), ("10", "1e70"), ("1e100", "inf")):
        argv = ["profile", "--omega-pa", omega, "--z", "0.5", "--beta-over-a", beta]
        code, text = run_to_file(tmp_path, "edge.csv", argv)
        assert code == 0, argv
        _, _, rows = parse_csv(text)
        assert rows[0][-1] == "1", argv
    # At the smallest position allowed the row is computed, not refused,
    # and its error estimates stay finite though their squares overflow.
    code, text = run_to_file(tmp_path, "edge.csv", ["profile", "--omega-pa", "10", "--z", "1e-100"])
    assert code in (0, 2)
    _, header, rows = parse_csv(text)
    assert float(rows[0][0]) == 1e-100
    errors = [float(cell) for name, cell in zip(header, rows[0]) if name.startswith("err_")]
    assert len(errors) == 6 and all(math.isfinite(e) for e in errors), errors
    assert "overflow" not in capsys.readouterr().err
    capsys.readouterr()


def test_thermal_rows_survive_an_underflowing_omega_p_squared(tmp_path, capsys):
    # Below about omega_p = 1.5e-154, omega_p**2 underflows and the
    # reflection kernels divide 0 by 0 at zeta = 0, which ended these
    # rows in "numerical failure".  r_p = 1 there for any omega_p > 0,
    # so they print the data rows of omega_p = 1e-150, and no note.
    for beta in ("5", "1000"):
        rows = []
        for omega in ("1e-150", "1e-160", "1e-300"):
            argv = ["profile", "--omega-pa", omega, "--z", "0.05:0.5", "--grid", "3",
                    "--beta-over-a", beta]
            code, text = run_to_file(tmp_path, "tiny.csv", argv)
            assert code == 0 and capsys.readouterr().err == "", argv
            rows.append(parse_csv(text)[1:])
        assert rows[1] == rows[0] and rows[2] == rows[0], beta


def test_numerical_failures_exit_with_two(capsys):
    # t00 at omega_p = 1e100, z = 1e-100 is about 7e397.  Such rows used
    # to print inf with converged = 1 and exit 0, or end in a JSON
    # traceback.  A critical search whose evaluations miss the tolerance
    # used to print a root and exit 0.  Now each prints one diagnostic.
    cases = [
        ["profile", "--omega-pa", "1e100", "--z", "1e-100"],
        ["profile", "--omega-pa", "1e100", "--z", "1e-100", "--format", "json"],
        ["nec", "--omega-pa", "1e100", "--z", "1e-100", "--format", "json"],
        ["sweep", "--omega-pa", "1e-300:1e100", "--z", "1e-100", "--grid", "3"],
        ["critical", "--rel-tol", "1e-300", "--abs-tol", "0"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in cases:
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code == 2, argv
            assert out == "", argv
            assert err.startswith("casimir-stress: numerical failure:"), (argv, err)
            assert err.count("\n") == 1, (argv, err)


def test_si_rows_that_overflow_are_numerical_failures(capsys, tmp_path):
    # t00 at omega_p = 10, z = 1e-100 is about 7e298 in 1/a**4 units and
    # overflows in J/m**3 for a 1e-60 micrometer gap.  The row used to
    # print inf with converged = 1 (CSV) or end in a traceback (JSON).
    # The blackbody limits at beta/a = 1e-70, about 7e279, overflow there
    # too; limits scaled its rows on its own and skipped the check.
    cases = [
        ["profile", "--omega-pa", "10", "--z", "1e-100", "--si", "--separation-um", "1e-60"],
        ["limits", "--si", "--separation-um", "1e-60", "--beta-over-a", "1e-70"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in cases:
            for output_format in ("csv", "json"):
                code = cli.main([*argv, "--format", output_format])
                out, err = capsys.readouterr()
                assert code == 2, (argv, output_format)
                assert out == "", (argv, output_format)
                assert err.startswith("casimir-stress: numerical failure:"), (argv, err)
                assert err.count("\n") == 1, (argv, output_format, err)
    # A 1 micrometer gap at 300 K, as in the thermal workload, still prints.
    code, text = run_to_file(tmp_path, "si.csv", [
        "profile", "--omega-pa", "100", "--z", "0.25:0.75", "--grid", "3", "--si",
        "--separation-um", "1", "--kelvin", "300"])
    assert code == 0
    _, header, rows = parse_csv(text)
    assert len(rows) == 3 and all(row[-1] == "1" for row in rows)
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_si_mode_requires_separation(capsys):
    assert cli.main(["limits", "--si"]) == 1
    assert cli.main(["limits", "--separation-um", "1.0"]) == 1  # only with --si
    capsys.readouterr()


def test_si_mode_scales_by_the_fourth_power_of_separation(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "si.json",
        ["profile", "--omega-pa", "inf", "--z", "0.5", "--si",
         "--separation-um", "1.0", "--format", "json", *FAST],
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["spec"]["units"] == "J/m^3"
    t00 = doc["rows"][0][doc["columns"].index("t00")]
    expected = -math.pi**2 / 720.0 * HBAR * SPEED_OF_LIGHT / (1e-6) ** 4
    assert abs(t00 - expected) <= 1e-6 * abs(expected)


def test_si_references_are_in_the_units_of_the_rows(capsys):
    # The rows of limits are the references themselves.  With --si the
    # rows were scaled and the references stayed in 1/a**4 units, about
    # 32 times larger for a 1 micrometer gap.
    argv = ["limits", "--si", "--separation-um", "1"]
    assert cli.main(argv) == 0
    preamble, _, rows = parse_csv(capsys.readouterr().out)
    references = dict(line[len("# ref."):].split("=") for line in preamble
                      if line.startswith("# ref."))
    assert {name: float(value) for name, value in rows} == {
        name: float(value) for name, value in references.items()}
    assert cli.main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert dict(doc["rows"]) == doc["references"]
    assert doc["references"]["pc_energy_density"] == -0.0004333752574825846


def test_kelvin_flag_sets_the_thermal_length(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "kelvin.json",
        ["nec", "--omega-pa", "10", "--z", "0.5", "--si", "--separation-um", "1.6",
         "--kelvin", "300", "--format", "json", *FAST],
    )
    assert code == 0
    doc = json.loads(text)
    beta = doc["spec"]["beta_over_a"]
    expected = HBAR * SPEED_OF_LIGHT / (BOLTZMANN * 300.0) / 1.6e-6
    assert abs(beta - expected) <= 1e-12 * expected
    assert abs(beta - 5.0) <= 0.25  # a 1.6 micrometer gap at 300 K sits near 5


def test_kelvin_conflicts_with_beta(capsys):
    code = cli.main(
        ["nec", "--omega-pa", "10", "--z", "0.5", "--si", "--separation-um", "1.6",
         "--kelvin", "300", "--beta-over-a", "5"]
    )
    assert code == 1
    capsys.readouterr()


def test_plot_script_emission(tmp_path):
    out = tmp_path / "run.csv"
    code = cli.main(
        ["nec", "--omega-pa", "inf", "--z", "0.3:0.7", "--grid", "3",
         "--emit-plot-script", "--out", str(out), *FAST]
    )
    assert code == 0
    script = tmp_path / "run_plot.py"
    assert script.exists()
    source = script.read_text(encoding="utf-8")
    compile(source, str(script), "exec")  # must at least be valid python
    assert "matplotlib" in source
    assert "run.csv" in source


# A stand-in for matplotlib: the axes record what the script plots, and
# savefig writes that record as JSON where the figure would go.
_STUB_PYPLOT = """
import json

_record = {"series": {}, "references": {}}


class _Axes:
    def errorbar(self, x, y, yerr=None, **kwargs):
        self._series = {"x": list(x), "y": list(y), "err": list(yerr)}

    def axhline(self, y, **kwargs):
        self._reference = y

    def set_ylabel(self, name):
        _record["series"][name] = self._series
        if hasattr(self, "_reference"):
            _record["references"][name] = self._reference

    def set_xscale(self, scale):
        _record["xscale"] = scale

    def set_xlabel(self, name):
        _record["xlabel"] = name


class _Figure:
    def tight_layout(self):
        pass

    def savefig(self, path, **kwargs):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_record, handle)


def subplots(rows, cols=1, **kwargs):
    axes = [_Axes() for _ in range(rows)]
    return _Figure(), axes if rows > 1 else axes[0]
"""


def _read_rows(path, output_format):
    """(columns, rows, references) of a CLI data file, parsed here."""
    text = path.read_text(encoding="utf-8")
    if output_format == "json":
        doc = json.loads(text)
        return doc["columns"], doc["rows"], doc["references"]
    preamble, header, rows = parse_csv(text)
    references = {}
    for line in preamble:
        if line.startswith("# ref."):
            key, _, value = line[len("# ref."):].partition("=")
            references[key] = float(value)
    return header, [[float(c) for c in row] for row in rows], references


@pytest.mark.parametrize("argv, name, output_format", [
    (["profile", "--omega-pa", "100", "--z", "0.25:0.75", "--grid", "3"], "profile.csv", "csv"),
    (["profile", "--omega-pa", "100", "--z", "0.25:0.75", "--grid", "3"], "profile.json", "json"),
    (["nec", "--omega-pa", "10", "--z", "0.3:0.7", "--grid", "2"], "nec.json", "csv"),
    (["nec", "--omega-pa", "10", "--z", "0.3:0.7", "--grid", "2"], "nec.dat", "json"),
    (["sweep", "--omega-pa", "1:1e4", "--z", "0.5", "--grid", "3"], "sweep.csv", "csv"),
    (["sweep", "--omega-pa", "1:1e4", "--z", "0.5", "--grid", "3"], "sweep.txt", "json"),
])
def test_plot_script_reads_what_the_cli_wrote(argv, name, output_format, tmp_path):
    # The generated script reads the data in the format the CLI wrote,
    # whatever the file's suffix.  Run under a stub matplotlib, it must
    # plot every quantity column against the x column, with its error
    # bars and its reference line, as parsed here from the same file.
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("def use(backend):\n    pass\n", encoding="utf-8")
    (stub / "pyplot.py").write_text(_STUB_PYPLOT, encoding="utf-8")
    out = tmp_path / name
    code = cli.main([*argv, *FAST, "--format", output_format, "--emit-plot-script", "--out", str(out)])
    assert code == 0
    script = out.with_name(out.stem + "_plot.py")
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(stub.parent)}, text=True)
    assert run.returncode == 0, run.stderr
    record = json.loads(out.with_suffix(out.suffix + ".png").read_text(encoding="utf-8"))

    columns, rows, references = _read_rows(out, output_format)
    quantities = [c for c in columns[1:] if not c.startswith("err_") and c != "converged"]
    assert quantities and set(record["series"]) == set(quantities)
    assert record["xlabel"] == columns[0]
    assert record.get("xscale") == ("log" if argv[0] == "sweep" else None)
    for q in quantities:
        series = record["series"][q]
        assert series["x"] == [row[0] for row in rows]
        assert series["y"] == [row[columns.index(q)] for row in rows]
        assert series["err"] == [row[columns.index("err_" + q)] for row in rows]
        assert record["references"][q] == references[cli._COLUMN_REFERENCE[q]]


@pytest.mark.parametrize("command", ["limits", "critical"])
def test_plot_script_is_refused_without_rows_to_plot(command, tmp_path, capsys):
    # The script reads its x axis and error columns from the data, which
    # limits and critical do not have, so neither file is written.
    out = tmp_path / "run.csv"
    assert cli.main([command, "--emit-plot-script", "--out", str(out)]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and "--emit-plot-script" in errors[0]
    assert not out.exists() and not (tmp_path / "run_plot.py").exists()


def test_plot_script_requires_an_output_file(capsys):
    code = cli.main(["nec", "--omega-pa", "1", "--z", "0.5", "--emit-plot-script"])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, target", [
    (["limits", "--out", "{tmp}/missing/run.csv"], "{tmp}/missing/run.csv"),
    (["limits", "--out", "{tmp}"], "{tmp}"),
    # The data file is written; the plot script's path is a directory.
    (["nec", "--omega-pa", "10", "--z", "0.3:0.7", "--grid", "2", "--emit-plot-script",
      "--out", "{tmp}/run.csv", *FAST], "{tmp}/run_plot.py"),
])
def test_unwritable_outputs_are_one_line_errors(argv, target, tmp_path, capsys):
    # Each ended in a FileNotFoundError or IsADirectoryError traceback.
    (tmp_path / "run_plot.py").mkdir()
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"casimir-stress: error: cannot write {target.format(tmp=tmp_path)}: ")
    assert err.count("\n") == 1, err


def test_stdout_and_file_output_agree(tmp_path, capsys):
    argv = ["limits", "--beta-over-a", "3"]
    assert cli.main(argv) == 0
    streamed = capsys.readouterr().out
    _, text = run_to_file(tmp_path, "limits.csv", argv)
    assert streamed == text
