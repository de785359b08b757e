"""Command-line front end for the vacuum stress calculator.

Five subcommands cover the common workflows:

* ``profile``: stress components and null-energy combinations versus
  position at fixed plasma frequency and temperature.
* ``sweep``: the same quantities versus plasma frequency on a log grid
  at fixed position.
* ``nec``: the two null-energy combinations only, versus position.
* ``limits``: the analytic perfect-conductor and blackbody constants.
* ``critical``: the plasma frequency where the midpoint energy density
  changes sign.

Outputs are CSV (metadata in ``#`` comment lines, then a header row,
then 17-significant-digit data rows) or JSON (one object with ``spec``,
``columns``, ``rows``, and ``references`` keys).  Both carry the fully
resolved run specification so a file regenerates byte for byte from its
own metadata; nothing in the output depends on wall-clock time or
machine identity.  Exit status is 0 on success, 1 on a usage error or
an output file that cannot be written, and 2 when the ``converged``
column holds a 0 (the rows are still written) or on a numerical
failure, which writes nothing.  A row's ``converged`` is 1 when every
integration pass and sum behind each of its quantities met the
tolerance in each of its columns within its budget.  It is no more
than that: a quantity whose columns cancel may carry a larger relative
estimate than ``--rel-tol`` (t00 cancels about 50x at omega_p*a = 100,
z = 0.5), and a split column's Poisson bound enters its error column,
not the flag, while its windowed integral's change from the coarser
zeta rule enters both.  The warnings that a command's
evaluations issue are printed after the table, each distinct text once,
sorted, as ``note:`` lines.

Options may also come from a JSON config file (``--config``).  Each
entry is a flag, keyed by its argparse dest (``omega_pa``, ``z``,
``output_format``, ...), and is parsed with the flag's own type and
choices, ahead of the command line's flags, so an explicit flag wins.
``null`` leaves a flag unset and a switch (``si``, ``emit_plot_script``)
takes ``true`` or ``false``.  Every value is checked by the type that
uses it (``PlasmaModel``, ``Geometry``, ``ThermalState``, ``Tolerance``)
whatever the command.  ``--jobs`` (and its config key) is still accepted
but has no effect: rows are evaluated in order in one process, since a
row takes milliseconds and a worker process longer to start.  ``--si``
with ``--separation-um`` (and optionally ``--kelvin``) converts the
densities and the reference constants, by one factor, to J/m**3 through
the units module.  Diagnostics go to stderr and honor the NO_COLOR
convention.  Only the process entry ``run``
(``python -m`` and the ``casimir-stress`` script) freezes the heap after
``main`` so that exit skips collecting it; ``main`` itself never does.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path

from ._record import record
from .dielectric import PlasmaModel
from .quadrature import QuadratureError, Tolerance
from .stress import (
    CRITICAL_REL_WIDTH,
    CRITICAL_TOLERANCE,
    Geometry,
    ThermalState,
    critical_omega_pa,
    nec_longitudinal,
    nec_transverse,
    pressure_xx,
    pressure_zz,
    energy_density,
    reference_limits,
)
from .units import LabParameters, nondimensionalize, to_si_energy_density

__all__ = ["RunSpec", "build_run_spec", "main", "run"]

# The stress columns in output order, each with the reference line that
# belongs under it in a plot.
_COLUMN_REFERENCE = {
    "t00": "pc_energy_density",
    "txx": "pc_pressure_xx",
    "tyy": "pc_pressure_yy",
    "tzz": "pc_pressure_zz",
    "nec_x": "pc_nec_transverse",
    "nec_z": "pc_nec_longitudinal",
}


class UsageError(Exception):
    """Bad command line or config; maps to exit status 1."""


@record
class RunSpec:
    """Fully resolved description of one CLI run.

    Ranges are (low, high) tuples, single values plain floats;
    ``beta_over_a`` is None at zero temperature.  The spec is echoed
    into every output file, so two files with equal specs carry equal
    data.
    """

    command: str
    omega_pa: float | tuple[float, float] | None = None
    z_over_a: float | tuple[float, float] | None = None
    beta_over_a: float | None = None
    grid: int = 25
    output_format: str = "csv"
    output_path: str | None = None
    rel_tol: float = Tolerance.rel_tol
    abs_tol: float = Tolerance.abs_tol
    si: bool = False
    separation_um: float | None = None
    kelvin: float | None = None
    emit_plot_script: bool = False

    def tolerance(self) -> Tolerance:
        return Tolerance(rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def metadata(self) -> dict:
        """Every field that shapes the data, for output embedding: all but
        ``output_path`` and ``emit_plot_script``, ``output_format`` as
        ``format``, ranges as lists, infinities and zero temperature as "inf"."""

        def enc(name, value):
            if value == math.inf or (value is None and name == "beta_over_a"):
                return "inf"
            return list(value) if isinstance(value, tuple) else value

        return {"format" if name == "output_format" else name: enc(name, value)
                for name, value in vars(self).items()
                if name not in ("output_path", "emit_plot_script")}


def _parse_value_or_range(text: str | None, name: str, build=float):
    """None as None; text 'V' into a float or 'A:B' into an ascending
    (A, B) tuple, with a usage error naming ``--name`` when ``build``
    rejects the value or either end of the range."""
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) == 1:
        try:
            value = float(parts[0])
        except ValueError:
            raise UsageError(f"cannot parse --{name} value {text!r}") from None
    elif len(parts) == 2:
        try:
            value = float(parts[0]), float(parts[1])
        except ValueError:
            raise UsageError(f"cannot parse --{name} range {text!r}") from None
        if not (value[0] < value[1]):
            raise UsageError(f"--{name} range needs low < high, got {text!r}")
    else:
        raise UsageError(f"--{name} accepts 'V' or 'A:B', got {text!r}")
    for point in value if isinstance(value, tuple) else (value,):
        try:
            build(point)
        except ValueError as exc:
            raise UsageError(f"--{name} {point!r}: {exc}") from None
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-stress",
        description="Vacuum stress between plasma-model mirrors.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument(
        "--omega-pa",
        help="plasma frequency times gap width: value, 'A:B' range, or 'inf'",
    )
    parser.add_argument("--z", help="position z/a in (0,1): value or 'A:B' range")
    parser.add_argument(
        "--beta-over-a",
        help="inverse temperature over gap width: value or 'inf' (zero temperature)",
    )
    parser.add_argument("--grid", type=int, default=RunSpec.grid,
                        help="number of points for a range")
    parser.add_argument("--format", choices=("csv", "json"), default=RunSpec.output_format,
                        dest="output_format")
    parser.add_argument("--out", dest="output_path", help="output file (default stdout)")
    parser.add_argument("--rel-tol", type=float, default=RunSpec.rel_tol,
                        help="relative quadrature tolerance")
    parser.add_argument("--abs-tol", type=float, default=RunSpec.abs_tol,
                        help="absolute quadrature tolerance")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; no effect")
    parser.add_argument("--si", action="store_true",
                        help="report J/m**3 instead of 1/a**4 units")
    parser.add_argument("--separation-um", type=float,
                        help="gap width in micrometers (required with --si)")
    parser.add_argument("--kelvin", type=float,
                        help="temperature in Kelvin (with --si; sets beta/a)")
    parser.add_argument("--emit-plot-script", action="store_true",
                        help="also write a matplotlib script next to --out (rows only)")
    parser.add_argument("--config", help="JSON object of option values (explicit flags win)")
    # A token such as -1e-3, -inf or -1e-3:0.5 is a value, not a flag;
    # argparse's own pattern takes only plain negative decimals.
    parser._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:
            raise  # --help and friends exit cleanly
        raise UsageError("invalid arguments (see usage above)") from None


def _config_tokens(parser: argparse.ArgumentParser, path: str | None) -> list[str]:
    """A JSON config object as flag tokens.  Its keys are the flags' dests,
    null leaves a flag unset and a switch takes true or false."""
    if path is None:
        return []
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    actions = {
        action.dest: action for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    unknown = sorted(set(raw) - set(actions))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    tokens = []
    for key, value in raw.items():
        if value is None:
            continue
        flag = actions[key].option_strings[0]
        switch = actions[key].nargs == 0
        if switch != isinstance(value, bool) or not isinstance(value, (int, float, str)):
            wanted = "true or false" if switch else "a string or a number"
            raise UsageError(f"config key {key} ({flag}) takes {wanted}, got {json.dumps(value)}")
        if not switch:
            tokens.append(f"{flag}={value}")
        elif value:
            tokens.append(flag)
    return tokens


def build_run_spec(argv: list[str]) -> RunSpec:
    """Parse arguments (and config) into a validated RunSpec."""
    parser = _build_parser()
    args = _parse(parser, argv)
    if args.command == "critical":
        parser.set_defaults(rel_tol=CRITICAL_TOLERANCE.rel_tol,
                            abs_tol=CRITICAL_TOLERANCE.abs_tol)
    # Config entries go first, so an explicit flag wins: argparse keeps the last.
    args = _parse(parser, [*_config_tokens(parser, args.config), *argv])

    omega = _parse_value_or_range(args.omega_pa, "omega-pa", PlasmaModel)
    z_over_a = _parse_value_or_range(args.z, "z", Geometry)
    beta = _parse_value_or_range(args.beta_over_a, "beta-over-a")
    if isinstance(beta, tuple):
        raise UsageError("--beta-over-a takes a single value, not a range")

    separation_um, kelvin = args.separation_um, args.kelvin
    if args.si and separation_um is None:
        raise UsageError("--si needs --separation-um")
    if (separation_um is not None or kelvin is not None) and not args.si:
        raise UsageError("--separation-um/--kelvin only apply with --si")
    # a**4 in m**4 and the J/m**3 scale then stay far inside the float range.
    if separation_um is not None and not (1e-60 <= separation_um <= 1e60):
        raise UsageError("--separation-um must lie within [1e-60, 1e60]")
    if kelvin is not None:
        if beta is not None:
            raise UsageError("give either --kelvin or --beta-over-a, not both")
        try:
            _, beta = nondimensionalize(LabParameters(separation_um * 1e-6, kelvin, 0.0))
        except ValueError as exc:
            raise UsageError(f"--kelvin {kelvin!r}: {exc}") from None
    try:
        beta = (ThermalState.finite if kelvin else ThermalState)(beta).beta
    except ValueError as exc:
        source = "--kelvin with --separation-um" if kelvin else "--beta-over-a"
        raise UsageError(f"{source} gives beta/a = {beta:g}: {exc}") from None

    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    try:
        Tolerance(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    except ValueError as exc:
        raise UsageError(
            f"--rel-tol {args.rel_tol:g}, --abs-tol {args.abs_tol:g}: {exc}"
        ) from None

    if args.emit_plot_script and args.output_path is None:
        raise UsageError("--emit-plot-script needs --out")
    if args.grid < 2:
        raise UsageError("--grid must be >= 2")
    command = args.command
    for flag, value, reads in zip(("omega-pa", "z"), (omega, z_over_a), _READS[command]):
        kind = "range" if isinstance(value, tuple) else "value"
        if reads and (value is None or kind not in reads):
            raise UsageError(f"{command} needs --{flag} as {reads}")
        if not reads and kind == "range":
            raise UsageError(f"{command} takes no --{flag} range")
    if command == "sweep" and not (0.0 < omega[0] and omega[1] < math.inf):
        raise UsageError("sweep needs an --omega-pa range inside (0, inf) (log spacing)")
    if args.emit_plot_script and not any(_READS[command]):
        raise UsageError(f"--emit-plot-script plots rows along an axis; {command} has none")

    return RunSpec(
        command=command,
        omega_pa=omega,
        z_over_a=z_over_a,
        beta_over_a=beta,
        grid=args.grid,
        output_format=args.output_format,
        output_path=args.output_path,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        si=args.si,
        separation_um=separation_um,
        kelvin=kelvin,
        emit_plot_script=args.emit_plot_script,
    )


# ----------------------------------------------------------------------
# Notes and units.
# ----------------------------------------------------------------------


def _noted(evaluate, *args):
    """evaluate(*args) and the sorted distinct texts of the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = evaluate(*args)
    return result, tuple(sorted({str(w.message) for w in caught}))


def _to_si(spec: RunSpec, columns: list[str], rows: list[list]) -> dict:
    """Take every density cell (a stress column, its estimate, a limit's
    value) to J/m**3, and return the references scaled by the same factor.
    A cell finite in 1/a**4 units can still overflow in J/m**3, which is a
    numerical failure like any other non-finite result."""
    scale = to_si_energy_density(1.0, spec.separation_um * 1e-6)
    cells = [i for i, name in enumerate(columns)
             if name == "value" or name.removeprefix("err_") in _COLUMN_REFERENCE]
    for row in rows:
        for i in cells:
            value = row[i] * scale
            if not math.isfinite(value):
                raise QuadratureError(f"{row[i]!r} in 1/a**4 units at {columns[0]} = {row[0]!r} "
                                      f"overflows in J/m**3 (times {scale!r})")
            row[i] = value
    return {name: value * scale for name, value in reference_limits().items()}


# ----------------------------------------------------------------------
# Commands.
# ----------------------------------------------------------------------


def _cmd_rows(spec: RunSpec):
    """Rows along z (linear) for profile and nec, or omega_p (log) for sweep.
    A range's first and last rows are its ends as given."""
    sweep = spec.command == "sweep"
    axis = "omega_pa" if sweep else "z_over_a"
    thermal, tol = ThermalState(spec.beta_over_a), spec.tolerance()
    values = getattr(spec, axis)
    if isinstance(values, tuple):
        lo, hi = map(math.log10, values) if sweep else values
        step = (hi - lo) / (spec.grid - 1)
        inner = (lo + i * step for i in range(1, spec.grid - 1))
        values = [values[0], *(10.0**x if sweep else x for x in inner), values[1]]
    else:
        values = [values]
    # The operations are looked up per call, so that a profiler may rebind
    # them; pressure_xx gives both txx and tyy.
    ops = [energy_density, pressure_xx, pressure_xx, pressure_zz, nec_transverse, nec_longitudinal]
    names = [*_COLUMN_REFERENCE]
    if spec.command == "nec":
        ops, names = ops[4:], names[4:]
    rows = []
    for value in values:
        geom = Geometry(z=spec.z_over_a if sweep else value)
        model = PlasmaModel(omega_p=value if sweep else spec.omega_pa)
        done = {op: op(geom, model, thermal, tol=tol) for op in dict.fromkeys(ops)}
        results = [done[op] for op in ops]
        rows.append([value, *(x for r in results for x in (r.value, r.error_estimate)),
                     int(all(r.converged for r in results))])
    return [axis, *(c for name in names for c in (name, f"err_{name}")), "converged"], rows


def _cmd_limits(spec: RunSpec):
    limits = reference_limits()
    rows = [[name, value] for name, value in limits.items()]
    if spec.beta_over_a is not None:
        beta4 = spec.beta_over_a**4
        for name, value in limits.items():
            if name.startswith("blackbody_"):
                rows.append([name.removesuffix("_coeff") + "_at_beta", value / beta4])
    return ["name", "value"], rows


def _cmd_critical(spec: RunSpec):
    value = critical_omega_pa(ThermalState(spec.beta_over_a), tol=spec.tolerance())
    cells = ["none", "none"] if value is None else [value, CRITICAL_REL_WIDTH]
    rows = [[spec.metadata()["beta_over_a"], *cells]]
    return ["beta_over_a", "critical_omega_pa", "bracket_rel_width"], rows


_COMMANDS = {"profile": _cmd_rows, "sweep": _cmd_rows, "nec": _cmd_rows,
             "limits": _cmd_limits, "critical": _cmd_critical}
# What each command reads of --omega-pa and --z, as its usage error words
# it: the check looks for "value" and "range" in the text.  A command that
# reads nothing ("") still refuses a range.
_READS = {"profile": ("a value", "a value or an 'A:B' range"),
          "nec": ("a value", "a value or an 'A:B' range"),
          "sweep": ("an 'A:B' range", "a value"), "limits": ("", ""), "critical": ("", "")}


# ----------------------------------------------------------------------
# Serialization.
# ----------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


def _render_csv(spec: RunSpec, columns, rows, references) -> str:
    lines = [f"# casimir-stress {spec.command}"]
    for key, value in sorted(spec.metadata().items()):
        lines.append(f"# spec.{key}={json.dumps(value)}")
    lines.append(f"# units={'J/m^3' if spec.si else 'a^-4'}")
    for key in sorted(references):
        lines.append(f"# ref.{key}={references[key]!r}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _render_json(spec: RunSpec, columns, rows, references) -> str:
    payload = {
        "spec": {**spec.metadata(), "units": "J/m^3" if spec.si else "a^-4"},
        "columns": list(columns),
        "rows": [list(row) for row in rows],
        "references": references,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


_PLOT_TEMPLATE = '''"""Plot {command} data from {data_name}; generated by casimir-stress."""

import json
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

DATA = Path(__file__).resolve().parent / {data_name!r}
FORMAT = {output_format!r}
LOG_X = {log_x!r}
REFERENCE_FOR = {column_reference!r}


def load():
    if FORMAT == "json":
        doc = json.loads(DATA.read_text(encoding="utf-8"))
        return doc["columns"], doc["rows"], doc.get("references", {{}})
    lines = DATA.read_text(encoding="utf-8").splitlines()
    references = {{key: float(value) for key, value in
                  (line[6:].split("=") for line in lines if line.startswith("# ref."))}}
    header, *rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    return header, [[float(c) for c in row] for row in rows], references


def main():
    columns, rows, references = load()
    x = [row[0] for row in rows]
    quantities = [c for c in columns[1:] if not c.startswith("err_") and c != "converged"]
    fig, axes = plt.subplots(len(quantities), 1, sharex=True,
                             figsize=(6.0, 2.2 * len(quantities)))
    if len(quantities) == 1:
        axes = [axes]
    for ax, name in zip(axes, quantities):
        y = [row[columns.index(name)] for row in rows]
        err = [row[columns.index("err_" + name)] for row in rows]
        ax.errorbar(x, y, yerr=err, fmt="o-", markersize=2.5, linewidth=1.0)
        ref_name = REFERENCE_FOR.get(name)
        if ref_name in references:
            ax.axhline(references[ref_name], linestyle="--", linewidth=0.8, color="gray")
        ax.set_ylabel(name)
        if LOG_X:
            ax.set_xscale("log")
    axes[-1].set_xlabel(columns[0])
    fig.tight_layout()
    out = DATA.with_suffix(DATA.suffix + ".png")
    fig.savefig(out, dpi=150)
    print(f"wrote {{out}}")


if __name__ == "__main__":
    main()
'''


def _plot_script(spec: RunSpec) -> tuple[Path, str]:
    """The plot script's path, next to the data file, and its source."""
    data_path = Path(spec.output_path)
    content = _PLOT_TEMPLATE.format(
        command=spec.command,
        data_name=data_path.name,
        output_format=spec.output_format,
        log_x=spec.command == "sweep",
        column_reference=_COLUMN_REFERENCE,
    )
    return data_path.with_name(data_path.stem + "_plot.py"), content


def _write(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` and return it; a usage error if that fails."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------


def _diagnostic(message: str) -> None:
    stream = sys.stderr
    color = stream.isatty() and not os.environ.get("NO_COLOR")
    prefix = "\x1b[33mcasimir-stress:\x1b[0m" if color else "casimir-stress:"
    stream.write(f"{prefix} {message}\n")


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        spec = build_run_spec(argv)
        (columns, rows), notes = _noted(_COMMANDS[spec.command], spec)
        references = _to_si(spec, columns, rows) if spec.si else reference_limits()
        render = _render_json if spec.output_format == "json" else _render_csv
        payload = render(spec, columns, rows, references)
        if spec.output_path is None:
            sys.stdout.write(payload)
        else:
            _write(Path(spec.output_path), payload)
        for note in notes:
            _diagnostic(f"note: {note}")
        if spec.emit_plot_script:
            _diagnostic(f"wrote plot script {_write(*_plot_script(spec))}")
    except UsageError as exc:
        _diagnostic(f"error: {exc}")
        return 1
    except QuadratureError as exc:
        _diagnostic(f"numerical failure: {exc}")
        return 2
    if columns[-1] == "converged" and any(row[-1] == 0 for row in rows):
        _diagnostic("one or more points did not converge; see the converged column")
        return 2
    return 0


def run(argv: list[str] | None = None) -> int:
    """Process entry: ``main(argv)``, then ``gc.freeze()``; returns its status."""
    status = main(argv)
    gc.freeze()  # the interpreter's exit collections then skip the import-time heap
    return status


if __name__ == "__main__":
    sys.exit(run())
