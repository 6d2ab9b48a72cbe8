"""Command-line front end emitting deterministic CSV/JSON reports.

Every command writes a single report: a fixed column order, floats rendered
with 17 significant digits, LF line endings, and the generating configuration
echoed into the report next to the schema version, so the same invocation
yields byte-identical output.  Files are written atomically (temp file plus
rename).  Exit status: 0 on success, 1 when the numerics reject the request
(domain errors carry the originating error type), a report value is not
finite or the output file cannot be written, 2 on bad usage, which includes
a float flag that is not a finite number and a sweep of more than MAX_POINTS
points.

``main`` is the in-process entry; ``run`` is the process entry of ``python -m
tachys.cli`` and of the ``tachys`` script.  Once ``main`` returns 0 or 1, the
report written and any ``--output`` file closed and renamed, ``run`` flushes
stdout and stderr and ends the process with ``os._exit``, skipping the
interpreter's teardown (its last collections and the teardown of numpy's
modules), which a report needs none of; atexit handlers do not run.  The
process exits as usual, through ``SystemExit``, on a usage error or ``--help``
(both exit inside ``main``), an uncaught exception, a flush that raises (a
closed pipe), an interpreter kept interactive (``-i``, ``PYTHONINSPECT``) and
with a trace or profile function installed (a debugger, coverage).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np

SCHEMA = "tachys-report/1"

#: most rows a sweep may ask for (``--points``, ``--t-points``); a stacked
#: sweep and its report take about 1.2 kB per row at their peak (a 65,536-row
#: dissipation report peaks at 111 MB as CSV and as JSON), so the cap allows about 1.2 GB
MAX_POINTS = 2**20


class _UsageError(Exception):
    """Missing or inconsistent flags; reported through the parser (exit 2)."""


class NonFiniteReportError(ArithmeticError):
    """A report value is NaN or infinite; no report is written (exit 1)."""


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=".tachys-", dir=directory)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        # name the path given, not the temporary file written beside it
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _render(command: str, config: dict, table: dict, summary: dict | None, fmt: str) -> str:
    """Zip the ``{column: values}`` table into rows; a scalar fills its column.  Either
    body is a header, one row template per row applied with one ``%``, and a footer:
    ``'%.17g' % x`` is ``format(x, '.17g')``, and ``'%r' % x`` is the float ``json`` writes."""
    columns = list(table)
    values = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float)) for v in table.values()))
    for name, column in zip(columns, values):
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise NonFiniteReportError(f"column {name} is {float(column[bad[0]])!r} in row {bad[0]}")
    for key, value in (summary or {}).items():
        if not math.isfinite(value):
            raise NonFiniteReportError(f"summary {key} is {value!r}")
    body = np.stack(values, axis=-1)
    if fmt == "json":
        import json

        summary_item = {} if summary is None else {"summary": summary}
        report = {"schema": SCHEMA, "command": command, "config": config, **summary_item, "rows": []}
        # the report ends '"rows": []\n}': json.dumps breaks a list's brackets only around items
        head = json.dumps(report, indent=2) + "\n"
        head, sep, foot = (head[:-4] + "\n", ",\n", "\n  ]\n}\n") if len(body) else (head, "", "")
        names = [json.dumps(name).replace("%", "%%") for name in columns]
        row = "    {\n" + ",\n".join(f"      {name}: %r" for name in names) + "\n    }"
    else:
        header = [("schema", SCHEMA), ("command", command), *config.items()]
        header += [(f"summary.{k}", v) for k, v in (summary or {}).items()]
        head = "".join(f"# {k}={format(v, '.17g') if isinstance(v, float) else v}\n" for k, v in header)
        head += ",".join(columns) + "\n"
        sep, foot, row = "", "", ",".join(["%.17g"] * len(columns)) + "\n"
    return head + sep.join([row] * len(body)) % tuple(body.ravel().tolist()) + foot


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _sweep(start: float, stop: float, points: int) -> np.ndarray:
    if points < 2:
        raise _UsageError("sweep needs at least 2 points")
    if points > MAX_POINTS:
        raise _UsageError(f"sweep takes at most {MAX_POINTS} points, got {points}")
    return np.linspace(start, stop, points)


def _theta_grid(args) -> np.ndarray:
    if args.theta is not None:
        if args.theta_min is not None or args.theta_max is not None:
            raise _UsageError("--theta cannot be combined with --theta-min or --theta-max")
        if args.points is not None:
            raise _UsageError("--theta cannot be combined with --points")
    args.points = 64 if args.points is None else args.points  # one-angle reports echo it too
    if args.theta is not None:
        return np.array([args.theta])
    if args.theta_min is None or args.theta_max is None:
        raise _UsageError("provide either --theta or both --theta-min and --theta-max")
    return _sweep(args.theta_min, args.theta_max, args.points)


# ---------------------------------------------------------------- commands
# each command imports the modules it calls, so a report loads no others; the
# one-row reports at one angle (notgate, controlu, efficiency) share ``_gates_report``


def _cmd_brachy(args):
    from . import brachistochrone, gates

    grid = _theta_grid(args)
    result = brachistochrone.transfer(gates.BlochBasis(grid).psi1, args.omega)
    h01 = result.drive.matrix[:, 0, 1]
    table = {
        "theta": grid,
        "omega": args.omega,
        "overlap": result.overlap.real,
        "tau": result.tau,
        "shift": result.drive.shift,
        "phase": result.drive.phase,
        "h01_re": h01.real,
        "h01_im": h01.imag,
    }
    return table, None


def _cmd_dissipation(args):
    from . import opendyn

    grid = _sweep(args.f_min, args.f_max, args.points)
    scan = opendyn.dissipation_scan(grid, args.omega, proximity=args.proximity)
    return {name: scan[name] for name in scan.dtype.names}, None


def _cmd_dilation(args):
    from . import dilation, metric, smallmat

    m = metric.diag_metric(args.scale)
    h = 0.5 * args.omega * smallmat.PAULI_X
    model = dilation.build_dilation(h, m, args.omega)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    ts = _sweep(0.0, args.t_max, args.t_points)
    evolved, observed = dilation.evolve_dilated(model, psi0, ts)
    direct = smallmat._matmul(smallmat.propagator(model.generator.operator, ts), psi0)
    table = {
        "t": ts,
        "embedding_error": smallmat._norm(observed - direct),
        "observed_norm": smallmat._norm(observed),
        "total_norm": smallmat._norm(evolved),
    }
    summary = {
        "unitarity_defect": model.unitarity_defect,
        "hermiticity_defect": model.hermiticity_defect,
        "norm_factor": model.norm_factor,
        "visibility_ratio": dilation.visibility_ratio(m, np.array([0.0, 1.0], dtype=complex)),
    }
    return table, summary


def _cmd_povm(args):
    from . import gates

    grid = _theta_grid(args)
    basis = gates.BlochBasis(grid)
    povm = gates.discrimination_povm(basis)
    effect = dict(zip(povm.labels, povm.effects))
    psi0, psi1 = basis.psi0, basis.psi1
    table = {
        "theta": grid,
        "overlap": basis.overlap,
        "p_inconclusive_psi0": gates.inconclusive_probability(povm, psi0),
        "p_inconclusive_psi1": gates.inconclusive_probability(povm, psi1),
        "misid_0_on_psi1": gates._expectation(effect["0"], psi1),
        "misid_1_on_psi0": gates._expectation(effect["1"], psi0),
        "completeness_defect": povm.completeness_defect,
        "min_eigenvalue": povm.min_eigenvalue,
    }
    return table, None


def _gates_report(function: str, flag: str, columns: tuple):
    """The handler of a one-row ``gates`` report at one angle: ``theta``, the
    flag's value, then ``columns`` of ``gates.<function>(BlochBasis(theta), value)``."""

    def handler(args):
        from . import gates

        value = getattr(args, flag)
        report = getattr(gates, function)(gates.BlochBasis(args.theta), value)
        return {"theta": args.theta, flag: value, **{name: getattr(report, name) for name in columns}}, None

    return handler


_COMMANDS = {
    "brachy": _cmd_brachy,
    "dissipation": _cmd_dissipation,
    "dilation": _cmd_dilation,
    "povm": _cmd_povm,
    "notgate": _gates_report("not_gate_roundtrip", "omega", ("forward_residual", "roundtrip_fidelity", "tau_not")),
    "controlu": _gates_report(
        "control_u_channel", "e_polar", ("p", "q", "bound_lhs", "bound_rhs", "slack", "decomposition_residual")
    ),
    "efficiency": _gates_report("efficiency_bound", "omega", ("epsilon", "delta_e", "delta_t", "bound_rhs", "slack")),
}


def _config(args) -> dict:
    """Every flag that has a value, in definition order (``--format`` last)."""
    return {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "output") and value is not None
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tachys",
        description="Deterministic reports on time-optimal and metric-deformed qubit dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # reports echo the flags in the order they are added here
    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output file (default: stdout)")

    def theta_options(p):
        p.add_argument("--theta", type=_finite_float, default=None,
                       help="working-pair polar angle in (0, pi]")
        p.add_argument("--theta-min", type=_finite_float, default=None)
        p.add_argument("--theta-max", type=_finite_float, default=None)
        p.add_argument("--points", type=int, default=None)

    def one_angle(name, help, flag, default, note=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--theta", type=_finite_float, required=True)
        p.add_argument(flag, type=_finite_float, default=default, help=note)
        common(p)

    p = sub.add_parser("brachy", help="minimal-time drive for a working pair")
    theta_options(p)
    p.add_argument("--omega", type=_finite_float, default=1.0)
    common(p)

    p = sub.add_parser("dissipation", help="degenerate-metric revelation scan")
    p.add_argument("--f-min", type=_finite_float, required=True)
    p.add_argument("--f-max", type=_finite_float, required=True)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--omega", type=_finite_float, default=1.0)
    p.add_argument("--proximity", type=_finite_float, default=1e-6)
    common(p)

    p = sub.add_parser("dilation", help="four-level Hermitian embedding trace")
    p.add_argument("--scale", type=_finite_float, default=2.0, help="diagonal metric scale")
    p.add_argument("--omega", type=_finite_float, default=1.0)
    p.add_argument("--t-max", type=_finite_float, default=2.0 * np.pi)
    p.add_argument("--t-points", type=int, default=33)
    common(p)

    p = sub.add_parser("povm", help="unambiguous-discrimination audit")
    theta_options(p)
    common(p)

    one_angle("notgate", "minimal-time NOT round trip", "--omega", 1.0)
    one_angle("controlu", "control-U channel report", "--e-polar", 0.0,
              "Bloch polar angle of the lower control state")
    one_angle("efficiency", "time-energy-information bound", "--omega", 1.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        table, summary = handler(args)
        text = _render(args.command, _config(args), table, summary, args.format)
        _write_text(args.output, text)
    except _UsageError as exc:
        parser.error(str(exc))
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(
            f"tachys {args.command}: error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    return 0


def run() -> int:
    """``main()`` as a process: its exit code, returned only where the process must exit as
    usual, else the process ends here with ``os._exit`` once stdout and stderr are flushed."""
    code = main()
    if sys.flags.inspect or os.environ.get("PYTHONINSPECT") or sys.gettrace() or sys.getprofile():
        return code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # the usual exit meets the same failure and reports it
        return code
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
