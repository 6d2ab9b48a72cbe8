"""Command-line front end emitting deterministic CSV/JSON reports.

Every command writes a single report: a fixed column order, floats rendered
with 17 significant digits, LF line endings, and the generating configuration
echoed into the report next to the schema version, so the same invocation
yields byte-identical output.  Files are written atomically (temp file plus
rename).  Exit status: 0 on success, 1 when the numerics reject the request
(domain errors carry the originating error type) or a report value is not
finite, 2 on bad usage, which includes a float flag that is not a finite
number and a sweep of more than MAX_POINTS points.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import brachistochrone, dilation, gates, metric, opendyn, smallmat

SCHEMA = "tachys-report/1"

#: most rows a sweep may ask for (``--points``, ``--t-points``); a stacked
#: sweep and its report take about 1.2 kB per row at their peak (a 65,536-row
#: dissipation report peaks at 109 MB), so the cap allows about 1.2 GB
MAX_POINTS = 2**20


class _UsageError(Exception):
    """Missing or inconsistent flags; reported through the parser (exit 2)."""


class NonFiniteReportError(ArithmeticError):
    """A report value is NaN or infinite; no report is written (exit 1)."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tachys-", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render(command: str, config: dict, table: dict, summary: dict | None, fmt: str) -> str:
    """Zip the ``{column: values}`` table into rows; a scalar fills its column."""
    columns = list(table)
    values = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float)) for v in table.values()))
    for name, column in zip(columns, values):
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise NonFiniteReportError(f"column {name} is {float(column[bad[0]])!r} in row {bad[0]}")
    for key, value in (summary or {}).items():
        if not math.isfinite(value):
            raise NonFiniteReportError(f"summary {key} is {value!r}")
    rows = list(zip(*(v.tolist() for v in values)))
    if fmt == "json":
        report = {"schema": SCHEMA, "command": command, "config": config}
        if summary is not None:
            report["summary"] = summary
        report["rows"] = [dict(zip(columns, row)) for row in rows]
        return json.dumps(report, indent=2) + "\n"
    lines = [f"# schema={SCHEMA}", f"# command={command}"]
    for key in config:
        lines.append(f"# {key}={_fmt(config[key])}")
    if summary is not None:
        for key in summary:
            lines.append(f"# summary.{key}={_fmt(summary[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


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
        return np.array([args.theta], dtype=float)
    if args.theta_min is None or args.theta_max is None:
        raise _UsageError("provide either --theta or both --theta-min and --theta-max")
    return _sweep(args.theta_min, args.theta_max, args.points)


# ---------------------------------------------------------------- commands


def _cmd_brachy(args):
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
    grid = _sweep(args.f_min, args.f_max, args.points)
    scan = opendyn.dissipation_scan(grid, args.omega, proximity=args.proximity)
    table = {
        name: [getattr(r, name) for r in scan]
        for name in ("f", "d_factor", "finite_factor", "gap_sq", "a_prime", "tau")
    }
    return table, None


def _cmd_dilation(args):
    m = metric.diag_metric(args.scale)
    h = 0.5 * args.omega * smallmat.PAULI_X
    model = dilation.build_dilation(h, m, args.omega)
    qh = metric.quasi_hamiltonian(h, m, args.omega)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    ts = _sweep(0.0, args.t_max, args.t_points)
    evolved, observed = dilation.evolve_dilated(model, psi0, ts)
    direct = smallmat.propagator(qh.operator, ts) @ psi0
    table = {
        "t": ts,
        "embedding_error": smallmat.row_norms(observed - direct),
        "observed_norm": smallmat.row_norms(observed),
        "total_norm": smallmat.row_norms(evolved),
    }
    vmat, big = model.extended_vectors, model.hamiltonian
    summary = {
        "unitarity_defect": smallmat.frobenius(vmat.conj().T @ vmat - np.eye(4)),
        "hermiticity_defect": smallmat.frobenius(big - big.conj().T),
        "norm_factor": model.norm_factor,
        "visibility_ratio": dilation.visibility_ratio(m, np.array([0.0, 1.0], dtype=complex)),
    }
    return table, summary


def _cmd_povm(args):
    grid = _theta_grid(args)
    basis = gates.BlochBasis(grid)
    povm = gates.discrimination_povm(basis)
    effect = dict(zip(povm.labels, povm.effects))
    psi0, psi1 = basis.psi0, basis.psi1
    # inconclusive_probability normalizes its state; |psi1| is 1 only to rounding
    unit_psi1 = smallmat.normalize(psi1, stack=True)

    def sandwich(label, psi):
        # <psi|E|psi> row by row
        return np.real(np.sum(np.conj(psi) * (effect[label] @ psi[..., None])[..., 0], axis=-1))

    table = {
        "theta": grid,
        "overlap": basis.overlap,
        "p_inconclusive_psi0": sandwich(gates.INCONCLUSIVE, psi0),
        "p_inconclusive_psi1": sandwich(gates.INCONCLUSIVE, unit_psi1),
        "misid_0_on_psi1": sandwich("0", psi1),
        "misid_1_on_psi0": sandwich("1", psi0),
        "completeness_defect": povm.completeness_defect(),
        "min_eigenvalue": povm.min_eigenvalue(),
    }
    return table, None


def _cmd_notgate(args):
    report = gates.not_gate_roundtrip(gates.BlochBasis(args.theta), args.omega)
    table = {
        name: getattr(report, name)
        for name in ("theta", "omega", "forward_residual", "roundtrip_fidelity", "tau_not")
    }
    return table, None


def _cmd_controlu(args):
    report = gates.control_u_channel(gates.BlochBasis(args.theta), args.e_polar)
    table = {
        "theta": report.theta,
        "e_polar": report.e_polar,
        "p": report.p,
        "q": report.q,
        "bound_lhs": report.bound_lhs,
        "bound_rhs": report.bound_rhs,
        "slack": report.bound_rhs - report.bound_lhs,
        "decomposition_residual": report.decomposition_residual,
    }
    return table, None


def _cmd_efficiency(args):
    report = gates.efficiency_bound(gates.BlochBasis(args.theta), args.omega)
    bound = 2.0 * report.epsilon / report.delta_e
    table = {
        "theta": args.theta,
        "omega": args.omega,
        "epsilon": report.epsilon,
        "delta_e": report.delta_e,
        "delta_t": report.delta_t,
        "bound_rhs": bound,
        "slack": report.delta_t - bound,
    }
    return table, None


_COMMANDS = {
    "brachy": _cmd_brachy,
    "dissipation": _cmd_dissipation,
    "dilation": _cmd_dilation,
    "povm": _cmd_povm,
    "notgate": _cmd_notgate,
    "controlu": _cmd_controlu,
    "efficiency": _cmd_efficiency,
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
        p.add_argument("--points", type=int, default=64)

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

    p = sub.add_parser("notgate", help="minimal-time NOT round trip")
    p.add_argument("--theta", type=_finite_float, required=True)
    p.add_argument("--omega", type=_finite_float, default=1.0)
    common(p)

    p = sub.add_parser("controlu", help="control-U channel report")
    p.add_argument("--theta", type=_finite_float, required=True)
    p.add_argument("--e-polar", type=_finite_float, default=0.0,
                   help="Bloch polar angle of the lower control state")
    common(p)

    p = sub.add_parser("efficiency", help="time-energy-information bound")
    p.add_argument("--theta", type=_finite_float, required=True)
    p.add_argument("--omega", type=_finite_float, default=1.0)
    common(p)

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
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(
            f"tachys {args.command}: error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
