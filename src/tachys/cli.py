"""Command-line front end emitting deterministic CSV/JSON reports.

Every command writes a single report: a fixed column order, floats rendered
with 17 significant digits, LF line endings, and the generating configuration
echoed into the report next to the schema version, so the same invocation
yields byte-identical output.  Files are written atomically (temp file plus
rename).  Exit status: 0 on success, 1 when the numerics reject the request
(domain errors carry the originating error type), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import brachistochrone, dilation, gates, metric, opendyn, smallmat

SCHEMA = "tachys-report/1"


class _UsageError(Exception):
    """Missing or inconsistent flags; reported through the parser (exit 2)."""


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


def _render(command: str, config: dict, columns: list[str], rows: list[dict],
            summary: dict | None, fmt: str) -> str:
    if fmt == "json":
        report = {"schema": SCHEMA, "command": command, "config": config}
        if summary is not None:
            report["summary"] = summary
        report["rows"] = rows
        return json.dumps(report, indent=2) + "\n"
    lines = [f"# schema={SCHEMA}", f"# command={command}"]
    for key in config:
        lines.append(f"# {key}={_fmt(config[key])}")
    if summary is not None:
        for key in summary:
            lines.append(f"# summary.{key}={_fmt(summary[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in columns))
    return "\n".join(lines) + "\n"


def _theta_grid(args) -> np.ndarray:
    if args.theta is not None:
        return np.array([args.theta], dtype=float)
    if args.theta_min is None or args.theta_max is None:
        raise _UsageError("provide either --theta or both --theta-min and --theta-max")
    if args.points < 2:
        raise _UsageError("sweep needs at least 2 points")
    if not (np.isfinite(args.theta_min) and np.isfinite(args.theta_max)):
        raise _UsageError("sweep range must be finite")
    return np.linspace(args.theta_min, args.theta_max, args.points)


# ---------------------------------------------------------------- commands


def _cmd_brachy(args):
    grid = _theta_grid(args)
    rows = []
    for theta in grid:
        basis = gates.BlochBasis(float(theta))
        result = brachistochrone.transfer(basis.psi1, args.omega)
        rows.append(
            {
                "theta": float(theta),
                "omega": float(args.omega),
                "overlap": float(result.overlap.real),
                "tau": result.tau,
                "shift": result.drive.shift,
                "phase": result.drive.phase,
                "h01_re": float(result.drive.matrix[0, 1].real),
                "h01_im": float(result.drive.matrix[0, 1].imag),
            }
        )
    config = _config(args, ["theta", "theta_min", "theta_max", "points", "omega"])
    cols = ["theta", "omega", "overlap", "tau", "shift", "phase", "h01_re", "h01_im"]
    return config, cols, rows, None


def _cmd_dissipation(args):
    if args.points < 2:
        raise _UsageError("sweep needs at least 2 points")
    grid = np.linspace(args.f_min, args.f_max, args.points)
    scan = opendyn.dissipation_scan(grid, args.omega, proximity=args.proximity)
    rows = [
        {
            "f": r.f,
            "d_factor": r.d_factor,
            "finite_factor": r.finite_factor,
            "gap_sq": r.gap_sq,
            "a_prime": r.a_prime,
            "tau": r.tau,
        }
        for r in scan
    ]
    config = _config(args, ["f_min", "f_max", "points", "omega", "proximity"])
    return config, ["f", "d_factor", "finite_factor", "gap_sq", "a_prime", "tau"], rows, None


def _cmd_dilation(args):
    m = metric.diag_metric(args.scale)
    h = 0.5 * args.omega * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    model = dilation.build_dilation(h, m, args.omega)
    qh = metric.quasi_hamiltonian(h, m, args.omega)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    if args.t_points < 2:
        raise _UsageError("sweep needs at least 2 points")
    ts = np.linspace(0.0, args.t_max, args.t_points)
    rows = []
    for t in ts:
        evolved, observed = dilation.evolve_dilated(model, psi0, float(t))
        direct = smallmat.propagator(qh.operator, float(t)) @ psi0
        rows.append(
            {
                "t": float(t),
                "embedding_error": float(np.linalg.norm(observed - direct)),
                "observed_norm": float(np.linalg.norm(observed)),
                "total_norm": float(np.linalg.norm(evolved)),
            }
        )
    summary = {
        "unitarity_defect": float(
            np.linalg.norm(
                model.extended_vectors.conj().T @ model.extended_vectors - np.eye(4)
            )
        ),
        "hermiticity_defect": float(
            np.linalg.norm(model.hamiltonian - model.hamiltonian.conj().T)
        ),
        "norm_factor": model.norm_factor,
        "visibility_ratio": dilation.visibility_ratio(m, np.array([0.0, 1.0], dtype=complex)),
    }
    config = _config(args, ["scale", "omega", "t_max", "t_points"])
    return config, ["t", "embedding_error", "observed_norm", "total_norm"], rows, summary


def _cmd_povm(args):
    grid = _theta_grid(args)
    rows = []
    for theta in grid:
        basis = gates.BlochBasis(float(theta))
        povm = gates.discrimination_povm(basis)
        labels = povm.labels
        e_conclusive_0 = povm.effects[labels.index("0")]
        e_conclusive_1 = povm.effects[labels.index("1")]
        rows.append(
            {
                "theta": float(theta),
                "overlap": basis.overlap,
                "p_inconclusive_psi0": gates.inconclusive_probability(povm, basis.psi0),
                "p_inconclusive_psi1": gates.inconclusive_probability(povm, basis.psi1),
                "misid_0_on_psi1": float(
                    np.real(np.vdot(basis.psi1, e_conclusive_0 @ basis.psi1))
                ),
                "misid_1_on_psi0": float(
                    np.real(np.vdot(basis.psi0, e_conclusive_1 @ basis.psi0))
                ),
                "completeness_defect": povm.completeness_defect(),
                "min_eigenvalue": povm.min_eigenvalue(),
            }
        )
    config = _config(args, ["theta", "theta_min", "theta_max", "points"])
    cols = [
        "theta",
        "overlap",
        "p_inconclusive_psi0",
        "p_inconclusive_psi1",
        "misid_0_on_psi1",
        "misid_1_on_psi0",
        "completeness_defect",
        "min_eigenvalue",
    ]
    return config, cols, rows, None


def _cmd_notgate(args):
    report = gates.not_gate_roundtrip(gates.BlochBasis(args.theta), args.omega)
    rows = [
        {
            "theta": report.theta,
            "omega": report.omega,
            "forward_residual": report.forward_residual,
            "roundtrip_fidelity": report.roundtrip_fidelity,
            "tau_not": report.tau_not,
        }
    ]
    config = _config(args, ["theta", "omega"])
    return config, ["theta", "omega", "forward_residual", "roundtrip_fidelity", "tau_not"], rows, None


def _cmd_controlu(args):
    report = gates.control_u_channel(gates.BlochBasis(args.theta), args.e_polar)
    rows = [
        {
            "theta": report.theta,
            "e_polar": report.e_polar,
            "p": report.p,
            "q": report.q,
            "bound_lhs": report.bound_lhs,
            "bound_rhs": report.bound_rhs,
            "slack": report.bound_rhs - report.bound_lhs,
            "decomposition_residual": report.decomposition_residual,
        }
    ]
    config = _config(args, ["theta", "e_polar"])
    cols = ["theta", "e_polar", "p", "q", "bound_lhs", "bound_rhs", "slack",
            "decomposition_residual"]
    return config, cols, rows, None


def _cmd_efficiency(args):
    report = gates.efficiency_bound(gates.BlochBasis(args.theta), args.omega)
    bound = 2.0 * report.epsilon / report.delta_e
    rows = [
        {
            "theta": float(args.theta),
            "omega": float(args.omega),
            "epsilon": report.epsilon,
            "delta_e": report.delta_e,
            "delta_t": report.delta_t,
            "bound_rhs": bound,
            "slack": report.delta_t - bound,
        }
    ]
    config = _config(args, ["theta", "omega"])
    cols = ["theta", "omega", "epsilon", "delta_e", "delta_t", "bound_rhs", "slack"]
    return config, cols, rows, None


_COMMANDS = {
    "brachy": _cmd_brachy,
    "dissipation": _cmd_dissipation,
    "dilation": _cmd_dilation,
    "povm": _cmd_povm,
    "notgate": _cmd_notgate,
    "controlu": _cmd_controlu,
    "efficiency": _cmd_efficiency,
}


def _config(args, keys: list[str]) -> dict:
    out = {}
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            out[key] = value
    out["format"] = args.format
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tachys",
        description="Deterministic reports on time-optimal and metric-deformed qubit dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output file (default: stdout)")

    def theta_options(p, sweep: bool):
        p.add_argument("--theta", type=float, default=None,
                       help="working-pair polar angle in (0, pi]")
        if sweep:
            p.add_argument("--theta-min", type=float, default=None)
            p.add_argument("--theta-max", type=float, default=None)
            p.add_argument("--points", type=int, default=64)

    p = sub.add_parser("brachy", help="minimal-time drive for a working pair")
    theta_options(p, sweep=True)
    p.add_argument("--omega", type=float, default=1.0)
    common(p)

    p = sub.add_parser("dissipation", help="degenerate-metric revelation scan")
    p.add_argument("--f-min", type=float, required=True)
    p.add_argument("--f-max", type=float, required=True)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--proximity", type=float, default=1e-6)
    common(p)

    p = sub.add_parser("dilation", help="four-level Hermitian embedding trace")
    p.add_argument("--scale", type=float, default=2.0, help="diagonal metric scale")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=2.0 * np.pi)
    p.add_argument("--t-points", type=int, default=33)
    common(p)

    p = sub.add_parser("povm", help="unambiguous-discrimination audit")
    theta_options(p, sweep=True)
    common(p)

    p = sub.add_parser("notgate", help="minimal-time NOT round trip")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--omega", type=float, default=1.0)
    common(p)

    p = sub.add_parser("controlu", help="control-U channel report")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--e-polar", type=float, default=0.0,
                   help="Bloch polar angle of the lower control state")
    common(p)

    p = sub.add_parser("efficiency", help="time-energy-information bound")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--omega", type=float, default=1.0)
    common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        config, columns, rows, summary = handler(args)
        text = _render(args.command, config, columns, rows, summary, args.format)
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
