"""The three seeded workloads: their inputs, operations and output checks.

Each workload builds its whole operation list from ``seed`` and ``seconds``
alone, so the same pair gives the same operations, and every count the trace
reports repeats exactly.  The list is sized to take about ``seconds`` on the
2-core x86 VM of the README, at the commit that introduced the benchmark and
at the slow end of that VM's speed drift; a faster program finishes the same
work sooner.

Checks compare against closed forms computed here with numpy/scipy, never
against tachys itself.  They run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA = "tachys-report/1"

E0 = np.array([1.0, 0.0], dtype=complex)
PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass
class Op:
    kind: str
    params: dict = field(default_factory=dict)


def _close(got: float, want: float, rtol: float = 1e-12, atol: float = 1e-12) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def _pauli_sum(vec) -> np.ndarray:
    return vec[0] * PAULI[0] + vec[1] * PAULI[1] + vec[2] * PAULI[2]


def _root(f: float, g: complex) -> np.ndarray:
    """Hermitian metric root [[1, g], [conj g, f]], as ``metric_from_sqrt`` documents it."""
    return np.array([[1.0, g], [np.conj(g), f]], dtype=complex)


# ------------------------------------------------------------- cli-reports

#: the canonical invocations listed in README.md; goldens/<name>.csv holds
#: their output captured when the benchmark was introduced
README_INVOCATIONS = {
    "brachy": "brachy --theta-min 0.1 --theta-max 3.1 --points 64 --omega 1.0",
    "dissipation": "dissipation --f-min 0.05 --f-max 6.0 --points 512 --proximity 1e-6",
    "dilation": "dilation --scale 2.0 --omega 1.0 --t-max 6.0 --t-points 33",
    "povm": "povm --theta-min 0.1 --theta-max 3.1 --points 64",
    "notgate": "notgate --theta 2.0 --omega 1.0",
    "controlu": "controlu --theta 3.141592653589793 --e-polar 0.0",
    "efficiency": "efficiency --theta 1.0 --omega 2.0",
}

#: one-row reports and sweeps at README-default sizes, cycled to fill the run
SMALL_KINDS = ("notgate", "controlu", "efficiency", "brachy", "povm",
               "brachy-sweep", "povm-sweep", "dissipation-sweep", "dilation-sweep")
DEFAULT_POINTS = {"brachy-sweep": 64, "povm-sweep": 64, "dissipation-sweep": 512,
                  "dilation-sweep": 33}
LARGE_POINTS = 4096
LARGE_KINDS = ("brachy-sweep", "povm-sweep", "dissipation-sweep", "dilation-sweep")

#: nominal cost of the fixed part (7 README reports + 4 large sweeps) and of
#: one cycle of SMALL_KINDS, in seconds per fresh process
_CLI_FIXED_S = 15.5
_CLI_CYCLE_S = 7.0

_COMBOS = (("csv", "stdout"), ("json", "file"), ("csv", "file"), ("json", "stdout"))


class CliReports:
    """Each operation is one ``tachys.cli`` report: a fresh process, or with
    ``in_process`` a call of ``tachys.cli.main`` with stdout captured."""

    name = "cli-reports"

    def __init__(self, seed: int, seconds: float, root: Path, in_process: bool = False):
        self.root = root
        self.in_process = in_process
        self.out_dir = root / ".perfbench" / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.goldens = {name: (Path(__file__).parent / "goldens" / f"{name}.csv").read_text()
                        for name in README_INVOCATIONS}
        rng = np.random.default_rng(seed)
        ops = []
        for name, line in README_INVOCATIONS.items():
            dest = "file" if rng.random() < 0.5 else "stdout"
            ops.append(Op("golden", {"golden": name, "argv": line.split(), "format": "csv",
                                     "dest": dest}))
        for kind, combo in zip(LARGE_KINDS, rng.permutation(len(_COMBOS))):
            ops.append(self._sweep(rng, kind, LARGE_POINTS, _COMBOS[combo]))
        cycles = max(1, round((seconds - _CLI_FIXED_S) / _CLI_CYCLE_S))
        offset = int(rng.integers(len(_COMBOS)))
        for i in range(cycles * len(SMALL_KINDS)):
            kind = SMALL_KINDS[i % len(SMALL_KINDS)]
            combo = _COMBOS[(i + offset) % len(_COMBOS)]
            if kind in DEFAULT_POINTS:
                ops.append(self._sweep(rng, kind, DEFAULT_POINTS[kind], combo))
            else:
                ops.append(self._one_row(rng, kind, combo))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def _one_row(rng, kind: str, combo) -> Op:
        theta = float(rng.uniform(0.05, np.pi))
        omega = float(rng.uniform(0.5, 2.0))
        argv = [kind, "--theta", repr(theta)]
        if kind == "controlu":
            argv += ["--e-polar", repr(float(rng.uniform(-np.pi, np.pi)))]
        elif kind != "povm":
            argv += ["--omega", repr(omega)]
        return Op(kind, {"argv": argv, "format": combo[0], "dest": combo[1], "rows": 1,
                         "theta": theta, "omega": omega})

    @staticmethod
    def _sweep(rng, kind: str, points: int, combo) -> Op:
        omega = float(rng.uniform(0.5, 2.0))
        command = kind.split("-")[0]
        if command in ("brachy", "povm"):
            argv = [command, "--theta-min", repr(float(rng.uniform(0.05, 0.5))),
                    "--theta-max", repr(float(rng.uniform(2.6, np.pi))), "--points", str(points)]
            if command == "brachy":
                argv += ["--omega", repr(omega)]
        elif command == "dissipation":
            argv = [command, "--f-min", repr(float(rng.uniform(0.05, 0.3))),
                    "--f-max", repr(float(rng.uniform(3.0, 6.0))), "--points", str(points),
                    "--omega", repr(omega)]
        else:
            scale = float(rng.uniform(0.5, 3.0))
            argv = [command, "--scale", repr(scale), "--omega", repr(omega),
                    "--t-max", repr(float(rng.uniform(2.0, 8.0))), "--t-points", str(points)]
            return Op(command, {"argv": argv, "format": combo[0], "dest": combo[1], "rows": points,
                                "omega": omega, "scale": scale})
        return Op(command, {"argv": argv, "format": combo[0], "dest": combo[1], "rows": points,
                            "omega": omega})

    def execute(self, op: Op, index: int):
        """Write one report; returns (exit code, report text)."""
        argv = list(op.params["argv"])
        if op.params["format"] == "json":
            argv += ["--format", "json"]
        path = None
        if op.params["dest"] == "file":
            path = self.out_dir / f"report-{index}.{op.params['format']}"
            argv += ["--output", str(path)]
        if self.in_process:
            import tachys.cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = tachys.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            stdout = buf.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "tachys.cli", *argv], cwd=self.root,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            code, stdout = proc.returncode, proc.stdout
        if path is None:
            return code, stdout
        text = path.read_text() if path.exists() else ""
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        return code, text

    def check(self, op: Op, result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        op.params["report_bytes"] = len(text.encode())
        if op.kind == "golden":
            golden = self.goldens[op.params["golden"]]
            return None if text == golden else f"README report {op.params['golden']} differs from golden"
        return check_report(op, text)


def parse_report(text: str, fmt: str):
    """Split a report into (schema, command, summary floats, rows as dicts)."""
    if fmt == "json":
        report = json.loads(text)
        return report.get("schema"), report.get("command"), report.get("summary", {}), report["rows"]
    meta, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, (float(x) for x in line.split(",")), strict=True)))
    summary = {k[len("summary."):]: float(v) for k, v in meta.items() if k.startswith("summary.")}
    return meta.get("schema"), meta.get("command"), summary, rows


def check_report(op: Op, text: str) -> str | None:
    """Closed-form checks of one seeded report; the failure reason, or None."""
    p = op.params
    try:
        schema, command, summary, rows = parse_report(text, p["format"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable report: {type(exc).__name__}: {exc}"
    if schema != SCHEMA:
        return f"schema {schema!r}"
    if command != op.kind:
        return f"command {command!r}"
    if len(rows) != p["rows"]:
        return f"{len(rows)} rows, expected {p['rows']}"
    values = [*summary.values(), *(v for row in rows for v in row.values())]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return "non-finite value"
    for row in rows:
        bad = _row_problem(op.kind, row, p)
        if bad:
            return f"{op.kind}: {bad} in row {row}"
    return None


def _row_problem(kind: str, row: dict, p: dict) -> str | None:
    omega = p.get("omega")
    if kind == "brachy":
        theta = row["theta"]
        if not _close(row["tau"], theta / omega, rtol=1e-10):
            return "tau != theta/omega"
        if not _close(row["overlap"], math.cos(theta / 2)):
            return "overlap != cos(theta/2)"
        if not _close(math.hypot(row["h01_re"], row["h01_im"]), omega / 2):
            return "|h01| != omega/2"
    elif kind == "povm":
        want = math.cos(row["theta"] / 2)
        if not (_close(row["p_inconclusive_psi0"], want) and _close(row["p_inconclusive_psi1"], want)):
            return "p_inconclusive != cos(theta/2)"
        if not row["completeness_defect"] <= 1e-12:
            return "completeness_defect > 1e-12"
    elif kind == "dissipation":
        f = row["f"]
        if not _close(row["d_factor"], math.exp(-(1 / f + f)) / f, atol=0.0):
            return "d_factor != exp(-(1/f+f))/f"
        if not _close(row["tau"], (2 / omega) * math.acos(min(1.0, max(0.0, row["a_prime"])))):
            return "tau != (2/omega) arccos(a_prime)"
    elif kind == "dilation":
        if not row["embedding_error"] <= 1e-8:
            return "embedding_error > 1e-8"
        # the stacked vector (psi; eta psi) of psi = (1, 0) under the
        # unit-determinant metric diag(1/scale, scale) keeps its norm
        if not _close(row["total_norm"], math.sqrt(1.0 + p["scale"] ** -2), atol=1e-10):
            return "total_norm != sqrt(1 + 1/scale^2)"
    elif kind == "notgate":
        if not _close(row["roundtrip_fidelity"], abs(math.cos(p["theta"]))):
            return "roundtrip_fidelity != |cos theta|"
        if not _close(row["tau_not"], math.pi / omega):
            return "tau_not != pi/omega"
    elif kind == "controlu":
        # the bound is saturated for a range of control placements, where the
        # slack is zero up to rounding of three arccos terms
        if not row["slack"] >= -1e-12:
            return "negative slack"
    elif kind == "efficiency":
        if not _close(row["delta_t"], row["bound_rhs"]):
            return "delta_t != bound_rhs"
    return None


# ----------------------------------------------------------- passage-sweep

PASSAGE_STEPS = 1500
#: drives per target: random axes, tilted axes with a guaranteed passage,
#: and metric-Hermitian drives that take the general (non-Hermitian) path
_PER_TARGET = (("random", 6), ("tilted", 2), ("general", 2))
_TARGETS = 50
#: nominal seconds for one pass over the 500-drive pool
_PASSAGE_POOL_S = 1.1


class PassageSweep:
    """Each operation is one ``first_passage_scan`` at 1500 steps."""

    name = "passage-sweep"

    def __init__(self, seed: int, seconds: float, root: Path, in_process: bool = True):
        from tachys import metric, opendyn

        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(_TARGETS):
            omega = float(rng.uniform(0.3, 3.0))
            theta = rng.uniform(0.05, np.pi)
            alpha, beta = rng.uniform(-np.pi, np.pi, size=2)
            v = np.array([np.cos(theta / 2) * np.exp(1j * alpha), np.sin(theta / 2) * np.exp(1j * beta)])
            t_max = 1.02 * 2.0 * np.pi / omega
            for kind, count in _PER_TARGET:
                for _ in range(count):
                    params = {"target": v, "omega": omega, "t_max": t_max}
                    if kind == "general":
                        f = float(rng.uniform(0.8, 2.5))
                        g = rng.uniform(0.15, 0.7) * np.sqrt(f) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                        ham = opendyn.aligned_hamiltonian(metric.metric_from_sqrt(f, g), omega, E0, v).operator
                        params["expected"] = _aligned_passage_time(_root(f, g), omega, v)
                    else:
                        axis = rng.normal(size=3) if kind == "random" else _tilted_axis(rng, v)
                        axis = axis / np.linalg.norm(axis) * 0.5 * omega
                        ham = rng.normal() * np.eye(2) + _pauli_sum(axis)
                        params["minimal"] = (2.0 / omega) * float(np.arccos(min(1.0, abs(v[0]))))
                    params["ham"] = ham
                    pool.append(Op(kind, params))
        passes = max(1, round(seconds / _PASSAGE_POOL_S))
        self.ops = [pool[i] for _ in range(passes) for i in rng.permutation(len(pool))]

    def execute(self, op: Op, index: int):
        from tachys import brachistochrone

        p = op.params
        return brachistochrone.first_passage_scan(p["ham"], E0, p["target"], p["t_max"],
                                                  steps=PASSAGE_STEPS)

    def check(self, op: Op, t) -> str | None:
        p = op.params
        if op.kind == "general":
            if t is None:
                return "general-path drive found no passage"
            if abs(t - p["expected"]) > 1e-6:
                return f"general passage {t!r} vs (2/omega) arccos|a'| = {p['expected']!r}"
            return None
        if op.kind == "tilted" and t is None:
            return "tilted-axis drive found no passage"
        if t is not None and t < p["minimal"] - 1e-8:
            return f"passage {t!r} beats the minimal time {p['minimal']!r}"
        return None


def _tilted_axis(rng, v) -> np.ndarray:
    """A rotation axis whose orbit runs through the Bloch point of ``v``,
    tilted away from the great-circle optimum."""
    a, b = v
    bloch = np.array([2.0 * (np.conj(a) * b).real, 2.0 * (np.conj(a) * b).imag,
                      abs(a) ** 2 - abs(b) ** 2])
    z = np.array([0.0, 0.0, 1.0])
    e1 = np.cross(z, bloch)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(z - bloch, e1)
    e2 /= np.linalg.norm(e2)
    phi = rng.uniform(0.05, 1.4)
    return np.cos(phi) * e1 + np.sin(phi) * e2


def _aligned_passage_time(root: np.ndarray, omega: float, v) -> float:
    """(2/omega) arccos|a'| with a' the overlap of the metric-normalized
    images root@e0 and root@v of the boundary pair."""
    u1 = root @ E0
    v1 = root @ v
    a_abs = abs(np.vdot(u1, v1)) / (np.linalg.norm(u1) * np.linalg.norm(v1))
    return (2.0 / omega) * float(np.arccos(min(1.0, a_abs)))


# --------------------------------------------------------- semigroup-trace

#: (grid length, operations per cycle).  Lengths are two octaves apart, so
#: the 64 B-per-sample rhos stack spans 0.25 MiB (well inside a 4 MiB L2) to
#: 16 MiB (four times it), and run-to-run noise never reorders operations of
#: neighbouring lengths.  The counts place the median rank in the middle of
#: the 2**14 operations and the tail rank (ten samples beyond it) in the
#: middle of the 2**18 ones, so each is a median of one stratum, the steadiest
#: order statistic it has.
SEMIGROUP_MIX = ((2 ** 12, 3), (2 ** 14, 4), (2 ** 16, 1), (2 ** 18, 2))
#: run seconds per cycle (a cycle's operations take 2.1-2.6 s on the README's
#: VM).  A 30 s run gets 10 cycles: 100 operations, 40 of length 2**14 around
#: the median and 20 of length 2**18 around the tail rank.
_SEMIGROUP_CYCLE_S = 3.0
_ORACLE_SAMPLES = 6


class SemigroupTrace:
    """Each operation builds one metric-Hermitian generator and runs plain
    and trace-shifted ``evolve_semigroup`` over one period."""

    name = "semigroup-trace"

    def __init__(self, seed: int, seconds: float, root: Path, in_process: bool = True):
        rng = np.random.default_rng(seed)
        cycles = max(1, round(seconds / _SEMIGROUP_CYCLE_S))
        self.ops = []
        cycle = [size for size, count in SEMIGROUP_MIX for _ in range(count)]
        for _ in range(cycles):
            for k in rng.permutation(len(cycle)):
                f = float(rng.uniform(0.8, 2.5))
                g = rng.uniform(0.15, 0.7) * np.sqrt(f) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                n = rng.normal(size=3)
                psi = rng.normal(size=2) + 1j * rng.normal(size=2)
                psi /= np.linalg.norm(psi)
                size = cycle[k]
                self.ops.append(Op("semigroup", {
                    "samples": size, "f": f, "g": complex(g), "omega": float(rng.uniform(0.5, 2.0)),
                    "axis": n / np.linalg.norm(n), "rho0": np.outer(psi, psi.conj()),
                    "oracle_at": np.sort(rng.choice(size, _ORACLE_SAMPLES, replace=False)),
                }))

    def execute(self, op: Op, index: int):
        from tachys import metric, opendyn

        p = op.params
        m = metric.metric_from_sqrt(p["f"], p["g"])
        qh = metric.quasi_hamiltonian(0.5 * p["omega"] * _pauli_sum(p["axis"]), m, p["omega"])
        ts = np.linspace(0.0, 2.0 * np.pi / p["omega"], p["samples"])
        plain = opendyn.evolve_semigroup(qh.operator, p["rho0"], ts)
        shifted, _ = opendyn.shifted_generator(qh.operator)
        damped = opendyn.evolve_semigroup(shifted, p["rho0"], ts)
        return plain, damped

    def check(self, op: Op, result) -> str | None:
        # imported here, not at the top: set-up and the passage-sweep process
        # then load scipy.linalg only if tachys itself does
        import scipy.linalg

        plain, damped = result
        p = op.params
        root = _root(p["f"], p["g"])
        h = 0.5 * p["omega"] * _pauli_sum(p["axis"])
        gen = np.linalg.solve(root, h @ root)
        for j in p["oracle_at"]:
            u = scipy.linalg.expm(-1j * plain.times[j] * gen)
            want = u @ p["rho0"] @ u.conj().T
            err = float(np.max(np.abs(plain.rhos[j] - want)))
            if err > 1e-10:
                return f"rho at t={plain.times[j]!r} misses the expm oracle by {err:.3e}"
        tie = float(np.max(np.abs(damped.trace_values - plain.trace_values * plain.k_values)))
        if tie > 1e-10:
            return f"damped trace misses plain trace x k by {tie:.3e}"
        if float(damped.trace_values.max()) > 1.0 + 1e-12:
            return "damped trace exceeds 1"
        # the trace need not cross 1 both ways: a state whose trace peaks at
        # t = 0 stays at or below 1 for the whole period; it must move, though
        if float(np.max(np.abs(plain.trace_values - 1.0))) <= 1e-6:
            return "plain trace stays at 1"
        return None


WORKLOADS = {w.name: w for w in (CliReports, PassageSweep, SemigroupTrace)}
