"""Time the library's kernels side by side against another checkout, in one process.

    python tools/abtime.py --src PARENT

Loads the ``tachys`` package of PARENT (its root or its ``src``) as
``tachys_parent`` and this checkout's as ``tachys_change``, each through
``report_digest.load``, so both run in one interpreter on the same inputs.
First every kernel of ``KERNELS`` runs once on each side and its results
are compared bit for bit (``report_digest._feed``: arrays by dtype, shape
and bytes, floats by ``float.hex``, errors by type and message); a kernel
whose bits differ is marked ``differ``.  Then the kernels are timed in ``ROUNDS`` interleaved rounds: in each round every
kernel runs a batch of calls on one side and then on the other, the side
that goes first alternating from round to round, with the garbage collector
off.  A batch holds as many calls as take about ``BUDGET`` seconds.

One tab-separated line per kernel: its name, the median time per call and
its quartiles on the parent side, the same on the change side (in
microseconds), the median and quartiles over the rounds of the per-round
ratio change/parent (below 1 is faster), and ``equal`` or ``differ``.
Run it with ``--src`` naming this checkout to time the tree against itself.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from report_digest import _feed, load  # noqa: E402

#: the kernels of the north star's layers: name -> the call, a function of one side's api
#: (its public names plus ``metric`` and ``model`` built by that side) and the shared inputs
KERNELS = {
    "propagator": lambda a, x: a["propagator"](x.h2, 0.7),
    "propagator.times": lambda a, x: a["propagator"](x.drive, x.times),
    "propagator.stack": lambda a, x: a["propagator"](x.stack, x.stack_times),
    "first_passage_scan.hermitian": lambda a, x: a["first_passage_scan"](x.h2, x.e0, x.on_h2, 10.0, 1500),
    "first_passage_scan.metric_hermitian": lambda a, x: a["first_passage_scan"](x.drive, x.e0, x.on_drive, 10.0, 1500),
    "first_passage_scan.broken_pt": lambda a, x: a["first_passage_scan"](x.broken, x.e0, x.e1, 10.0, 1500),
    "evolve_semigroup.hermitian": lambda a, x: a["evolve_semigroup"](x.h2, x.rho0, x.times),
    "evolve_semigroup.metric_hermitian": lambda a, x: a["evolve_semigroup"](x.drive, x.rho0, x.times),
    "evolve_semigroup.shifted": lambda a, x: a["evolve_semigroup"](x.shifted, x.rho0, x.times),
    "quasi_hamiltonian": lambda a, x: a["quasi_hamiltonian"](x.flat, a["metric"], 1.0),
    "aligned_hamiltonian": lambda a, x: a["aligned_hamiltonian"](a["metric"], 1.3, x.e0, x.target),
    "metric_from_sqrt": lambda a, x: a["metric_from_sqrt"](1.6, 0.7 + 0.3j),
    "pseudo_hermiticity_defect": lambda a, x: a["pseudo_hermiticity_defect"](x.drive, x.eta),
    "energy_gap_squared": lambda a, x: a["energy_gap_squared"](x.h2),
    "dissipation_scan.4096": lambda a, x: a["dissipation_scan"](x.f_grid, 1.0, 1e-6),
    "eigvals2": lambda a, x: a["eigvals2"](x.broken),
    "eigvals2.4096": lambda a, x: a["eigvals2"](x.stack),
    "split_generator": lambda a, x: a["split_generator"](x.broken),
    "is_hermitian": lambda a, x: a["is_hermitian"](x.drive),
    "is_hermitian.4096": lambda a, x: a["is_hermitian"](x.stack),
    "frobenius": lambda a, x: a["frobenius"](x.drive),
    "frobenius.4096": lambda a, x: a["frobenius"](x.stack),
    "hermitian_sqrt": lambda a, x: a["hermitian_sqrt"](x.eta),
    "build_dilation": lambda a, x: a["build_dilation"](x.flat, a["metric"], 1.0),
    "evolve_dilated": lambda a, x: a["evolve_dilated"](a["model"], x.e0, 0.7),
    "evolve_dilated.4096": lambda a, x: a["evolve_dilated"](a["model"], x.e0, x.times),
}

#: interleaved rounds, and seconds per batch of calls
ROUNDS, BUDGET = 31, 0.005


class Inputs:
    """The arguments both sides share, built here with numpy alone: a Hermitian drive, a metric-Hermitian
    drive S^-1 h S under the metric root S and its trace-shifted form, a broken-PT drive, targets on the
    orbits of the first two, a density matrix, a time grid, a dissipation grid, and a seeded stack of 4096
    Hermitian drives with one time each."""

    def __init__(self):
        self.e0, self.e1 = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
        self.h2 = np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.1]])
        self.flat = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        root = np.array([[1.0, 0.7 + 0.3j], [0.7 - 0.3j, 1.6]])
        self.eta = root @ root
        self.drive = np.linalg.solve(root, self.flat @ root)
        rate = np.linalg.eigvalsh((self.drive - self.drive.conj().T) / 2j)[-1]
        self.shifted = self.drive - 1j * rate * np.eye(2)
        self.broken = np.array([[0.2 + 0.1j, 1.1], [0.05j, -0.4 - 0.3j]])
        self.on_h2 = self._evolved(self.h2, 2.1)
        self.on_drive = np.linalg.solve(root, self._evolved(self.flat, 2.1, root @ self.e0))
        self.target = np.array([0.6, 0.8j])
        self.rho0 = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]])
        self.times = np.linspace(0.0, 10.0, 4096)
        self.f_grid = np.linspace(0.05, 6.0, 4096)
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4096, 2, 2)) + 1j * rng.normal(size=(4096, 2, 2))
        self.stack = 0.5 * (a + a.conj().transpose(0, 2, 1))
        self.stack_times = rng.uniform(0.0, 10.0, 4096)

    def _evolved(self, h, t, psi=None):
        """e^{-i h t} psi of a Hermitian h, psi = e0 by default."""
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w * t)) @ v.conj().T @ (self.e0 if psi is None else psi)


def _side(api: dict, x: Inputs) -> dict:
    """``api`` with the metric and the dilation model this side builds for its kernels."""
    metric = api["metric_from_sqrt"](1.6, 0.7 + 0.3j)
    return {**api, "metric": metric, "model": api["build_dilation"](x.flat, metric, 1.0)}


def _digest(run) -> str:
    """The sha256 of ``run()``'s result, or of its error's type and message."""
    h = hashlib.sha256()
    try:
        _feed(h, run())
    except Exception as exc:  # an error is a result too
        h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def _batch(run, number: int) -> float:
    """Seconds per call of ``number`` calls of ``run``, the collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(number):
            run()
        return (time.perf_counter() - start) / number
    finally:
        gc.enable()


def compare(parent: dict, change: dict, rounds: int, budget: float) -> list[tuple]:
    """One row per kernel: its name, the parent's and the change's seconds per call of each round,
    and whether the two results are equal bit for bit."""
    x = Inputs()
    sides = _side(parent, x), _side(change, x)
    rows = []
    for name, kernel in KERNELS.items():
        runs = [lambda a=a, kernel=kernel: kernel(a, x) for a in sides]
        equal = _digest(runs[0]) == _digest(runs[1])
        number = max(1, round(budget / max(_batch(runs[0], 1), _batch(runs[1], 1))))
        rows.append([name, runs, number, ([], []), equal])
    for k in range(rounds):
        for _, runs, number, times, _ in rows:
            for j in (0, 1) if k % 2 == 0 else (1, 0):
                times[j].append(_batch(runs[j], number))
    return [(name, *times, equal) for name, _, _, times, equal in rows]


def _quartiles(x) -> str:
    q1, q2, q3 = np.percentile(x, [25, 50, 75])
    return f"{q2:.4g}\t{q1:.4g}-{q3:.4g}"


def table(rows) -> list[str]:
    lines = ["kernel\tparent_us\tparent_q1-q3\tchange_us\tchange_q1-q3\tratio\tratio_q1-q3\tbits"]
    for name, parent, change, equal in rows:
        ratio = np.divide(change, parent)
        cells = _quartiles(np.multiply(parent, 1e6)), _quartiles(np.multiply(change, 1e6)), _quartiles(ratio)
        lines.append("\t".join([name, *cells, "equal" if equal else "differ"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the parent checkout (its root or its src)")
    args = parser.parse_args(argv)
    parent = load("tachys_parent", args.src)
    change = load("tachys_change", Path(__file__).resolve().parents[1])
    for line in table(compare(parent, change, ROUNDS, BUDGET)):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
