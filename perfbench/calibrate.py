"""Probes of the machine's current speed, interleaved with the operations.

The benchmark was written on a shared 2-core VM whose speed drifts by 20-30 %
over tens of seconds: the same operation, repeated, runs that much slower in
one half-minute than in the next.  Raw times of two identical runs then differ
by more than any useful regression bound.  A fixed probe, timed between
operations, slows down with the machine.  Scaling each operation's time by
``reference / local probe time`` turns it into seconds at a fixed reference
speed; there it cut the run-to-run spread of total and median operation time
from 10-29 % to 1-6 %.

Three probes cover the three kinds of work: ``cpu_probe`` (Python bytecode
and small numpy calls, like ``passage-sweep``), ``stack_probe`` (one batched
product over a stack of 2x2 matrices, like ``semigroup-trace``) and
``spawn_probe`` (the start of a bare interpreter, like the fresh processes of
``cli-reports`` and of set-up).  None touches tachys, so a change to tachys
cannot move them.  ``probe_for`` picks a workload's probe.
"""

from __future__ import annotations

import functools
import subprocess
import sys
from time import perf_counter

import numpy as np

#: probe times on the reference machine (the 2-core VM of the README);
#: they fix the unit of the scaled times, nothing else depends on them
CPU_PROBE_REF_S = 160e-6
STACK_PROBE_REF_S = 1.6e-3
SPAWN_PROBE_REF_S = 15e-3

_M = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
#: matrices in the stack_probe product
_STACK_LEN = 1 << 12


def cpu_probe() -> float:
    """Time a fixed mix of small numpy calls and a Python loop."""
    start = perf_counter()
    a = np.eye(2, dtype=complex)
    acc = 0.0
    for _ in range(20):
        a = a @ _M
        acc += float(np.abs(a[0, 0]))
    x = 0
    for i in range(1000):
        x += i * i
    return perf_counter() - start


def spawn_probe(cwd) -> float:
    """Time the start and exit of a bare interpreter (no site, isolated)."""
    start = perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], cwd=cwd, check=True)
    return perf_counter() - start


@functools.cache
def _stack() -> tuple[np.ndarray, np.ndarray]:
    # built on first use, after set-up, so it adds nothing to set-up time
    stack = np.ones((_STACK_LEN, 2, 2), dtype=complex)
    return stack, np.empty_like(stack)


def stack_probe() -> float:
    """Time one batched product over a stack of 2x2 complex matrices."""
    stack, out = _stack()
    start = perf_counter()
    np.matmul(stack, stack, out=out)
    return perf_counter() - start


def probe_for(workload: str, root) -> tuple:
    """(probe, its reference time) for the operations of ``workload``."""
    if workload == "cli-reports":
        return functools.partial(spawn_probe, root), SPAWN_PROBE_REF_S
    if workload == "semigroup-trace":
        return stack_probe, STACK_PROBE_REF_S
    return cpu_probe, CPU_PROBE_REF_S
