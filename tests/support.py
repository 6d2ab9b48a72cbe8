"""What several test modules share: one runner of a fresh interpreter, one loader of the
tools under ``tools/``, two oracles and the reader of inputs pinned as ``float.hex`` bits."""

import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parents[1] / "tools"

#: seconds a fresh interpreter may run: a hang guard, so a child that never ends
#: fails its test (subprocess.TimeoutExpired) instead of stalling the suite
TIMEOUT = 60


def fresh_python(*args, env=None, path=(), text=True, cwd=None) -> subprocess.CompletedProcess:
    """This interpreter run on ``args`` in a new process, its output captured: ``path``
    and then this process's ``sys.path`` on PYTHONPATH, ``env`` laid over ``os.environ``."""
    pythonpath = os.pathsep.join([*map(str, path), *sys.path])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=text,
        timeout=TIMEOUT,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath, **(env or {})},
    )


@functools.cache
def tool(name: str):
    """The module ``tools/<name>.py``, loaded once per process."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def taylor_expm(m, t, terms):
    """Independent oracle: plain Taylor sum of exp(-1j*m*t), ``terms`` terms."""
    acc = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    x = -1j * t * np.asarray(m, dtype=complex)
    for k in range(1, terms):
        term = term @ x / k
        acc = acc + term
    return acc


def rule_boundary_drive(side):
    """[[0.3, 1.5 + i d], [0.5 + i d, 0.3]]: N = (1 + i d) X + (i/2) Y has
    N^2 = 0.75 + 2 i d exactly and sum |n_k|^2 = 1.25, so d = 10 eps (1 -+ 2**-8)
    lies just inside and just outside the real-spectrum rule."""
    d = 10 * sys.float_info.epsilon * (1 - 2**-8 if side == "inside" else 1 + 2**-8)
    return np.array([[0.3, complex(1.5, d)], [complex(0.5, d), 0.3]])


def hex_array(parts: str) -> np.ndarray:
    """The complex array whose real and imaginary parts, in turn, are the ``float.hex`` ``parts``:
    an input pinned as bits, which no host's BLAS or SIMD kernel moves."""
    return np.array([float.fromhex(p) for p in parts.split()]).view(complex)
