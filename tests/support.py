"""What several test modules share: one runner of a fresh interpreter, one loader of the
tools under ``tools/``, two oracles, the reader of inputs pinned as ``float.hex`` bits, the
censuses' comparable bits of a result, and one spy on numpy, a module or a function."""

import dataclasses
import fnmatch
import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parents[1] / "tools"

#: the basis states (1, 0) and (0, 1)
E0, E1 = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)

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


def bloch(theta, alpha=0.0, beta=-np.pi / 2.0):
    """The unit state (cos(theta/2) e^{i alpha}, sin(theta/2) e^{i beta}); the default beta gives the normal
    form that the plain sigma_x drive reaches."""
    return np.array([np.cos(0.5 * theta) * np.exp(1j * alpha), np.sin(0.5 * theta) * np.exp(1j * beta)])


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


def bits(x):
    """A result as comparable bits: arrays by dtype, shape and bytes, numbers by ``float.hex``, fields in order."""
    if dataclasses.is_dataclass(x):
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return tuple((name, bits(v)) for name, v in x.items())
    if isinstance(x, (tuple, list)):
        return tuple(map(bits, x))
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, np.generic):
        return bits(x.item())
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return x.hex()
    return repr(x)


#: the error types an outcome records: a call raising any other fails its test
OUTCOME_ERRORS = (ValueError, TypeError, ArithmeticError, RuntimeError)


def outcome(f):
    """``f()``'s bits, or the type and message of the error it raises."""
    try:
        return bits(f())
    except OUTCOME_ERRORS as exc:
        return type(exc), str(exc)


class Spy:
    """A stand-in for numpy, or for ``target`` (a module or function), that watches what is reached on it: each
    name by its dotted path ("exp", "linalg.norm"; "linalg.*" reaches through ``target.linalg``), each call of the
    spy as ``name``.  One that matches a pattern of ``count`` is appended to ``calls`` (a call as
    ``record(*args, **kwargs)`` where given), else one of ``forbid`` raises AssertionError."""

    def __init__(self, calls=None, forbid=(), count=(), target=np, name="numpy", record=None, path=""):
        self.calls, self._forbid, self._count, self._target = [] if calls is None else calls, forbid, count, target
        self._name, self._record, self._path = name, record, path

    def _reached(self, path: str, entry) -> None:
        if any(fnmatch.fnmatchcase(path, p) for p in self._count):
            self.calls.append(entry)
        elif any(fnmatch.fnmatchcase(path, p) for p in self._forbid):
            raise AssertionError(f"{path} reached on {self._name}")

    def __getattr__(self, attr):
        path = self._path + attr
        if any(p.startswith(path + ".") for p in (*self._forbid, *self._count)):
            inner = getattr(self._target, attr)
            return Spy(self.calls, self._forbid, self._count, inner, f"{self._name}.{attr}", self._record, path + ".")
        self._reached(path, path)
        return getattr(self._target, attr)

    def __call__(self, *args, **kwargs):
        self._reached(self._name, self._name if self._record is None else self._record(*args, **kwargs))
        return self._target(*args, **kwargs)


def counted(fn, calls: list, record=None) -> Spy:
    """``fn`` under a ``Spy`` that appends each of its calls to ``calls``: its name, or ``record(*args, **kwargs)``."""
    return Spy(calls, count=("*",), target=fn, name=fn.__name__, record=record)
