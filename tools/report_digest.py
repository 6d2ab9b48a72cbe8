"""Digest a seeded mix of ``tachys`` CLI invocations, one line each.

    python tools/report_digest.py --seed S --count N [--src DIR]

Runs N invocations of ``tachys.cli.main`` in this process, cycling through
all seven commands with arguments drawn from ``random.Random(S)``: csv and
json reports, on stdout and through ``--output`` into a temporary
directory, sweeps of up to 4096 rows, and a share of invocations that exit
1 (the numerics reject them) or 2 (bad usage).  Each line holds the argv,
the exit code, the sha256 of the report bytes and the stderr text (JSON
encoded), tab-separated, with the temporary directory written as
``<tmp>``.  The same seed and count give the same lines for the same
program, so ``diff`` of two runs, one with ``--src`` naming another
checkout (its root or its ``src``), shows every invocation whose report,
exit code or message moved.

    python tools/report_digest.py --seed S --count N --probes [--src DIR]

reruns the digest in one child process per host configuration this machine
can emulate (``probe_configurations``: numpy dispatch targets switched off,
forced OpenBLAS core types, glibc's non-FMA libm), each variable set for
its child only, and prints how many invocations of each command moved
against the digest of this process, one tab-separated line per
configuration.  Moved invocations are findings, not failures: the exit code
is 0 unless a child fails to run.

    python tools/report_digest.py --library --seed S [--count N] [--src DIR]

digests the library instead: one tab-separated line per call family
(``LIBRARY_FAMILIES``) with its name, the number of calls and one sha256 over
the bits of every result (an array's type, dtype, shape and bytes, a float's
``float.hex``, a dataclass's fields in order, signbits included), the
``type: message`` of every error raised and every warning issued.  Each
family makes N seeded draws (default 200) of single calls and stacks of 1, 3
and 64, at 2**k scales, with signed zeros and subnormals, in C order,
Fortran order and as strided views, plus a fixed set of calls that raise.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

try:  # numpy's dispatch targets and the features of this CPU
    from numpy._core._multiarray_umath import __cpu_dispatch__ as CPU_DISPATCH, __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1
    from numpy.core._multiarray_umath import __cpu_dispatch__ as CPU_DISPATCH, __cpu_features__ as CPU_FEATURES

COMMANDS = ("brachy", "dissipation", "dilation", "povm", "notgate", "controlu", "efficiency")

#: sweep lengths: mostly short, a few at the large-report sizes
_LARGE_POINTS = (512, 1024, 4096)


def _num(rng: random.Random, lo: float, hi: float, log: bool = False) -> str:
    """A float flag value in [lo, hi], uniform or log-uniform, as its repr."""
    if log:
        return repr(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    return repr(rng.uniform(lo, hi))


def _points(rng: random.Random) -> str:
    return str(rng.choice(_LARGE_POINTS) if rng.random() < 0.1 else rng.randint(2, 64))


def _theta_args(rng: random.Random) -> list[str]:
    """A one-angle or a sweep selection, now and then a rejected one."""
    draw = rng.random()
    if draw < 0.45:
        args = ["--theta", _num(rng, 1e-3, math.pi)]
        if rng.random() < 0.1:
            args += ["--points", _points(rng)]
        return args
    if draw < 0.5:
        # a tiny angle (exit 1 for brachy), or one mixed with a range (exit 2)
        return rng.choice([["--theta", "1e-08"], ["--theta", "1.0", "--theta-min", "0.5"]])
    lo = float(_num(rng, 1e-3, 3.0, log=True))
    return ["--theta-min", repr(lo), "--theta-max", _num(rng, lo, math.pi), "--points", _points(rng)]


def _command_args(command: str, rng: random.Random) -> list[str]:
    if command == "brachy":
        return _theta_args(rng) + ["--omega", _num(rng, 0.05, 20.0, log=True)]
    if command == "povm":
        return _theta_args(rng)
    if command == "dissipation":
        f_min = float(_num(rng, 0.05, 2.0, log=True))
        # a proximity at or past f_min is rejected (exit 1)
        proximity = _num(rng, 1e-6, 1e-2, log=True) if rng.random() < 0.9 else repr(2.0 * f_min)
        return ["--f-min", repr(f_min), "--f-max", _num(rng, f_min, 6.0), "--points", _points(rng),
                "--omega", _num(rng, 0.5, 2.0), "--proximity", proximity]
    if command == "dilation":
        # --scale 1e4 fails the unitarity check (exit 1)
        scale = _num(rng, 0.2, 20.0, log=True) if rng.random() < 0.9 else "1e4"
        t_points = _points(rng) if rng.random() < 0.95 else "1"
        return ["--scale", scale, "--omega", _num(rng, 0.25, 4.0, log=True),
                "--t-max", _num(rng, 0.5, 12.0), "--t-points", t_points]
    if command == "notgate":
        return ["--theta", _num(rng, 1e-3, math.pi), "--omega", _num(rng, 0.05, 20.0, log=True)]
    if command == "controlu":
        return ["--theta", _num(rng, 1e-3, math.pi), "--e-polar", _num(rng, -math.pi, math.pi)]
    return ["--theta", _num(rng, 1e-3, math.pi), "--omega", _num(rng, 0.05, 20.0, log=True)]


def invocations(seed: int, count: int):
    """(argv, writes to a file) of each of the ``count`` seeded invocations."""
    rng = random.Random(seed)
    for k in range(count):
        command = COMMANDS[k % len(COMMANDS)]
        argv = [command, *_command_args(command, rng)]
        if rng.random() < 0.3:
            argv += ["--format", "json"]
        yield argv, rng.random() < 0.3


def _run(main, argv: list[str], output: str | None) -> tuple[int, bytes, str]:
    """Exit code, report bytes and stderr of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + (["--output", output] if output else []))
        except SystemExit as exc:
            code = exc.code
    report = out.getvalue().encode()
    if output and os.path.exists(output):
        report = Path(output).read_bytes()
        os.unlink(output)
    return code, report, err.getvalue()


def digest_lines(main, seed: int, count: int) -> list[str]:
    """One line per invocation: argv, exit code, sha256 of the report, stderr."""
    lines = []
    with tempfile.TemporaryDirectory(prefix="tachys-digest-") as tmp:
        for argv, to_file in invocations(seed, count):
            output = os.path.join(tmp, "report") if to_file else None
            code, report, err = _run(main, argv, output)
            shown = argv + (["--output", "<tmp>/report"] if to_file else [])
            stderr = json.dumps(err.replace(tmp, "<tmp>"))
            lines.append(f"{' '.join(shown)}\t{code}\t{hashlib.sha256(report).hexdigest()}\t{stderr}")
    return lines


def load(name: str, src=None) -> dict:
    """The public names of the library modules of the checkout ``src`` (its root or its ``src``;
    by default this one), imported as the package ``name``."""
    root = Path(src) if src else Path(__file__).resolve().parents[1]
    pkg = (root / "src" / "tachys") if (root / "src" / "tachys").is_dir() else root / "tachys"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no tachys package under {root}")
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = [importlib.import_module(f"{name}.{m}") for m in LIBRARY_MODULES]
    return {n: getattr(m, n) for m in modules for n in m.__all__}


def dispatch_targets() -> list[str]:
    """numpy's dispatch targets that this process runs (``NPY_DISABLE_CPU_FEATURES``
    ignores any other name, so a probe naming one tests nothing)."""
    return [t for t in CPU_DISPATCH if CPU_FEATURES.get(t)]


def probe_configurations() -> list[dict[str, str]]:
    """The environment overrides of each host configuration this machine can emulate.

    numpy ignores a dispatch target it does not know, and OpenBLAS cannot
    run a core type the CPU lacks, so only targets numpy dispatches to and
    this CPU has are switched off, and only core types it can run are forced.
    """
    present = set(dispatch_targets())
    avx512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
    offs = [" ".join(t for t in targets if t in present) for targets in (avx512, (*avx512, "X86_V3"))]
    configs = [{"NPY_DISABLE_CPU_FEATURES": off} for off in dict.fromkeys(offs) if off]
    for core, needs in (("Haswell", ("AVX2", "FMA3")), ("Zen", ("AVX2", "FMA3")), ("Prescott", ("SSE3",))):
        if all(CPU_FEATURES.get(f) for f in needs):
            configs.append({"OPENBLAS_CORETYPE": core})
    if platform.libc_ver()[0] == "glibc":
        configs.append({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX"})
    return configs


def probe_table(default: list[str], seed: int, count: int, src: str | None) -> list[str]:
    """A header and one line per configuration: its overrides, the moved
    invocations of each command against ``default``, and moved of all.
    Two children run at a time."""
    command = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed), "--count", str(count)]
    command += ["--src", src] if src else []

    def probe(config):
        label = " ".join(f"{k}={v}" for k, v in config.items())
        proc = subprocess.run(command, capture_output=True, text=True, env={**os.environ, **config})
        probed = proc.stdout.splitlines()
        if proc.returncode or len(probed) != len(default):
            raise SystemExit(f"report_digest: the child under {label} failed:\n{proc.stderr}")
        moved = [old.split(" ", 1)[0] for old, new in zip(default, probed) if old != new]
        counts = "\t".join(str(moved.count(c)) for c in COMMANDS)
        return f"{label}\t{counts}\t{len(moved)}/{len(default)}"

    with ThreadPoolExecutor(max_workers=2) as pool:
        rows = list(pool.map(probe, probe_configurations()))
    return ["configuration\t" + "\t".join(COMMANDS) + "\tmoved", *rows]


# ------------------------------------------------------------ library digest

#: the modules whose public names (``__all__``) the library families call
LIBRARY_MODULES = ("smallmat", "brachistochrone", "metric", "opendyn", "dilation", "gates")

#: one library call, ``name(*args)`` over those names; an argument that is a
#: ``Call`` is evaluated first, and ``pick`` takes that item of the result
Call = collections.namedtuple("Call", "name args pick")


def call(name: str, *args, pick=None) -> Call:
    return Call(name, args, pick)


#: exponents k of the 2**k scales: most draws inside the range step's
#: [2**-252, 2**252], the others past it, one into the subnormals and one
#: to the top of the float range (the rare entry it takes past the range is
#: inf, a non-finite argument like those of the bad-argument calls)
_SCALES = (-1060, -300, -60, 0, 0, 0, 0, 0, 60, 300, 1000, 1020)

#: entry parts that replace about one part in eight: signed zeros and subnormals
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310)

_E0, _E1 = [1.0, 0.0], [0.0, 1.0]
_H = [[0.0, 0.5], [0.5, 0.0]]
_ROOT = call("metric_from_sqrt", 2.0, 0.5)
_BASIS = call("BlochBasis", 1.0)

#: matrix arguments that raise: text, None, non-finite entries, ragged rows, wrong shapes
_BAD_MATRICES = (
    [["1", "0"], ["0", "1"]], "1", [[None, 0.0], [0.0, 1.0]], [[math.nan, 0.0], [0.0, 1.0]],
    [[0.0, math.inf], [0.0, 0.0]], [[1.0, 0.0], [0.0]], [[1.0] * 3] * 3, [1.0] * 3, [[[[1.0] * 2] * 2] * 2] * 2, 1.0,
)
#: state arguments that raise: text, None, a non-finite or zero state, wrong shapes
_BAD_STATES = (["1", "0"], "1", [None, 1.0], [math.nan, 0.0], [0.0, 0.0], [1.0] * 3, [[[1.0] * 2] * 2] * 2, 1.0)
#: real arguments that raise somewhere: non-finite, zero, negative, complex, text, two dimensions
_BAD_REALS = (math.nan, -math.inf, 0.0, -1.0, 1.0 + 0.0j, "1.0", [[1.0] * 2] * 2)
#: bases that raise somewhere: an angle of 0, outside (0, pi], an array of one, NaN
_BAD_BASES = tuple(call("BlochBasis", theta) for theta in (0.0, -1.0, 4.0, [1.0], math.nan))
_NOT_HERMITIAN = [[0.0, 1.0], [0.0, 0.0]]
#: density matrices that raise: the bad matrices, then not Hermitian, not positive, trace 2
_BAD_RHOS = (*_BAD_MATRICES, _NOT_HERMITIAN, [[1.5, 0.0], [0.0, -0.5]], [[1.0, 0.0], [0.0, 1.0]])


class _Draw:
    """The seeded inputs of one family; its name seeds it, so families draw independently."""

    def __init__(self, seed: int, family: str):
        self.rng = np.random.default_rng([seed, zlib.crc32(family.encode())])

    def pick(self, options):
        return options[int(self.rng.integers(len(options)))]

    def n(self, single: bool = False):
        """A stack length, 1, 3 or 64, or with ``single`` also None, a single item."""
        return self.pick((None, 1, 3, 64) if single else (1, 3, 64))

    def uniform(self, lo: float, hi: float, n=None):
        x = self.rng.uniform(lo, hi, n)
        return float(x) if n is None else x

    def times(self, n=None, top=10.0):
        """A time in [0, top], or a sorted grid of n."""
        return self.uniform(0.0, top) if n is None else np.sort(self.uniform(0.0, top, n))

    def _complex(self, n, *shape):
        shape = shape if n is None else (n, *shape)
        return self.rng.normal(size=shape) + 1j * self.rng.normal(size=shape)

    def _sprinkle(self, x):
        parts = x.view(float)
        hit = self.rng.random(parts.shape) < 0.125
        parts[hit] = self.rng.choice(_SPECIAL, size=int(hit.sum()))
        return x

    def _place(self, x, rank: int, scale: bool):
        """x at 2**k scales, one per item of a stack, in C order, in Fortran order or as a strided view."""
        if scale:
            with np.errstate(over="ignore"):
                x = x * np.ldexp(1.0, self.rng.choice(_SCALES, size=x.shape[:-rank] + (1,) * rank))
        layout = self.rng.integers(3)
        if layout == 1:
            return np.asfortranarray(x)
        if layout == 2:
            wide = np.zeros(x.shape + (2,), dtype=x.dtype)
            wide[..., 0] = x
            return wide[..., 0]
        return x

    def matrix(self, n=None, size=2, hermitian=False, scale=True, special=True):
        """A random complex matrix, or an (n, size, size) stack, Hermitian on request."""
        m = self._complex(n, size, size)
        if special:
            m = self._sprinkle(m)
        if hermitian:
            m = m + np.conj(np.swapaxes(m, -1, -2))
        return self._place(m, 2, scale)

    def positive(self):
        """A Hermitian positive-definite matrix."""
        a = self._complex(None, 2, 2)
        p = a @ a.conj().T + 0.1 * np.eye(2)
        return self._place(0.5 * (p + p.conj().T), 2, True)

    def state(self, n=None):
        return self._place(self._sprinkle(self._complex(n, 2)), 1, True)

    def unit(self, n=None):
        x = self._complex(n, 2)
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    def density(self):
        """A density matrix: a pure state mixed with I/2."""
        v, p = self.unit(), self.uniform(0.0, 1.0)
        return p * np.outer(v, v.conj()) + (1.0 - p) * 0.5 * np.eye(2)

    def gapped(self, n=None, traceless=False):
        """A Hermitian matrix, or a stack scaled to one gap, and that gap omega."""
        h = self.matrix(n, hermitian=True, scale=False, special=False)
        if traceless:
            h = h - 0.5 * np.trace(h, axis1=-2, axis2=-1)[..., None, None] * np.eye(2)
        w = np.linalg.eigvalsh(h)
        gap = w[..., 1] - w[..., 0]
        omega = float(np.ravel(gap)[0])
        return h * (omega / gap)[..., None, None], omega

    def metric(self, n=None):
        """``metric_from_sqrt`` of a random root (a stack of n), about one in eight degenerate."""
        f = self.uniform(1.0, 4.0, n)
        g = np.sqrt(f) * self.uniform(0.0, 0.9, n) * np.exp(1j * self.uniform(0.0, 6.3, n))
        if self.rng.random() < 0.125:
            g = np.sqrt(f - 1e-13)
        return call("metric_from_sqrt", f, g)

    def metric_hermitian(self):
        """A metric-Hermitian drive S^-1 h S, S a metric root."""
        f, g = self.uniform(1.0, 4.0), self.uniform(0.0, 0.9) * np.exp(1j * self.uniform(0.0, 6.3))
        s = np.array([[1.0, g], [np.conj(g), f]])
        return np.linalg.solve(s, self.gapped()[0] @ s)

    def basis(self, stack=False):
        return call("BlochBasis", self.uniform(1e-3, math.pi, self.n(single=True) if stack else None))

    def orbit(self, h, u, t_max: float):
        """A target on the orbit of the state ``u`` under the 2x2 drive ``h``: e^{-i h t} u at a drawn t in
        [0, t_max], up to the phase and norm a passage ignores, from the closed form cos(r t) u - i sin(r t)/r
        (n.sigma) u with r^2 = n.n.  It is computed in the frame where h and u are scaled by powers of two to
        a largest part in [0.5, 1), and t by the inverse of h's (a frame time past 2**60 is taken smaller:
        an earlier point of the orbit).  A drive or state that is 0 or not finite gets a random target."""
        h, u = np.asarray(h, dtype=complex), np.asarray(u, dtype=complex)
        if not (np.isfinite(h).all() and np.isfinite(u).all() and h.any() and u.any()):
            return self.state()
        ((h00, h01), (h10, h11)), e = _frame(h)
        (u0, u1), _ = _frame(u)
        nz = 0.5 * (h00 - h11)
        r = np.sqrt(nz * nz + h01 * h10)
        t = math.ldexp(self.uniform(0.0, t_max), min(e, 60 - math.frexp(t_max)[1]))
        s = np.sin(r * t) / r if r else t
        c = np.cos(r * t)
        return np.array([c * u0 - 1j * s * (nz * u0 + h01 * u1), c * u1 - 1j * s * (h10 * u0 - nz * u1)])


def _frame(x: np.ndarray):
    """``x`` scaled by 2**-e to a largest entry part in [0.5, 1), and e."""
    e = int(np.frexp(np.maximum(np.abs(x.real), np.abs(x.imag)).max())[1])
    return np.ldexp(x.real, -e) + 1j * np.ldexp(x.imag, -e), e


def _family(name: str, draw, valid: tuple = (), *bad):
    """The family of ``name``: ``count`` draws, each ``draw(d)`` giving the arguments of one
    call or a list of them; then ``valid`` with argument j replaced by each of ``values``,
    for each (j, values) pair in ``bad``."""

    def family(d: _Draw, count: int):
        for _ in range(count):
            drawn = draw(d)
            yield from (call(name, *args) for args in (drawn if isinstance(drawn, list) else [drawn]))
        for j, values in bad:
            yield from (call(name, *valid[:j], v, *valid[j + 1 :]) for v in values)

    return family


def _propagator(d: _Draw) -> list:
    # a single time, a time array, a generator stack with one time each
    h, n = d.matrix(), d.n()
    return [(h, d.times()), (h, d.times(d.n())), (d.matrix(n), d.times(n))]


def _first_passage_scan(d: _Draw) -> list:
    # Hermitian, metric-Hermitian and broken-PT drives, then one of them 2**k times on 2**-k t_max, each to
    # a target on its own orbit; then one of the four to a random target
    u, v = d.state(), d.state()
    t_max, steps = d.uniform(1.0, 20.0), int(d.rng.integers(1000, 2000))
    drives = d.matrix(hermitian=True), d.metric_hermitian(), d.matrix(scale=False, special=False)
    unscaled = d.pick((d.matrix(hermitian=True, scale=False), *drives[1:]))
    k = d.pick((-300, 300))
    runs = [(h, t_max) for h in drives] + [(unscaled * 2.0**k, t_max * 2.0**-k)]
    h, t = d.pick(runs)
    return [(drive, u, d.orbit(drive, u, top), top, steps) for drive, top in runs] + [(h, u, v, t, steps)]


def _evolve_semigroup(d: _Draw) -> list:
    # plain, shifted, at an exceptional point (n = c (1, 0, i), n.n = 0) and Hermitian
    rho, ts, ham = d.density(), d.times(d.n(single=True)), d.matrix(scale=False)
    c = complex(d.rng.normal(), d.rng.normal())
    ep = [[1j * c, c], [c, -1j * c]]
    return [(h, rho, ts) for h in (ham, call("shifted_generator", ham, pick=0), ep, d.matrix(hermitian=True))]


def _quasi_hamiltonian(d: _Draw):
    h, omega = d.gapped(d.n(single=True))
    return h, d.metric(None if h.ndim == 2 else len(h)), omega


def _minimal_time(d: _Draw):
    # a state or a stack of n, to a state or a stack of n
    n = d.n(single=True)
    return d.state(n), d.state(d.pick((None, n))), d.uniform(0.1, 5.0)


def _inconclusive(d: _Draw):
    # a POVM of one angle or a stack of n, and one state or a stack of n
    n = d.n(single=True)
    return call("discrimination_povm", call("BlochBasis", d.uniform(1e-3, math.pi, n))), d.state(d.pick((None, n)))


def _pseudo_hermiticity_defect(d: _Draw):
    # an operator or a stack of n, with a positive metric or a general matrix (a stack of n where the operator is)
    n = d.n(single=True)
    return d.matrix(n), d.pick((d.positive(), d.matrix(n)))


def _dilation(d: _Draw):
    h, omega = d.gapped(traceless=True)
    return call("build_dilation", h, d.metric(), omega)


#: name -> the calls of the family, a function of a ``_Draw`` and the count
LIBRARY_FAMILIES = {
    "propagator": _family("propagator", _propagator, (_H, 1.0), (0, _BAD_MATRICES), (1, _BAD_REALS)),
    "eigvals2": _family("eigvals2", lambda d: (d.matrix(d.n(single=True)),), (), (0, _BAD_MATRICES)),
    "normalize": _family("normalize", lambda d: (d.state(d.n(single=True)),), (), (0, _BAD_STATES)),
    "is_hermitian": _family(
        "is_hermitian", lambda d: (d.matrix(d.n(single=True), d.pick((2, 4)), d.rng.random() < 0.75),), (),
        (0, _BAD_MATRICES),
    ),
    "frobenius": _family("frobenius", lambda d: (d.matrix(d.n(single=True), d.pick((2, 4))),), (), (0, _BAD_MATRICES)),
    "hermitian_sqrt": _family("hermitian_sqrt", lambda d: (d.positive(),), (), (0, (*_BAD_MATRICES, _NOT_HERMITIAN))),
    "first_passage_scan": _family(
        "first_passage_scan", _first_passage_scan, (_H, _E0, _E1, 5.0, 1000),
        (0, (*_BAD_MATRICES, [[2j, 1.0], [1.0, -2j]])), (1, _BAD_STATES), (2, _BAD_STATES), (3, (*_BAD_REALS, 1000.0)),
        (4, (999, 1000.5, "2000")),
    ),
    "evolve_semigroup": _family(
        "evolve_semigroup", _evolve_semigroup, (_H, [[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0]),
        (0, _BAD_MATRICES), (1, _BAD_RHOS), (2, (*_BAD_REALS, [], [0.0, math.nan])),
    ),
    "split_generator": _family("split_generator", lambda d: (d.matrix(d.n(single=True)),), (), (0, _BAD_MATRICES)),
    "shifted_generator": _family("shifted_generator", lambda d: (d.matrix(),), (), (0, _BAD_MATRICES)),
    "metric_from_sqrt": _family(
        "metric_from_sqrt", lambda d: d.metric(d.n(single=True)).args, (2.0, 0.5),
        (0, (*_BAD_REALS, 1e200, [2.0, 3.0])), (1, (*_BAD_REALS, -0.0, None, [[0.5, 0.5], [0.5, 0.5]])),
    ),
    "quasi_hamiltonian": _family(
        "quasi_hamiltonian", _quasi_hamiltonian, (_H, _ROOT, 1.0), (0, (*_BAD_MATRICES, _NOT_HERMITIAN)),
        (2, (*_BAD_REALS, 2.0)),
    ),
    "state_angle": _family(
        "state_angle", lambda d: (d.state(), d.state()), (_E0, _E1), (0, _BAD_STATES), (1, _BAD_STATES),
    ),
    "metric_angle": _family(
        "metric_angle", lambda d: (d.state(), d.state(), d.metric()), (_E0, _E1, _ROOT),
        (0, _BAD_STATES), (1, _BAD_STATES), (2, (call("metric_from_sqrt", [2.0, 3.0], [0.5, 0.5j]),)),
    ),
    "map_boundary_states": _family(
        "map_boundary_states", lambda d: (d.metric(d.n(single=True)), d.state(), d.state()), (_ROOT, _E0, _E1),
        (1, _BAD_STATES), (2, _BAD_STATES),
    ),
    "aligned_hamiltonian": _family(
        "aligned_hamiltonian", lambda d: (d.metric(d.n(single=True)), d.uniform(0.1, 5.0), d.state(), d.state()),
        (_ROOT, 1.0, _E0, _E1), (1, _BAD_REALS), (2, _BAD_STATES), (3, (*_BAD_STATES, [2.0, 0.0])),
    ),
    "dissipation_scan": _family(
        "dissipation_scan", lambda d: (d.uniform(0.05, 6.0, d.n()), d.uniform(0.5, 2.0), 10.0 ** d.uniform(-6.0, -2.0)),
        ([2.0], 1.0, 1e-6), (0, (*_BAD_REALS, [0.5, 2.0])), (2, (*_BAD_REALS, 3.0)),
    ),
    "transfer": _family(
        "transfer", lambda d: (d.unit(d.n(single=True)), d.uniform(0.1, 5.0)), (_E1, 1.0),
        (0, (*_BAD_STATES, _E0, [0.6, 0.6], [math.cos(5e-9), -1j * math.sin(5e-9)])), (1, _BAD_REALS),
    ),
    "build_dilation": _family(
        "build_dilation", lambda d: _dilation(d).args, (_H, _ROOT, 1.0),
        (0, (*_BAD_MATRICES, [[1.0, 0.5], [0.5, 0.0]])), (2, _BAD_REALS),
    ),
    "evolve_dilated": _family(
        "evolve_dilated", lambda d: (_dilation(d), d.state(), d.times(d.n(single=True))),
        (call("build_dilation", _H, _ROOT, 1.0), _E0, 1.0), (1, _BAD_STATES), (2, _BAD_REALS),
    ),
    "visibility_ratio": _family(
        "visibility_ratio", lambda d: (d.metric(), d.state()), (_ROOT, _E0),
        (0, (call("metric_from_sqrt", [2.0, 3.0], [0.5, 0.5j]),)), (1, _BAD_STATES),
    ),
    "discrimination_povm": _family(
        "discrimination_povm", lambda d: (d.basis(stack=True),), (), (0, _BAD_BASES),
    ),
    "inconclusive_probability": _family(
        "inconclusive_probability", _inconclusive, (call("discrimination_povm", _BASIS), _E0), (1, _BAD_STATES),
    ),
    "not_gate_roundtrip": _family(
        "not_gate_roundtrip", lambda d: (d.basis(), d.uniform(0.1, 5.0)), (_BASIS, 1.0),
        (0, _BAD_BASES), (1, _BAD_REALS),
    ),
    "cloning_defect": _family("cloning_defect", lambda d: (d.basis(),), (), (0, _BAD_BASES)),
    "control_u_channel": _family(
        "control_u_channel", lambda d: (d.basis(), d.uniform(-math.pi, math.pi)), (_BASIS, 1.0),
        (0, _BAD_BASES), (1, _BAD_REALS),
    ),
    "efficiency_bound": _family(
        "efficiency_bound", lambda d: (d.basis(), d.uniform(0.1, 5.0)), (_BASIS, 1.0),
        (0, _BAD_BASES), (1, _BAD_REALS),
    ),
    "as_operator": _family(
        "as_operator", lambda d: (d.matrix(d.n(single=True)), d.rng.random() < 0.5), (_H,), (0, _BAD_MATRICES),
    ),
    "as_state": _family(
        "as_state", lambda d: (d.state(d.n(single=True)), d.rng.random() < 0.5), (_E0,), (0, _BAD_STATES),
    ),
    "dagger": _family("dagger", lambda d: (d.matrix(d.n(single=True), d.pick((2, 4))),)),
    "positive_finite": _family(
        "positive_finite", lambda d: ("x", d.uniform(-1.0, 4.0) * 2.0 ** d.pick(_SCALES)), ("x", 1.0), (1, _BAD_REALS),
    ),
    "fidelity": _family("fidelity", lambda d: (d.state(), d.state()), (_E0, _E1), (0, _BAD_STATES), (1, _BAD_STATES)),
    "minimal_time": _family(
        "minimal_time", _minimal_time, (_E0, _E1, 1.0), (0, _BAD_STATES), (1, _BAD_STATES), (2, _BAD_REALS),
    ),
    "optimal_hamiltonian": _family(
        "optimal_hamiltonian", lambda d: (d.unit(d.n(single=True)), d.uniform(0.1, 5.0)), (_E1, 1.0),
        (0, (*_BAD_STATES, _E0)), (1, _BAD_REALS),
    ),
    "diag_metric": _family(
        "diag_metric", lambda d: (d.uniform(0.0, 4.0) * 2.0 ** d.pick(_SCALES),), (), (0, _BAD_REALS),
    ),
    "metric_from_matrix": _family(
        "metric_from_matrix", lambda d: (d.positive(),), (), (0, (*_BAD_MATRICES, _NOT_HERMITIAN)),
    ),
    "dissipative_factor": _family(
        "dissipative_factor", lambda d: (d.uniform(0.0, 6.0) * 2.0 ** d.pick(_SCALES),), (), (0, _BAD_REALS),
    ),
    "revelation_probability": _family(
        "revelation_probability", lambda d: (d.metric(d.n(single=True)), d.uniform(0.5, 2.0)), (_ROOT, 1.0),
        (1, _BAD_REALS),
    ),
    "energy_gap_squared": _family(
        "energy_gap_squared", lambda d: (d.matrix(d.n(single=True), hermitian=d.rng.random() < 0.75),), (),
        (0, _BAD_MATRICES),
    ),
    "pseudo_hermiticity_defect": _family(
        "pseudo_hermiticity_defect", _pseudo_hermiticity_defect, (_H, [[2.0, 0.5], [0.5, 1.0]]),
        (0, _BAD_MATRICES), (1, (*_BAD_MATRICES, [[1.0, 1.0], [1.0, 1.0]])),
    ),
}


def _feed(h, x) -> None:
    """Hash ``x``'s type and bits: arrays by dtype, shape and bytes, floats by ``float.hex``,
    containers item by item and dataclasses field by field, in order."""
    h.update(f"<{type(x).__name__}>".encode())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        for f in dataclasses.fields(x):
            h.update(f.name.encode())
            _feed(h, getattr(x, f.name))
    elif isinstance(x, (np.ndarray, np.generic)):
        x = np.asarray(x)
        h.update(f"{x.dtype.descr}{x.shape}".encode())
        h.update(x.tobytes())
    elif isinstance(x, complex):
        h.update(f"{x.real.hex()},{x.imag.hex()}".encode())
    elif isinstance(x, float):
        h.update(x.hex().encode())
    elif isinstance(x, (tuple, list)):
        for item in x:
            _feed(h, item)
        h.update(b"</>")
    else:
        h.update(repr(x).encode())


def _evaluate(api: dict, x):
    if not isinstance(x, Call):
        return x
    out = api[x.name](*(_evaluate(api, a) for a in x.args))
    return out if x.pick is None else out[x.pick]


def library_lines(api: dict, seed: int, count: int) -> list[str]:
    """One line per family of ``LIBRARY_FAMILIES``: its name, its number of calls and the
    sha256 of every call's result or error and of the warnings it issued."""
    lines = []
    for name, family in LIBRARY_FAMILIES.items():
        h, calls = hashlib.sha256(), 0
        for c in family(_Draw(seed, name), count):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    _feed(h, _evaluate(api, c))
                except Exception as exc:  # an error is a result too
                    h.update(f"{type(exc).__name__}: {exc}".encode())
            for w in caught:
                h.update(f"{w.category.__name__}: {w.message}".encode())
            calls += 1
        lines.append(f"{name}\t{calls}\t{h.hexdigest()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=None,
                        help="invocations; with --library, draws per call family (default 200)")
    parser.add_argument("--src", default=None, help="checkout to import tachys from (default: this one)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probes", action="store_true",
                      help="count the invocations each emulated host configuration moves")
    mode.add_argument("--library", action="store_true", help="digest seeded library calls, one line per call family")
    args = parser.parse_args(argv)
    if args.library:
        lines = library_lines(load("tachys", args.src), args.seed, 200 if args.count is None else args.count)
    elif args.count is None:
        parser.error("--count is required without --library")
    else:
        load("tachys", args.src)
        lines = digest_lines(importlib.import_module("tachys.cli").main, args.seed, args.count)
    for line in probe_table(lines, args.seed, args.count, args.src) if args.probes else lines:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
