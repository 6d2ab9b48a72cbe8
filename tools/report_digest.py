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
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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


def _import_main(src: str | None):
    """``tachys.cli.main`` of the checkout ``src`` (its root or its ``src``), or of this one."""
    root = Path(src) if src else Path(__file__).resolve().parents[1]
    path = root / "src" if (root / "src" / "tachys").is_dir() else root
    if not (path / "tachys").is_dir():
        raise SystemExit(f"report_digest: no tachys package under {root}")
    sys.path.insert(0, str(path))
    from tachys import cli

    return cli.main


def probe_configurations() -> list[dict[str, str]]:
    """The environment overrides of each host configuration this machine can emulate.

    numpy ignores a dispatch target it does not know, and OpenBLAS cannot
    run a core type the CPU lacks, so only targets numpy dispatches to and
    this CPU has are switched off, and only core types it can run are forced.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath

    def has(*features):
        return all(umath.__cpu_features__.get(f) for f in features)

    present = {t for t in umath.__cpu_dispatch__ if has(t)}
    avx512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
    offs = [" ".join(t for t in targets if t in present) for targets in (avx512, (*avx512, "X86_V3"))]
    configs = [{"NPY_DISABLE_CPU_FEATURES": off} for off in dict.fromkeys(offs) if off]
    for core, needs in (("Haswell", ("AVX2", "FMA3")), ("Zen", ("AVX2", "FMA3")), ("Prescott", ("SSE3",))):
        if has(*needs):
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--src", default=None, help="checkout to import tachys from (default: this one)")
    parser.add_argument("--probes", action="store_true",
                        help="count the invocations each emulated host configuration moves")
    args = parser.parse_args(argv)
    lines = digest_lines(_import_main(args.src), args.seed, args.count)
    for line in probe_table(lines, args.seed, args.count, args.src) if args.probes else lines:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
