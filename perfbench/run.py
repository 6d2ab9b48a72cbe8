"""Benchmark for tachys: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {cli-reports,passage-sweep,semigroup-trace}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer ones.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it record
the environment and the details behind each metric.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import SPAWN_PROBE_REF_S, probe_for, spawn_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-reports", "passage-sweep", "semigroup-trace")

#: set-up is timed this many times per run (the measured run is one of them)
SETUP_REPEATS = 7
SETUP_PROBES = 3
IMPORTTIME_REPEATS = 3
#: on the shared VM of the README, tails above p95 spread by more than 10 %
#: from run to run: they measure the machine's hiccups, not the program
TAIL_CAP = 95.0
#: every child process gets its own deadline; the whole run must end in 180 s
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TACHYS_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(args, mode: str, env: dict) -> tuple[float, dict | None]:
    """Start one worker; returns (seconds from start to ``ready``, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.communicate(timeout=CHILD_TIMEOUT_S)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def import_times_ms(env: dict) -> dict:
    """Cumulative import time of tachys.smallmat (with scipy.linalg) and of
    tachys, from a fresh ``-X importtime`` interpreter; medians over runs."""
    samples = {"smallmat.import_ms": [], "tachys.import_ms": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tachys"],
                              cwd=ROOT, env=env, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
        samples["smallmat.import_ms"].append(cumulative["tachys.smallmat"])
        samples["tachys.import_ms"].append(cumulative["tachys"])
    return {k: statistics.median(v) for k, v in samples.items()}


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, up to TAIL_CAP, with at
    least ten samples beyond it, by nearest rank."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(min(n - 10, math.ceil(n * TAIL_CAP / 100.0)), math.ceil(n / 2), 1)
    return 100.0 * rank / n, ordered[rank - 1]


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tachys" / "__init__.py").is_file():
        print(f"perfbench: no tachys sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    if args.trace:
        _, result = spawn_worker(args, "trace", env)
        metrics = {name: (value, _unit(name)) for name, value in result["layers"].items()}
        metrics.update({name: (value, "ms") for name, value in import_times_ms(env).items()})
    else:
        # each set-up sample is scaled to the reference speed by spawn probes
        # timed just before and just after it, see calibrate.py
        setups, setup_scaled = [], []
        before = [spawn_probe(ROOT) for _ in range(SETUP_PROBES)]
        for i in range(SETUP_REPEATS):
            if i < SETUP_REPEATS - 1:
                ready = spawn_worker(args, "setup", env)[0]
            else:
                ready, result = spawn_worker(args, "run", env)
            after = [spawn_probe(ROOT) for _ in range(SETUP_PROBES)]
            setups.append(ready)
            setup_scaled.append(ready * SPAWN_PROBE_REF_S / statistics.median(before + after))
            before = after
        raw_times = result["times"]
        # each operation's time scaled to the reference machine speed by the
        # probes timed just before and after it, see calibrate.py
        reference = probe_for(args.workload, ROOT)[1]
        times = [t * reference / p for t, p in zip(raw_times, result["local_probes"])]
        pct, tail_value = tail(times)
        detail.update(ops=len(times), tail_percentile=pct,
                      samples_beyond_tail=sum(t > tail_value for t in times),
                      ops_failed=len(result["failures"]) / result["attempted"],
                      raw_seconds={"setup_s": statistics.median(setups), "wall_s": sum(raw_times),
                                   "op_s_p50": statistics.median(raw_times),
                                   "op_s_tail": tail(raw_times)[1]},
                      setup_samples_s=setups)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (sum(times), "s"),
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_tail": (tail_value, "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
    failures = result["failures"]
    detail["failures"] = dict(list(failures.items())[:5])
    print("# env " + json.dumps(environment()))
    print("# detail " + json.dumps(detail))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"calls": "count", "rows": "count", "self_s": "s", "us_p50": "us", "row_us_p50": "us",
            "samples_per_s": "1/s", "bytes_computed": "B", "report_bytes": "B",
            "passage_hit_ratio": "ratio", "wall_s": "s", "self_total_s": "s",
            "overhead_s": "s"}[suffix]


if __name__ == "__main__":
    sys.exit(main())
