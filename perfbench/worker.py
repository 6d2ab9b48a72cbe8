"""One workload in its own process: set up, run the operations, check them.

    python perfbench/worker.py --workload NAME --seed N --seconds S --mode {setup,run,trace}

Prints ``ready`` once set-up is done (``run.py`` times process start to that
line), then, except in ``setup`` mode, one JSON line with the results.
``run`` times every operation with tracing off.  ``trace`` runs each
operation twice in-process, once untraced and once traced, and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import probe_for

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.01
PROBE_WINDOW_S = 0.25
PROBES_PER_TICK = 3


def _import_tachys() -> None:
    import tachys

    where = Path(tachys.__file__).resolve()
    if not where.is_relative_to(ROOT / "src" / "tachys"):
        sys.exit(f"perfbench: tachys resolved to {where}, not to {ROOT / 'src' / 'tachys'}")


def run_op(workload, i: int) -> tuple[float, str | None]:
    """Run and check operation ``i``; returns (its time, failure reason or None)."""
    op = workload.ops[i]
    start = perf_counter()
    try:
        result = workload.execute(op, i)
        error = None
    except Exception as exc:  # an operation that raises is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if error is None:
        try:
            error = workload.check(op, result)
        except Exception:
            error = "check raised: " + traceback.format_exc(limit=2)
    return elapsed, error


def run_untraced(workload, probe) -> tuple[list[float], dict, list[float]]:
    """Run every operation, timing ``probe`` PROBES_PER_TICK times before the
    first operation and after each PROBE_EVERY_S of operation time.

    Returns (op times, failures, local probe times).  An operation's local
    probe time is the median over the ticks just before and just after it
    and every tick within PROBE_WINDOW_S of it.
    """
    times, failures, spans, ticks, tick_at = [], {}, [], [], []
    since_probe = 0.0

    def tick():
        tick_at.append(perf_counter())
        ticks.append([probe() for _ in range(PROBES_PER_TICK)])

    tick()
    for i in range(len(workload.ops)):
        start = perf_counter()
        elapsed, error = run_op(workload, i)
        times.append(elapsed)
        spans.append((start, start + elapsed, len(ticks)))
        if error is not None:
            failures[i] = error
        since_probe += elapsed
        if since_probe >= PROBE_EVERY_S or i == len(workload.ops) - 1:
            tick()
            since_probe = 0.0
    local = []
    for start, end, after in spans:
        first = min(after - 1, bisect.bisect_left(tick_at, start - PROBE_WINDOW_S))
        last = max(after, bisect.bisect_right(tick_at, end + PROBE_WINDOW_S) - 1)
        local.append(statistics.median(p for k in range(first, last + 1) for p in ticks[k]))
    return times, failures, local


def run_paired(workload, tracer) -> tuple[float, float, dict]:
    """Run every operation once untraced and once traced; returns (untraced
    wall, traced wall, failures).

    The second run of a pair finds warm caches and reused memory, so which
    run goes first alternates between successive operations of the same
    kind and size, and neither side gets more of the advantage.
    """
    walls = [0.0, 0.0]
    failures = {}
    seen = collections.Counter()
    for i, op in enumerate(workload.ops):
        key = (op.kind, op.params.get("rows"), op.params.get("samples"))
        seen[key] += 1
        for traced in ((False, True) if seen[key] % 2 else (True, False)):
            tracer.op_id = i
            if traced:
                tracer.enable()
            try:
                elapsed, error = run_op(workload, i)
            finally:
                tracer.disable()
            walls[traced] += elapsed
            if error is not None:
                failures[f"{i}{'t' if traced else 'u'}"] = error
    return walls[0], walls[1], failures


def layer_metrics(workload, tracer, traced_wall: float, untraced_wall: float) -> dict:
    from tracer import LAYERS, median_us

    funcs = tracer.by_function()
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "ops": [], "sizes": []}

    def fn(name):
        return funcs.get(name, empty)

    out = {}

    def calls_self(name, us_p50=True):
        entry = fn(name)
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
        if us_p50:
            out[f"{name}.us_p50"] = median_us(entry["durations"])

    calls_self("cli.main", us_p50=False)
    out["cli.report_bytes"] = sum(op.params.get("report_bytes", 0) for op in workload.ops)

    scan = fn("opendyn.dissipation_scan")
    out["opendyn.dissipation_scan.rows"] = sum(scan["sizes"])
    out["opendyn.dissipation_scan.self_s"] = scan["self_s"]
    out["opendyn.dissipation_scan.row_us_p50"] = median_us(
        [d / s for d, s in zip(scan["durations"], scan["sizes"]) if s])
    calls_self("opendyn.aligned_hamiltonian")
    calls_self("metric.quasi_hamiltonian")
    calls_self("metric.metric_from_sqrt", us_p50=False)
    calls_self("smallmat.propagator")
    calls_self("smallmat.eigvals2", us_p50=False)
    calls_self("dilation.build_dilation", us_p50=False)
    calls_self("dilation.evolve_dilated")
    calls_self("gates.discrimination_povm")
    calls_self("brachistochrone.transfer")

    fps = fn("brachistochrone.first_passage_scan")
    out["brachistochrone.first_passage_scan.calls"] = fps["calls"]
    out["brachistochrone.first_passage_scan.self_s"] = fps["self_s"]
    for path in ("hermitian", "general"):
        out[f"brachistochrone.first_passage_scan.{path}.us_p50"] = median_us([
            d for d, op in zip(fps["durations"], fps["ops"])
            if (workload.ops[op].kind == "general") == (path == "general")])
    out["brachistochrone.passage_hit_ratio"] = sum(fps["sizes"]) / fps["calls"] if fps["calls"] else 0.0

    evo = fn("opendyn.evolve_semigroup")
    samples = sum(evo["sizes"])
    calls_self("opendyn.evolve_semigroup")
    out["opendyn.evolve_semigroup.samples_per_s"] = samples / sum(evo["durations"]) if samples else 0.0
    # computed, not measured: bytes of the arrays each call returns
    # (rhos 64 B, trace_values 8 B, k_values 8 B per sample)
    out["opendyn.evolve_semigroup.bytes_computed"] = 80 * samples

    for layer in LAYERS[:-1]:
        out[f"{layer}.self_s"] = sum(e["self_s"] for name, e in funcs.items()
                                     if name.startswith(layer + "."))
    out["trace.wall_s"] = traced_wall
    out["trace.self_total_s"] = sum(e["self_s"] for e in funcs.values())
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


#: per traced function, the work one call did, from its result
SIZERS = {
    "opendyn.dissipation_scan": len,
    "opendyn.evolve_semigroup": lambda result: len(result.times),
    "brachistochrone.first_passage_scan": lambda result: int(result is not None),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    _import_tachys()
    cls = WORKLOADS[args.workload]
    in_process = args.mode == "trace" or cls.name != "cli-reports"
    # a trace run does the operation list twice, so in-process workloads
    # size each half to half the run
    seconds = args.seconds / 2 if args.mode == "trace" and cls.name != "cli-reports" else args.seconds
    workload = cls(args.seed, seconds, ROOT, in_process=in_process)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "run":
        probe = probe_for(args.workload, ROOT)[0]
        times, failures, local_probes = run_untraced(workload, probe)
        # the spawn probes are children too, but far smaller than any report process
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        result = {"times": times, "local_probes": local_probes,
                  "peak_rss_kb": resource.getrusage(who).ru_maxrss}
    else:
        from tracer import Tracer

        tracer = Tracer(SIZERS)
        tracer.install()
        untraced, traced, failures = run_paired(workload, tracer)
        result = {"layers": layer_metrics(workload, tracer, traced, untraced)}
        spans = ROOT / ".perfbench" / "trace"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans / f"{args.workload}-seed{args.seed}.csv")
    result["attempted"] = len(workload.ops) * (2 if args.mode == "trace" else 1)
    result["failures"] = {str(k): v for k, v in sorted(failures.items())}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
