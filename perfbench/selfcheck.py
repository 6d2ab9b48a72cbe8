"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. A report with one changed digit, and a check fed a shifted oracle value,
   must each count as a failed operation, on every workload.
2. A tiny run (``--seconds 1``) of every workload, untraced and traced, must
   succeed and emit exactly the metric names listed in BENCHMARK.json.
3. At ``ready``, a worker of every workload may hold only the scipy modules
   that ``import tachys`` alone loads, so set-up time and peak memory
   measure tachys, not the benchmark's oracles.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py must
   exit non-zero without printing a result.
Exits 0 when all hold; writes only under .perfbench/ in the checkout.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _first(workload, kind):
    return next(op for op in workload.ops if op.kind == kind)


def _bump_digit(text: str, start: int) -> str:
    """Change the first digit at or after ``start`` that is not a leading zero."""
    m = re.compile(r"[1-9]").search(text, start)
    digit = "1" if m.group() == "9" else str(int(m.group()) + 1)
    return text[: m.start()] + digit + text[m.end():]


def corrupted_and_shifted() -> list[str]:
    problems = []

    def expect(label, ok_error, bad_error):
        if ok_error is not None:
            problems.append(f"{label}: unmodified operation failed: {ok_error}")
        if bad_error is None:
            problems.append(f"{label}: the modified operation passed its check")

    cli = workloads.CliReports(7, 1, ROOT, in_process=True)
    golden = _first(cli, "golden")
    code, text = cli.execute(golden, 0)
    expect("golden report, one digit changed", cli.check(golden, (code, text)),
           cli.check(golden, (code, _bump_digit(text, len(text) // 2))))

    brachy = next(op for op in cli.ops if op.kind == "brachy" and op.params["rows"] == 1)
    brachy = copy.deepcopy(brachy)
    brachy.params["format"] = "csv"
    brachy.params["dest"] = "stdout"
    code, text = cli.execute(brachy, 0)
    data_row = text.rstrip("\n").rsplit("\n", 1)[1]
    tau_field = text.rindex(data_row) + len(",".join(data_row.split(",")[:3])) + 1
    expect("brachy report, one digit of tau changed", cli.check(brachy, (code, text)),
           cli.check(brachy, (code, _bump_digit(text, tau_field + 2))))
    shifted = copy.deepcopy(brachy)
    shifted.params["omega"] *= 1 + 1e-6
    expect("brachy oracle, omega shifted by 1e-6", cli.check(brachy, (code, text)),
           cli.check(shifted, (code, text)))

    passage = workloads.PassageSweep(7, 0.1, ROOT)
    general = _first(passage, "general")
    t = passage.execute(general, 0)
    shifted = copy.deepcopy(general)
    shifted.params["expected"] += 1e-5
    expect("general passage oracle, shifted by 1e-5", passage.check(general, t),
           passage.check(shifted, t))

    semigroup = workloads.SemigroupTrace(7, 0.1, ROOT)
    op = min(semigroup.ops, key=lambda o: o.params["samples"])
    result = semigroup.execute(op, 0)
    shifted = copy.deepcopy(op)
    shifted.params["omega"] *= 1 + 1e-6
    expect("semigroup expm oracle, omega shifted by 1e-6", semigroup.check(op, result),
           semigroup.check(shifted, result))
    return problems


def smoke_runs() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = [m["name"] for m in bench[key]]
        for w in bench["workloads"]:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                                   "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True)
            label = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            got = list(result["metrics"])
            if sorted(got) != sorted(want):
                problems.append(f"{label}: metric names differ: extra {set(got) - set(want)}, "
                                f"missing {set(want) - set(got)}")
            print(f"smoke {label}: ok", flush=True)
    return problems


def scipy_before_ready() -> list[str]:
    from run import child_env

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()

    def scipy_modules(code: str) -> set[str]:
        script = (f"import json, sys\n{code}\n"
                  "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
        return set(json.loads(proc.stdout.strip().splitlines()[-1]))

    own = scipy_modules("import tachys")
    problems = []
    for w in bench["workloads"]:
        extra = scipy_modules(
            f"sys.path.insert(0, {str(HERE)!r})\nimport worker\n"
            f"worker.main(['--workload', {w['name']!r}, '--seed', '1', '--seconds', '1',"
            " '--mode', 'setup'])") - own
        if extra:
            problems.append(f"{w['name']}: at ready the worker holds scipy modules that "
                            f"tachys does not load: {sorted(extra)[:5]}")
        print(f"scipy before ready {w['name']}: " + ("ok" if not extra else "FAILED"), flush=True)
    return problems


def bare_directory() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-reports",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = corrupted_and_shifted()
    print("corrupted reports and shifted oracles: " + ("ok" if not problems else "FAILED"), flush=True)
    problems += scipy_before_ready()
    problems += smoke_runs()
    problems += bare_directory()
    for problem in problems:
        print("FAIL " + problem)
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
