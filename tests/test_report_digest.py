"""Smoke tests of tools/report_digest.py, the byte-identity digest of CLI reports and of library calls."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "report_digest.py"
COMMANDS = {"brachy", "dissipation", "dilation", "povm", "notgate", "controlu", "efficiency"}


def _digest(*extra, count=21):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "7", "--count", str(count), *extra],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_report_digest_repeats_and_covers_every_command():
    first = _digest()
    # a second run, importing the package through --src, gives the same lines
    assert _digest("--src", str(ROOT)) == first
    lines = first.splitlines()
    assert len(lines) == 21
    fields = [line.split("\t") for line in lines]
    assert all(len(f) == 4 and len(f[2]) == 64 for f in fields)
    assert {f[0].split()[0] for f in fields} == COMMANDS
    assert "0" in {f[1] for f in fields}
    assert "<tmp>/report" in first and "tachys-digest-" not in first


def _tool_module():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_run_one_child_per_configuration():
    # one invocation per command; each configuration's child must run to the end
    tool = _tool_module()
    labels = [" ".join(f"{k}={v}" for k, v in config.items()) for config in tool.probe_configurations()]
    header, *rows = _digest("--probes", count=7).splitlines()
    assert header.split("\t") == ["configuration", *tool.COMMANDS, "moved"]
    assert [row.split("\t")[0] for row in rows] == labels
    assert all(len(row.split("\t")) == len(tool.COMMANDS) + 2 and row.endswith("/7") for row in rows)


def test_library_digest_repeats_and_runs_every_family():
    tool = _tool_module()
    first = _digest("--library", count=3)
    # a second run, importing the package through --src, gives the same lines
    assert _digest("--library", "--src", str(ROOT), count=3) == first
    fields = [line.split("\t") for line in first.splitlines()]
    assert [f[0] for f in fields] == list(tool.LIBRARY_FAMILIES)
    assert all(len(f) == 3 and int(f[1]) >= 3 and len(f[2]) == 64 for f in fields)
