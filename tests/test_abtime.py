"""Smoke test of tools/abtime.py, the side-by-side kernel timer: the tree against itself."""

from pathlib import Path

import support

ROOT = Path(__file__).resolve().parents[1]


def test_the_tree_against_itself_runs_every_kernel_with_equal_bits():
    # no timing is checked: only that every kernel ran on both sides, round by round, with equal results
    tool = support.tool("abtime")
    parent, change = tool.load("tachys_parent", ROOT), tool.load("tachys_change", ROOT / "src")
    assert parent["propagator"].__module__ == "tachys_parent.smallmat"
    rows = tool.compare(parent, change, rounds=2, budget=0.0)
    assert [row[0] for row in rows] == list(tool.KERNELS)
    for name, parent_s, change_s, equal in rows:
        assert len(parent_s) == len(change_s) == 2 and min(parent_s + change_s) > 0.0, name
        assert equal, name
    lines = tool.table(rows)
    assert len(lines) == len(rows) + 1 and all(line.endswith("\tequal") for line in lines[1:])
    # a side whose bits move is marked, kernel by kernel
    moved = {**change, "eigvals2": lambda m: change["eigvals2"](2.0 * m)}
    marked = {name: equal for name, _, _, equal in tool.compare(parent, moved, rounds=1, budget=0.0)}
    assert [name for name, equal in marked.items() if not equal] == ["eigvals2", "eigvals2.4096"]
