"""End-to-end checks of the report-emitting command line."""

import argparse
import errno
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tachys import cli, gates
from tachys.brachistochrone import transfer
from tachys.dilation import build_dilation, evolve_dilated
from tachys.gates import (
    BlochBasis,
    control_u_channel,
    discrimination_povm,
    efficiency_bound,
    inconclusive_probability,
    not_gate_roundtrip,
)
from tachys.metric import diag_metric, quasi_hamiltonian
from tachys.smallmat import PAULI_X, propagator
from support import Spy, fresh_python

EXP_MINUS_2 = 0.1353352832366127


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_expecting_exit(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def json_rows(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0 and err == ""
    return json.loads(out)["rows"]


def assert_rows_bitwise_equal(got, want):
    # repr round-trips every double and tells -0.0 from 0.0
    assert json.dumps(got) == json.dumps(want)


def random_sweeps(seed, count, max_points=300):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lo = float(np.exp(rng.uniform(np.log(1e-3), np.log(3.1))))
        hi = float(rng.uniform(lo, np.pi))
        points = int(rng.integers(2, max_points))
        argv = ["--theta-min", repr(lo), "--theta-max", repr(hi), "--points", str(points)]
        yield np.linspace(lo, hi, points).tolist(), argv, rng


def parse_csv(text):
    comments, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            comments[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, (float(x) for x in line.split(",")))))
    return comments, header, rows


# ------------------------------------------------------------------- brachy


def test_brachy_golden_orthogonal_angle(capsys):
    code, out, err = run_cli(capsys, ["brachy", "--theta", "3.14159265", "--omega", "1"])
    assert code == 0 and err == ""
    comments, header, rows = parse_csv(out)
    assert comments["schema"] == "tachys-report/1"
    assert comments["command"] == "brachy"
    assert header == ["theta", "omega", "overlap", "tau", "shift", "phase", "h01_re", "h01_im"]
    assert len(rows) == 1
    row = rows[0]
    assert row["tau"] == pytest.approx(np.pi, abs=1e-7)
    assert row["h01_re"] == pytest.approx(0.5, abs=1e-9)
    assert row["h01_im"] == pytest.approx(0.0, abs=1e-9)
    assert row["shift"] == pytest.approx(0.0, abs=1e-9)


def test_brachy_output_is_deterministic(capsys):
    argv = ["brachy", "--theta-min", "0.2", "--theta-max", "3.0", "--points", "17"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    assert "\r" not in first and first.endswith("\n")


def test_brachy_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, ["brachy", "--theta", "1.2", "--omega", "2.0", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "tachys-report/1"
    assert report["command"] == "brachy"
    assert report["config"]["omega"] == 2.0
    assert report["config"]["format"] == "json"
    assert len(report["rows"]) == 1
    assert report["rows"][0]["tau"] == pytest.approx(1.2 / 2.0, rel=1e-12)


def test_brachy_sweep_grid(capsys):
    code, out, _ = run_cli(
        capsys, ["brachy", "--theta-min", "0.1", "--theta-max", "3.0", "--points", "7"]
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    thetas = [r["theta"] for r in rows]
    assert len(thetas) == 7
    assert thetas == sorted(thetas)
    assert thetas[0] == pytest.approx(0.1) and thetas[-1] == pytest.approx(3.0)


def test_csv_floats_round_trip_exactly(capsys):
    # 17 significant digits reproduce the double exactly after parsing
    _, out, _ = run_cli(capsys, ["brachy", "--theta", "1.0"])
    _, _, rows = parse_csv(out)
    from tachys.brachistochrone import transfer

    want = transfer(BlochBasis(1.0).psi1, 1.0).tau
    assert rows[0]["tau"] == want


def test_brachy_rows_equal_scalar_transfer(capsys):
    for grid, sweep, rng in random_sweeps(11, 4):
        omega = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        rows = json_rows(capsys, ["brachy", *sweep, "--omega", repr(omega)])
        want = []
        for theta in grid:
            r = transfer(BlochBasis(theta).psi1, omega)
            want.append(
                {
                    "theta": theta,
                    "omega": omega,
                    "overlap": r.overlap.real,
                    "tau": r.tau,
                    "shift": r.drive.shift,
                    "phase": r.drive.phase,
                    "h01_re": r.drive.matrix[0, 1].real,
                    "h01_im": r.drive.matrix[0, 1].imag,
                }
            )
        assert_rows_bitwise_equal(rows, want)


def test_brachy_tiny_angle_drive_turns_toward_target(capsys):
    # at theta <= 2e-9 tau rounds to 0, so the propagation check passes for
    # any phase; the drive is still the one phase that can reach the target
    for theta in ("1e-10", "2e-9"):
        (row,) = json_rows(capsys, ["brachy", "--theta", theta, "--omega", "2.0"])
        assert row["tau"] == 0.0
        assert row["phase"] == 0.0
        assert row["h01_re"] == 1.0 and row["h01_im"] == 0.0


def test_brachy_report_is_covariant_under_the_gap(capsys):
    # omega only sets the clock: the propagation check of omega 1e-155 and
    # 1e155 drives used to square n past the float range and exit 1 (missing
    # the target by 1.241e-01, by nan); at omega = 2**k the report is the
    # omega = 1 report with tau over 2**k and shift and h01 times 2**k, exactly
    (unit,) = json_rows(capsys, ["brachy", "--theta", "1", "--omega", "1"])
    for omega in ("1e-155", "1e155"):
        (row,) = json_rows(capsys, ["brachy", "--theta", "1", "--omega", omega])
        assert row["tau"] * float(omega) == pytest.approx(unit["tau"], rel=1e-15)
    for k in (520, -520):
        (row,) = json_rows(capsys, ["brachy", "--theta", "1", "--omega", repr(2.0**k)])
        assert row["tau"] == unit["tau"] * 2.0**-k
        for name in ("shift", "h01_re", "h01_im"):
            assert row[name] == unit[name] * 2.0**k
        assert (row["overlap"], row["phase"]) == (unit["overlap"], unit["phase"])


# -------------------------------------------------------------- exit status


def test_missing_selection_is_usage_error(capsys):
    code, _, err = run_cli_expecting_exit(capsys, ["brachy"])
    assert code == 2
    assert "--theta" in err


def test_underfilled_sweep_is_usage_error(capsys):
    code, _, _ = run_cli_expecting_exit(
        capsys, ["brachy", "--theta-min", "0.1", "--theta-max", "1.0", "--points", "1"]
    )
    assert code == 2


@pytest.mark.parametrize("command", ["brachy", "povm"])
@pytest.mark.parametrize(
    "range_flags",
    [
        ["--theta-min", "0.1", "--theta-max", "2", "--points", "5"],
        ["--theta-min", "0.1"],
        ["--theta-max", "2"],
    ],
)
def test_theta_with_a_theta_range_is_usage_error(capsys, command, range_flags):
    # the report would echo range flags that the one-angle row never used
    code, out, err = run_cli_expecting_exit(capsys, [command, "--theta", "1.0", *range_flags])
    assert (code, out) == (2, "")
    assert "--theta cannot be combined with --theta-min or --theta-max" in err


@pytest.mark.parametrize("command", ["brachy", "povm"])
@pytest.mark.parametrize("points", ["5", "64"])
def test_theta_with_points_is_usage_error(capsys, command, points):
    # a one-angle report has one row whatever --points says, so the flag
    # would be echoed without effect
    code, out, err = run_cli_expecting_exit(capsys, [command, "--theta", "1.0", "--points", points])
    assert (code, out) == (2, "")
    assert "--theta cannot be combined with --points" in err


@pytest.mark.parametrize("command", ["brachy", "povm"])
def test_one_angle_and_default_sweep_reports_echo_the_default_points(capsys, command):
    code, out, _ = run_cli(capsys, [command, "--theta", "1.0"])
    assert code == 0 and "# points=64\n" in out
    code, out, _ = run_cli(capsys, [command, "--theta-min", "0.1", "--theta-max", "1.0"])
    assert code == 0 and "# points=64\n" in out
    assert len([line for line in out.splitlines() if not line.startswith("#")]) == 1 + 64


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (["brachy", "--theta", "nan"], "--theta", "nan"),
        (["brachy", "--theta", "1.0", "--omega", "inf"], "--omega", "inf"),
        (["povm", "--theta-min", "0.1", "--theta-max", "inf"], "--theta-max", "inf"),
        (["povm", "--theta-min=-inf", "--theta-max", "1.0"], "--theta-min", "-inf"),
        (["dissipation", "--f-min", "0.1", "--f-max", "inf"], "--f-max", "inf"),
        (["dissipation", "--f-min", "0.1", "--f-max", "2", "--proximity", "nan"], "--proximity", "nan"),
        (["dilation", "--t-max", "nan"], "--t-max", "nan"),
        (["dilation", "--t-max", "inf"], "--t-max", "inf"),
        (["dilation", "--scale", "nan"], "--scale", "nan"),
        (["notgate", "--theta", "1.0", "--omega", "nan"], "--omega", "nan"),
        (["controlu", "--theta", "1.0", "--e-polar", "inf"], "--e-polar", "inf"),
        (["efficiency", "--theta", "1.0", "--omega=-inf"], "--omega", "-inf"),
    ],
)
def test_nonfinite_float_flag_is_usage_error(capsys, argv, flag, text):
    code, out, err = run_cli_expecting_exit(capsys, argv)
    assert code == 2 and out == ""
    # only the usage message: no report, no numpy warning
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: tachys {argv[0]} ")
    assert lines[-1] == f"tachys {argv[0]}: error: argument {flag}: expected a finite number, got {text!r}"
    assert all(line.startswith(" ") for line in lines[1:-1])


def _float_flags():
    """(subcommand, flag, required flags) for every float flag of the parser."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in subparsers.choices.items():
        options = [a for a in sub._actions if a.option_strings]
        required = [a.option_strings[0] for a in options if a.required]
        for action in options:
            if action.type is cli._finite_float:
                yield command, action.option_strings[0], required


FLOAT_FLAGS = list(_float_flags())


def test_float_flags_are_read_from_the_parser():
    flags = {(command, flag) for command, flag, _ in FLOAT_FLAGS}
    assert len(flags) == len(FLOAT_FLAGS) == 20
    assert {command for command, _ in flags} == set(README_INVOCATIONS)
    assert ("dilation", "--t-max") in flags and ("controlu", "--e-polar") in flags


@pytest.mark.parametrize(
    "command, flag, required",
    [pytest.param(*case, id=f"{case[0]}{case[1]}") for case in FLOAT_FLAGS],
)
def test_every_float_flag_rejects_non_finite_values(capsys, command, flag, required):
    for text in ("nan", "inf", "-inf", "abc"):
        argv = [command] + [f"{r}=1.0" for r in required if r != flag] + [f"{flag}={text}"]
        code, out, err = run_cli_expecting_exit(capsys, argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: tachys {command} ")
        assert lines[-1] == (
            f"tachys {command}: error: argument {flag}: expected a finite number, got {text!r}"
        )
        assert all(line.startswith(" ") for line in lines[1:-1])


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli_expecting_exit(capsys, ["nonsense"])
    assert code == 2


def test_domain_rejection_exits_one_with_typed_message(capsys):
    code, out, err = run_cli(capsys, ["povm", "--theta", "0"])
    assert code == 1
    assert out == ""
    assert err.startswith("tachys povm: error: DegenerateBasisError:")


# -------------------------------------------------------------- dissipation


def test_dissipation_unit_diag_row_hits_exp_minus_two(capsys):
    code, out, _ = run_cli(
        capsys, ["dissipation", "--f-min", "0.5", "--f-max", "1.5", "--points", "3"]
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["f", "d_factor", "finite_factor", "gap_sq", "a_prime", "tau"]
    mid = rows[1]
    assert mid["f"] == 1.0
    assert mid["d_factor"] == EXP_MINUS_2
    assert mid["finite_factor"] == pytest.approx(EXP_MINUS_2, abs=1e-8)


def test_dissipation_default_grid_shape_and_formula(capsys):
    code, out, _ = run_cli(capsys, ["dissipation", "--f-min", "0.05", "--f-max", "6"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 512
    assert rows[0]["f"] == 0.05 and rows[-1]["f"] == 6.0
    for row in rows[::50]:
        f = row["f"]
        assert row["d_factor"] == pytest.approx(np.exp(-(1.0 / f + f)) / f, rel=1e-14)
        assert 0.0 < row["finite_factor"] <= 1.0
    assert max(r["d_factor"] for r in rows) < 0.2


def test_dissipation_points_validation(capsys):
    code, _, _ = run_cli_expecting_exit(
        capsys, ["dissipation", "--f-min", "0.5", "--f-max", "1.0", "--points", "1"]
    )
    assert code == 2


# the stderr a loop over the rows gives: the first failing row in grid order,
# from the earliest check that row fails
SWEEP_ERRORS = [
    # every metric of this sweep is invertible: its determinant is of order
    # 1e-14, the proximity squared (LU rounded it to 0 from row 1330 on);
    # row 2606 is the first to fail, at the alignment
    (
        "dissipation --f-min 0.5 --f-max 6 --points 4096 --proximity 1e-7",
        "AlignmentError: mapped boundary states are parallel; no aligned drive exists",
    ),
    (
        "dissipation --f-min 1e-7 --f-max 2 --points 16 --proximity 1e-6",
        "ValueError: proximity 1e-06 must be smaller than f 1e-07",
    ),
    (
        "brachy --theta-min 1e-8 --theta-max 1e-7 --points 8",
        "ValueError: the minimal-time drive misses the target by 5.000e-09",
    ),
    (
        "dissipation --f-min 0.5 --f-max 3 --points 64 --proximity 1e-9",
        "AlignmentError: mapped boundary states are parallel; no aligned drive exists",
    ),
    # the last row fails the first check, but row 0 fails a later one first
    (
        "dissipation --f-min 6 --f-max 1e-7 --points 64 --proximity 1e-7",
        "AlignmentError: mapped boundary states are parallel; no aligned drive exists",
    ),
    (
        "brachy --theta-min 3 --theta-max 1e-8 --points 8",
        "ValueError: the minimal-time drive misses the target by 5.000e-09",
    ),
]


@pytest.mark.parametrize("line, message", SWEEP_ERRORS)
def test_sweep_error_is_the_first_failing_row(capsys, line, message):
    argv = line.split()
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"tachys {argv[0]}: error: {message}\n"


def test_unwritable_output_exits_one_with_one_line(capsys, tmp_path):
    (tmp_path / "d").mkdir()
    cases = {
        tmp_path / "missing" / "x.csv": ("FileNotFoundError", errno.ENOENT),
        tmp_path / "d": ("IsADirectoryError", errno.EISDIR),
    }
    for target, (kind, number) in cases.items():
        code, out, err = run_cli(capsys, ["efficiency", "--theta", "1", "--output", str(target)])
        assert (code, out) == (1, "")
        # the line names the path given, not the temporary file beside it
        want = f"[Errno {number}] {os.strerror(number)}: {str(target)!r}"
        assert err == f"tachys efficiency: error: {kind}: {want}\n"
    # no .tachys-* temporary file is left next to either target
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert list((tmp_path / "d").iterdir()) == []


def test_nonfinite_report_value_exits_one_before_writing(capsys, monkeypatch, tmp_path):
    handlers = {
        "table": lambda args: ({"theta": [1.0, 2.0], "tau": [0.5, np.nan]}, None),
        "summary": lambda args: ({"theta": 1.0}, {"norm_factor": np.inf}),
    }
    for case, handler in handlers.items():
        monkeypatch.setitem(cli._COMMANDS, "efficiency", handler)
        target = tmp_path / "report.csv"
        for dest in ([], ["--output", str(target)]):
            code, out, err = run_cli(capsys, ["efficiency", "--theta", "1.0", *dest])
            assert (code, out) == (1, "")
            want = "column tau is nan in row 1" if case == "table" else "summary norm_factor is inf"
            assert err == f"tachys efficiency: error: NonFiniteReportError: {want}\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["brachy", "--theta-min", "0.1", "--theta-max", "1.0"],
        ["povm", "--theta-min", "0.1", "--theta-max", "1.0"],
        ["dissipation", "--f-min", "0.5", "--f-max", "1.0"],
        ["dilation"],
    ],
)
def test_sweep_points_are_capped_before_the_grid_is_built(capsys, monkeypatch, argv):
    flag = "--t-points" if argv[0] == "dilation" else "--points"
    monkeypatch.setattr(cli, "np", Spy(forbid=("linspace",)))
    code, out, err = run_cli_expecting_exit(capsys, argv + [flag, str(cli.MAX_POINTS + 1)])
    assert (code, out) == (2, "")
    assert f"sweep takes at most {cli.MAX_POINTS} points, got {cli.MAX_POINTS + 1}" in err
    # the cap itself is allowed: the grid is the next step
    with pytest.raises(AssertionError, match="linspace reached"):
        cli.main(argv + [flag, str(cli.MAX_POINTS)])


def per_value_rows(table):
    """The CSV body as it was once written, one ``format`` call per value."""
    values = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float)) for v in table.values()))
    return [",".join(format(x, ".17g") for x in row) for row in zip(*(v.tolist() for v in values))]


EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e-5,
    1e16, 1e21, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -2.5,
]


def per_value_json(command, config, table, summary):
    """The JSON report as it was once written: per-row dicts through ``json.dumps``."""
    values = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float)) for v in table.values()))
    report = {"schema": cli.SCHEMA, "command": command, "config": config}
    if summary is not None:
        report["summary"] = summary
    report["rows"] = [dict(zip(table, row)) for row in zip(*(v.tolist() for v in values))]
    return json.dumps(report, indent=2) + "\n"


def test_row_template_equals_per_value_format():
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2**64, 3 * 4096, dtype=np.uint64, endpoint=False).view(float)
    bits = bits[np.isfinite(bits)][: 3 * 4000].reshape(3, -1)
    edge = np.array(EDGE_FLOATS)
    tables = [
        ({"x": edge, "minus_x": -edge[::-1], "scalar": 0.1}, {"third": 1.0 / 3.0}),
        ({"a": bits[0], "b": bits[1], "c": bits[2]}, None),
        ({"one": 5e-324}, None),
        # names json escapes, and a % the row template must not read as a field
        ({'say "hi"': edge, "back\\slash": 1.5, "\u03b7_\u00e9": -edge, "100%": edge, "%r%%": 0.25}, {"k%s": 2.0}),
        # no rows: json.dumps writes the empty list as []
        ({"t": np.zeros(0), "scalar": 1.0}, {"third": 1.0 / 3.0}),
    ]
    args = cli.build_parser().parse_args(README_INVOCATIONS["dilation"].split())
    tables.append(cli._COMMANDS["dilation"](args))
    config = {"t_points": 33, "format": "json"}
    for table, summary in tables:
        text = cli._render("dilation", config, table, summary, "csv")
        want = per_value_rows(table)
        lines = text.split("\n")
        assert lines[-1] == ""
        assert lines[-len(want) - 2] == ",".join(table)
        assert lines[-len(want) - 1:-1] == want
        if summary is not None:
            for key, value in summary.items():
                assert f"# summary.{key}={format(value, '.17g')}" in lines
        assert cli._render("dilation", config, table, summary, "json") == per_value_json("dilation", config, table, summary)


def test_json_render_peak_memory_stays_near_the_csv_render():
    # both bodies are one row template applied once; per-row dicts and their
    # encoding took 4x the CSV render's peak on this table
    rng = np.random.default_rng(26)
    table = {f"c{k}": rng.standard_normal(4096) for k in range(8)}
    peaks = {}
    for fmt in ("csv", "json"):
        cli._render("dissipation", {"points": 4096}, table, None, fmt)  # imports json once
        tracemalloc.start()
        try:
            cli._render("dissipation", {"points": 4096}, table, None, fmt)
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["json"] <= 2 * peaks["csv"], peaks


# ----------------------------------------------------------------- dilation


def test_dilation_report_embedding_and_summary(capsys):
    code, out, _ = run_cli(capsys, ["dilation", "--scale", "2.0", "--t-points", "9"])
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["t", "embedding_error", "observed_norm", "total_norm"]
    assert len(rows) == 9
    assert max(r["embedding_error"] for r in rows) < 1e-9
    assert max(abs(r["total_norm"] - rows[0]["total_norm"]) for r in rows) < 1e-12
    assert float(comments["summary.unitarity_defect"]) < 1e-10
    assert float(comments["summary.hermiticity_defect"]) < 1e-12
    assert float(comments["summary.visibility_ratio"]) == pytest.approx(1.0 / 16.0)
    model = build_dilation(0.5 * PAULI_X, diag_metric(2.0), 1.0)
    assert float(comments["summary.unitarity_defect"]) == model.unitarity_defect
    assert float(comments["summary.hermiticity_defect"]) == model.hermiticity_defect


@pytest.mark.parametrize(
    "scale, message",
    [
        ("1e-13", "MetricDegeneracyError: metric square root is degenerate: diag - |offdiag|^2 = 1.000e-13"),
        ("1e200", "ValueError: metric overflows: the square of its root is not finite"),
    ],
)
def test_dilation_scale_is_checked_by_the_metric_root(capsys, scale, message):
    code, out, err = run_cli(capsys, ["dilation", "--scale", scale])
    assert (code, out) == (1, "")
    assert err == f"tachys dilation: error: {message}\n"


@pytest.mark.parametrize("omega", ["1e5", "1e8"])
def test_dilation_report_holds_at_large_gaps(capsys, omega):
    # absolute gates rejected both: the Hermiticity residual of the dilated
    # generator and the eigenvalue residuals grow with omega, as their
    # rounding does.  The embedding error is the rounding of the phase omega t
    code, out, err = run_cli(capsys, ["dilation", "--omega", omega, "--t-points", "3"])
    assert (code, err) == (0, "")
    comments, _, rows = parse_csv(out)
    assert max(r["embedding_error"] for r in rows) <= 1e-15 * float(omega) * rows[-1]["t"]
    assert float(comments["summary.unitarity_defect"]) < 1e-15
    model = build_dilation(0.5 * float(omega) * PAULI_X, diag_metric(2.0), float(omega))
    assert float(comments["summary.unitarity_defect"]) == model.unitarity_defect


def test_dilation_rejects_a_metric_whose_extended_vectors_lose_unitarity(capsys):
    # at --scale 1e4 the unitarity residual of the extended vectors is 9.3e-9:
    # the loss is in hermitian_sqrt's eigh, not in the metric.  The closed-form
    # root (M + sqrt(det) I)/sqrt(tr M + 2 sqrt(det)), det = ad - |b|^2, gives
    # 4.7e-13 and exit 0 (--scale 3e4 still fails); ROADMAP item 11.  Until
    # then the report fails, and its margin is not reported yet
    code, out, err = run_cli(capsys, ["dilation", "--scale", "1e4", "--t-points", "3"])
    assert (code, out) == (1, "")
    assert err == "tachys dilation: error: ValueError: extended-vector matrix failed its unitarity check\n"


def test_dilation_json_summary_block(capsys):
    code, out, _ = run_cli(capsys, ["dilation", "--t-points", "5", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert set(report["summary"]) == {
        "unitarity_defect",
        "hermiticity_defect",
        "norm_factor",
        "visibility_ratio",
    }


# -------------------------------------------------------- one-line commands


def test_povm_sweep_audits_each_effect_stack_once(capsys, monkeypatch):
    # the report reads the audits that discrimination_povm's self-checks
    # computed: one eigvalsh over the 3n effects and one completeness norm
    # per sweep, counted in gates, which owns them, and in cli
    calls = []
    monkeypatch.setattr(gates, "np", Spy(calls, count=("linalg.*",)))
    monkeypatch.setattr(cli, "np", Spy(calls, count=("linalg.*",)))
    code, _, _ = run_cli(capsys, ["povm", "--theta-min", "0.1", "--theta-max", "3.1", "--points", "4096"])
    assert code == 0
    assert sorted(calls) == ["linalg.eigvalsh", "linalg.norm"]


def test_povm_sweep_reports_clean_audit(capsys):
    code, out, _ = run_cli(
        capsys, ["povm", "--theta-min", "0.2", "--theta-max", "3.1", "--points", "16"]
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    for row in rows:
        assert row["completeness_defect"] < 1e-12
        assert row["min_eigenvalue"] > -1e-12
        assert abs(row["misid_0_on_psi1"]) < 1e-14
        assert abs(row["misid_1_on_psi0"]) < 1e-14
        assert row["p_inconclusive_psi0"] == pytest.approx(row["overlap"], abs=1e-12)


def one_angle_cases(seed, count=20):
    """``count`` seeded (theta, omega, e_polar): theta in (0, pi], the first pi
    itself, omega log-uniform in [1e-2, 1e2], e_polar uniform in [-pi, pi]."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        theta = np.pi if k == 0 else float(np.pi - rng.uniform(0.0, np.pi))
        yield theta, float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2)))), float(rng.uniform(-np.pi, np.pi))


def assert_one_angle_report(capsys, command, theta, flag, value, want):
    """The CSV row and the JSON row of ``command --theta theta --flag value``
    are ``theta``, ``value`` and then ``want``, column for column and bit for bit."""
    argv = [command, f"--theta={theta!r}", f"--{flag.replace('_', '-')}={value!r}"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    _, header, csv_rows = parse_csv(out)
    want = {"theta": theta, flag: value, **want}
    assert header == list(want)
    for rows in (csv_rows, json_rows(capsys, argv)):
        assert_rows_bitwise_equal(rows, [want])


def test_notgate_report_matches_library(capsys):
    for theta, omega, _ in one_angle_cases(1):
        rep = not_gate_roundtrip(BlochBasis(theta), omega)
        columns = ("forward_residual", "roundtrip_fidelity", "tau_not")
        assert_one_angle_report(capsys, "notgate", theta, "omega", omega,
                                {name: getattr(rep, name) for name in columns})


def test_controlu_report_matches_library(capsys):
    for theta, _, e_polar in one_angle_cases(2):
        rep = control_u_channel(BlochBasis(theta), e_polar)
        columns = ("p", "q", "bound_lhs", "bound_rhs", "slack", "decomposition_residual")
        assert_one_angle_report(capsys, "controlu", theta, "e_polar", e_polar,
                                {name: getattr(rep, name) for name in columns})
        assert rep.slack >= -1e-12


def test_efficiency_report_saturation(capsys):
    for theta, omega, _ in [(2.0, 1.5, None), *one_angle_cases(3)]:
        rep = efficiency_bound(BlochBasis(theta), omega)
        columns = ("epsilon", "delta_e", "delta_t", "bound_rhs", "slack")
        assert_one_angle_report(capsys, "efficiency", theta, "omega", omega,
                                {name: getattr(rep, name) for name in columns})
        assert rep.delta_t == pytest.approx(rep.bound_rhs, rel=1e-15)
        assert rep.slack == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------- grids vs scalar calls


def test_povm_rows_equal_scalar_library_calls(capsys):
    for grid, sweep, _ in random_sweeps(12, 4):
        rows = json_rows(capsys, ["povm", *sweep])
        want = []
        for theta in grid:
            basis = BlochBasis(theta)
            povm = discrimination_povm(basis)
            e0 = povm.effects[povm.labels.index("0")]
            e1 = povm.effects[povm.labels.index("1")]
            want.append(
                {
                    "theta": theta,
                    "overlap": basis.overlap,
                    "p_inconclusive_psi0": inconclusive_probability(povm, basis.psi0),
                    "p_inconclusive_psi1": inconclusive_probability(povm, basis.psi1),
                    "misid_0_on_psi1": float(np.real(np.vdot(basis.psi1, e0 @ basis.psi1))),
                    "misid_1_on_psi0": float(np.real(np.vdot(basis.psi0, e1 @ basis.psi0))),
                    "completeness_defect": povm.completeness_defect,
                    "min_eigenvalue": povm.min_eigenvalue,
                }
            )
        assert_rows_bitwise_equal(rows, want)


def test_dilation_rows_equal_scalar_library_calls(capsys):
    rng = np.random.default_rng(13)
    e0 = np.array([1.0, 0.0], dtype=complex)
    for _ in range(4):
        scale = float(np.exp(rng.uniform(-1.5, 1.5)))
        omega = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        t_max = float(rng.uniform(0.01, 60.0))
        points = int(rng.integers(2, 300))
        rows = json_rows(
            capsys,
            ["dilation", "--scale", repr(scale), "--omega", repr(omega),
             "--t-max", repr(t_max), "--t-points", str(points)],
        )
        m = diag_metric(scale)
        h = 0.5 * omega * PAULI_X
        model = build_dilation(h, m, omega)
        op = quasi_hamiltonian(h, m, omega).operator
        want = []
        for t in np.linspace(0.0, t_max, points).tolist():
            evolved, observed = evolve_dilated(model, e0, t)
            direct = propagator(op, t) @ e0
            want.append(
                {
                    "t": t,
                    "embedding_error": float(np.linalg.norm(observed - direct)),
                    "observed_norm": float(np.linalg.norm(observed)),
                    "total_norm": float(np.linalg.norm(evolved)),
                }
            )
        assert_rows_bitwise_equal(rows, want)


# ------------------------------------------------------------------- output


README_INVOCATIONS = {
    "brachy": "brachy --theta-min 0.1 --theta-max 3.1 --points 64 --omega 1.0",
    "dissipation": "dissipation --f-min 0.05 --f-max 6.0 --points 512 --proximity 1e-6",
    "dilation": "dilation --scale 2.0 --omega 1.0 --t-max 6.0 --t-points 33",
    "povm": "povm --theta-min 0.1 --theta-max 3.1 --points 64",
    "notgate": "notgate --theta 2.0 --omega 1.0",
    "controlu": "controlu --theta 3.141592653589793 --e-polar 0.0",
    "efficiency": "efficiency --theta 1.0 --omega 2.0",
}

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"


#: the tachys modules each README report loads: its command imports only
#: what it calls (and what that imports in turn)
REPORT_MODULES = {
    "brachy": {"brachistochrone", "gates"},
    "dissipation": {"metric", "opendyn"},
    "dilation": {"dilation", "metric"},
    "povm": {"gates"},
    "notgate": {"gates"},
    "controlu": {"gates"},
    "efficiency": {"gates"},
}


@pytest.mark.parametrize("name", sorted(README_INVOCATIONS))
def test_readme_report_is_byte_identical_to_golden(capsys, name):
    code, out, err = run_cli(capsys, README_INVOCATIONS[name].split())
    assert code == 0 and err == ""
    assert out.encode() == (GOLDENS / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(README_INVOCATIONS))
def test_readme_report_from_python_m_loads_only_its_modules(name):
    # a fresh ``python -m tachys.cli``: -W error turns runpy's "found in
    # sys.modules" RuntimeWarning into a failure, and -X importtime logs each
    # module the process imports, one "import time: self | cumulative | name"
    # line per module
    proc = fresh_python(
        "-W", "error::RuntimeWarning", "-X", "importtime", "-m", "tachys.cli", *README_INVOCATIONS[name].split(),
        text=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDENS / f"{name}.csv").read_bytes()
    lines = proc.stderr.decode().splitlines()
    imported = {line.rpartition("|")[2].strip() for line in lines if line.startswith("import time:")}
    loaded = {module for module in imported if module.split(".")[0] == "tachys"}
    assert loaded == {"tachys", "tachys.smallmat"} | {f"tachys.{m}" for m in REPORT_MODULES[name]}




def test_output_file_matches_stdout_and_leaves_no_droppings(tmp_path, capsys):
    argv = ["povm", "--theta", "1.0"]
    _, stdout_text, _ = run_cli(capsys, argv)
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, argv + ["--output", str(target)])
    assert code == 0 and out == ""
    assert target.read_text() == stdout_text
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_console_script_is_wired():
    # the ``tachys`` script is the process entry, as ``python -m tachys.cli`` is
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]
    assert project["scripts"]["tachys"] == "tachys.cli:run"
    proc = fresh_python("-m", "tachys.cli", "--help")
    # argparse --help exits 0 and lists every subcommand
    assert proc.returncode == 0
    for name in ("brachy", "dissipation", "dilation", "povm", "notgate", "controlu", "efficiency"):
        assert name in proc.stdout


# ------------------------------------------------------------ process entry


def test_python_m_output_file_is_the_golden_and_nothing_else(tmp_path):
    target = tmp_path / "notgate.csv"
    proc = fresh_python("-m", "tachys.cli", *README_INVOCATIONS["notgate"].split(), "--output", str(target))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert target.read_bytes() == (GOLDENS / "notgate.csv").read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["notgate.csv"]


@pytest.mark.parametrize("argv, code", [
    (["brachy", "--theta", "1e-8"], 1), (["brachy", "--theta", "nan"], 2), (["nonsense"], 2),
])
def test_python_m_keeps_exit_codes_and_stderr(capsys, argv, code):
    # a domain error (exit 1) ends on the fast path; a usage error (exit 2) inside main
    try:
        want = run_cli(capsys, argv)
    except SystemExit as exc:
        want = (exc.code, *capsys.readouterr())
    assert want[0] == code
    proc = fresh_python("-m", "tachys.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == want


#: a ``python -m tachys.cli notgate`` run by runpy after an atexit handler is
#: registered, with ``setup`` run first
_ATEXIT_RUN = """
import atexit, io, runpy, sys
atexit.register(lambda: print("atexit ran", file=sys.stderr))
{setup}
sys.argv = ["tachys", *{argv!r}]
runpy.run_module("tachys.cli", run_name="__main__")
"""


#: a stdout whose flush fails as a closed pipe does
_FAILING_FLUSH = """
class Stdout(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")
sys.stdout = Stdout()
"""


@pytest.mark.parametrize("setup, code, atexit_ran", [
    ("", 0, False),
    ("sys.settrace(lambda *args: None)", 0, True),
    ("sys.setprofile(lambda *args: None)", 0, True),
    # the usual exit meets the same failed flush, reports it and exits 120
    (_FAILING_FLUSH, 120, True),
], ids=["fast-path", "settrace", "setprofile", "failing-flush"])
def test_process_entry_skips_teardown_only_on_the_fast_path(setup, code, atexit_ran):
    argv = README_INVOCATIONS["notgate"].split()
    proc = fresh_python("-c", _ATEXIT_RUN.format(setup=setup, argv=argv))
    assert proc.returncode == code, proc.stderr
    assert ("atexit ran" in proc.stderr) == atexit_ran
    if not code:
        assert proc.stdout == (GOLDENS / "notgate.csv").read_text()
