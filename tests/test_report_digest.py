"""Smoke tests of tools/report_digest.py, the byte-identity digest of CLI reports and of library calls,
and two censuses over its library call families: a call of finite arguments returns finite values or raises
a typed error, with no numpy RuntimeWarning; and a call reads each matrix, state or complex argument once."""

import dataclasses
import importlib
import inspect
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

from tachys.opendyn import AlignmentError
import support

ROOT = Path(__file__).resolve().parents[1]
TOOL = support.TOOLS / "report_digest.py"
COMMANDS = {"brachy", "dissipation", "dilation", "povm", "notgate", "controlu", "efficiency"}


def _digest(*extra, count=21, seed=7):
    proc = support.fresh_python(str(TOOL), "--seed", str(seed), "--count", str(count), *extra, cwd=ROOT)
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


def test_process_digest_equals_the_in_process_digest():
    # seed 40's first seven invocations exit 0, 1 and 2; --processes runs each as a fresh python -m tachys.cli
    first = _digest(count=7, seed=40)
    assert {line.split("\t")[1] for line in first.splitlines()} == {"0", "1", "2"}
    assert _digest("--processes", count=7, seed=40) == first


def test_probes_run_one_child_per_configuration():
    # one invocation per command; each configuration's child must run to the end
    tool = support.tool("report_digest")
    labels = [" ".join(f"{k}={v}" for k, v in config.items()) for config in tool.probe_configurations()]
    header, *rows = _digest("--probes", count=7).splitlines()
    assert header.split("\t") == ["configuration", *tool.COMMANDS, "moved"]
    assert [row.split("\t")[0] for row in rows] == labels
    assert all(len(row.split("\t")) == len(tool.COMMANDS) + 2 and row.endswith("/7") for row in rows)


def test_library_digest_repeats_and_runs_every_family():
    tool = support.tool("report_digest")
    first = _digest("--library", count=3)
    # a second run, importing the package through --src, gives the same lines
    assert _digest("--library", "--src", str(ROOT), count=3) == first
    fields = [line.split("\t") for line in first.splitlines()]
    assert [f[0] for f in fields] == list(tool.LIBRARY_FAMILIES)
    assert all(len(f) == 3 and int(f[1]) >= 3 and len(f[2]) == 64 for f in fields)


def test_every_public_function_is_a_library_family():
    # a new public function joins the census (and the digest)
    tool = support.tool("report_digest")
    public = set()
    for m in tool.LIBRARY_MODULES:
        module = importlib.import_module(f"tachys.{m}")
        public |= {name for name in module.__all__ if inspect.isfunction(getattr(module, name))}
    assert public == tool.LIBRARY_FAMILIES.keys()


#: the errors a library call may raise for finite arguments
TYPED_ERRORS = (ValueError, TypeError, AlignmentError)


def _finite(x) -> bool:
    """Whether every number in an argument tree (a ``Call``'s arguments, sequences, arrays) is
    finite; text, None and ragged input are not."""
    if type(x).__name__ == "Call":
        return all(map(_finite, x.args))
    try:
        a = np.asarray(x)
    except ValueError:
        return False
    return a.dtype.kind in "biufc" and bool(np.isfinite(a).all())


def _finite_result(x) -> bool:
    """Whether every float or complex number in a result (arrays, sequences, dataclass fields) is finite."""
    if dataclasses.is_dataclass(x):
        return all(_finite_result(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return all(map(_finite_result, x))
    if isinstance(x, (float, complex, np.ndarray, np.generic)) and np.asarray(x).dtype.kind in "fc":
        return bool(np.isfinite(x).all())
    return True


def test_library_calls_of_finite_arguments_return_finite_values_or_raise_a_typed_error():
    # every family at two seeds: a RuntimeWarning, an untyped error or a NaN result breaks the rule
    tool = support.tool("report_digest")
    modules = [importlib.import_module(f"tachys.{m}") for m in tool.LIBRARY_MODULES]
    api = {name: getattr(m, name) for m in modules for name in m.__all__}
    for seed, (name, family) in itertools.product((1, 2), tool.LIBRARY_FAMILIES.items()):
        for k, c in enumerate(family(tool._Draw(seed, name), 10)):
            if not _finite(c):
                continue
            where = f"{name} at seed {seed}, call {k}"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    result = tool._evaluate(api, c)
                except TYPED_ERRORS:
                    continue
                except Exception as exc:
                    pytest.fail(f"{where} raised {type(exc).__name__}: {exc}")
            assert _finite_result(result), f"{where} returned a value that is not finite"


#: the parameters of public functions that take a matrix, a state or a complex value, each
#: read by ``smallmat._numeric``: a public call reads each once, and its interior calls kernels
ARRAY_PARAMETERS = {
    "eta", "final", "h", "ham", "hermitian_part", "initial", "mat", "offdiag", "operator", "rho0", "state", "target",
    "u", "v", "vec",
}

#: every other parameter: reals (read by ``_reals``), library records and flags
OTHER_PARAMETERS = {
    "basis", "diag", "e_basis_polar", "f", "f_grid", "metric", "model", "name", "omega", "povm", "proximity",
    "scale", "stack", "steps", "t", "t_max", "times", "x",
}


def test_each_public_call_reads_each_matrix_state_or_complex_argument_once(monkeypatch):
    # count the _numeric calls of each successful call (its arguments built first); a public
    # function calling another public function reads its arguments again and fails this
    tool = support.tool("report_digest")
    modules = [importlib.import_module(f"tachys.{m}") for m in tool.LIBRARY_MODULES]
    api = {name: getattr(m, name) for m in modules for name in m.__all__}
    reads = []
    spy = support.counted(modules[0]._numeric, reads, record=lambda what, *args, **kwargs: what)
    for m in modules:
        if hasattr(m, "_numeric"):
            monkeypatch.setattr(m, "_numeric", spy)
    for name, family in tool.LIBRARY_FAMILIES.items():
        params = inspect.signature(api[name]).parameters
        assert set(params) <= ARRAY_PARAMETERS | OTHER_PARAMETERS, name
        allowed = sum(p in ARRAY_PARAMETERS for p in params)
        calls = 0
        for c in family(tool._Draw(1, name), 5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    args = [tool._evaluate(api, a) for a in c.args]
                    reads.clear()
                    api[name](*args)
                except TYPED_ERRORS:
                    continue
            assert len(reads) <= allowed, f"{name} read {len(reads)} arguments: {reads}"
            calls += 1
        assert calls, f"no call of {name} succeeded"
