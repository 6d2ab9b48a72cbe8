"""The public surface: every export resolves to its home module's object
(``import tachys`` loads ``smallmat`` only, the rest on first use), every
float argument of every public entry point rejects NaN, infinities and,
where it is documented as positive, zero and negative values with a
ValueError (or a subclass), and every integer argument rejects NaN,
infinities, non-integral and out-of-domain values the same way.  Every
real-valued argument rejects a complex value, a complex array and a string
with a TypeError naming it; one of more array dimensions than it takes
raises a ValueError naming the shape (a TypeError naming the argument where
it takes a single number).  Numeric arguments are coerced to float at one
site, ``smallmat._reals``.  Every matrix, state or complex argument rejects
a str array, a str and an object array with a TypeError, and is coerced to
complex at one site, ``smallmat._numeric``.  One pass over the package's syntax
trees (``_census``) finds every listed kind of call site, and every matrix product
is ``smallmat._matmul``."""

import ast
import collections
import dataclasses
import functools
import inspect
import pathlib
import sys
import textwrap

import numpy as np
import pytest
from support import fresh_python

import tachys
from tachys import brachistochrone, dilation, gates, metric, opendyn, smallmat

MODULES = (smallmat, brachistochrone, metric, opendyn, dilation, gates)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
H = 0.5 * smallmat.PAULI_X
RHO0 = np.diag([1.0, 0.0]).astype(complex)
METRIC = metric.metric_from_sqrt(2.0, 1.0)
MODEL = dilation.build_dilation(H, metric.diag_metric(2.0), 1.0)
BASIS = gates.BlochBasis(1.0)

#: public entry point -> float argument -> call with that argument set to x
#: and every other argument valid; each call succeeds at x = 1.0
CALLS = {
    "BlochBasis": {"theta": lambda x: gates.BlochBasis(x)},
    "aligned_hamiltonian": {"omega": lambda x: opendyn.aligned_hamiltonian(METRIC, x, E0, E1)},
    "build_dilation": {"omega": lambda x: dilation.build_dilation(H, METRIC, x)},
    "control_u_channel": {"e_basis_polar": lambda x: gates.control_u_channel(BASIS, x)},
    "diag_metric": {"scale": lambda x: metric.diag_metric(x)},
    "dissipation_scan": {
        "f_grid": lambda x: opendyn.dissipation_scan([2.0, x], 1.0),
        "omega": lambda x: opendyn.dissipation_scan([2.0], x),
        "proximity": lambda x: opendyn.dissipation_scan([2.0], 1.0, x),
    },
    "dissipative_factor": {"f": lambda x: opendyn.dissipative_factor(x)},
    "efficiency_bound": {"omega": lambda x: gates.efficiency_bound(BASIS, x)},
    "evolve_dilated": {"t": lambda x: dilation.evolve_dilated(MODEL, E0, x)},
    "evolve_semigroup": {"times": lambda x: opendyn.evolve_semigroup(H, RHO0, [0.0, x])},
    "first_passage_scan": {"t_max": lambda x: brachistochrone.first_passage_scan(H, E0, E1, x)},
    "metric_from_sqrt": {
        "diag": lambda x: metric.metric_from_sqrt(x, 0.5),
        "offdiag": lambda x: metric.metric_from_sqrt(2.0, x),
    },
    "minimal_time": {"omega": lambda x: brachistochrone.minimal_time(E0, E1, x)},
    "not_gate_roundtrip": {"omega": lambda x: gates.not_gate_roundtrip(BASIS, x)},
    "optimal_hamiltonian": {"omega": lambda x: brachistochrone.optimal_hamiltonian(E1, x)},
    "propagator": {"t": lambda x: smallmat.propagator(H, x)},
    "quasi_hamiltonian": {"omega": lambda x: metric.quasi_hamiltonian(H, METRIC, x)},
    "revelation_probability": {"omega": lambda x: opendyn.revelation_probability(METRIC, x)},
    "transfer": {"omega": lambda x: brachistochrone.transfer(E1, x)},
}

#: arguments documented as positive
POSITIVE = {"omega", "t_max", "scale", "f", "f_grid", "proximity"}


@pytest.mark.parametrize(
    "name, arg",
    [pytest.param(name, arg, id=f"{name}-{arg}") for name, args in CALLS.items() for arg in args],
)
def test_float_arguments_reject_non_finite_and_out_of_domain_values(name, arg):
    call = CALLS[name][arg]
    call(1.0)
    bad_values = [np.nan, np.inf, -np.inf] + ([0.0, -1.0] if arg in POSITIVE else [])
    for bad in bad_values:
        with pytest.raises(ValueError):
            call(bad)


#: public entry point -> integer argument -> call with that argument set to x;
#: each call succeeds at x = 1000
INT_CALLS = {
    "first_passage_scan": {
        "steps": lambda x: brachistochrone.first_passage_scan(H, E0, E1, 1.0, steps=x),
    },
}

#: values every integer argument rejects: non-finite, non-integral, too small
BAD_INTS = {"steps": [np.nan, np.inf, -np.inf, 999, 1000.5]}


@pytest.mark.parametrize(
    "name, arg",
    [pytest.param(name, arg, id=f"{name}-{arg}") for name, args in INT_CALLS.items() for arg in args],
)
def test_integer_arguments_reject_non_finite_non_integral_and_out_of_domain_values(name, arg):
    call = INT_CALLS[name][arg]
    call(1000)
    call(1000.0)
    call(np.int64(1000))
    for bad in BAD_INTS[arg]:
        with pytest.raises(ValueError):
            call(bad)


#: public entry point -> call with an argument of more array dimensions than
#: it takes: a theta grid of two dimensions, a (3, 3) grid of times, a basis
#: of an angle array (even of one angle) where one angle is documented, or a
#: matrix that is neither square nor an (n, k, k) stack of square matrices
SHAPE_CALLS = {
    **{
        f"{fn.__name__}-{'x'.join(map(str, shape)) or 'scalar'}": (lambda fn=fn, shape=shape: fn(np.ones(shape)))
        for fn in (smallmat.frobenius, smallmat.is_hermitian)
        for shape in ((), (3,), (2, 3), (2, 2, 2, 2))
    },
    "BlochBasis": lambda: gates.BlochBasis(np.ones((2, 2))),
    "cloning_defect": lambda: gates.cloning_defect(gates.BlochBasis([1.0])),
    "control_u_channel": lambda: gates.control_u_channel(gates.BlochBasis([1.0, 2.0, 3.0]), 1.0),
    "efficiency_bound": lambda: gates.efficiency_bound(gates.BlochBasis([1.0]), 1.0),
    "evolve_semigroup": lambda: opendyn.evolve_semigroup(H, RHO0, np.zeros((3, 3))),
    # the single-state entry points take no (3, 2) stack of states
    "fidelity": lambda: smallmat.fidelity(np.ones((3, 2)), E1),
    "metric_angle": lambda: metric.metric_angle(E0, np.ones((3, 2)), METRIC),
    "state_angle": lambda: metric.state_angle(np.ones((3, 2)), E1),
    "visibility_ratio": lambda: dilation.visibility_ratio(METRIC, np.ones((3, 2))),
    "not_gate_roundtrip": lambda: gates.not_gate_roundtrip(gates.BlochBasis([1.0, 2.0, 3.0]), 1.0),
}


@pytest.mark.parametrize("name", sorted(SHAPE_CALLS))
def test_extra_array_dimensions_raise_a_value_error_naming_the_shape(name):
    with pytest.raises(ValueError, match=r"got (theta of )?shape \("):
        SHAPE_CALLS[name]()


#: public entry point -> (call pairing a stack of 2 with a stack of 3, the
#: names of the two arguments): each raises a ValueError naming both, where
#: numpy's broadcast error named neither
PAIRED_CALLS = {
    "minimal_time": (lambda: brachistochrone.minimal_time([E0, E1], [E0, E1, E0], 1.0), "initial", "final"),
    "metric_from_sqrt": (lambda: metric.metric_from_sqrt([2.0, 3.0], [0.5, 0.5, 0.5]), "diag", "offdiag"),
    "quasi_hamiltonian": (
        lambda: metric.quasi_hamiltonian([H, H], metric.metric_from_sqrt([2.0] * 3, 0.5), 1.0), "h", "metric"
    ),
    "pseudo_hermiticity_defect": (
        lambda: metric.pseudo_hermiticity_defect([H, H], metric.metric_from_sqrt([2.0] * 3, 0.5).eta), "operator", "eta"
    ),
    "inconclusive_probability": (
        lambda: gates.inconclusive_probability(gates.discrimination_povm(gates.BlochBasis([1.0, 2.0])), [E0] * 3),
        "povm",
        "state",
    ),
}


@pytest.mark.parametrize("name", sorted(PAIRED_CALLS))
def test_paired_stacks_of_two_lengths_raise_a_value_error_naming_both(name):
    call, first, second = PAIRED_CALLS[name]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"{first} and {second} must be stacks of one length, got 2 and 3"


#: every real-valued argument of CALLS (``offdiag`` is complex) -> call with
#: that argument set to x, a grid passed whole
REAL_CALLS = {
    **{(name, arg): call for name, args in CALLS.items() for arg, call in args.items() if arg != "offdiag"},
    ("dissipation_scan", "f_grid"): lambda x: opendyn.dissipation_scan(x, 1.0),
    ("evolve_semigroup", "times"): lambda x: opendyn.evolve_semigroup(H, RHO0, x),
}

#: the real arguments that take a scalar or a 1-d grid; the others take one number
GRIDS = {"theta", "t", "times", "f_grid", "diag"}

#: the readers of a real argument: ``reader(label, x)`` marks the parameter x real
READERS = {"_reals", "positive_finite"}


def _real_parameters(fn) -> set:
    """The real parameters of a public function or dataclass: annotated
    ``float`` (a function's), or handed, as ``x`` or ``self.x``, to a reader
    or to a public function in the place of one of its real parameters."""
    params = inspect.signature(fn).parameters
    real = set()
    if inspect.isfunction(fn):
        real = {p.name for p in params.values() if p.annotation in ("float", "float | None")}
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        callee = getattr(node, "func", None)
        callee = getattr(callee, "id", getattr(callee, "attr", None))
        if callee in READERS:
            values = node.args[1:2]
        elif callee in tachys.__all__ and inspect.isfunction(getattr(tachys, callee)):
            inner = getattr(tachys, callee)
            taken = _real_parameters(inner)
            values = [a for a, p in zip(node.args, inspect.signature(inner).parameters) if p in taken]
            values += [k.value for k in node.keywords if k.arg in taken]
        else:
            continue
        real |= {getattr(v, "id", getattr(v, "attr", None)) for v in values} & set(params)
    return real


def test_every_float_parameter_of_a_public_function_is_exercised():
    found = set()
    for name in tachys.__all__:
        fn = getattr(tachys, name)
        if inspect.isfunction(fn) or dataclasses.is_dataclass(fn):
            found |= {(name, arg) for arg in _real_parameters(fn)}
        if inspect.isfunction(fn):
            params = inspect.signature(fn).parameters.values()
            ints = {p.name for p in params if p.annotation in ("int", "int | None")}
            assert ints <= set(INT_CALLS.get(name, ())), name
    # t, times, f_grid, diag and theta carry no float annotation: their reader marks them
    assert found == set(REAL_CALLS)


@pytest.mark.parametrize("name, arg", sorted(REAL_CALLS), ids=[f"{n}-{a}" for n, a in sorted(REAL_CALLS)])
def test_real_arguments_reject_complex_and_str_values_and_extra_dimensions(name, arg):
    call = REAL_CALLS[name, arg]
    call(np.array([1.0, 2.0, 3.0]) if arg in GRIDS else 1.0)
    for bad in (np.array([1.0, 2.0, 3.0], dtype=complex), 1.0 + 0.0j, np.complex128(1.0), "1.0", "nan"):
        with pytest.raises(TypeError, match=rf"\b{arg} must be"):
            call(bad)
    if arg in GRIDS:
        with pytest.raises(ValueError, match=rf"\b{arg} must be a scalar or a 1-d array, got shape \(3, 3\)"):
            call(np.ones((3, 3)))
    elif arg == "e_basis_polar":
        with pytest.raises(ValueError, match=r"\be_basis_polar must be a single angle, got shape \(1,\)"):
            call([1.0])
    else:
        for bad in (np.ones(1), np.ones((3, 3))):
            with pytest.raises(TypeError, match=rf"\b{arg} must be"):
                call(bad)


def test_integer_arguments_reject_str_complex_and_array_values():
    for bad in ("2000", 2000.0 + 0.0j, np.array([2000])):
        with pytest.raises(TypeError, match="steps must be"):
            INT_CALLS["first_passage_scan"]["steps"](bad)


POVM = gates.discrimination_povm(BASIS)
ETA = METRIC.eta

#: (public entry point, matrix, state or complex argument) -> (call with that
#: argument set to x and every other argument valid, a value it accepts)
NUMERIC_CALLS = {
    ("aligned_hamiltonian", "final"): (lambda x: opendyn.aligned_hamiltonian(METRIC, 1.0, E0, x), E1),
    ("aligned_hamiltonian", "initial"): (lambda x: opendyn.aligned_hamiltonian(METRIC, 1.0, x, E1), E0),
    ("as_operator", "mat"): (smallmat.as_operator, H),
    ("as_state", "vec"): (smallmat.as_state, E0),
    ("build_dilation", "h"): (lambda x: dilation.build_dilation(x, metric.diag_metric(2.0), 1.0), H),
    ("eigvals2", "mat"): (smallmat.eigvals2, H),
    ("energy_gap_squared", "hermitian_part"): (opendyn.energy_gap_squared, H),
    ("evolve_dilated", "initial"): (lambda x: dilation.evolve_dilated(MODEL, x, 1.0), E0),
    ("evolve_semigroup", "ham"): (lambda x: opendyn.evolve_semigroup(x, RHO0, [0.0, 1.0]), H),
    ("evolve_semigroup", "rho0"): (lambda x: opendyn.evolve_semigroup(H, x, [0.0, 1.0]), RHO0),
    ("fidelity", "u"): (lambda x: smallmat.fidelity(x, E1), E0),
    ("fidelity", "v"): (lambda x: smallmat.fidelity(E0, x), E1),
    ("first_passage_scan", "final"): (lambda x: brachistochrone.first_passage_scan(H, E0, x, 5.0), E1),
    ("first_passage_scan", "ham"): (lambda x: brachistochrone.first_passage_scan(x, E0, E1, 5.0), H),
    ("first_passage_scan", "initial"): (lambda x: brachistochrone.first_passage_scan(H, x, E1, 5.0), E0),
    ("frobenius", "mat"): (smallmat.frobenius, H),
    ("hermitian_sqrt", "mat"): (smallmat.hermitian_sqrt, ETA),
    ("inconclusive_probability", "state"): (lambda x: gates.inconclusive_probability(POVM, x), E0),
    ("is_hermitian", "mat"): (smallmat.is_hermitian, H),
    ("map_boundary_states", "final"): (lambda x: opendyn.map_boundary_states(METRIC, E0, x), E1),
    ("map_boundary_states", "initial"): (lambda x: opendyn.map_boundary_states(METRIC, x, E1), E0),
    ("metric_angle", "u"): (lambda x: metric.metric_angle(x, E1, METRIC), E0),
    ("metric_angle", "v"): (lambda x: metric.metric_angle(E0, x, METRIC), E1),
    ("metric_from_matrix", "eta"): (metric.metric_from_matrix, ETA),
    ("metric_from_sqrt", "offdiag"): (lambda x: metric.metric_from_sqrt(2.0, x), 0.5),
    ("minimal_time", "final"): (lambda x: brachistochrone.minimal_time(E0, x, 1.0), E1),
    ("minimal_time", "initial"): (lambda x: brachistochrone.minimal_time(x, E1, 1.0), E0),
    ("normalize", "vec"): (smallmat.normalize, E0),
    ("optimal_hamiltonian", "target"): (lambda x: brachistochrone.optimal_hamiltonian(x, 1.0), E1),
    ("propagator", "ham"): (lambda x: smallmat.propagator(x, 1.0), H),
    ("pseudo_hermiticity_defect", "eta"): (lambda x: metric.pseudo_hermiticity_defect(H, x), ETA),
    ("pseudo_hermiticity_defect", "operator"): (lambda x: metric.pseudo_hermiticity_defect(x, ETA), H),
    ("quasi_hamiltonian", "h"): (lambda x: metric.quasi_hamiltonian(x, METRIC, 1.0), H),
    ("shifted_generator", "ham"): (opendyn.shifted_generator, H),
    ("split_generator", "ham"): (opendyn.split_generator, H),
    ("state_angle", "u"): (lambda x: metric.state_angle(x, E1), E0),
    ("state_angle", "v"): (lambda x: metric.state_angle(E0, x), E1),
    ("transfer", "target"): (lambda x: brachistochrone.transfer(x, 1.0), E1),
    ("visibility_ratio", "state"): (lambda x: dilation.visibility_ratio(METRIC, x), E1),
}


def _with_none(value):
    """``value`` as an object array, its first entry None."""
    bad = np.array(value, dtype=object)
    bad.flat[0] = None
    return bad


@pytest.mark.parametrize("name, arg", sorted(NUMERIC_CALLS), ids=[f"{n}-{a}" for n, a in sorted(NUMERIC_CALLS)])
def test_matrix_state_and_complex_arguments_reject_non_numeric_values(name, arg):
    call, good = NUMERIC_CALLS[name, arg]
    call(good)
    what = "offdiag" if arg == "offdiag" else "(matrix|state)"
    # numeric strings, which numpy's complex cast would parse, and None, which it reads as nan
    for bad in (np.asarray(good).astype(str), "1", _with_none(good)):
        with pytest.raises(TypeError, match=rf"^{what} must be numeric, got dtype (<U|object)"):
            call(bad)


def test_offdiag_of_two_dimensions_raises_a_value_error_naming_the_shape():
    with pytest.raises(ValueError, match=r"^offdiag must be a scalar or a 1-d array, got shape \(2, 2\)$"):
        metric.metric_from_sqrt(2.0, [[0.5, 0.5], [0.5, 0.5]])


def test_every_export_resolves_and_comes_from_its_module_exports():
    for module in (*MODULES, tachys):
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__
    for name in tachys.__all__:
        home = sys.modules[getattr(tachys, name).__module__]
        assert name in home.__all__, (name, home.__name__)
        # the package resolves each export on first use to its home's object
        assert [m for m in MODULES if name in m.__all__] == [home], name
        assert getattr(tachys, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tachys.no_such_name


def test_import_tachys_loads_smallmat_only():
    code = "import sys, tachys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'tachys'))"
    proc = fresh_python("-W", "error::RuntimeWarning", "-c", code)
    assert proc.returncode == 0 and proc.stdout.split() == ["tachys", "tachys.smallmat"], proc.stderr


def test_star_import_and_dir_list_every_export_before_any_is_loaded():
    code = (
        "import tachys; listed = set(dir(tachys)); ns = {}; exec('from tachys import *', ns); "
        "names = set(tachys.__all__); "
        "print(sorted(names - listed), sorted(names ^ (set(ns) - {'__builtins__'})))"
    )
    proc = fresh_python("-W", "error::RuntimeWarning", "-c", code)
    assert proc.returncode == 0 and proc.stdout.strip() == "[] []", proc.stderr


def test_dir_lists_every_export_sorted():
    listed = dir(tachys)
    assert listed == sorted(listed) and set(tachys.__all__) <= set(listed)


def test_runtime_imports_numpy_only():
    # tachys promises a numpy-only runtime; the test oracles must not leak
    # into it.  The package loads its modules on first use, so each is named
    code = (
        "import sys, tachys, tachys.cli, tachys.smallmat, tachys.brachistochrone, tachys.metric, "
        "tachys.opendyn, tachys.dilation, tachys.gates; print(' '.join(sys.modules))"
    )
    proc = fresh_python("-W", "error::RuntimeWarning", "-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert "numpy" in loaded
    assert loaded & {"scipy", "mpmath", "sympy", "hypothesis", "pytest"} == set()


#: every numpy.linalg call site of the package, as (module, top-level
#: function or class, linalg name); a new site must be added here on purpose
LINALG_SITES = {
    ("dilation", "build_dilation", "det"),
    ("gates", "Povm", "eigvalsh"),
    ("gates", "Povm", "norm"),
    ("metric", "_metric_from_matrix", "inv"),
    ("opendyn", "_energy_gap_squared", "det"),
    ("smallmat", "_eigh", "eigh"),
    ("smallmat", "_norm", "norm"),
}

#: numpy functions whose last bits depend on the host: on the SIMD loops numpy
#: dispatches to on the host CPU (ROADMAP item 8), and for cos and sin on
#: whether glibc's libm takes its FMA or its non-FMA variants (item 16)
HOST_SENSITIVE = {
    "arccos", "arcsin", "arctan", "arctan2", "angle", "cos", "cosh", "exp", "expm1", "log", "sin", "sinh", "tan",
}

#: every ``np.<name>`` call site of the package for a name in HOST_SENSITIVE,
#: as (module, top-level function or class, name): each name has one owner in
#: smallmat, which every other module calls
HOST_SENSITIVE_SITES = {
    ("smallmat", "_angle", "arccos"),
    ("smallmat", "_arg", "angle"),
    ("smallmat", "_asin", "arcsin"),
    ("smallmat", "_cos_sin", "cos"),
    ("smallmat", "_cos_sin", "sin"),
    ("smallmat", "_damped_factors", "log"),
    ("smallmat", "_damped_sinh_cosh", "expm1"),
    ("smallmat", "_exp", "exp"),
    ("smallmat", "_tan", "tan"),
}


#: the package's float coercions, ``COERCIONS`` calls with a float dtype,
#: as (module, top-level function): the reader of every real argument,
#: the circle state of an angle it has read, and the report columns
FLOAT_COERCION_SITES = [("cli", "_render"), ("gates", "_circle_state"), ("smallmat", "_reals")]

FLOAT_DTYPES = {"float", "np.float64", "np.double", "'float'", "'float64'", "'f8'"}


#: the package's complex coercions, as above: ``_numeric``, the reader of
#: every matrix, state or complex argument, ``Metric``'s read of its fields
#: as it is built, and constants and states the package builds itself
COMPLEX_COERCION_SITES = [
    ("cli", "_cmd_dilation"),
    ("cli", "_cmd_dilation"),
    ("dilation", "build_dilation"),
    ("gates", "BlochBasis"),
    ("gates", "discrimination_povm"),
    ("metric", "Metric"),
    ("opendyn", "_semigroup_basis"),
    ("opendyn", "_scan_columns"),
    *[("smallmat", "<module>")] * 5,
    ("smallmat", "_numeric"),
]

COMPLEX_DTYPES = {"complex", "np.complex128", "np.cdouble", "'complex'", "'complex128'", "'c16'"}


#: math and cmath functions whose last bits come from the host's libm: glibc
#: changes cos, sin, acos, atan2 and exp with its FMA switch (ROADMAP item 16)
LIBM = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "cbrt", "cos", "cosh", "erf", "erfc", "exp", "exp2",
    "expm1", "gamma", "lgamma", "log", "log10", "log1p", "log2", "pow", "sin", "sinh", "tan", "tanh",
}

#: every ``math.<name>`` or ``cmath.<name>`` site of the package for a name in
#: LIBM, as (module, top-level function, library, name); a new site must be
#: added here on purpose (ROADMAP items 8 and 16)
LIBM_SITES = {
    ("brachistochrone", "_real_spectrum_passage", "math", "atan2"),
    ("brachistochrone", "_real_spectrum_passage", "math", "cos"),
    ("brachistochrone", "_real_spectrum_passage", "math", "sin"),
    ("smallmat", "_pow2", "math", "pow"),
}


#: the numpy names that multiply matrices; with ``@``, each is a product site
PRODUCTS = {"matmul", "dot", "einsum", "inner", "tensordot"}

#: the calls that coerce to a dtype: the position of their dtype argument
COERCIONS = {"array": 1, "asarray": 1, "ascontiguousarray": 1, "astype": 0}


def _site_kinds(node):
    """(kind, *name) of each site ``node`` is: a "linalg" name (an import of numpy.linalg
    as "import"), a "sensitive" numpy name, a "libm" (library, name), a complex dot
    ("vdot"), a "product" (``@`` or a PRODUCTS name) or a "float" or "complex" coercion."""
    names = []
    if isinstance(node, ast.Attribute):
        base, names = getattr(node.value, "id", None), [node.attr]
        if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
            yield "linalg", node.attr
        elif base in ("np", "numpy") and node.attr in HOST_SENSITIVE:
            yield "sensitive", node.attr
        elif base in ("math", "cmath") and node.attr in LIBM:
            yield "libm", base, node.attr
    elif isinstance(node, ast.ImportFrom):
        names = [a.name for a in node.names]
        if node.module == "numpy.linalg" or (node.module == "numpy" and "linalg" in names):
            yield "linalg", "import"
        for name in names:
            if node.module == "numpy" and name in HOST_SENSITIVE:
                yield "sensitive", name
            elif node.module in ("math", "cmath") and name in LIBM:
                yield "libm", node.module, name
    elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.linalg") for a in node.names):
        yield "linalg", "import"
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        yield "product", "@"
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in COERCIONS:
        at = COERCIONS[node.func.attr]
        dtypes = {ast.unparse(d) for d in node.args[at : at + 1] + [k.value for k in node.keywords if k.arg == "dtype"]}
        if dtypes & FLOAT_DTYPES:
            yield ("float",)
        if dtypes & COMPLEX_DTYPES:
            yield ("complex",)
    if "vdot" in names:
        yield ("vdot",)
    yield from (("product", name) for name in names if name in PRODUCTS)


@functools.cache
def _census() -> dict:
    """kind -> [(module, top-level function or class, *name)] of every site of ``_site_kinds``
    in the package, in source order: one pass, each module parsed once."""
    sites = collections.defaultdict(list)
    for path in sorted(pathlib.Path(tachys.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                for kind, *name in _site_kinds(node):
                    sites[kind].append((path.stem, getattr(top, "name", "<module>"), *name))
    return sites


def test_numpy_linalg_is_called_only_at_the_listed_sites():
    assert set(_census()["linalg"]) == LINALG_SITES


def test_host_sensitive_numpy_calls_are_only_at_the_listed_sites():
    assert set(_census()["sensitive"]) == HOST_SENSITIVE_SITES


def test_eigh_has_one_site():
    # the square root, the flat eigenbasis and the dilated generator share one stepped eigh
    assert [site for site in _census()["linalg"] if site[2] == "eigh"] == [("smallmat", "_eigh", "eigh")]


def test_each_host_sensitive_name_has_one_site():
    # one owner per function, so a host-independent version replaces one site
    counts = collections.Counter(name for _, _, name in set(_census()["sensitive"]))
    assert {name: n for name, n in counts.items() if n != 1} == {}


def test_libm_calls_are_only_at_the_listed_sites():
    assert set(_census()["libm"]) == LIBM_SITES


def test_complex_dot_is_only_smallmat_vdots():
    # every complex dot of the package goes through smallmat._vdots
    assert _census()["vdot"] == [("smallmat", "_vdots")]


def test_every_matrix_product_is_smallmat_matmul():
    # one owner, so a host-independent product replaces one function body (ROADMAP item 23)
    products = _census()["product"]
    outside = sorted({site[:2] for site in products} - {("smallmat", "_matmul")})
    assert not outside, f"matrix products outside smallmat._matmul: {outside}"
    assert ("smallmat", "_matmul", "matmul") in products


def test_real_arguments_are_coerced_only_by_the_reader():
    assert _census()["float"] == FLOAT_COERCION_SITES


def test_matrix_and_state_arguments_are_coerced_only_by_the_reader():
    assert _census()["complex"] == COMPLEX_COERCION_SITES
