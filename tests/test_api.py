"""The public surface: every export resolves, and every float argument of
every public entry point rejects NaN, infinities and, where it is documented
as positive, zero and negative values with a ValueError (or a subclass)."""

import inspect
import sys

import numpy as np
import pytest

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
    "transition_defect": {
        "times": lambda x: metric.transition_defect([0.0, x, 2.0], [np.eye(2)] * 3, [H] * 3),
    },
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


def test_every_float_parameter_of_a_public_function_is_exercised():
    for name in tachys.__all__:
        fn = getattr(tachys, name)
        if not inspect.isfunction(fn):
            continue
        params = inspect.signature(fn).parameters.values()
        floats = {p.name for p in params if p.annotation in ("float", "float | None")}
        assert floats <= set(CALLS.get(name, ())), name


def test_every_export_resolves_and_comes_from_its_module_exports():
    for module in (*MODULES, tachys):
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__
    for name in tachys.__all__:
        home = sys.modules[getattr(tachys, name).__module__]
        assert name in home.__all__, (name, home.__name__)
