"""Time-optimal qubit dynamics under Hermitian, metric-deformed, and open drives.

``import tachys`` loads ``smallmat`` only; every other export is imported
from its home module on first access and then kept here.
"""

import importlib

from .smallmat import MetricDegeneracyError, fidelity, propagator

__version__ = "0.1.0"

#: home module -> the exports it provides, resolved by ``__getattr__``
_LAZY = {
    "brachistochrone": ("BrachistochroneResult", "OptimalHamiltonianSpec", "first_passage_scan",
                        "minimal_time", "optimal_hamiltonian", "transfer"),
    "dilation": ("DilationModel", "build_dilation", "evolve_dilated", "visibility_ratio"),
    "gates": ("BlochBasis", "ControlUReport", "DegenerateBasisError", "EfficiencyReport",
              "NotGateReport", "Povm", "cloning_defect", "control_u_channel", "discrimination_povm",
              "efficiency_bound", "inconclusive_probability", "not_gate_roundtrip"),
    "metric": ("Metric", "QuasiHamiltonian", "diag_metric", "metric_angle", "metric_from_matrix",
               "metric_from_sqrt", "pseudo_hermiticity_defect", "quasi_hamiltonian", "state_angle"),
    "opendyn": ("AlignmentError", "EvolutionTrace", "OpenSplit", "aligned_hamiltonian",
                "dissipation_scan", "dissipative_factor", "energy_gap_squared", "evolve_semigroup",
                "map_boundary_states", "revelation_probability", "shifted_generator",
                "split_generator"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["MetricDegeneracyError", "fidelity", "propagator", *_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

