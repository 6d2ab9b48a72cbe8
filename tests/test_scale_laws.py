"""Scale laws as one census: f(x scaled by 2**k) = 2**(j k) f(x), bit for bit.

A power-of-two scale is exact in floating point, so each law of a public function holds bit for bit
wherever no value leaves the float range.  ``LAWS`` is the table: each row names a public function,
the exponent by which each argument is scaled (1 for 2**k, -1 for 2**-k, 0 unscaled) and the
exponent law j of its result (a number for every number of the result, a dict per dataclass field,
a tuple per item).  Each row draws seeded inputs of size about 1, scales them at every k of ``KS``
with ``np.ldexp``, and compares the scaled call with the law applied to the unscaled result through
``smallmat._ldexp``: the same bits, or, where the law leaves the float range, the same error type
and message.  ``KS`` holds the range step's edges 2**+-252 and the normal floats' 2**+-512 (a square's
edge), and past them; every k is even, as the laws of ``hermitian_sqrt`` and ``metric_from_matrix`` scale
results by 2**(k/2), no power of two at an odd k, so the odd edges 2**+-253 and 2**+-511 are no k here.
``KNOWN`` lists the rows that do not hold yet, each with the item that mends it; such a row must still
fail, so its mend removes it from the list.  The census runs in about 1 s.
"""

import dataclasses
import math
import zlib
from typing import NamedTuple

import numpy as np
import pytest

from tachys.brachistochrone import first_passage_scan, minimal_time, optimal_hamiltonian, transfer
from tachys.dilation import build_dilation, evolve_dilated, visibility_ratio
from tachys.gates import BlochBasis, discrimination_povm, inconclusive_probability
from tachys.metric import (
    metric_angle,
    metric_from_matrix,
    metric_from_sqrt,
    pseudo_hermiticity_defect,
    quasi_hamiltonian,
    state_angle,
)
from tachys.opendyn import (
    aligned_hamiltonian,
    energy_gap_squared,
    evolve_semigroup,
    map_boundary_states,
    revelation_probability,
    shifted_generator,
    split_generator,
)
from tachys.smallmat import (
    _ldexp,
    eigvals2,
    fidelity,
    frobenius,
    hermitian_sqrt,
    is_hermitian,
    normalize,
    propagator,
)
from support import outcome

KS = (-1000, -600, -512, -300, -252, -60, 60, 252, 300, 512, 600, 1000)

#: seeded draws per row, each scaled at every k
DRAWS = 10


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _hermitian(rng, *shape):
    m = _complex(rng, *shape, 2, 2)
    return m + np.conj(np.swapaxes(m, -1, -2))


def _gapped(rng, traceless=False):
    """A Hermitian 2x2 matrix and its gap, the omega it is checked against."""
    h = _hermitian(rng)
    if traceless:
        h = h - 0.5 * np.trace(h) * np.eye(2)
    lo, hi = np.linalg.eigvalsh(h)
    return h, float(hi - lo)


def _positive(rng):
    a = _complex(rng, 2, 2)
    p = a @ a.conj().T + 0.1 * np.eye(2)
    return 0.5 * (p + p.conj().T)


def _metric(rng):
    f = rng.uniform(1.0, 4.0)
    return metric_from_sqrt(f, math.sqrt(f) * rng.uniform(0.0, 0.9) * complex(np.exp(1j * rng.uniform(0.0, 6.3))))


def _unit(rng):
    return normalize(_complex(rng, 2))


def _passage(rng):
    """A Hermitian or metric-Hermitian drive, a state and a target on its orbit at a time in [0, t_max]."""
    h = _hermitian(rng)
    if rng.random() < 0.5:
        s = _metric(rng).sqrt_eta
        h = np.linalg.solve(s, h @ s)
    u, t_max = _complex(rng, 2), rng.uniform(1.0, 10.0)
    return h, u, propagator(h, rng.uniform(0.0, t_max)) @ u, t_max


def _dressing(rng, traceless=False):
    """A Hermitian drive, a metric and the drive's gap omega."""
    h, omega = _gapped(rng, traceless)
    return h, _metric(rng), omega


def _evolve_dilated(h, metric, omega, state, t):
    return evolve_dilated(build_dilation(h, metric, omega), state, t)


class Law(NamedTuple):
    """One row: ``fn(*draw(rng))`` with argument j scaled by 2**(scales[j] k) gives ``law`` of the unscaled result."""

    name: str
    fn: object
    draw: object
    scales: tuple
    law: object


_QUASI = {"h": 1, "operator": 1, "omega": 1}
_DRIVE = {"omega": 1, "shift": 1, "matrix": 1}

LAWS = [
    Law("frobenius", frobenius, lambda r: (_complex(r, *((2, 2), (3, 2, 2), (4, 4))[r.integers(3)]),), (1,), 1),
    Law("is_hermitian", is_hermitian, lambda r: (_hermitian(r) + 1e-9 * r.integers(2) * _complex(r, 2, 2),), (1,), 0),
    Law("eigvals2", eigvals2, lambda r: (_complex(r, *((2, 2), (3, 2, 2))[r.integers(2)]),), (1,), 1),
    Law("normalize", normalize, lambda r: (_complex(r, *((2,), (3, 2))[r.integers(2)]),), (1,), 0),
    Law("fidelity", fidelity, lambda r: (_complex(r, 2), _complex(r, 2)), (1, -1), 0),
    Law("propagator", propagator, lambda r: (_complex(r, 2, 2), r.uniform(0.0, 3.0, 4)), (1, -1), 0),
    Law("hermitian_sqrt", hermitian_sqrt, lambda r: (_positive(r),), (1,), 0.5),
    Law(
        "metric_from_matrix", metric_from_matrix, lambda r: (_positive(r),), (1,),
        {"eta": 1, "sqrt_eta": 0.5, "inv_sqrt_eta": -0.5},
    ),
    Law("state_angle", state_angle, lambda r: (_complex(r, 2), _complex(r, 2)), (1, -1), 0),
    Law("metric_angle", metric_angle, lambda r: (_complex(r, 2), _complex(r, 2), _metric(r)), (1, -1, 0), 0),
    Law(
        "pseudo_hermiticity_defect.operator", pseudo_hermiticity_defect, lambda r: (_complex(r, 2, 2), _positive(r)),
        (1, 0), 1,
    ),
    Law(
        "pseudo_hermiticity_defect.eta", pseudo_hermiticity_defect, lambda r: (_complex(r, 2, 2), _positive(r)),
        (0, 1), 0,
    ),
    Law("quasi_hamiltonian", quasi_hamiltonian, _dressing, (1, 0, 1), _QUASI),
    Law(
        "aligned_hamiltonian.omega", aligned_hamiltonian,
        lambda r: (_metric(r), r.uniform(0.1, 5.0), _complex(r, 2), _complex(r, 2)), (0, 1, 0, 0), _QUASI,
    ),
    Law(
        "aligned_hamiltonian.states", aligned_hamiltonian,
        lambda r: (_metric(r), r.uniform(0.1, 5.0), _complex(r, 2), _complex(r, 2)), (0, 0, 1, -1), 0,
    ),
    Law(
        "map_boundary_states", map_boundary_states, lambda r: (_metric(r), _complex(r, 2), _complex(r, 2)),
        (0, 1, -1), 0,
    ),
    Law("visibility_ratio", visibility_ratio, lambda r: (_metric(r), _complex(r, 2)), (0, 1), 0),
    Law(
        "evolve_semigroup", evolve_semigroup,
        lambda r: (_complex(r, 2, 2), np.diag([1.0, 0.0]).astype(complex), np.sort(r.uniform(0.0, 3.0, 5))),
        (1, 0, -1), {"times": -1},
    ),
    Law("split_generator", split_generator, lambda r: (_complex(r, *((2, 2), (3, 2, 2))[r.integers(2)]),), (1,), 1),
    Law("shifted_generator", shifted_generator, lambda r: (_complex(r, 2, 2),), (1,), 1),
    Law(
        "minimal_time.omega", minimal_time, lambda r: (_complex(r, 2), _complex(r, 2), r.uniform(0.1, 5.0)),
        (0, 0, 1), -1,
    ),
    Law(
        "minimal_time.states", minimal_time, lambda r: (_complex(r, 2), _complex(r, 2), r.uniform(0.1, 5.0)),
        (1, -1, 0), 0,
    ),
    Law("transfer", transfer, lambda r: (_unit(r), r.uniform(0.1, 5.0)), (0, 1), {"tau": -1, "drive": _DRIVE}),
    Law("optimal_hamiltonian", optimal_hamiltonian, lambda r: (_unit(r), r.uniform(0.1, 5.0)), (0, 1), _DRIVE),
    Law(
        "inconclusive_probability", inconclusive_probability,
        lambda r: (discrimination_povm(BlochBasis(r.uniform(0.1, 3.0))), _complex(r, 2)), (0, 1), 0,
    ),
    Law("revelation_probability", revelation_probability, lambda r: (_metric(r), r.uniform(0.5, 2.0)), (0, 1), 0),
    Law(
        "build_dilation", build_dilation, lambda r: _dressing(r, traceless=True), (1, 0, 1),
        {"hamiltonian": 1, "generator": _QUASI, "hermiticity_defect": 1},
    ),
    Law(
        "evolve_dilated", _evolve_dilated,
        lambda r: (*_dressing(r, traceless=True), _complex(r, 2), r.uniform(0.0, 3.0, 3)),
        (1, 0, 1, 0, -1), 0,
    ),
    Law("energy_gap_squared", energy_gap_squared, lambda r: (_hermitian(r),), (1,), 2),
    Law("first_passage_scan", first_passage_scan, _passage, (1, 0, 0, -1), -1),
]

#: rows that do not hold yet, each with the item that mends it
KNOWN = {
    "energy_gap_squared": "item 2: np.linalg.det's LU and exp(log|det|) are not exact under a power-of-two scale",
    "first_passage_scan": "item 25: the closed form's quadratic has coefficients in |n|**3, |n|**2 and |n|",
    "build_dilation": "item 11: at 2**-1000 entries of the dilated generator B fall below the normal floats and round",
    "evolve_dilated": "items 11 and 12: at 2**-1000 its model's B has entries below the normal floats",
}


def _scaled(x, e: int):
    """x 2**e exactly, for a float or a real or complex array; any other argument as it is."""
    if not e or not isinstance(x, (float, np.ndarray)):
        return x
    if isinstance(x, float):
        return float(np.ldexp(x, e))
    a = np.ascontiguousarray(x)
    return np.ldexp(a.view(float), e).view(a.dtype) if a.dtype.kind == "c" else np.ldexp(a, e)


def _apply(law, x, k: int):
    """The law applied to a result: each number times 2**(j k), through ``_ldexp``, field by field."""
    if isinstance(law, dict):
        return {f.name: _apply(law.get(f.name, 0), getattr(x, f.name), k) for f in dataclasses.fields(x)}
    if not law:
        return x
    if dataclasses.is_dataclass(x):
        return {f.name: _apply(law, getattr(x, f.name), k) for f in dataclasses.fields(x)}
    if isinstance(x, tuple):
        return tuple(_apply(law, item, k) for item in x)
    if isinstance(x, (float, complex, np.ndarray)):
        return _ldexp(np.ascontiguousarray(x) if isinstance(x, np.ndarray) else x, int(law * k))
    return x


def _broken(row: Law) -> list:
    """The (draw, k) pairs at which the row's law fails."""
    rng = np.random.default_rng(zlib.crc32(row.name.encode()))
    broken = []
    for j in range(DRAWS):
        args = row.draw(rng)
        want = row.fn(*args)
        for k in KS:
            got = outcome(lambda: row.fn(*(_scaled(a, s * k) for a, s in zip(args, row.scales))))
            if got != outcome(lambda: _apply(row.law, want, k)):
                broken.append((j, k))
    return broken


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row", LAWS, ids=[row.name for row in LAWS])
def test_scale_law(row):
    broken = _broken(row)
    if row.name in KNOWN:
        assert broken, f"{row.name} keeps its law now: remove it from KNOWN ({KNOWN[row.name]})"
    else:
        assert not broken, f"{row.name} breaks its law at (draw, k) {broken}"
