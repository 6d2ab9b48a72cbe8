"""The stack law as one census: row k of a stacked call is the single call on row k's arguments, bit for bit.

``STACKS`` has a row per public stack mode: the call, a draw of its arguments for n rows (stacked ones ``Rows``)
and the single call a row equals (the call itself by default).  The draws are ``report_digest``'s: n = 1, 3 and
64 rows at 2**k scales, with signed zero and subnormal parts, in C, Fortran and strided layouts; one in four has a
row of its first stacked argument set to one of ``bad``, one in four a NaN or infinite part; ``FIXED`` adds
curated draws.  A stack fails by one rule: a reader rejects its first non-finite row before any gate; then
``transfer`` and ``dissipation_scan`` (rule "loop") raise a row loop's first error, any other stack its first
failing gate's, marking a row whose single call raises that type (an unmarked error, as a time array's or
BlochBasis's, is some row's).  RuntimeWarnings are errors.  ``known`` relaxes the comparison of a row whose law
still breaks; the break must show, so its mend removes it.
"""

import dataclasses
import math
from itertools import permutations
from typing import NamedTuple

import numpy as np
import pytest

from tachys.brachistochrone import minimal_time, transfer
from tachys.dilation import build_dilation, evolve_dilated
from tachys.gates import BlochBasis, discrimination_povm, inconclusive_probability
from tachys.metric import metric_from_sqrt, pseudo_hermiticity_defect, quasi_hamiltonian
from tachys.opendyn import (
    AlignmentError, aligned_hamiltonian, dissipation_scan, dissipative_factor, energy_gap_squared,
    map_boundary_states, revelation_probability, split_generator,
)
from tachys.smallmat import (
    _EP_RADIUS, PAULI_X, PAULI_Z, MetricDegeneracyError, eigvals2, frobenius, is_hermitian, normalize,
    propagator,
)
from support import E0, E1, OUTCOME_ERRORS, bits, bloch, tool

#: seeded draws per row
DRAWS = 16


class Rows(NamedTuple):
    """An argument stacked on its first axis: the stacked call takes it whole, row k's single call its row k."""

    x: np.ndarray


class Stack(NamedTuple):
    """One row: ``fn(*args)`` of a ``draw(d, n)`` has rows ``_take(result, k)`` equal to ``single(*row k's args)``."""

    name: str
    fn: object
    draw: object
    bad: tuple = ()
    single: object = None
    rule: str = "gate"
    known: object = None


def _take(x, k):
    """Row k of a stacked result (``k`` None: a single result), its fields as a dict and its items in turn."""
    if dataclasses.is_dataclass(x):
        return {f.name: _take(getattr(x, f.name), k) for f in dataclasses.fields(x)}
    if isinstance(x, tuple):
        return tuple(_take(item, k) for item in x)
    return x[k] if k is not None and isinstance(x, np.ndarray) and x.ndim else x


def _root(d, n):
    """The parameters f and g of n metric roots [[1, g], [conj g, f]]."""
    f = d.uniform(1.0, 4.0, n)
    return Rows(f), Rows(np.sqrt(f) * d.uniform(0.0, 0.9, n) * np.exp(1j * d.uniform(0.0, 6.3, n)))


def _metric(fn):
    """``fn`` of a metric, called with the metric root's parameters f and g in its place."""
    return lambda f, g, *args: fn(metric_from_sqrt(f, g), *args)


def _scan_row(f, omega, proximity):
    """One dissipation row from the single-metric public calls."""
    if proximity >= f:
        raise ValueError(f"proximity {proximity:.3g} must be smaller than f {f:.3g}")
    m = metric_from_sqrt(f, np.sqrt(f - proximity))
    finite = revelation_probability(m, omega)
    gap_sq = energy_gap_squared(split_generator(aligned_hamiltonian(m, omega, E0, E1).operator).coherent)
    a_prime = map_boundary_states(m, E0, E1)[2]
    return f, dissipative_factor(f), finite, gap_sq, a_prime, (2.0 / omega) * float(np.arccos(np.clip(a_prime, 0, 1)))


#: bad rows: an entry that overflows a result, a metric root diagonal below |offdiag|^2, angles outside (0, pi]
_HUGE, _THIN, _ANGLE_BAD = (1.7e308,), (1e-3,), (0.0, 3.5)

STACKS = [
    Stack("propagator", propagator, lambda d, n: (Rows(d.matrix(n, hermitian=d.rng.random() < 0.5)), Rows(d.times(n)))),
    Stack("propagator.times", propagator, lambda d, n: (d.matrix(), Rows(d.times(n))), _HUGE),
    Stack("eigvals2", eigvals2, lambda d, n: (Rows(d.matrix(n)),), _HUGE),
    # a stack is read in C order whatever its layout (``_stepped``), one matrix in memory order: a row of a
    # Fortran-order stack is the call on its slice's C-order copy, as the slice itself can sum an ulp apart
    Stack("frobenius", frobenius, lambda d, n: (Rows(d.matrix(n, d.pick((2, 4)))),), _HUGE,
          single=lambda m: frobenius(np.ascontiguousarray(m))),
    Stack("is_hermitian", is_hermitian, lambda d, n: (Rows(d.matrix(n, d.pick((2, 4)), d.rng.random() < 0.75)),)),
    Stack("normalize", normalize, lambda d, n: (Rows(d.state(n)),), (0.0,)),
    Stack("minimal_time", minimal_time,
          lambda d, n: (Rows(d.state(n)), d.pick((d.state(), Rows(d.state(n)))), d.uniform(0.1, 5.0)), (0.0,)),
    Stack("transfer", transfer, lambda d, n: (Rows(d.unit(n)), d.uniform(0.1, 5.0)),
          ([0.6, 0.6], [1.0, 0.0], [math.cos(5e-9), -1j * math.sin(5e-9)]), rule="loop"),
    Stack("metric_from_sqrt", metric_from_sqrt, _root, _THIN),
    Stack("quasi_hamiltonian", lambda h, f, g, omega: quasi_hamiltonian(h, metric_from_sqrt(f, g), omega),
          lambda d, n: (Rows((h := d.gapped(n))[0]), *_root(d, n), h[1]), (1.0, [[0.0, 1.0], [0.0, 0.0]])),
    Stack("pseudo_hermiticity_defect", pseudo_hermiticity_defect,
          lambda d, n: (Rows(d.matrix(n)), d.pick((d.positive(), Rows(d.matrix(n)))))),
    Stack("map_boundary_states", _metric(map_boundary_states), lambda d, n: (*_root(d, n), d.state(), d.state()), _THIN),
    Stack("aligned_hamiltonian", _metric(aligned_hamiltonian),
          lambda d, n: (*_root(d, n), d.uniform(0.1, 5.0), d.state(), d.state()), _THIN),
    Stack("revelation_probability", _metric(revelation_probability), lambda d, n: (*_root(d, n), d.uniform(0.5, 2.0)),
          _THIN),
    # ROADMAP item 8: where an entry part is -5e-324, a stacked drift keeps a -0.0 that the single call gives as +0.0
    Stack("split_generator", split_generator, lambda d, n: (Rows(d.matrix(n)),), _HUGE,
          known=lambda split: {**split, "drift": split["drift"] + 0.0}),
    Stack("energy_gap_squared", energy_gap_squared, lambda d, n: (Rows(d.matrix(n, hermitian=True)),), _HUGE),
    Stack("dissipation_scan", dissipation_scan,
          lambda d, n: (Rows(np.linspace(10.0 ** d.uniform(-3.0, 0.0), d.uniform(1.0, 6.0), n)),
                        2.0 ** d.uniform(-1.0, 1.0), 10.0 ** d.uniform(-8.0, -2.0)),
          (1e-9,), single=_scan_row, rule="loop"),
    Stack("discrimination_povm", lambda theta: ((b := BlochBasis(theta)).psi1, b.overlap, discrimination_povm(b)),
          lambda d, n: (Rows(d.uniform(1e-3, math.pi, n)),), _ANGLE_BAD),
    # a stacked POVM with one state, one POVM with a stack of states, or both stacked
    Stack("inconclusive_probability",
          lambda theta, state: inconclusive_probability(discrimination_povm(BlochBasis(theta)), state),
          lambda d, n: d.pick([(Rows(t := d.uniform(1e-3, math.pi, n)), (s := d.state(n))[0]), (t[0], Rows(s)),
                               (Rows(t), Rows(s))]), _ANGLE_BAD),
    Stack("evolve_dilated", evolve_dilated, lambda d, n: (
        build_dilation((h := d.gapped(traceless=True))[0], metric_from_sqrt(*(a.x[0] for a in _root(d, 1))), h[1]),
        d.state(), Rows(d.times(n)))),
]


def _stack(*items):
    return Rows(np.array(items))


#: nilpotent generators, plain and shifted, |r| just below and above the exceptional-point radius, a general
#: generator and its Hermitian part
_NILPOTENT = np.array([[[0, x], [0, 0]] for x in (1.0, -2.5, 1j, 0.3 - 0.7j)])
_GENERAL = np.array([[1.0 + 0.5j, 2.0], [0.5, -1.0j]])
_GENERATORS = np.concatenate([
    _NILPOTENT, _NILPOTENT + 0.7j * np.eye(2), [s * _EP_RADIUS * PAULI_Z for s in (0.5, 0.99, 1.01, 2.0)],
    [0.3 * np.eye(2) + s * _EP_RADIUS * PAULI_X for s in (0.9, 1.1)], [_GENERAL, 0.5 * (_GENERAL + _GENERAL.conj().T)],
])
_ANGLES = np.array([1e-9, 0.5, math.pi])
_GOOD, _MISSED, _UNNORMALIZED = bloch(1.0), bloch(1e-8), 1.5 * bloch(1.0)
#: at proximity 1e-12, f = 1e-13 fails the chain's first gate, 0.05 the metric root's degeneracy, 5.9 the alignment
_TINY, _DEGENERATE, _PARALLEL = 1e-13, 0.05, 5.9

#: curated draws per row, each with the type and row of its stacked call's error (None: it passes, or with "law"
#: the law alone); each row's last is the reader's error, where a row loop would stop at row 0's
FIXED = {
    "propagator": [((Rows(_GENERATORS), Rows(np.linspace(-4.0, 6.0, 16))), None), ((Rows(_GENERATORS[:1]), _stack(0.7)), None)],
    "propagator.times": [((g, Rows(np.linspace(-2.0, 5.0, 257))), None) for g in _GENERATORS[-2:]],
    "transfer": [
        ((_stack(*map(bloch, (math.pi, 2e-9, 1e-10, 1.3))), 1.7), None),
        ((_stack(_GOOD, _MISSED, _UNNORMALIZED), 1.0), (ValueError, 1)),
        ((_stack(_GOOD, _UNNORMALIZED, _MISSED), 1.0), (ValueError, 1)),
        ((_stack(_GOOD, E0, _MISSED), 1.0), (ValueError, 1)),
        ((_stack(_MISSED, [math.nan, 0.0]), 1.0), (ValueError, 1)),
    ],
    "discrimination_povm": [((Rows(_ANGLES),), None)],
    "inconclusive_probability": [((Rows(_ANGLES), E0), None), ((Rows(_ANGLES), Rows(BlochBasis(_ANGLES).psi1)), None),
                                 ((1.1, _stack([1.0, 2.0j], [0.0, 1.0], [3.0, -1.0])), None)],
    "dissipation_scan": [
        ((_stack(_TINY), 1.0, 1e-12), (ValueError, 0)), ((_stack(_DEGENERATE), 1.0, 1e-12), (MetricDegeneracyError, 0)),
        ((_stack(_PARALLEL), 1.0, 1e-12), (AlignmentError, 0)),
        *(((_stack(*fs), 1.0, 1e-12), "law") for r in (2, 3) for fs in permutations((_TINY, _DEGENERATE, _PARALLEL), r)),
        # at proximity 1e-7 f = 1 passes (f = 2.2863... once failed there as a singular metric)
        ((_stack(1.0, _PARALLEL, _TINY), 1.0, 1e-7), (AlignmentError, 1)),
        ((_stack(1.0, 2.286324786324786), 1.0, 1e-7), None),
        ((Rows(np.zeros(0)), 1.0, 1e-6), None),
        ((_stack(_DEGENERATE, math.nan), 1.0, 1e-12), (ValueError, 1)),
    ],
}


def _spoil(d, args, values=()):
    """``args`` with a row of the first stacked argument set to one of ``values``, or with none a part of a row
    of any stacked argument made NaN or infinite."""
    leaves = [a.x for a in args if isinstance(a, Rows)]
    x = leaves[0 if values else int(d.rng.integers(len(leaves)))]
    row = x[(k := int(d.rng.integers(len(x)))) : k + 1]
    if values:
        row[...] = d.pick(values)
    else:
        j, part = int(d.rng.integers(row.size)), d.pick((math.nan, math.inf, -math.inf))
        row.flat[j] = complex(row.flat[j].real, part) if x.dtype.kind == "c" and d.rng.random() < 0.5 else part
    return args


def _check(row: Stack, args):
    """``row``'s law on one draw: "ok", "error", or "known" where only ``known`` lets it hold; and the error.
    ``single(k)`` is row k's single call (None: the stacked call), made only where the law reads it."""
    n = len(next(a.x for a in args if isinstance(a, Rows)))

    def single(k):
        try:
            fn = row.fn if k is None else row.single or row.fn
            return fn(*(a if not isinstance(a, Rows) else a.x if k is None else a.x[k] for a in args)), None
        except OUTCOME_ERRORS as exc:
            return None, exc

    got, error = single(None)
    if error is None:
        assert bits(_take(got, slice(n, None))) == bits(_take(got, slice(0, 0))), f"{row.name}: rows past its {n}"
        tag = "ok"
        for k in range(n):
            want, exc = single(k)
            assert exc is None, f"{row.name}: the stack passes, but row {k}'s call raises {exc!r}"
            have, want = _take(got, k), _take(want, None)
            if bits(have) != bits(want):
                assert row.known and bits(row.known(have)) == bits(row.known(want)), f"{row.name}: row {k} differs"
                tag = "known"
        return tag, None
    mark = getattr(error, "row", None)
    finite = [np.isfinite(a.x.reshape(n, -1)).all(axis=1) for a in args if isinstance(a, Rows)]
    if bad := [int(np.argmin(f)) for f in finite if not f.all()]:
        assert mark == min(bad), f"{row.name}: {error!r} marks row {mark}, not the first non-finite row {min(bad)}"
    elif row.rule == "loop":
        first, want = next((k, exc) for k in range(n) if (exc := single(k)[1]) is not None)
        assert (repr(error), mark) == (repr(want), first), f"{row.name}: {error!r} at {mark}, not {want!r} at {first}"
    if mark is not None:
        assert isinstance(single(mark)[1], type(error)), f"{row.name}: {error!r} marks row {mark}: {single(mark)!r}"
    else:
        assert any(repr(single(k)[1]) == repr(error) for k in range(n)), f"{row.name}: {error!r} is no row's error"
    return "error", error


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row", STACKS, ids=[row.name for row in STACKS])
def test_stack_law(row):
    d, seen = tool("report_digest")._Draw(0, row.name), set()
    for j in range(DRAWS):
        args = row.draw(d, d.n())
        if j % 4 == 1 and row.bad:
            args = _spoil(d, args, row.bad)
        seen.add(_check(row, _spoil(d, args) if j % 4 == 3 else args)[0])
    for args, want in FIXED.get(row.name, ()):
        seen.add((tag := _check(row, args))[0])
        assert want in ("law", tag[1] and (type(tag[1]), tag[1].row)), f"{row.name}: {tag[1]!r}, not {want}"
    assert {"ok", "error"} <= seen, f"{row.name} needs a draw that passes and one that fails, not only {seen}"
    assert ("known" in seen) == bool(row.known), f"{row.name} keeps its law now: remove its known break"
