"""Non-Hermitian open dynamics: trace motion, shifts, aligned drives."""

import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from tachys import opendyn, smallmat
from tachys.metric import metric_from_matrix, metric_from_sqrt, pseudo_hermiticity_defect, quasi_hamiltonian
from tachys.opendyn import (
    AlignmentError,
    aligned_hamiltonian,
    dissipation_scan,
    dissipative_factor,
    energy_gap_squared,
    evolve_semigroup,
    map_boundary_states,
    revelation_probability,
    shifted_generator,
    split_generator,
)
from tachys.smallmat import PAULI_X, PAULI_Y, PAULI_Z, dagger, is_hermitian, propagator
from support import E0, E1, Spy, counted, hex_array, rule_boundary_drive

EXP_MINUS_2 = 0.1353352832366127  # e^-2

GENERATOR = np.array([[1.0 + 0.5j, 2.0], [0.5, -1.0j]], dtype=complex)


#: a grid of four blocks of 12,293 and 12,290 samples, past three boundaries
LONG = 3 * opendyn._BLOCK + 17


def _block_edges(n):
    """The block boundaries ``evolve_semigroup`` uses for ``n`` samples."""
    size = -(-n // -(-n // opendyn._BLOCK))
    return list(range(0, n, size)) + [n]


# ------------------------------------------------------------ generator split


def test_split_generator_frozen_example():
    s = split_generator(GENERATOR)
    assert np.allclose(s.coherent, np.array([[1.0, 1.25], [1.25, 0.0]]))
    assert np.allclose(s.drift, np.array([[0.5, -0.75j], [0.75j, -1.0]]))
    assert s.rate_max == pytest.approx(0.8106601717798212, abs=1e-14)
    assert s.rate_min == pytest.approx(-1.3106601717798214, abs=1e-14)


def test_split_generator_reassembles():
    s = split_generator(GENERATOR)
    assert np.allclose(s.coherent + 1j * s.drift, GENERATOR, atol=1e-15)
    assert is_hermitian(s.coherent) and is_hermitian(s.drift)


def test_split_of_hermitian_has_zero_drift():
    s = split_generator(PAULI_X)
    assert np.linalg.norm(s.drift) == 0.0
    assert s.rate_max == s.rate_min == 0.0


# ------------------------------------------------------------ semigroup runs


def _dressed_half_gap(f=2.0, g=1.0):
    return quasi_hamiltonian(0.5 * PAULI_X, metric_from_sqrt(f, g), 1.0)


def test_evolve_semigroup_hermitian_keeps_trace():
    rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
    trace = evolve_semigroup(0.5 * PAULI_X, rho0, np.linspace(0.0, 6.0, 61))
    assert np.max(np.abs(trace.trace_values - 1.0)) < 1e-12
    assert np.allclose(trace.k_values, 1.0)


def test_evolve_semigroup_trace_rate_matches_drift_coupling():
    # d(Tr rho)/dt = 2 Tr(drift rho), checked by central differences
    op = _dressed_half_gap().operator
    rho0 = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]], dtype=complex)
    ts = np.linspace(0.0, 2.0 * np.pi, 8001)
    trace = evolve_semigroup(op, rho0, ts)
    drift = split_generator(op).drift
    analytic = 2.0 * np.real(np.trace(drift @ trace.rhos, axis1=1, axis2=2))
    numeric = np.gradient(trace.trace_values, ts)
    assert np.max(np.abs(numeric[2:-2] - analytic[2:-2])) < 1e-5


def test_evolve_semigroup_trace_crosses_one_both_ways():
    op = _dressed_half_gap().operator
    rho0 = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
    trace = evolve_semigroup(op, rho0, np.linspace(0.0, 2.0 * np.pi, 801))
    assert trace.trace_values.max() > 1.0 + 1e-6
    assert trace.trace_values.min() < 1.0 - 1e-6


def test_evolve_semigroup_k_relation_ties_shifted_run():
    op = _dressed_half_gap().operator
    shifted, rate = shifted_generator(op)
    rho0 = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
    ts = np.linspace(0.0, 5.0, 101)
    plain = evolve_semigroup(op, rho0, ts)
    damped = evolve_semigroup(shifted, rho0, ts)
    assert np.allclose(plain.k_values, np.exp(-2.0 * rate * ts))
    # rho_shifted(t) = k(t) * rho(t), entry by entry
    gap = np.max(np.abs(damped.rhos - plain.k_values[:, None, None] * plain.rhos))
    assert gap < 1e-12


@pytest.mark.parametrize("ratio", [1.0, 1.0 - 1e-12], ids=["at_ep", "near_ep"])
def test_evolve_semigroup_matches_expm_at_pt_exceptional_point(ratio):
    # [[i gamma, s], [s, -i gamma]] is defective at gamma = s and nearly so
    # just below it, where an eigenbasis is ill-conditioned
    s = 0.7
    ham = np.array([[1j * ratio * s, s], [s, -1j * ratio * s]])
    rho0 = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    ts = np.linspace(0.0, 4.0, 2001)
    trace = evolve_semigroup(ham, rho0, ts)
    for j in range(0, ts.size, 100):
        u = scipy.linalg.expm(-1j * ts[j] * ham)
        want = u @ rho0 @ dagger(u)
        assert np.linalg.norm(trace.rhos[j] - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def _generator_family(rng):
    """Hermitian, general non-Hermitian (complex r), metric-Hermitian,
    trace-shifted and exceptional-point generators."""
    for _ in range(25):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        yield 0.5 * (a + dagger(a))
        yield 0.5 * a
        f = rng.uniform(0.8, 2.5)
        g = rng.uniform(0.15, 0.7) * np.sqrt(f) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        omega = rng.uniform(0.5, 2.0)
        pauli = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
        op = quasi_hamiltonian(0.5 * omega * pauli, metric_from_sqrt(f, g), omega).operator
        yield op
        yield shifted_generator(op)[0]
        s = rng.uniform(0.2, 1.5)
        yield np.array([[1j * s, s], [s, -1j * s]]) + complex(rng.normal(), rng.normal()) * np.eye(2)


def _random_density(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    p = rng.uniform(0.5, 1.0)
    return p * np.outer(psi, np.conj(psi)) + 0.5 * (1.0 - p) * np.eye(2)


def test_evolve_semigroup_matches_propagator_sandwich():
    # the closed form against U(t) rho0 U(t)^dag built from the propagator
    # stack; an exceptional-point generator runs over an unsorted grid of
    # four blocks, and the last case reaches a trace of ~6e135 at t = 1e3,
    # where |cos(r t)|^2 alone would overflow unless the damping reaches c
    # and s before they are squared
    rng = np.random.default_rng(2024)
    cases = [(m, _random_density(rng), np.linspace(0.0, 4.0, 257)) for m in _generator_family(rng)]
    ep = np.array([[0.9j, 0.9], [0.9, -0.9j]]) + (0.2 - 0.05j) * np.eye(2)
    cases.append((ep, _random_density(rng), rng.permutation(np.linspace(0.0, 8.0, LONG))))
    rho_mixed = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
    cases.append((GENERATOR, rho_mixed, np.linspace(0.0, 1e3, 11)))
    for m, rho0, ts in cases:
        trace = evolve_semigroup(m, rho0, ts)
        us = propagator(m, ts)
        want = us @ rho0 @ np.conj(us).transpose(0, 2, 1)
        err = np.linalg.norm(trace.rhos - want, axis=(1, 2))
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=(1, 2)))
    assert np.linalg.norm(want[-1]) > 1e135


def test_evolve_semigroup_trace_values_are_traces_of_rhos():
    rng = np.random.default_rng(99)
    ts = np.linspace(0.0, 4.0, 257)
    for m in _generator_family(rng):
        trace = evolve_semigroup(m, _random_density(rng), ts)
        stacked = np.trace(trace.rhos, axis1=1, axis2=2).real
        gap = np.abs(trace.trace_values - stacked)
        assert np.all(gap <= 1e-14 * np.maximum(1.0, np.abs(stacked)))


def test_evolve_semigroup_input_validation():
    ts = [0.0, 1.0]
    with pytest.raises(ValueError, match="Hermitian"):
        evolve_semigroup(GENERATOR, np.array([[0.5, 0.5], [0.0, 0.5]]), ts)
    with pytest.raises(ValueError, match="positive semidefinite"):
        evolve_semigroup(GENERATOR, np.array([[1.5, 0.9], [0.9, -0.5]]), ts)
    with pytest.raises(ValueError, match="unit trace"):
        evolve_semigroup(GENERATOR, 0.5 * np.eye(2) * 0.9, ts)
    with pytest.raises(ValueError, match="non-empty"):
        evolve_semigroup(GENERATOR, 0.5 * np.eye(2), [])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            evolve_semigroup(GENERATOR, 0.5 * np.eye(2), [0.0, bad, 1.0])


def test_evolve_semigroup_rejects_times_of_more_than_one_dimension():
    # a (3, 3) grid was flattened into 9 samples; propagator raises alike
    rho0 = 0.5 * np.eye(2)
    for shape in ((3, 3), (1, 2), (2, 1, 1)):
        with pytest.raises(ValueError, match=rf"times must be a scalar or a 1-d array, got shape \({shape[0]}, "):
            evolve_semigroup(GENERATOR, rho0, np.zeros(shape))
    assert evolve_semigroup(GENERATOR, rho0, 0.5).times.shape == (1,)


def test_evolve_semigroup_overflow_raises_naming_first_bad_time():
    # e^{Im(a0) t} |cos(r t)| of GENERATOR passes the float range near
    # t ~ 1.7e3; up to t = 1e3 the trajectory is finite and unchanged
    rho0 = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]], dtype=complex)
    trace = evolve_semigroup(GENERATOR, rho0, np.linspace(0.0, 1e3, 5))
    frozen = [1.0, 9.800565713599315e33, 7.947220685987463e67, 6.444354180917700e101, 5.225688633804966e135]
    assert trace.trace_values == pytest.approx(frozen, rel=1e-13)
    with pytest.raises(ValueError, match=r"not finite at t = 5000\.0"):
        evolve_semigroup(GENERATOR, rho0, [0.0, 1e3, 6e3, 5e3])
    ts = np.linspace(0.0, 5e3, 5001)
    with pytest.raises(ValueError, match="overflows") as info:
        evolve_semigroup(GENERATOR, rho0, ts)
    t_bad = float(str(info.value).rsplit("= ", 1)[1])
    assert 1e3 < t_bad < 5e3
    assert np.all(np.isfinite(evolve_semigroup(GENERATOR, rho0, ts[ts < t_bad]).rhos))
    with pytest.raises(ValueError, match="overflows"):
        evolve_semigroup(GENERATOR, rho0, [t_bad])


def test_evolve_semigroup_decay_past_cosh_overflow_stays_finite():
    # diag(0, -2i): cosh(t) passes the float range near t = 710, but the state
    # only loses its decaying level, rho(t) = diag(1/2, e^{-4t}/2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = evolve_semigroup(np.diag([0.0, -2j]), 0.5 * np.eye(2), [700.0, 800.0])
    assert np.abs(trace.trace_values - 0.5).max() <= 1e-12
    assert np.abs(trace.rhos - np.diag([0.5, 0.0])).max() <= 1e-12


def test_evolve_semigroup_k_values_overflow_raises_naming_first_bad_time():
    # the trace decays, but k(t) = e^{2t} passes the float range before t = 400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"k\(t\) is first not finite at t = 400\.0"):
            evolve_semigroup(np.diag([-1j, -2j]), 0.5 * np.eye(2), [0.0, 100.0, 400.0])
        trace = evolve_semigroup(np.diag([-1j, -2j]), 0.5 * np.eye(2), [0.0, 100.0])
    assert trace.k_values[1] == pytest.approx(np.exp(200.0), rel=1e-14)


#: rho(t) = (rho00, rho11, Re rho01, Im rho01) of ``_near_ep_generator(d)``
#: from RHO_NEAR_EP, for each (d, t) of NEAR_EP_TIMES, from a 40-digit mpmath
#: expm of the generator's entries taken exactly; |Im r| t runs from 1e-12 to 1e-3
NEAR_EP_TIMES = ((2.0**-40, (1e-6, 1e-3, 1.0, 850.0)), (2.0**-50, (1e-4, 0.1, 100.0, 2.7e4)))
NEAR_EP_RHO = (
    (0.60000074880044848009, 0.39999954920045092228, 0.2499999995000000005, 0.10000014980044970575),
    (0.60074924850030257076, 0.3995496508998983959, 0.24999950000049999967, 0.10015024969930030697),
    (1.7964035976046713136, 0.39920079946695590893, 0.24950049966683326625, 0.69860139906815424878),
    (59511.570705587232377, 59325.196851832280889, 0.045670881013183593597, 59418.310705228081377),
    (0.6000748844850110794, 0.39995492450900712123, 0.249999950000005, 0.10001498449700110585),
    (0.67936411358909414531, 0.35942810718952064611, 0.24995000499966668329, 0.11947610238984068491),
    (3746.1844338005320697, 3647.7729972796815458, 0.20468268826949542831, 3696.6512232388712375),
    (1.1589507161815758005e-15, 1.1588362582352004361e-15, 8.8315714305015939977e-25, 1.158893485795335317e-15),
)
RHO_NEAR_EP = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]])


def _near_ep_generator(d):
    """[[i gamma, s], [s, -i gamma]] with s = 0.75 and gamma = s + d, shifted by
    0.3 - 1e-3 i: r = i k with k^2 = gamma^2 - s^2 (exact in floats), so
    k = 1.2e-6 for d = 2^-40 and 3.7e-8 for d = 2^-50, while N stays of order 1."""
    gamma = 0.75 + d
    return np.array([[1j * gamma, 0.75], [0.75, -1j * gamma]]) + (0.3 - 1e-3j) * np.eye(2)


def test_evolve_semigroup_matches_mpmath_near_exceptional_point():
    # c2 = e^2 sinh(kt) cosh(kt) multiplies i(X - X^dag) with X = B/r of order
    # 1/k; (e^{(a+k)t} - e^{(a-k)t})/2 would cancel and miss by up to 1e-9
    want = iter(NEAR_EP_RHO)
    for d, times in NEAR_EP_TIMES:
        trace = evolve_semigroup(_near_ep_generator(d), RHO_NEAR_EP, times)
        for rho, trace_value in zip(trace.rhos, trace.trace_values):
            p00, p11, re01, im01 = next(want)
            exact = np.array([[p00, re01 + 1j * im01], [re01 - 1j * im01, p11]])
            assert np.linalg.norm(rho - exact) <= 1e-12 * np.linalg.norm(exact)
            assert abs(trace_value - (p00 + p11)) <= 1e-12 * (p00 + p11)


# ------------------------------------------------------ blocked evaluation


def test_evolve_semigroup_long_call_equals_calls_over_its_slices():
    # a sample's state and k(t) do not depend on the block it falls in: the
    # long call equals calls over each of its blocks and over slices that
    # straddle the boundaries, bit for bit, on sorted and unsorted grids
    # (a one-sample call is left out: numpy multiplies a single row through
    # another kernel, which may round the last bit differently)
    rng = np.random.default_rng(15)
    edges = _block_edges(LONG)
    assert len(edges) == 5
    straddling = [(e - 1000, e + 1000) for e in edges[1:-1]]
    for m in list(_generator_family(rng))[:10]:
        rho0 = _random_density(rng)
        for ts in (np.linspace(0.0, 6.0, LONG), rng.permutation(np.linspace(-1.0, 6.0, LONG))):
            trace = evolve_semigroup(m, rho0, ts)
            for lo, hi in list(zip(edges, edges[1:])) + straddling:
                part = evolve_semigroup(m, rho0, ts[lo:hi])
                assert part.rhos.tobytes() == trace.rhos[lo:hi].tobytes()
                assert part.k_values.tobytes() == trace.k_values[lo:hi].tobytes()
                np.testing.assert_array_max_ulp(part.trace_values, trace.trace_values[lo:hi], 4)


def test_evolve_semigroup_names_the_earliest_blow_up_in_a_late_block():
    # GENERATOR's trace passes the float range near t = 2.3e3: the first
    # non-finite sample in array order (t = 4500, block 3) is not the
    # earliest time (t = 3000, the last block), and the error names the latter
    rng = np.random.default_rng(16)
    rho0 = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]], dtype=complex)
    ts = rng.uniform(0.0, 1e3, LONG)
    ts[30_000], ts[LONG - 100] = 4500.0, 3000.0
    assert _block_edges(LONG)[2] <= 30_000 < _block_edges(LONG)[3] <= LONG - 100
    with pytest.raises(ValueError, match=r"overflows: rho\(t\) is first not finite at t = 3000\.0"):
        evolve_semigroup(GENERATOR, rho0, ts)
    # k(t) = e^{2t} of diag(-i, -2i) passes the float range before t = 400
    kts = 0.01 * ts
    kts[30_000], kts[LONG - 100] = 450.0, 400.0
    with pytest.raises(ValueError, match=r"k\(t\) is first not finite at t = 400\.0"):
        evolve_semigroup(np.diag([-1j, -2j]), 0.5 * np.eye(2), kts)


def test_evolve_semigroup_scratch_stays_fixed_in_size():
    # the returned arrays are 80 B per sample; what the call allocates beyond
    # them is the blocks' scratch (7 rows of 2^14 floats, 896 KiB), not a
    # multiple of the grid (64 B per sample, 16 MiB at 2^18 samples, before
    # the evaluation was blocked)
    ts = np.linspace(0.0, 6.0, 2**18)
    rho0 = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]], dtype=complex)
    evolve_semigroup(GENERATOR, rho0, ts[:10])
    tracemalloc.start()
    try:
        trace = evolve_semigroup(GENERATOR, rho0, ts)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held >= 80 * ts.size
    assert peak - held < 2 * 2**20
    assert trace.rhos.shape == (ts.size, 2, 2)


def _root_base(a):
    while a.base is not None:
        a = a.base
    return a


def test_evolve_semigroup_returns_disjoint_views_of_one_buffer():
    # rhos, trace_values and k_values are C-contiguous views of one buffer of
    # 80 B per sample that overlap nowhere.  The nilpotent drive N = [[0, 1],
    # [0, 0]] on dyadic times makes every state exact, rho(t) = (I - i N t)
    # rho0 (I + i N^dag t), so each of the four blocks wrote exactly its own
    # samples; k(t) = e^{-t} (drift rate 1/2) takes numpy's exp
    ts = np.arange(LONG) / 1024.0 - 20.0
    rho0 = np.array([[0.625, 0.25], [0.25, 0.375]], dtype=complex)
    trace = evolve_semigroup(np.array([[0.0, 1.0], [0.0, 0.0]]), rho0, ts)
    arrays = trace.rhos, trace.trace_values, trace.k_values
    assert [(a.shape, a.dtype) for a in arrays] == [((LONG, 2, 2), complex), ((LONG,), float), ((LONG,), float)]
    assert all(a.flags.c_contiguous for a in arrays)
    base = _root_base(trace.rhos)
    assert base.nbytes == 80 * LONG
    assert _root_base(trace.trace_values) is base and _root_base(trace.k_values) is base
    for j, a in enumerate(arrays):
        for b in arrays[j + 1:]:
            assert not np.shares_memory(a, b)
    want = np.empty((LONG, 2, 2), dtype=complex)
    want[:, 0, 0] = 0.625 + 0.375 * ts * ts
    want[:, 0, 1] = 0.25 - 0.375j * ts
    want[:, 1, 0] = 0.25 + 0.375j * ts
    want[:, 1, 1] = 0.375
    assert trace.rhos.tobytes() == want.tobytes()
    assert trace.trace_values.tobytes() == (1.0 + 0.375 * ts * ts).tobytes()
    assert trace.k_values.tobytes() == np.exp(-ts).tobytes()


# ------------------------------------------------ real-spectrum rule and set-up


#: rho(t) = (rho00, rho11, Re rho01, Im rho01) of ``rule_boundary_drive`` from
#: RHO_NEAR_EP at each of RULE_BOUNDARY_TIMES, from a 40-digit mpmath expm of
#: the drive's entries taken exactly
RULE_BOUNDARY_TIMES = (0.5, 3.0, 100.0, 1000.0)
RULE_BOUNDARY_RHO = {
    "inside": (
        (0.57370149744568986039, 0.40876616751810413193, 0.25000000000000108059, -0.067154764613328126806),
        (0.91379571492823975163, 0.29540142835725785447, 0.2500000000000081096, 0.19984133560537364105),
        (1.2444616715906786705, 0.18517944280325457614, 0.25000000000026523401, -0.021182986924323037992),
        (1.2023856092150965939, 0.19920479692977566513, 0.25000000000265412334, 0.097575514928955674204),
    ),
    "outside": (
        (0.57370149744568986525, 0.40876616751810413609, 0.25000000000000108907, -0.067154764613328127824),
        (0.9137957149282398081, 0.29540142835725787034, 0.2500000000000081732, 0.1998413356053736395),
        (1.2444616715906804072, 0.1851794428032551537, 0.25000000000026731427, -0.021182986924323043526),
        (1.2023856092151139454, 0.1992047969297814461, 0.25000000000267494, 0.097575514928955669833),
    ),
}


@pytest.mark.parametrize("side", ["inside", "outside"])
def test_evolve_semigroup_real_spectrum_rule_boundary(monkeypatch, side):
    # just inside the rule r is real and the coefficients skip the hyperbolic
    # terms; just outside they keep them.  The rule drops k = Im r, at most
    # 8 eps sum |n_k|^2 / |r| (3.2e-15 here), which moves rho(t) by about
    # 2 k t relative; the bound allows that on top of the rounding of w t
    calls = []
    monkeypatch.setattr(opendyn, "_damped_sinh_cosh", counted(opendyn._damped_sinh_cosh, calls))
    trace = evolve_semigroup(rule_boundary_drive(side), RHO_NEAR_EP, RULE_BOUNDARY_TIMES)
    assert len(calls) == (side == "outside")
    eps = sys.float_info.epsilon
    k_max = 8 * eps * 1.25 / np.sqrt(0.75)
    for t, rho, trace_value, (p00, p11, re01, im01) in zip(
        RULE_BOUNDARY_TIMES, trace.rhos, trace.trace_values, RULE_BOUNDARY_RHO[side]
    ):
        tol = 1e-13 + 4 * eps * t + (2 * k_max * t if side == "inside" else 0.0)
        exact = np.array([[p00, re01 + 1j * im01], [re01 - 1j * im01, p11]])
        assert np.linalg.norm(rho - exact) <= tol * np.linalg.norm(exact)
        assert abs(trace_value - (p00 + p11)) <= tol * (p00 + p11)


#: each bad argument, or set of them, and the ValueError message it raises:
#: ``ham``, then ``rho0``, then ``times`` (entries holding NaN or +-inf are
#: added below, for ``ham`` and ``rho0`` alike)
SEMIGROUP_ERRORS = [
    ((np.eye(3), None, None), "expected a 2x2 matrix, got 3x3"),
    ((np.eye(4), None, None), "expected a 2x2 matrix, got 4x4"),
    ((np.zeros((1, 2, 2)), None, None), "expected a square matrix, got shape (1, 2, 2)"),
    (([1.0, 2.0, 3.0, 4.0], None, None), "expected a square matrix, got shape (4,)"),
    ((None, np.eye(3), None), "expected a 2x2 matrix, got 3x3"),
    ((None, np.eye(4), None), "expected a 2x2 matrix, got 4x4"),
    ((None, 1.0, None), "expected a square matrix, got shape ()"),
    ((None, [[0.5, 0.5], [0.0, 0.5]], None), "rho0 must be Hermitian"),
    ((None, [[1.5, 0.9], [0.9, -0.5]], None), "rho0 must be positive semidefinite (min eigenvalue -8.454e-01)"),
    ((None, [[0.5, 0.6j], [-0.6j, 0.5]], None), "rho0 must be positive semidefinite (min eigenvalue -1.000e-01)"),
    ((None, 0.45 * np.eye(2), None), "rho0 must have unit trace"),
    ((None, None, []), "times must be non-empty"),
    ((None, None, [0.0, np.nan]), "times must be finite, got nan"),
    ((None, None, [np.inf]), "times must be finite, got inf"),
    ((None, None, [[0.0], [-np.inf]]), "times must be finite, got -inf"),
    ((np.eye(3), [[0.5, 0.5], [0.0, 0.5]], []), "expected a 2x2 matrix, got 3x3"),
    (([[np.nan, 0.0], [0.0, 0.0]], np.eye(4), []), "matrix has non-finite entries"),
    ((None, [[0.5, 0.5], [0.0, 0.5]], [np.nan]), "rho0 must be Hermitian"),
]


def _non_finite_entries(m):
    """``m`` with NaN, inf or -inf in each real and imaginary entry part."""
    for j in range(8):
        for x in (np.nan, np.inf, -np.inf):
            bad = np.array(m, dtype=complex)
            bad.view(float).reshape(8)[j] = x
            yield bad


def test_semigroup_set_up_raises_as_before():
    # every bad argument raises the ValueError and message it raised when the
    # set-up ran through as_operator, is_hermitian and eigvalsh, in the order
    # ham, rho0, times; shifted_generator raises as as_operator(ham)
    rho0 = RHO_NEAR_EP
    cases = list(SEMIGROUP_ERRORS)
    cases += [((bad, None, None), "matrix has non-finite entries") for bad in _non_finite_entries(GENERATOR)]
    cases += [((None, bad, None), "matrix has non-finite entries") for bad in _non_finite_entries(rho0)]
    for (ham, rho, times), message in cases:
        args = (GENERATOR if ham is None else ham, rho0 if rho is None else rho, [0.0, 1.0] if times is None else times)
        with pytest.raises(ValueError) as exc:
            evolve_semigroup(*args)
        assert type(exc.value) is ValueError and str(exc.value) == message
        if rho is None and times is None:
            with pytest.raises(ValueError) as exc:
                shifted_generator(ham)
            assert type(exc.value) is ValueError and str(exc.value) == message


def test_semigroup_of_a_huge_generator_runs_on_a_rescaled_clock():
    # X = B/r and N rho0 N^dag / |r|^2 overflowed past |r| ~ 1.3e154, so the
    # 1e200-scaled generator raised "rho(t) is first not finite at t = 0.0";
    # formed from N and r scaled by a power of two, its run is the unit run
    # on the clock 1e-200 t
    ts = np.linspace(0.0, 1.5, 7)
    big = evolve_semigroup(1e200 * GENERATOR, RHO_NEAR_EP, 1e-200 * ts)
    unit = evolve_semigroup(GENERATOR, RHO_NEAR_EP, ts)
    assert big.rhos[0].tobytes() == RHO_NEAR_EP.astype(complex).tobytes()
    for got, want in zip(big.rhos, unit.rhos):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert np.allclose(big.trace_values, unit.trace_values, rtol=1e-13, atol=0.0)
    assert np.allclose(big.k_values, unit.k_values, rtol=1e-13, atol=0.0)


def _scale_family():
    """Hermitian, metric-Hermitian, broken-PT and near-exceptional generators,
    each with its Pauli parts summing to about 1."""
    rng = np.random.default_rng(19)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    metric = metric_from_sqrt(1.7, 0.4 + 0.2j)
    return [
        0.25 * (a + dagger(a)),
        quasi_hamiltonian(0.5 * PAULI_Y, metric, 1.0).operator,
        0.5 * GENERATOR,
        # n.n = 2**-30: |r| = 2**-15 next to |n| ~ 1
        np.array([[0.2 + 0.1j, 1.0], [2.0**-30, 0.2 + 0.1j]]),
    ]


def test_semigroup_is_covariant_under_scale():
    # the range step: 2**k ham on the clock 2**-k t gives the bits of ham on
    # t, rhos, traces and k_values alike, for |k| up to 1000
    ts = np.array([0.0, 0.3, 1.1, 2.5])
    ks = list(range(-1000, 1001, 37)) + [-253, -252, 252, 253, 1000]
    for ham in _scale_family():
        want = evolve_semigroup(ham, RHO_NEAR_EP, ts)
        for k in ks:
            # the scaled arguments are exact: no entry falls below the normal floats
            assert (2.0**k * ham * 2.0**-k).tobytes() == ham.tobytes()
            got = evolve_semigroup(2.0**k * ham, RHO_NEAR_EP, 2.0**-k * ts)
            for name in ("rhos", "trace_values", "k_values"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (k, name)


def test_semigroup_rho0_gate_rejects_an_overflowing_skew():
    # ||rho0 - rho0^dag||_F and ||rho0||_F of this finite rho0 overflow: as
    # inf <= 1e-10 inf it passed for Hermitian and failed later on positivity
    with pytest.raises(ValueError, match="^rho0 must be Hermitian$"):
        evolve_semigroup(GENERATOR, [[0.5, 1.5e308 + 1.5e308j], [0.0, 0.5]], [0.0, 1.0])


#: finite generators whose m + m^dag, m - m^dag or -2 rate_max overflowed
HUGE_SYMMETRIC = np.array([[0.0, 1e308], [1e308, 0.0]], dtype=complex)
HUGE_SKEW = np.array([[0.0, 1e308], [-1e308, 0.0]], dtype=complex)
#: 1e308 2**-HUGE_K is about 1.1
HUGE_K = 1023


def _unit(m):
    return np.ldexp(m.view(float), -HUGE_K).view(complex)


def _split(m):
    s = split_generator(m)
    return s.coherent, s.drift, s.rate_max, s.rate_min


def _semigroup(m, ts):
    r = evolve_semigroup(m, np.diag([1.0, 0.0]), ts)
    return r.rhos, r.trace_values, r.k_values


#: (call, the same call at unit scale, the power of two between them); each
#: raised or returned a non-finite number before the Hermitian part, the
#: drift and the rate of k_values halved before they summed
HUGE_CASES = {
    # m + m^dag overflowed: the coherent part was inf
    "split_symmetric": (lambda: _split(HUGE_SYMMETRIC), lambda: _split(_unit(HUGE_SYMMETRIC)), HUGE_K),
    # m - m^dag overflowed: the drift and both rates were inf
    "split_skew": (lambda: _split(HUGE_SKEW), lambda: _split(_unit(HUGE_SKEW)), HUGE_K),
    # the twin of the drift: a NaN matrix and a NaN rate, with no error
    "shifted_skew": (lambda: shifted_generator(HUGE_SKEW), lambda: shifted_generator(_unit(HUGE_SKEW)), HUGE_K),
    # the rate was inf and -2 rate overflows: "k(t) ... at t = 0.0", though k(0) = 1
    "semigroup_skew": (
        lambda: _semigroup(HUGE_SKEW, np.ldexp([0.0, 0.5, 1.0], -HUGE_K)),
        lambda: _semigroup(_unit(HUGE_SKEW), [0.0, 0.5, 1.0]),
        0,
    ),
}


@pytest.mark.parametrize("case", HUGE_CASES)
def test_huge_generators_split_and_run_as_their_unit_scale(case):
    call, unit_call, k = HUGE_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = call(), unit_call()
    for g, w in zip(got, want, strict=True):
        g, w = np.asarray(g), np.asarray(w)
        assert np.all(np.isfinite(g)) and g.dtype == w.dtype
        parts = w.view(float) if w.dtype == complex else w
        assert g.tobytes() == np.ldexp(parts, k).tobytes()


def test_k_values_of_a_huge_rate_start_at_one():
    # 1e308 1e-308 rounds to 1 - 2**-53: the unit run on [0, 1] up to that
    got = _semigroup(HUGE_SKEW, [0.0, 1e-308])
    want = _semigroup(np.array([[0.0, 1.0], [-1.0, 0.0]]), [0.0, 1.0])
    for g, w in zip(got, want, strict=True):
        assert np.allclose(g, w, rtol=4e-16, atol=0.0)
    assert got[2].tolist() == [1.0, np.exp(-2.0 * (1e308 * 1e-308))]


def test_rho0_positivity_error_names_a_finite_eigenvalue():
    # 0.5 (rho01 + conj rho10) overflowed, so the error named -inf
    with pytest.raises(ValueError, match=r"^rho0 must be positive semidefinite \(min eigenvalue -1\.000e\+308\)$"):
        evolve_semigroup(GENERATOR, [[0.5, 1e308], [1e308, 0.5]], [0.0])


def test_semigroup_set_up_makes_no_linalg_call(monkeypatch):
    # evolve_semigroup and shifted_generator set up on Python scalars: no
    # numpy.linalg name, and none of as_operator, is_hermitian, eigvals2 or
    # split_generator is reached
    rng = np.random.default_rng(17)
    gens = list(_generator_family(rng))[:10]
    # the range step runs on Python scalars too
    gens += [2.0**-300 * gens[1], 2.0**-700 * gens[2]]
    ts = np.linspace(0.0, 4.0, 33)
    want = [(evolve_semigroup(m, RHO_NEAR_EP, ts).rhos, shifted_generator(m)) for m in gens]

    monkeypatch.setattr(np, "linalg", Spy(forbid=("*",), target=np.linalg, name="numpy.linalg"))
    for module in (opendyn, smallmat):
        for name in ("as_operator", "is_hermitian", "eigvals2", "split_generator"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, Spy(forbid=("*",), target=getattr(module, name), name=name))
    for m, (rhos, (shifted, rate)) in zip(gens, want):
        assert evolve_semigroup(m, RHO_NEAR_EP, ts).rhos.tobytes() == rhos.tobytes()
        got_shifted, got_rate = shifted_generator(m)
        assert got_shifted.tobytes() == shifted.tobytes() and got_rate == rate


#: the two metric-Hermitian generators of ``_bits_family`` as ``float.hex`` parts, real and imaginary
#: in turn: quasi_hamiltonian(0.5 n.sigma / |n|, metric_from_sqrt(f, g), 1.0) of f in [0.8, 2.5],
#: |g| / sqrt f in [0.15, 0.7] and a normal n, drawn at seed 18, pinned as those bits, so no BLAS
#: kernel moves them
QUASI_HEX = (
    "0x1.e1ec24aaebee9p-3 0x1.e0f7f68e2ecb8p-2 -0x1.611a5b0aa85f0p-1 -0x1.8c1dd890f1c2ep-2 "
    "-0x1.48f4c3bdaf43dp-2 0x1.005db9f9b4e40p-1 -0x1.e1ec24aaebee7p-3 -0x1.e0f7f68e2ecb8p-2",
    "0x1.9597b89356a78p-4 -0x1.1264ae4909b3fp-2 0x1.6911915a378e7p-1 0x1.e49ff4eff3f65p-2 "
    "0x1.5c0366902086cp-2 -0x1.38fcc5de75312p-3 -0x1.9597b89356a7dp-4 0x1.1264ae4909b3fp-2",
)


def _bits_family():
    """(generator, clock): metric-Hermitian, general, Hermitian, decaying,
    exceptional-point and 2**+-300-scaled generators, each with the factor
    by which its k_values times are scaled."""
    rng = np.random.default_rng(18)
    family = []
    for parts in QUASI_HEX:
        rng.uniform(size=3), rng.normal(size=3)  # the draws f, g and n that built it
        family.append((hex_array(parts).reshape(2, 2), 1.0))
    for _ in range(2):
        family.append((0.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))), 1.0))
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    family.append((0.5 * (a + dagger(a)), 1.0))
    family.append((np.diag([-1j, -2j]), 1.0))
    family.append((np.array([[0.6j, 0.6], [0.6, -0.6j]]) + (0.2 - 0.3j) * np.eye(2), 1.0))
    family += [(2.0**300 * a, 2.0**-300), (2.0**-300 * a, 2.0**300)]
    return family


#: per generator of ``_bits_family``: ``float.hex`` of shifted_generator's rate,
#: of k_values at 0.75 and 3.5 (times the clock), and of the real and
#: imaginary parts of the shifted matrix, row by row, as split_generator and
#: ham - 1j * rate * I computed them with numpy arrays
SHIFT_BITS = (
    (
        '0x1.03f4ea9d3f0acp-1', '0x1.de20f106ce019p-2', '0x1.d4b3721950683p-6',
        '0x1.e1ec24aaebee9p-3', '-0x1.378ef5627a500p-5', '-0x1.611a5b0aa85f0p-1', '-0x1.8c1dd890f1c2ep-2',
        '-0x1.48f4c3bdaf43dp-2', '0x1.005db9f9b4e40p-1', '-0x1.e1ec24aaebee7p-3', '-0x1.f470e5e456708p-1',
    ),
    (
        '0x1.7268334ec9ad4p-2', '0x1.2998868132174p-1', '0x1.459b08c1dcc5dp-4',
        '0x1.9597b89356a78p-4', '-0x1.426670cbe9b0ap-1', '0x1.6911915a378e7p-1', '0x1.e49ff4eff3f65p-2',
        '0x1.5c0366902086cp-2', '-0x1.38fcc5de75312p-3', '-0x1.9597b89356a7dp-4', '-0x1.800e1416ffe54p-4',
    ),
    (
        '0x1.8bb2ec502634cp-1', '0x1.413e30b6dc656p-2', '0x1.2511b6ba01d9fp-8',
        '0x1.09154cbc6eebcp-2', '-0x1.e0b99d5f52088p-3', '-0x1.1e42a064baf98p-3', '-0x1.0d42a40eabe0dp-2',
        '0x1.179a4cd51694fp-1', '-0x1.46901559e0677p-10', '0x1.0377ebcae061dp-2', '-0x1.2696bfd6fc968p-1',
    ),
    (
        '0x1.d299ed3bd74e1p-2', '0x1.027b6e90a80b4p-1', '0x1.5165474d26358p-5',
        '0x1.412a3de781c81p-7', '-0x1.7286bced6aad5p-2', '0x1.0f85d86524d37p-7', '-0x1.f6405797a05a1p-6',
        '-0x1.896de321a9b2dp-2', '-0x1.e342b368ba357p-8', '0x1.02d332683b53ap-4', '-0x1.b80dd2469584cp-4',
    ),
    (
        '0x0.0p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        '-0x1.51346c90ca5a8p-1', '0x0.0p+0', '0x1.1609465a65119p-2', '0x1.1be0b29b06548p-4',
        '0x1.1609465a65119p-2', '-0x1.1be0b29b06548p-4', '0x1.cc1cd32a09cc2p-5', '0x0.0p+0',
    ),
    (
        '-0x1.0000000000000p+0', '0x1.1ed3fe64fc541p+2', '0x1.122885aaeddaap+10',
        '-0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0', '-0x0.0p+0', '-0x1.0000000000000p+0',
    ),
    (
        '0x1.3333333333334p-2', '0x1.4677327472ea8p-1', '0x1.f594df288122fp-4',
        '0x1.999999999999ap-3', '-0x1.0000000000000p-54', '0x1.3333333333333p-1', '0x0.0p+0',
        '0x1.3333333333333p-1', '0x0.0p+0', '0x1.999999999999ap-3', '-0x1.3333333333333p+0',
    ),
    (
        '0x1.b0bc44c7f32f3p+299', '0x1.2035f896ed501p-2', '0x1.6141efcbd344cp-9',
        '-0x1.51346c90ca5a8p+299', '-0x1.093c66ca4a200p+300', '0x1.649ea2b039094p+299', '0x1.cc61983eb2197p+299',
        '-0x1.3a5571574fdecp+297', '0x1.85696b97f0845p+299', '0x1.cc1cd32a09cc2p+295', '-0x1.ad9809809304bp+299',
    ),
    (
        '0x1.b0bc44c7f32f3p-301', '0x1.2035f896ed501p-2', '0x1.6141efcbd344cp-9',
        '-0x1.51346c90ca5a8p-301', '-0x1.093c66ca4a200p-300', '0x1.649ea2b039094p-301', '0x1.cc61983eb2197p-301',
        '-0x1.3a5571574fdecp-303', '0x1.85696b97f0845p-301', '0x1.cc1cd32a09cc2p-305', '-0x1.ad9809809304bp-301',
    ),
)


def test_k_values_and_the_shifted_generator_keep_their_bits():
    rho0 = RHO_NEAR_EP
    for (m, clock), want in zip(_bits_family(), SHIFT_BITS, strict=True):
        shifted, rate = shifted_generator(m)
        k = evolve_semigroup(m, rho0, np.array([0.75, 3.5]) * clock).k_values
        assert [x.hex() for x in [rate, *k, *shifted.view(float).ravel()]] == list(want)
        assert split_generator(m).rate_max == rate


# -------------------------------------------------------------------- shift


def test_shifted_generator_tops_out_at_zero_rate():
    shifted, rate = shifted_generator(GENERATOR)
    assert rate == pytest.approx(0.8106601717798212, abs=1e-14)
    assert split_generator(shifted).rate_max == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(shifted, GENERATOR - 1j * rate * np.eye(2))


def test_shifted_metric_hermitian_k_values_are_one_without_an_exp_pass(monkeypatch):
    # the shifted drive's drift rate is exactly 0 here, so e^{-2 rate t} is 1
    # at every time: one exp pass per block (that of e^{alpha t}), none for k
    shifted, _ = shifted_generator(_dressed_half_gap(1.6, 0.7 + 0.3j).operator)
    assert split_generator(shifted).rate_max == 0.0
    rho0 = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
    ts = np.linspace(-3.0, 9.0, 1001)
    calls = []
    monkeypatch.setattr(opendyn, "np", Spy(calls, count=("exp",)))
    monkeypatch.setattr(smallmat, "np", Spy(calls, count=("exp",)))
    trace = evolve_semigroup(shifted, rho0, ts)
    assert trace.k_values.tobytes() == np.ones(len(ts)).tobytes()
    assert calls == ["exp"]


def test_shifted_trace_never_exceeds_one():
    shifted, _ = shifted_generator(_dressed_half_gap().operator)
    rho0 = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
    trace = evolve_semigroup(shifted, rho0, np.linspace(0.0, 2.0 * np.pi, 801))
    assert trace.trace_values.max() <= 1.0 + 1e-12


def test_initial_trace_slope_on_drift_eigenprojector():
    # rho0 = top drift eigenprojector makes the t=0 trace rate exactly 2*rate_max
    op = _dressed_half_gap().operator
    s = split_generator(op)
    _, vecs = np.linalg.eigh(s.drift)
    top = vecs[:, -1]
    rho0 = np.outer(top, np.conj(top))
    ts = np.linspace(0.0, 1e-5, 3)
    trace = evolve_semigroup(op, rho0, ts)
    slope = (trace.trace_values[2] - trace.trace_values[0]) / (ts[2] - ts[0])
    assert slope == pytest.approx(2.0 * s.rate_max, rel=1e-4)


# ---------------------------------------------------------- boundary mapping


def test_map_boundary_states_frozen_overlap():
    # root [[1,1],[1,2]]: the images of the basis pair overlap at 3/sqrt(10)
    m = metric_from_sqrt(2.0, 1.0)
    mi, mf, a = map_boundary_states(m, E0, E1)
    assert a == pytest.approx(3.0 / np.sqrt(10.0), abs=1e-14)
    assert np.linalg.norm(mi) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(mf) == pytest.approx(1.0, abs=1e-14)


def test_map_boundary_states_flat_is_identity():
    m = metric_from_matrix(np.eye(2))
    mi, mf, a = map_boundary_states(m, E0, E1)
    assert np.allclose(mi, E0) and np.allclose(mf, E1)
    assert a == 0.0


def test_scaled_states_map_as_their_rays():
    # <psi|eta|psi> of 2**600 psi overflows and of 2**-600 psi underflows;
    # read after the range step, each scaled state gives the bits of psi and
    # no warning, for a single metric and a stack of them
    u, v = np.array([1.0, 0.3j]), np.array([0.2, 1.0 + 0.0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (metric_from_sqrt(2.0, 0.5), metric_from_sqrt(np.array([2.0, 3.0]), np.array([0.5, 1.0j]))):
            want = [np.asarray(x).tobytes() for x in map_boundary_states(m, u, v)]
            drive = aligned_hamiltonian(m, 1.0, u, v).operator.tobytes()
            for k in (600, -600):
                for pair in ((2.0**k * u, v), (u, 2.0**k * v)):
                    assert [np.asarray(x).tobytes() for x in map_boundary_states(m, *pair)] == want, k
                assert aligned_hamiltonian(m, 1.0, 2.0**k * u, 2.0**k * v).operator.tobytes() == drive, k


# ------------------------------------------------------------- aligned drive


def test_aligned_drive_reaches_final_ray_at_shortcut_time():
    m = metric_from_sqrt(2.0, 1.0)
    qh = aligned_hamiltonian(m, 1.0, E0, E1)
    tau = 2.0 * np.arccos(3.0 / np.sqrt(10.0))
    assert tau == pytest.approx(0.64350110879328526, abs=1e-14)
    evolved = propagator(qh.operator, tau) @ E0
    fid = abs(np.vdot(E1, evolved)) / np.linalg.norm(evolved)
    assert fid == pytest.approx(1.0, abs=1e-12)
    assert tau < np.pi  # strictly beats the flat-metric travel time


def test_aligned_drive_is_metric_hermitian_with_pinned_gap():
    m = metric_from_sqrt(1.5, 0.5 + 0.3j)
    qh = aligned_hamiltonian(m, 2.0, E0, E1)
    assert is_hermitian(qh.h)
    assert pseudo_hermiticity_defect(qh.operator, m.eta) < 1e-10
    evs = np.linalg.eigvalsh(qh.h)
    assert evs[1] - evs[0] == pytest.approx(2.0, rel=1e-12)


def test_aligned_drive_flat_metric_recovers_half_period():
    m = metric_from_matrix(np.eye(2))
    qh = aligned_hamiltonian(m, 1.0, E0, E1)
    evolved = propagator(qh.operator, np.pi) @ E0
    fid = abs(np.vdot(E1, evolved)) / np.linalg.norm(evolved)
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_aligned_drive_preserves_metric_norm():
    m = metric_from_sqrt(2.0, 1.0)
    qh = aligned_hamiltonian(m, 1.0, E0, E1)
    norm0 = np.vdot(E0, m.eta @ E0).real
    for t in (0.1, 0.3, 0.6):
        psi = propagator(qh.operator, t) @ E0
        assert np.vdot(psi, m.eta @ psi).real == pytest.approx(norm0, rel=1e-12)


def test_aligned_drive_parallel_pair_raises():
    m = metric_from_sqrt(2.0, 1.0)
    with pytest.raises(AlignmentError, match="parallel"):
        aligned_hamiltonian(m, 1.0, E0, E0)


def test_aligned_drive_rejects_nonpositive_gap():
    for bad in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega"):
            aligned_hamiltonian(metric_from_sqrt(2.0, 1.0), bad, E0, E1)


def test_aligned_drive_survives_near_degenerate_root():
    # proximity 1e-6 to the degenerate root: mapping, alignment and the
    # validation gates must all stay numerically stable.  The similarity is
    # conditioned like 1/proximity there, so arrival fidelity keeps only
    # about seven digits.
    m = metric_from_sqrt(1.0, np.sqrt(1.0 - 1e-6))
    qh = aligned_hamiltonian(m, 1.0, E0, E1)
    _, _, a = map_boundary_states(m, E0, E1)
    tau = 2.0 * np.arccos(min(a, 1.0))
    evolved = propagator(qh.operator, tau) @ E0
    fid = abs(np.vdot(E1, evolved)) / np.linalg.norm(evolved)
    assert fid == pytest.approx(1.0, abs=1e-6)
    assert tau < 1e-2


# -------------------------------------------------------- dissipative factor


def test_dissipative_factor_landmarks():
    assert dissipative_factor(1.0) == pytest.approx(EXP_MINUS_2, abs=1e-15)
    # frozen: (1/f) exp(-(1/f + f)) at f = 1/2 and f = 2
    assert dissipative_factor(0.5) == pytest.approx(0.1641699972477976, abs=1e-15)
    assert dissipative_factor(2.0) == pytest.approx(0.0410424993119494, abs=1e-15)


def test_dissipative_factor_peaks_at_golden_ratio():
    fstar = (np.sqrt(5.0) - 1.0) / 2.0
    peak = dissipative_factor(fstar)
    assert peak == pytest.approx(0.1729321163655887, abs=1e-12)
    assert peak > dissipative_factor(fstar - 0.01)
    assert peak > dissipative_factor(fstar + 0.01)
    # everything stays below 20%
    assert max(dissipative_factor(f) for f in np.linspace(0.05, 6.0, 200)) < 0.2


def test_dissipative_factor_validation():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            dissipative_factor(bad)


def test_revelation_probability_degenerate_limit_at_unit_diag():
    m = metric_from_sqrt(1.0, np.sqrt(1.0 - 1e-5))
    assert revelation_probability(m, 1.0) == pytest.approx(EXP_MINUS_2, abs=1e-9)


def test_revelation_probability_flat_metric_is_certain():
    m = metric_from_matrix(np.eye(2))
    assert revelation_probability(m, 1.0) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ gap data


def test_energy_gap_squared_identities():
    assert energy_gap_squared(PAULI_X) == pytest.approx(4.0)
    assert energy_gap_squared(0.5 * PAULI_X) == pytest.approx(1.0)
    assert energy_gap_squared(np.eye(2)) == pytest.approx(0.0)


def test_energy_gap_squared_scales_by_powers_of_four():
    # the matrix takes the range step and the gap is scaled back: 2**k h gives 4**k times h's gap,
    # and past the float range (5 * 2**1200 at k = 600) ValueError, where the parent warned and
    # returned NaN; a subnormal LU pivot, which makes np.linalg.det NaN, takes the exact det
    h = np.array([[1.0, 0.5], [0.5, -1.0]])
    gap = energy_gap_squared(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-300, 300):
            assert energy_gap_squared(2.0**k * h) == math.ldexp(gap, 2 * k)
            assert energy_gap_squared(np.stack([h, 2.0**k * h])).tolist() == [gap, math.ldexp(gap, 2 * k)]
        with pytest.raises(ValueError, match="^the result leaves the float range$"):
            energy_gap_squared(2.0**600 * h)
        pivot = np.array([[0.0, -5e-324 - 2.5e-310j], [-5e-324 + 2.5e-310j, 1.9]])
        assert energy_gap_squared(pivot) == 1.9**2
        assert energy_gap_squared(np.stack([h, pivot])).tolist() == [gap, 1.9**2]


def test_energy_gap_diverges_toward_degeneracy():
    gaps = []
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        m = metric_from_sqrt(1.0, np.sqrt(1.0 - delta))
        qh = aligned_hamiltonian(m, 1.0, E0, E1)
        gaps.append(energy_gap_squared(split_generator(qh.operator).coherent))
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] > 1e6


# ---------------------------------------------------------------------- scan


def test_dissipation_scan_rows():
    rows = dissipation_scan([0.5, 1.0, 2.0], 1.0, proximity=1e-6)
    assert [r.f for r in rows] == [0.5, 1.0, 2.0]
    for r in rows:
        assert r.d_factor == pytest.approx(dissipative_factor(r.f), abs=1e-15)
        assert 0.0 < r.finite_factor < 1.0
        assert 0.0 < r.a_prime < 1.0
        assert r.tau == pytest.approx(2.0 * np.arccos(r.a_prime), abs=1e-12)
        assert r.gap_sq > 1e10  # proximity 1e-6 sits deep in the divergence


def test_dissipation_scan_is_a_record_array():
    scan = dissipation_scan([0.5, 1.0, 2.0, 3.0], 1.0, proximity=1e-6)
    assert scan.dtype.names == ("f", "d_factor", "finite_factor", "gap_sq", "a_prime", "tau")
    assert len(scan) == 4
    assert scan.f.tolist() == [0.5, 1.0, 2.0, 3.0]
    for k in range(len(scan)):
        assert scan[k].tau == scan.tau[k]
        assert [scan[k][name] for name in scan.dtype.names] == [scan[name][k] for name in scan.dtype.names]


def test_dissipation_scan_finite_factor_cross_checks_limit_at_unit_diag():
    row = dissipation_scan([1.0], 1.0, proximity=1e-6)[0]
    assert row.finite_factor == pytest.approx(EXP_MINUS_2, abs=1e-8)


def test_dissipation_scan_finite_factor_small_proximity_limit():
    # as the proximity p shrinks, finite_factor tends to (1/f) e^{-(sqrt f + 1/sqrt f)},
    # not to d_factor = (1/f) e^{-(f + 1/f)}; the two meet only at f = 1
    f = 2.0
    row = dissipation_scan([f], 1.0, proximity=1e-4)[0]
    limit = np.exp(-(np.sqrt(f) + 1.0 / np.sqrt(f))) / f
    assert limit == pytest.approx(0.059937, rel=1e-4)
    assert row.finite_factor == pytest.approx(limit, rel=1e-3)
    assert row.d_factor == dissipative_factor(f) == pytest.approx(0.041042, rel=1e-4)
    assert row.finite_factor >= 1.4 * row.d_factor
    # at p = 1e-2 the columns match the closed forms of the canonical problem:
    # with g = sqrt(f - p), tau = (2/omega) atan2(p, g (1 + f)) and
    # finite_factor = ((1 + g^2)/(g^2 + f^2)) e^{-(1 + f) sqrt((1 + f)^2 - 4p) tau omega / (2p)}
    p, omega = 1e-2, 1.0
    row = dissipation_scan([f], omega, proximity=p)[0]
    g2 = f - p
    angle = np.arctan2(p, np.sqrt(g2) * (1.0 + f))
    exponent = (1.0 + f) * np.sqrt((1.0 + f) ** 2 - 4.0 * p) * angle / p
    assert row.tau == pytest.approx(2.0 * angle / omega, rel=1e-9)
    assert row.finite_factor == pytest.approx((1.0 + g2) / (g2 + f * f) * np.exp(-exponent), rel=1e-9)


def test_dissipation_scan_finite_factor_matches_shifted_survival():
    # dual route: k(tau) times the unshifted survival probability
    for f in (0.5, 1.3, 3.0):
        row = dissipation_scan([f], 1.0, proximity=1e-4)[0]
        m = metric_from_sqrt(f, np.sqrt(f - 1e-4))
        qh = aligned_hamiltonian(m, 1.0, E0, E1)
        rate = split_generator(qh.operator).rate_max
        psi = propagator(qh.operator, row.tau) @ E0
        expected = np.exp(-2.0 * rate * row.tau) * float(np.vdot(psi, psi).real)
        assert row.finite_factor == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("p", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_canonical_columns_match_their_closed_forms(p, omega):
    # the canonical pair under the root [[1, g], [g, f]], g = sqrt(f - p),
    # written with math alone: a_prime, rate_max and gap_sq are well
    # conditioned (worst seen 2.2e-16, 1.1e-11 and 2.2e-11 relative), and the
    # flat drive is +-(omega/2) sigma_y.  tau, finite_factor and
    # revelation_probability read arccos near 1 and miss 1e-10 already at
    # p = 1e-2, so they are not compared here.
    fs = [0.05, 0.3, 2.0 / (1.0 + math.sqrt(5.0)), 1.0, 2.0, 5.9]
    scan = dissipation_scan(fs, omega, proximity=p)
    for row, f in zip(scan, fs):
        g = math.sqrt(f - p)
        a_prime = g * (1.0 + f) / math.sqrt((1.0 + g * g) * (g * g + f * f))
        rate_max = omega * (1.0 + f) * math.sqrt((1.0 + f) ** 2 - 4.0 * p) / (4.0 * p)
        gap_sq = omega**2 * ((1.0 + f) ** 2 - 2.0 * p) ** 2 / (4.0 * p * p)
        assert row.a_prime == pytest.approx(a_prime, rel=1e-10, abs=0.0)
        assert row.gap_sq == pytest.approx(gap_sq, rel=1e-10, abs=0.0)
        qh = aligned_hamiltonian(metric_from_sqrt(f, g), omega, E0, E1)
        assert split_generator(qh.operator).rate_max == pytest.approx(rate_max, rel=1e-10, abs=0.0)
        flat = 0.5 * omega * PAULI_Y
        assert min(np.abs(qh.h - flat).max(), np.abs(qh.h + flat).max()) <= 1e-10 * omega


def test_dissipation_scan_validation():
    with pytest.raises(ValueError, match="proximity"):
        dissipation_scan([0.5], 1.0, proximity=0.5)
    with pytest.raises(ValueError, match="proximity"):
        dissipation_scan([1.0], 1.0, proximity=-1e-3)
    for bad in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega"):
            dissipation_scan([1.0], bad)
        with pytest.raises(ValueError, match="proximity"):
            dissipation_scan([1.0], 1.0, proximity=bad)


def _scalar_row(f, omega, proximity):
    """One dissipation row from the single-metric public calls."""
    if proximity >= f:
        raise ValueError(f"proximity {proximity:.3g} must be smaller than f {f:.3g}")
    m = metric_from_sqrt(f, np.sqrt(f - proximity))
    finite = revelation_probability(m, omega)
    qh = aligned_hamiltonian(m, omega, E0, E1)
    gap_sq = energy_gap_squared(split_generator(qh.operator).coherent)
    _, _, a_prime = map_boundary_states(m, E0, E1)
    tau = (2.0 / omega) * float(np.arccos(np.clip(a_prime, 0.0, 1.0)))
    return [f, dissipative_factor(f), finite, gap_sq, a_prime, tau]


def _scalar_scan(grid, omega, proximity):
    """The rows of a loop over the grid, or the error of its first failing row."""
    rows = []
    for f in grid:
        try:
            rows.append(_scalar_row(float(f), omega, proximity))
        except (ValueError, RuntimeError) as exc:
            return type(exc), str(exc)
    return rows


def test_dissipation_scan_rows_equal_scalar_chain_bit_for_bit():
    rng = np.random.default_rng(21)
    outcomes = set()
    for _ in range(12):
        lo = float(np.exp(rng.uniform(np.log(1e-3), np.log(1.0))))
        grid = np.linspace(lo, float(rng.uniform(1.0, 6.0)), int(rng.integers(2, 120)))
        omega = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        proximity = float(np.exp(rng.uniform(np.log(1e-8), np.log(1e-2))))
        want = _scalar_scan(grid, omega, proximity)
        if isinstance(want, tuple):
            with pytest.raises(want[0]) as exc:
                dissipation_scan(grid, omega, proximity=proximity)
            assert str(exc.value) == want[1]
            outcomes.add("error")
            continue
        rows = dissipation_scan(grid, omega, proximity=proximity)
        got = [[r.f, r.d_factor, r.finite_factor, r.gap_sq, r.a_prime, r.tau] for r in rows]
        # repr round-trips every double and tells -0.0 from 0.0
        assert json.dumps(got) == json.dumps(want)
        outcomes.add("rows")
    assert outcomes == {"rows", "error"}


def test_dissipation_scan_raises_for_first_failing_row():
    # f = 1e-13 fails the first check; at proximity 1e-12, f = 0.05 fails the
    # metric root's degeneracy check, the second, and f = 5.9 the alignment
    # check, deep in the chain; grid order decides.  At proximity 1e-7 f = 1
    # passes (f = 2.2863... once failed there as a singular metric, on LU's
    # determinant 0 of a metric whose determinant is of order 1e-14)
    degenerate, parallel, tiny = 0.05, 5.9, 1e-13
    assert _scalar_scan([degenerate], 1.0, 1e-12)[0] is smallmat.MetricDegeneracyError
    assert _scalar_scan([parallel], 1.0, 1e-12)[0] is AlignmentError
    rows = _scalar_scan([1.0, 2.286324786324786], 1.0, 1e-7)
    assert isinstance(rows, list) and len(rows) == 2
    grids = ([parallel, degenerate, tiny], [tiny, degenerate, parallel], [degenerate, parallel, tiny], [parallel, tiny])
    cases = [(grid, 1e-12) for grid in grids] + [([1.0, parallel, tiny], 1e-7)]
    for grid, proximity in cases:
        kind, message = _scalar_scan(grid, 1.0, proximity)
        with pytest.raises(kind) as exc:
            dissipation_scan(grid, 1.0, proximity=proximity)
        assert str(exc.value) == message
    assert len(dissipation_scan([], 1.0)) == 0
