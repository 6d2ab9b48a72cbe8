"""Non-Hermitian open dynamics: trace motion, shifts, aligned drives."""

import numpy as np
import pytest
import scipy.linalg

from tachys.metric import diag_metric, metric_from_matrix, metric_from_sqrt, pseudo_hermiticity_defect, quasi_hamiltonian
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

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)

EXP_MINUS_2 = 0.1353352832366127  # e^-2

GENERATOR = np.array([[1.0 + 0.5j, 2.0], [0.5, -1.0j]], dtype=complex)


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
    # stack; the last case reaches a trace of ~6e135 at t = 1e3, where
    # |cos(r t)|^2 alone would overflow unless the damping reaches c and s
    # before they are squared
    rng = np.random.default_rng(2024)
    cases = [(m, _random_density(rng), np.linspace(0.0, 4.0, 257)) for m in _generator_family(rng)]
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


# -------------------------------------------------------------------- shift


def test_shifted_generator_tops_out_at_zero_rate():
    shifted, rate = shifted_generator(GENERATOR)
    assert rate == pytest.approx(0.8106601717798212, abs=1e-14)
    assert split_generator(shifted).rate_max == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(shifted, GENERATOR - 1j * rate * np.eye(2))


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
    with pytest.raises(ValueError, match="omega"):
        aligned_hamiltonian(metric_from_sqrt(2.0, 1.0), 0.0, E0, E1)


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


def test_dissipation_scan_finite_factor_cross_checks_limit_at_unit_diag():
    row = dissipation_scan([1.0], 1.0, proximity=1e-6)[0]
    assert row.finite_factor == pytest.approx(EXP_MINUS_2, abs=1e-8)


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


def test_dissipation_scan_validation():
    with pytest.raises(ValueError, match="proximity"):
        dissipation_scan([0.5], 1.0, proximity=0.5)
    with pytest.raises(ValueError, match="proximity"):
        dissipation_scan([1.0], 1.0, proximity=-1e-3)
    with pytest.raises(ValueError, match="omega"):
        dissipation_scan([1.0], 0.0)
