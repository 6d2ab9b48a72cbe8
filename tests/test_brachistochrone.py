"""Fastest fixed-gap drives: closed form, propagation checks, passage scan."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tachys.brachistochrone import (
    PASSAGE_FIDELITY,
    first_passage_scan,
    minimal_time,
    optimal_hamiltonian,
    transfer,
)
from tachys.metric import diag_metric, quasi_hamiltonian
from tachys.smallmat import PAULI_X, PAULI_Z, propagator, states_equal

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)

PROPAGATION_TOL = 1e-9


def _target(theta, alpha=0.0, beta=None):
    """Unit target (cos(theta/2) e^{i alpha}, sin(theta/2) e^{i beta})."""
    if beta is None:
        beta = -np.pi / 2.0  # the normal form reached by the plain sigma_x drive
    return np.array(
        [np.cos(0.5 * theta) * np.exp(1j * alpha), np.sin(0.5 * theta) * np.exp(1j * beta)]
    )


# ------------------------------------------------------------- minimal_time


def test_minimal_time_orthogonal_half_period():
    assert minimal_time(E0, E1, 1.0) == pytest.approx(np.pi, abs=1e-14)
    assert minimal_time(E0, E1, 2.0) == pytest.approx(np.pi / 2.0, abs=1e-14)


def test_minimal_time_same_ray_is_zero():
    assert minimal_time(E0, E0, 1.0) == 0.0
    assert minimal_time(E0, np.exp(0.3j) * E0, 1.0) == 0.0


def test_minimal_time_accepts_unnormalized_inputs():
    assert minimal_time([2.0, 0.0], [0.0, -3.0j], 1.0) == pytest.approx(np.pi)


@settings(max_examples=50, deadline=None)
@given(
    theta=st.floats(min_value=1e-3, max_value=np.pi - 1e-3),
    omega=st.floats(min_value=0.1, max_value=10.0),
)
def test_minimal_time_speed_law(theta, omega):
    # tau = 2 * angle / omega: halving the gap doubles the time.  The
    # cos -> arccos round trip is ill-conditioned near theta = 0, so the
    # tolerance carries the 1/sin(theta/2) amplification factor.
    v = _target(theta)
    tol = 1e-14 / max(np.sin(0.5 * theta), 1e-14)
    assert minimal_time(E0, v, omega) == pytest.approx(theta / omega, rel=1e-12, abs=tol / omega)
    assert minimal_time(E0, v, 2.0 * omega) == pytest.approx(
        0.5 * minimal_time(E0, v, omega), rel=1e-12
    )


def test_minimal_time_rejects_nonpositive_gap():
    with pytest.raises(ValueError):
        minimal_time(E0, E1, 0.0)


# ------------------------------------------------------ optimal_hamiltonian


def test_optimal_drive_orthogonal_target_is_pauli_x_form():
    spec = optimal_hamiltonian([0.0, -1.0j], 1.0)
    assert np.allclose(spec.matrix, np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-15)
    assert spec.shift == 0.0
    assert spec.phase == 0.0


def test_optimal_drive_normal_form_targets():
    # targets already in the (|a|, -i|b|) normal form need no diagonal shift
    for theta in (0.3, 1.2, 2.9):
        spec = optimal_hamiltonian(_target(theta), 1.0)
        assert spec.shift == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(spec.matrix, 0.5 * PAULI_X, atol=1e-12)


def test_optimal_drive_shift_tracks_leading_phase():
    # a target with arg(a) = alpha needs shift = -omega * alpha / (2 arcsin|b|)
    theta, alpha, omega = 1.0, 0.8, 1.7
    spec = optimal_hamiltonian(_target(theta, alpha=alpha), omega)
    assert spec.shift == pytest.approx(-omega * alpha / (2.0 * np.arcsin(np.sin(0.5))), rel=1e-12)


def test_optimal_drive_structure_and_gap():
    spec = optimal_hamiltonian(_target(1.3, alpha=0.4, beta=1.1), 2.5)
    m = spec.matrix
    assert m[0, 0] == m[1, 1] == spec.shift
    assert abs(m[0, 1]) == pytest.approx(1.25, rel=1e-12)
    assert m[1, 0] == pytest.approx(np.conj(m[0, 1]))
    evs = np.linalg.eigvalsh(m)
    assert evs[1] - evs[0] == pytest.approx(2.5, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=1e-2, max_value=np.pi),
    alpha=st.floats(min_value=-3.0, max_value=3.0),
    beta=st.floats(min_value=-3.0, max_value=3.0),
    omega=st.floats(min_value=0.2, max_value=5.0),
)
def test_optimal_drive_propagates_onto_target(theta, alpha, beta, omega):
    v = _target(theta, alpha=alpha, beta=beta)
    spec = optimal_hamiltonian(v, omega)
    tau = minimal_time(E0, v, omega)
    reached = propagator(spec.matrix, tau) @ E0
    assert np.linalg.norm(reached - v) < PROPAGATION_TOL


def test_optimal_drive_validation():
    with pytest.raises(ValueError, match="normalized"):
        optimal_hamiltonian([1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="trivial"):
        optimal_hamiltonian([1.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="omega"):
        optimal_hamiltonian([0.0, 1.0], -2.0)


def test_transfer_bundle():
    v = _target(0.9, alpha=0.2)
    res = transfer(v, 1.5)
    assert res.tau == pytest.approx(0.9 / 1.5, rel=1e-12)
    assert res.overlap == pytest.approx(complex(v[0]))
    assert states_equal(propagator(res.drive.matrix, res.tau) @ E0, v)


# -------------------------------------------------------- first_passage_scan


def test_first_passage_orthogonal_half_period():
    t = first_passage_scan(0.5 * PAULI_X, E0, E1, t_max=4.0, steps=2000)
    assert t is not None
    assert t == pytest.approx(np.pi, abs=1e-8)


def test_first_passage_immediate_arrival():
    assert first_passage_scan(0.5 * PAULI_X, E0, E0, t_max=1.0, steps=1000) == 0.0


def test_first_passage_unreachable_target_returns_none():
    # a diagonal drive never moves (1,0) off its ray
    assert first_passage_scan(PAULI_Z, E0, E1, t_max=20.0, steps=5000) is None


def test_first_passage_below_threshold_peak_returns_none():
    # detuned drive tops out at |<1|psi>| = 0.5/sqrt(0.34) ~ 0.857 < threshold
    h = np.array([[0.3, 0.5], [0.5, -0.3]], dtype=complex)
    assert first_passage_scan(h, E0, E1, t_max=30.0, steps=6000) is None


def test_first_passage_picks_earliest_of_many_passages():
    # period 2pi: passages at pi, 3pi, 5pi ... the scan must return pi
    t = first_passage_scan(0.5 * PAULI_X, E0, E1, t_max=20.0, steps=8000)
    assert t == pytest.approx(np.pi, abs=1e-8)


def test_first_passage_agrees_with_minimal_time_for_optimal_drives():
    rng = np.random.default_rng(5)
    for _ in range(5):
        theta = rng.uniform(0.3, np.pi)
        alpha, beta = rng.uniform(-np.pi, np.pi, size=2)
        omega = rng.uniform(0.5, 3.0)
        v = _target(theta, alpha=alpha, beta=beta)
        spec = optimal_hamiltonian(v, omega)
        tau = minimal_time(E0, v, omega)
        t = first_passage_scan(spec.matrix, E0, v, t_max=1.2 * tau, steps=1500)
        assert t is not None
        assert t == pytest.approx(tau, abs=1e-9)


def test_first_passage_never_beats_minimal_time():
    # any same-gap Hermitian drive arrives no earlier than the optimal one
    rng = np.random.default_rng(17)
    v = _target(2.0, alpha=0.3, beta=-0.7)
    tau = minimal_time(E0, v, 1.0)
    for _ in range(10):
        vec = rng.normal(size=3)
        vec *= 0.5 / np.linalg.norm(vec)  # gap omega = 1
        h = vec[0] * PAULI_X + vec[1] * np.array([[0, -1j], [1j, 0]]) + vec[2] * PAULI_Z
        h += rng.normal() * np.eye(2)
        t = first_passage_scan(h, E0, v, t_max=3.0 * tau, steps=2000)
        if t is not None:
            assert t >= tau - 1e-8


def test_first_passage_non_hermitian_generator():
    # metric-dressed half-gap drive: the ray still crosses (0,1) at t = pi
    qh = quasi_hamiltonian(0.5 * PAULI_X, diag_metric(2.0), 1.0)
    t = first_passage_scan(qh.operator, E0, E1, t_max=4.0, steps=2000)
    assert t is not None
    assert t == pytest.approx(np.pi, abs=1e-7)


@pytest.mark.parametrize("ratio", [1.0, 1.0 - 1e-12], ids=["at_ep", "near_ep"])
def test_first_passage_general_path_matches_expm_at_pt_exceptional_point(ratio):
    # the target is the expm-evolved reference state at t0; the fidelity
    # climbs monotonically to it, so t0 is the first passage
    s, t0 = 0.7, 1.3
    ham = np.array([[1j * ratio * s, s], [s, -1j * ratio * s]])
    v = scipy.linalg.expm(-1j * t0 * ham) @ E0
    v = v / np.linalg.norm(v)
    t = first_passage_scan(ham, E0, v, t_max=4.0, steps=2000)
    assert t == pytest.approx(t0, abs=1e-6)
    psi = scipy.linalg.expm(-1j * t * ham) @ E0
    assert 1.0 - abs(np.vdot(v, psi)) / np.linalg.norm(psi) <= 1e-12


def test_first_passage_validation():
    for bad in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t_max"):
            first_passage_scan(0.5 * PAULI_X, E0, E1, t_max=bad)
    with pytest.raises(ValueError, match="steps"):
        first_passage_scan(0.5 * PAULI_X, E0, E1, t_max=1.0, steps=10)


def test_passage_threshold_is_tight():
    assert PASSAGE_FIDELITY == 1.0 - 1e-8
