"""Fastest fixed-gap drives: closed form, propagation checks, passage scan."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tachys import brachistochrone, smallmat
from tachys.brachistochrone import (
    PASSAGE_FIDELITY,
    first_passage_scan,
    minimal_time,
    optimal_hamiltonian,
    transfer,
)
from tachys.metric import diag_metric, metric_from_sqrt, quasi_hamiltonian
from tachys.opendyn import aligned_hamiltonian
from tachys.smallmat import (
    HERMITICITY_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _is_hermitian2,
    fidelity,
    hermitian_sqrt,
    is_hermitian,
    propagator,
)
from support import E0, E1, Spy, bloch, counted, fresh_python, hex_array, rule_boundary_drive

PROPAGATION_TOL = 1e-9


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
    v = bloch(theta)
    tol = 1e-14 / max(np.sin(0.5 * theta), 1e-14)
    assert minimal_time(E0, v, omega) == pytest.approx(theta / omega, rel=1e-12, abs=tol / omega)
    assert minimal_time(E0, v, 2.0 * omega) == pytest.approx(
        0.5 * minimal_time(E0, v, omega), rel=1e-12
    )


def test_minimal_time_rejects_nonpositive_gap():
    with pytest.raises(ValueError):
        minimal_time(E0, E1, 0.0)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf], ids=["zero", "nan", "inf", "-inf"])
def test_gap_must_be_positive_finite(bad):
    with pytest.raises(ValueError, match="omega"):
        minimal_time(E0, E1, bad)
    with pytest.raises(ValueError, match="omega"):
        optimal_hamiltonian([0.0, 1.0], bad)
    with pytest.raises(ValueError, match="omega"):
        transfer([0.0, 1.0], bad)


# ------------------------------------------------------ optimal_hamiltonian


def test_optimal_drive_orthogonal_target_is_pauli_x_form():
    spec = optimal_hamiltonian([0.0, -1.0j], 1.0)
    assert np.allclose(spec.matrix, np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-15)
    assert spec.shift == 0.0
    assert spec.phase == 0.0


def test_optimal_drive_normal_form_targets():
    # targets already in the (|a|, -i|b|) normal form need no diagonal shift
    for theta in (0.3, 1.2, 2.9):
        spec = optimal_hamiltonian(bloch(theta), 1.0)
        assert spec.shift == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(spec.matrix, 0.5 * PAULI_X, atol=1e-12)


def test_optimal_drive_shift_tracks_leading_phase():
    # a target with arg(a) = alpha needs shift = -omega * alpha / (2 arcsin|b|)
    theta, alpha, omega = 1.0, 0.8, 1.7
    spec = optimal_hamiltonian(bloch(theta, alpha=alpha), omega)
    assert spec.shift == pytest.approx(-omega * alpha / (2.0 * np.arcsin(np.sin(0.5))), rel=1e-12)


def test_optimal_drive_structure_and_gap():
    spec = optimal_hamiltonian(bloch(1.3, alpha=0.4, beta=1.1), 2.5)
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
    v = bloch(theta, alpha=alpha, beta=beta)
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
    v = bloch(0.9, alpha=0.2)
    res = transfer(v, 1.5)
    assert res.tau == pytest.approx(0.9 / 1.5, rel=1e-12)
    assert res.overlap == pytest.approx(complex(v[0]))
    assert fidelity(propagator(res.drive.matrix, res.tau) @ E0, v) >= 1.0 - 1e-10


# -------------------------------------------------------- first_passage_scan


def _transfer_fields(r):
    return [r.tau, r.overlap, r.drive.shift, r.drive.phase, r.drive.matrix]


def test_transfer_over_a_target_stack_equals_single_calls_bit_for_bit():
    rng = np.random.default_rng(31)
    thetas = np.concatenate([rng.uniform(1e-3, np.pi, 400), [np.pi, 2e-9, 1e-10]])
    alphas, betas = rng.uniform(-np.pi, np.pi, size=(2, thetas.size))
    alphas[:5] = alphas[-3:] = 0.0  # real leading amplitudes, as on the CLI's circle
    targets = np.stack([bloch(*args) for args in zip(thetas, alphas, betas)])
    got = _transfer_fields(transfer(targets, 1.7))
    want = [_transfer_fields(transfer(v, 1.7)) for v in targets]
    assert got[4].shape == (thetas.size, 2, 2)
    for k, column in enumerate(got):
        assert np.asarray(column).tobytes() == np.array([w[k] for w in want]).tobytes()


def test_transfer_stack_raises_for_first_failing_row():
    good, unnormalized, missed = bloch(1.0), 1.5 * bloch(1.0), bloch(1e-8)
    with pytest.raises(ValueError, match="misses the target by 5.000e-09") as exc:
        transfer(np.stack([good, missed, unnormalized]), 1.0)
    assert exc.value.row == 1
    with pytest.raises(ValueError, match="must be normalized"):
        transfer(np.stack([good, unnormalized, missed]), 1.0)
    with pytest.raises(ValueError, match="trivial target"):
        transfer(np.stack([good, E0, missed]), 1.0)


def test_first_passage_orthogonal_half_period():
    t = first_passage_scan(0.5 * PAULI_X, E0, E1, t_max=4.0, steps=2000)
    assert t is not None
    assert t == pytest.approx(np.pi, abs=1e-8)


def test_first_passage_immediate_arrival(monkeypatch):
    assert first_passage_scan(0.5 * PAULI_X, E0, E0, t_max=1.0, steps=1000) == 0.0
    # a broken-PT drive (n.n = -3) answers from the first grid sample
    calls = _count_grid_calls(monkeypatch)
    assert first_passage_scan(np.array([[2j, 1.0], [1.0, -2j]]), E0, E0, t_max=1.0) == 0.0
    assert len(calls) == 1


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
        v = bloch(theta, alpha=alpha, beta=beta)
        spec = optimal_hamiltonian(v, omega)
        tau = minimal_time(E0, v, omega)
        t = first_passage_scan(spec.matrix, E0, v, t_max=1.2 * tau, steps=1500)
        assert t is not None
        assert t == pytest.approx(tau, abs=1e-9)


def test_first_passage_never_beats_minimal_time():
    # any same-gap Hermitian drive arrives no earlier than the optimal one
    rng = np.random.default_rng(17)
    v = bloch(2.0, alpha=0.3, beta=-0.7)
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
    # steps sets only the general path's grid, but a Hermitian drive checks it too
    with pytest.raises(ValueError, match="steps"):
        first_passage_scan(0.5 * PAULI_X, E0, E1, t_max=1.0, steps=999)


#: one bad value per argument of first_passage_scan, in the order the
#: arguments are checked, each with the message it raises
_BAD_ARGUMENTS = {
    "ham": [
        (np.array([[np.nan, 0.5], [0.5, 0.0]]), "matrix has non-finite entries"),
        (np.array([[0.0, 0.5], [complex(0.5, np.inf), 0.0]]), "matrix has non-finite entries"),
        (np.array([[0.0, -np.inf], [0.5, 0.0]]), "matrix has non-finite entries"),
        (np.eye(4), "expected a 2x2 matrix, got 4x4"),
    ],
    "t_max": [(np.nan, "t_max must be a positive finite real, got nan")],
    "steps": [(999, "at least 1000 scan steps are required")],
    "initial": [
        (np.array([np.nan, 1.0]), "state has non-finite entries"),
        (np.array([1.0, complex(0.0, -np.inf)]), "state has non-finite entries"),
        (np.array([np.inf, 0.0]), "state has non-finite entries"),
        (np.array([1.0, 0.0, 0.0]), "expected a length-2 state, got length 3"),
        (np.array([0.0, 0.0]), "cannot normalize the zero vector"),
    ],
}
_BAD_ARGUMENTS["final"] = _BAD_ARGUMENTS["initial"]
_GOOD_ARGUMENTS = {"ham": 0.5 * PAULI_X, "t_max": 4.0, "steps": 2000, "initial": E0, "final": E1}


@pytest.mark.parametrize(
    "name, bad, message",
    [(name, bad, message) for name, cases in _BAD_ARGUMENTS.items() for bad, message in cases],
)
def test_first_passage_rejects_bad_arguments(name, bad, message):
    args = dict(_GOOD_ARGUMENTS, **{name: bad})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        first_passage_scan(**args)


def test_first_passage_reports_the_earliest_bad_argument():
    names = list(_GOOD_ARGUMENTS)
    for i, first in enumerate(names):
        for later in names[i + 1 :]:
            for bad, message in _BAD_ARGUMENTS[first]:
                for worse, _ in _BAD_ARGUMENTS[later]:
                    args = dict(_GOOD_ARGUMENTS, **{first: bad, later: worse})
                    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                        first_passage_scan(**args)


def test_first_passage_normalizes_states_whose_squares_leave_the_float_range():
    # |initial|^2 overflows or vanishes; a power-of-two rescaling keeps the ray
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e300, 1e200, 1e-170, 1e-310):
            for initial, final in ((scale * E0, E1), (E0, scale * E1), (scale * E0, scale * E1)):
                t = first_passage_scan(0.5 * PAULI_X, initial, final, t_max=4.0)
                assert t == pytest.approx(np.pi, abs=1e-8)
        assert minimal_time([1e300, 0.0], [1.0, 0.0], 1.0) == 0.0
        assert minimal_time([1e-170, 0.0], [0.0, 1e300], 1.0) == pytest.approx(np.pi, abs=1e-15)


def _pauli_parts(ham):
    """Real and imaginary parts of the Pauli vector n of ``ham`` = a0 I + n.sigma."""
    (m00, m01), (m10, m11) = ham
    n = np.array([0.5 * (m01 + m10), 0.5j * (m01 - m10), 0.5 * (m00 - m11)])
    return np.concatenate([n.real, n.imag])


def test_first_passage_scales_drives_with_huge_pauli_vectors_exactly():
    # the passage time scales as 1/|n|: a drive whose Pauli parts sum past
    # 2**252 is scanned as n 2**-e over [0, t_max 2**e] with that sum taken
    # into [1, 2), so 2**520 h, h's sum in [1, 2), is h over 2**520 t_max, bit
    # for bit; one Hermitian and one metric-Hermitian drive
    v = bloch(2.1, alpha=0.3, beta=-0.8)
    aligned = aligned_hamiltonian(metric_from_sqrt(1.7, 0.4 * np.exp(0.9j)), 1.3, E0, v).operator
    aligned = aligned * 2.0 ** -(np.frexp(np.abs(_pauli_parts(aligned)).sum())[1] - 1)
    assert not is_hermitian(aligned)
    for ham, target, t_max in ((PAULI_X, E1, 2.0), (aligned, v, 2.0 * np.pi)):
        assert 1.0 <= np.abs(_pauli_parts(ham)).sum() < 2.0
        want = first_passage_scan(ham, E0, target, 2.0**520 * t_max)
        assert want is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert first_passage_scan(2.0**520 * ham, E0, target, t_max) == want / 2.0**520
    assert first_passage_scan(1e155 * PAULI_X, E0, E1, 1.0) == pytest.approx(0.5 * np.pi / 1e155)
    # the symmetrization and the Pauli vector halve each entry before they
    # sum, so a Hermitian drive at the top of the float range is scanned
    # too: 0.5 (m01 + conj m10) overflowed for 2**1023 X
    top = first_passage_scan(2.0**1023 * PAULI_X, E0, E1, 2.0**-1022)
    assert top == 2.0**-1023 * first_passage_scan(PAULI_X, E0, E1, 2.0)
    # past 2**256 the quadratic's discriminant overflowed and the closed form
    # answered None for a drive that reaches its target at t = 1.3
    h = 0.3 * PAULI_X + 0.5 * PAULI_Y + 0.2 * PAULI_Z
    orbit = propagator(h, 1.3) @ E0
    for k in (255, 260, 400, 1000):
        t = first_passage_scan(2.0**k * h, E0, orbit, 100.0 / 2.0**k)
        assert t is not None and t * 2.0**k == pytest.approx(1.3, abs=1e-9)
    # below 2**-252 the quadratic's coefficients underflowed: the closed form
    # answered None (and raised ZeroDivisionError at 2**-1000); a tiny drive
    # is scanned scaled up as a huge one is scaled down, bit for bit
    want = first_passage_scan(h, E0, orbit, 100.0)
    assert want == pytest.approx(1.3, abs=1e-9)
    for k in (253, 300, 400, 1000):
        assert first_passage_scan(2.0**-k * h, E0, orbit, 100.0 * 2.0**k) == want * 2.0**k
    with pytest.raises(ValueError, match="leaves the float range"):
        first_passage_scan(2.0**520 * PAULI_X, E0, E1, 1e200)
    with pytest.raises(ValueError, match="leaves the float range"):
        first_passage_scan(2.0**-520 * PAULI_X, E0, E1, 1e-200)


@pytest.mark.parametrize(
    "size", [0.5e-10, (1.0 - 1e-4) * 1e-10, (1.0 + 1e-4) * 1e-10, 2e-10],
    ids=["inside", "just_inside", "just_outside", "outside"],
)
def test_hermiticity_gate_matches_is_hermitian(monkeypatch, size):
    # a Hermitian drive plus an anti-Hermitian part K with ||ham - ham^dag||_F
    # = 2 ||K||_F = ``size`` ||h||_F, K's Pauli vector not orthogonal to the
    # drive's: inside the tolerance the drive is symmetrized and takes the
    # closed form, outside n.n turns complex and the grid runs.  The scan's
    # gate is is_hermitian's for every drive, scaled by 2**+-300 and 2**+-1000 too
    rng = np.random.default_rng(88)
    v = bloch(1.7, alpha=0.4, beta=-1.1)
    calls = _count_grid_calls(monkeypatch)
    for _ in range(20):
        h = _axis_drive(rng.normal(size=3), 0.6) + rng.normal() * np.eye(2)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        k = (a - a.conj().T) + 1j * h
        ham = h + 0.5 * size * np.linalg.norm(h) * k / np.linalg.norm(k)
        hermitian = size < HERMITICITY_TOL
        skew = np.linalg.norm(ham - ham.conj().T)
        assert (skew <= HERMITICITY_TOL * np.linalg.norm(ham)) == hermitian
        want = first_passage_scan(h, E0, v, t_max=2.0 * np.pi / 0.6)
        for s in (1.0, 2.0**-300, 2.0**300, 2.0**-1000, 2.0**1000):
            assert is_hermitian(s * ham) == hermitian
            calls.clear()
            t = first_passage_scan(s * ham, E0, v, t_max=2.0 * np.pi / 0.6 / s)
            assert len(calls) == (not hermitian)
            assert (t is None) == (want is None)
            if t is not None:
                assert abs(t * s - want) <= 1e-9
    # at the overflow end, where ||m - m^dag||_F and ||m||_F are both inf
    # unscaled: neither gate passes this finite matrix, singly or stacked
    # (is_hermitian passed it as inf <= 1e-10 inf), and hermitian_sqrt raises
    # its Hermiticity error
    m = np.array([[0.5, 1.5e308 * (1.0 + 1.0j)], [0.0, 0.5]])
    assert _is_hermitian2(*m.ravel().tolist())[0] is False
    assert is_hermitian(m) is False
    assert is_hermitian(np.stack([ham, m, ham.conj().T + ham])).tolist() == [hermitian, False, True]
    with pytest.raises(ValueError, match="^hermitian_sqrt requires a Hermitian matrix$"):
        hermitian_sqrt(m)


def test_hermiticity_gate_is_relative_for_tiny_drives():
    # with the absolute gate ||ham - ham^dag||_F <= 1e-10, a metric-Hermitian
    # drive scaled below about 1e-10 was symmetrized and scanned as its
    # Hermitian part, which misses the target (None); the passage time scales
    # as 1/s, so s ham reaches it at t / s
    v = bloch(1.7, alpha=0.4, beta=-1.1)
    ham = aligned_hamiltonian(metric_from_sqrt(1.6, 0.7 + 0.3j), 1.3, E0, v).operator
    t = first_passage_scan(ham, E0, v, t_max=8.0)
    assert t is not None and not is_hermitian(ham)
    for s in (1e-10, 1e-11, 1e-12):
        scaled = first_passage_scan(s * ham, E0, v, t_max=8.0 / s)
        assert scaled is not None
        assert abs(scaled * s / t - 1.0) <= 1e-12


def test_first_passage_rejects_a_drive_whose_skew_overflows():
    # |m01| and the skew of these finite drives pass the float range: abs(m01)
    # raised OverflowError, and a skew and norm of inf passed as inf <= inf;
    # now the gate rescales them and they are not Hermitian.  The first one's
    # Pauli vector leaves the float range; the second's, 1e308 i Y, is
    # finite, and its evolution e^{1e308 Y t} overflows on the first grid step
    with pytest.raises(ValueError, match="leaves the float range"):
        first_passage_scan([[0, 1.5e308 + 1.5e308j], [0, 0]], E0, E1, t_max=1.0)
    with pytest.raises(ValueError, match="^the evolution overflows: psi"):
        first_passage_scan([[0.0, 1e308], [-1e308, 0.0]], E0, E1, t_max=1.0)


#: a drive [[0.3, 1.5 + i d], [0.5 + i d, 0.3]] far from Hermitian: its Pauli
#: vector n = (1 + i d, i/2, 0) has n.n = 0.75 + 2 i d exactly and sum |n_k|^2
#: = 1.25, so d = 10 eps (1 -+ 2**-8) lies just inside and just outside the
#: real-spectrum rule |Im n.n| <= 16 eps sum |n_k|^2.  For each, psi(t) from
#: (1, 0) at t = 2.5 and t = 1000 (Re psi0, Im psi0, Re psi1, Im psi1), from a
#: 40-digit mpmath expm of the drive's entries taken exactly
RULE_BOUNDARY_TARGETS = {
    "inside": (
        (-0.40967385799868257969, 0.38165071584319607392, -0.32607470016471354199, -0.35001710953719950678),
        (-0.010914642533444464949, 0.49383018612014506511, -0.50187763671137849629, -0.011092507409880654086),
    ),
    "outside": (
        (-0.40967385799868260798, 0.38165071584319604356, -0.32607470016471354979, -0.35001710953719949952),
        (-0.010914642533461877328, 0.49383018612014468026, -0.50187763671137862239, -0.011092507409874948832),
    ),
}


@pytest.mark.parametrize("side", ["inside", "outside"])
def test_real_spectrum_rule_boundary_in_the_scan(monkeypatch, side):
    # just inside the rule the drive takes the closed form, just outside the
    # grid; both find the mpmath orbit's passages: at 2.5, and for the state at
    # t = 1000 at its first image 1000 - 275 pi / w (w = sqrt 0.75, the ray's
    # period pi / w), the k t ~ 3e-12 the rule drops being far below 1e-8
    calls = _count_grid_calls(monkeypatch)
    ham = rule_boundary_drive(side)
    assert not is_hermitian(ham)
    for t_star, (a, b, c, d) in zip((2.5, 1000.0), RULE_BOUNDARY_TARGETS[side]):
        t = first_passage_scan(ham, E0, [complex(a, b), complex(c, d)], t_max=1e3)
        want = t_star - (0 if t_star < 3 else 275) * np.pi / np.sqrt(0.75)
        assert abs(t - want) <= 1e-9
    assert len(calls) == (0 if side == "inside" else 2)


def test_general_passage_bisection_ends_where_floats_are_sparse():
    # past t ~ 8192 adjacent floats lie more than the 1e-12 refinement window
    # apart, so a midpoint can round to an end of its window: the bisection
    # then never shrank it and the scan never returned.  The call runs in a
    # fresh interpreter with a timeout, so a regression fails instead of hanging.
    # This broken-PT drive's normalized fidelity peaks at 0.69 (a 2e6-point
    # propagator grid over [0, 1e5]), so no passage exists
    code = (
        "import numpy as np\n"
        "from tachys.brachistochrone import first_passage_scan\n"
        "ham = np.array([[1e-3j, 1.0], [0.9, 0.3]])\n"
        "print(first_passage_scan(ham, [1, 0], [0.6, 0.8], 1e5))\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"


def test_general_passage_past_t_8192_ends_its_bisection_at_float_spacing():
    # a broken-PT drive slowed by 2**-14 reaches its target at 1.3 2**14,
    # where floats lie 3.6e-12 apart: the bisection stops where its midpoint
    # rounds to an end, within float spacing of the unit drive's time
    s, t0, k = 0.7, 1.3, 14
    ham = np.array([[1.5j * s, s], [s, -1.5j * s]])
    v = scipy.linalg.expm(-1j * t0 * ham) @ E0
    v = v / np.linalg.norm(v)
    unit = first_passage_scan(ham, E0, v, t_max=4.0, steps=2000)
    slow = first_passage_scan(2.0**-k * ham, E0, v, t_max=4.0 * 2.0**k, steps=2000)
    assert abs(unit - t0) <= 1e-12
    assert abs(math.ldexp(slow, -k) - unit) <= 1e-12


def test_real_spectrum_passage_makes_no_numpy_call(monkeypatch):
    # the scan of a Hermitian or metric-Hermitian drive reaches no numpy name
    # of brachistochrone, and of smallmat only np.asarray, once per array
    # argument, in the scalar readers that check and read it
    v = bloch(1.7, alpha=0.4, beta=-1.1)
    drives = [
        np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.3]]),
        aligned_hamiltonian(metric_from_sqrt(1.6, 0.7 + 0.3j), 1.3, E0, v).operator,
        [[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.3]],
    ]
    want = [first_passage_scan(h, E0, v, t_max=8.0) for h in drives]
    reads = []
    monkeypatch.setattr(brachistochrone, "np", Spy(forbid=("*",)))
    monkeypatch.setattr(smallmat, "np", Spy(reads, forbid=("*",), count=("asarray",)))
    assert [first_passage_scan(h, E0, v, t_max=8.0) for h in drives] == want
    assert len(reads) == 3 * len(drives)


def test_general_passage_overflow_raises_naming_first_bad_time():
    # r = i sqrt(3): psi(t) grows like cosh(sqrt(3) t), which overflows past t ~ 410
    ham = np.array([[2j, 1.0], [1.0, -2j]])
    ts = np.linspace(0.0, 1000.0, 10_000)
    with pytest.raises(ValueError, match="not finite at t = ") as exc:
        first_passage_scan(ham, E0, E1, t_max=1000.0)
    t_bad = float(str(exc.value).rpartition("= ")[2])
    k = int(np.flatnonzero(ts == t_bad)[0])
    assert 400.0 < t_bad < 420.0
    assert np.isfinite(np.cosh(np.sqrt(3.0) * ts[k - 1]))
    # a window that stays finite keeps its verdict
    assert first_passage_scan(ham, E0, E1, t_max=100.0) is None


@pytest.mark.parametrize("k", [-300, 300])
def test_general_passage_overflow_of_a_scaled_drive_names_the_time_scaled_back(k):
    # 2**k ham over [0, 1000 2**-k] is scanned as ham over its own grid; the
    # time named is the unscaled drive's times 2**-k, bit for bit
    ham = np.array([[2j, 1.0], [1.0, -2j]])
    with pytest.raises(ValueError, match="not finite at t = ") as exc:
        first_passage_scan(ham, E0, E1, t_max=1000.0)
    t_bad = float(str(exc.value).rpartition("= ")[2])
    with pytest.raises(ValueError) as scaled:
        first_passage_scan(2.0**k * ham, E0, E1, t_max=1000.0 * 2.0**-k)
    assert str(scaled.value) == f"the evolution overflows: psi(t) is first not finite at t = {t_bad * 2.0**-k!r}"


# ------------------------------------- Hermitian closed form vs expm oracle


def _expm_passage(h, u, v, t_max, steps=2000):
    """Reference first passage: a grid of the normalized fidelity
    |<v|psi>| / |psi| stepped by expm(-i h dt), then slope bisection (the
    sign of d/dt |<v|psi>|^2 / |psi|^2, from expm and h) at each candidate
    peak; ``v`` is a unit vector."""
    ts = np.linspace(0.0, t_max, steps)
    psi = np.empty((steps, 2), dtype=complex)
    psi[0] = u
    filled, power = 1, scipy.linalg.expm(-1j * (ts[1] - ts[0]) * h)
    while filled < steps:  # psi[k] = step^k u, by doubling
        k = min(filled, steps - filled)
        psi[filled : filled + k] = psi[:k] @ power.T
        filled += k
        power = power @ power
    fid = np.abs(psi @ np.conj(v)) / np.linalg.norm(psi, axis=1)
    if fid[0] >= PASSAGE_FIDELITY:
        return 0.0

    def state(t):
        return scipy.linalg.expm(-1j * t * h) @ u

    def slope(t):
        phi = state(t)
        dphi = -1j * (h @ phi)
        g = np.vdot(v, phi)
        growth = np.vdot(phi, dphi).real
        return (np.conj(g) * np.vdot(v, dphi)).real * np.vdot(phi, phi).real - abs(g) ** 2 * growth

    slack = 2.0 * (ts[1] - ts[0]) * np.linalg.norm(h, 2)
    for j in range(1, steps):
        right = fid[j] >= fid[j + 1] if j + 1 < steps else True
        if not (fid[j] >= fid[j - 1] and right and fid[j] + slack >= PASSAGE_FIDELITY):
            continue
        lo, hi = ts[j - 1], ts[min(j + 1, steps - 1)]
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        phi = state(t)
        if abs(np.vdot(v, phi)) / np.linalg.norm(phi) >= PASSAGE_FIDELITY:
            return t
    return None


def _random_state(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


def _bloch(psi):
    a, b = psi
    ab = np.conj(a) * b
    return np.array([2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2])


def _axis_drive(axis, half_gap):
    """half_gap * (n.sigma) for the unit vector n along ``axis``."""
    n = axis / np.linalg.norm(axis)
    return half_gap * (n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)


def _hermitian_family(rng):
    """(drive, initial, target, t_max): random axes, axes whose orbit runs
    through the target, and diagonal drives, each with a random shift."""
    cases = []
    for kind in ("random", "tilted", "diagonal") * 80:
        u, v = _random_state(rng), _random_state(rng)
        omega = rng.uniform(0.3, 3.0)
        if kind == "diagonal":
            h = np.diag([0.5 * omega, -0.5 * omega]).astype(complex)
            if rng.uniform() < 0.5:  # a target on the orbit of u
                v = propagator(h, rng.uniform(0.0, 2.0 * np.pi / omega)) @ u
        else:
            axis = rng.normal(size=3)
            if kind == "tilted":  # orthogonal to p_u - p_v: the orbit of u meets v
                gap = _bloch(u) - _bloch(v)
                axis -= axis @ gap / (gap @ gap) * gap
            h = _axis_drive(axis, 0.5 * omega)
        h = h + rng.normal() * np.eye(2)
        cases.append((h, u, v, rng.uniform(0.2, 1.5) * 2.0 * np.pi / omega))
    return cases


def test_hermitian_passage_matches_expm_grid_scan():
    hits = 0
    for h, u, v, t_max in _hermitian_family(np.random.default_rng(4242)):
        want = _expm_passage(h, u, v, t_max)
        got = first_passage_scan(h, u, v, t_max)
        assert (got is None) == (want is None), (h, u, v, t_max, got, want)
        if got is not None:
            hits += 1
            assert abs(got - want) <= 1e-9
    assert 60 <= hits < 240  # both verdicts are exercised


def test_hermitian_passage_edge_cases():
    # a drive proportional to I never moves the ray
    assert first_passage_scan(0.7 * np.eye(2), E0, np.exp(0.4j) * E0, t_max=5.0) == 0.0
    assert first_passage_scan(0.7 * np.eye(2), E0, bloch(0.5), t_max=5.0) is None
    # 0.5 sigma_x peaks on E1 at pi with |<E1|psi(t)>| = sin(t/2): a t_max
    # 1e-4 short of pi clears the threshold (1 - 1.25e-9), 1e-3 short does not
    h = 0.5 * PAULI_X
    assert first_passage_scan(h, E0, E1, t_max=np.pi - 1e-4) == np.pi - 1e-4
    assert first_passage_scan(h, E0, E1, t_max=np.pi - 1e-3) is None
    # passages every 2 pi / omega after the first: the earliest is returned
    u, v = bloch(1.1, alpha=0.3, beta=-0.4), bloch(2.3, alpha=-1.0, beta=0.9)
    gap = _bloch(u) - _bloch(v)
    axis = np.array([0.3, -0.8, 0.5])
    axis -= axis @ gap / (gap @ gap) * gap
    h = 0.4 * np.eye(2) + _axis_drive(axis, 0.9)
    first = first_passage_scan(h, u, v, t_max=2.0 * np.pi / 1.8)
    assert first is not None and 0.0 < first < 2.0 * np.pi / 1.8
    assert first_passage_scan(h, u, v, t_max=10.0 * np.pi / 1.8) == first
    assert abs(first - _expm_passage(h, u, v, 10.0 * np.pi / 1.8, steps=10_000)) <= 1e-9


#: ``_pinned_family``'s nine cases, 17 ``float.hex`` parts each: the drive's entries (8), the initial
#: state (4) and the target (4), real and imaginary in turn, and t_max.  A Hermitian drive on a random
#: axis, one whose orbit runs through the target and a metric-Hermitian drive, three of each, drawn at
#: seed 1717: the states normalized by np.linalg.norm, the tilted axes built through axis @ gap and the
#: metric drives by aligned_hamiltonian, pinned as those bits, so no BLAS kernel moves them
PINNED_CASES_HEX = (
    "0x1.5731eed9f3ee4p-4 0x0.0p+0 0x1.605fb2e524c93p-3 -0x1.4591726f00238p-2 0x1.605fb2e524c93p-3 "
    "0x1.4591726f00238p-2 -0x1.d0be6dbb46f80p-4 0x0.0p+0 -0x1.4e6808fd62b17p-2 0x1.4b1fa310ed90bp-1 "
    "0x1.8d2edaad0105bp-2 -0x1.23ba90d9eb283p-1 0x1.913e6cbffa5b9p-1 0x1.bde833d8cbba9p-2 -0x1.de176d21bca6cp-5 "
    "0x1.c1a65c31ce34dp-2 0x1.11a605b553291p+3",
    "0x1.2f5337c9b95fbp-1 0x0.0p+0 -0x1.4048cf1c73c69p+0 -0x1.a587ca52565e6p-4 -0x1.4048cf1c73c69p+0 "
    "0x1.a587ca52565e6p-4 -0x1.b4127a6f227f5p-1 0x0.0p+0 -0x1.d699289ff39acp-2 -0x1.59ca57547d9bdp-1 "
    "0x1.259306b5cb433p-3 -0x1.1e0b0dd43122ep-1 -0x1.aae09fd64b6a0p-2 0x1.d05ec8570124dp-2 0x1.f4005ab5f1303p-2 "
    "0x1.3c822d9eb60eap-1 0x1.1b3a21c5f2eb6p+1",
    "0x1.e9d6ee8f3e7fep-3 -0x1.8879cccecefa9p-4 0x1.4cb16c9275eadp-2 -0x1.bb08d2e80ef8ep-6 0x1.23f4a478a714cp-2 "
    "0x1.51874b0520f72p-3 -0x1.e9d6ee8f3e800p-3 0x1.8879cccecefaap-4 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 "
    "0x0.0p+0 -0x1.f9352533a9380p-1 -0x1.0aa8fdb49dc17p-3 -0x1.07bb98de590c2p-4 0x1.28ffd15601e00p-4 "
    "0x1.0d2e7fbbf2f01p+3",
    "-0x1.9ab39365fb5b2p+0 0x0.0p+0 -0x1.5bc7c503f3c8fp-1 -0x1.63ba6588262f2p-4 -0x1.5bc7c503f3c8fp-1 "
    "0x1.63ba6588262f2p-4 0x1.288b4709fa424p-3 0x0.0p+0 0x1.51c450555490ap-2 0x1.2f3db1a3de54ep-1 "
    "0x1.1e135b8c220aap-2 -0x1.5c260d396d164p-1 0x1.600d12f846cefp-3 0x1.7a056dcb761a5p-2 0x1.42865423fc1b3p-1 "
    "-0x1.5299d291693fap-1 0x1.7144cdf5777a6p+1",
    "0x1.dc0d1954a69fcp-2 0x0.0p+0 -0x1.235d94d57dc14p-4 -0x1.aef23fb95e04fp-4 -0x1.235d94d57dc14p-4 "
    "0x1.aef23fb95e04fp-4 0x1.e2618bf8f8ab4p-1 0x0.0p+0 0x1.029cd47383e50p-1 0x1.b52ccbfa63c66p-1 "
    "-0x1.b58b1952e9a53p-4 -0x1.0f51fc13c8ebcp-4 -0x1.a3b6b598291bep-1 -0x1.87ce42f0aaff0p-3 -0x1.08b7b3d28e09bp-1 "
    "0x1.3ddb16406f855p-3 0x1.7b556f5a9fa5fp+3",
    "-0x1.201cc05bf334dp-2 -0x1.18da91706917cp+0 -0x1.1c8ccfc367a33p-1 -0x1.465189e374804p+0 -0x1.9b76135b31026p-4 "
    "0x1.575a23ffcaf4cp+0 0x1.201cc05bf334dp-2 0x1.18da91706917cp+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
    "-0x1.89813b95c600ap-2 0x1.35e3019e52eaep-3 -0x1.4b8e1cd757fc4p-1 0x1.47dfecfb1276ep-1 0x1.00262f2105244p+2",
    "0x1.b941618ccce96p+0 0x0.0p+0 -0x1.d071b1b11a720p-4 0x1.dadde37b978b8p-4 -0x1.d071b1b11a720p-4 "
    "-0x1.dadde37b978b8p-4 0x1.bc92bdf3a06e3p+1 0x0.0p+0 0x1.7f361884b1309p-2 0x1.ecde3d28018acp-2 "
    "-0x1.39f24fe68ca2fp-1 0x1.012cdc3da9565p-1 -0x1.33c8e14dd7b9ap-3 -0x1.e36cfe0beb79fp-2 0x1.a205a59dbb0e8p-1 "
    "-0x1.2faea995b9d84p-2 0x1.cd055eb20a26ap+1",
    "0x1.150e6dc05c79fp+0 0x0.0p+0 -0x1.3c7819b57b068p-2 -0x1.8e6b8360ac261p-3 -0x1.3c7819b57b068p-2 "
    "0x1.8e6b8360ac261p-3 0x1.0a66cc583a14dp-2 0x0.0p+0 0x1.103563a5b5049p-4 -0x1.4d9b79b120061p-3 "
    "0x1.eebf410e03fe9p-6 0x1.f7c6ed38bc0cbp-1 -0x1.0536f60e6e770p-1 -0x1.04af66d6eb0cap-1 -0x1.39629a41782b4p-1 "
    "0x1.4d213b6aabf23p-2 0x1.74fd802e9eccap+2",
    "0x1.5ae7a415a1f5bp-3 -0x1.396af57705693p-3 -0x1.dbfadd4d5f18ep-3 -0x1.76353d81e8181p-7 -0x1.2603ff1652ddap-2 "
    "-0x1.abf541efcd3d5p-3 -0x1.5ae7a415a1f5ap-3 0x1.396af57705693p-3 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 "
    "0x0.0p+0 -0x1.a343294d20c7ap-1 -0x1.49b0227efe273p-5 0x1.f2eeb5f53cbadp-2 -0x1.33edded0d290bp-2 "
    "0x1.84a2c5b7ce7efp+3",
)


def _pinned_family():
    """(drive, initial, target, t_max): each case of PINNED_CASES_HEX, also scaled by 2**300 and
    2**-300 (over a window scaled by the reciprocal), and with the initial state scaled by
    1e300 and the target by 1e-170."""
    cases = []
    for case in PINNED_CASES_HEX:
        *parts, t_max = case.split()
        x, t_max = hex_array(" ".join(parts)), float.fromhex(t_max)
        h, u, v = x[:4].reshape(2, 2), x[4:6], x[6:]
        cases.append((h, u, v, t_max))
        cases += [(h * 2.0**k, u, v, t_max * 2.0**-k) for k in (300, -300)]
        cases.append((h, 1e300 * u, 1e-170 * v, t_max))
    return cases


#: float.hex of the passages of ``_pinned_family``, from the scan as it read
#: its arguments through as_operator and as_state: the scalar readers change
#: no bit
PINNED_PASSAGE_HEX = (
    None, None, None, None,
    "0x1.46180faa882a2p+0", "0x1.46180faa882a2p-300", "0x1.46180faa882a2p+300", "0x1.46180faa882a2p+0",
    "0x1.2624adde1ac3ep-2", "0x1.2624adde1ac3ep-302", "0x1.2624adde1ac3ep+298", "0x1.2624adde1ac3ep-2",
    None, None, None, None,
    "0x1.3c2ecac5db93ep+2", "0x1.3c2ecac5db93ep-298", "0x1.3c2ecac5db93ep+302", "0x1.3c2ecac5db93ep+2",
    "0x1.22b3a2fd6c004p-1", "0x1.22b3a2fd6c009p-301", "0x1.22b3a2fd6c009p+299", "0x1.22b3a2fd6c004p-1",
    None, None, None, None,
    "0x1.060f94b16de07p+1", "0x1.060f94b16de07p-299", "0x1.060f94b16de07p+301", "0x1.060f94b16de06p+1",
    "0x1.7f74adf7ca2b2p+0", "0x1.7f74adf7ca2b1p-300", "0x1.7f74adf7ca2b1p+300", "0x1.7f74adf7ca2b0p+0",
)


def test_real_spectrum_passages_keep_their_bits():
    got = [first_passage_scan(h, u, v, t_max) for h, u, v, t_max in _pinned_family()]
    assert [None if t is None else t.hex() for t in got] == list(PINNED_PASSAGE_HEX)


def test_general_passage_meets_aligned_closed_form():
    # metric-aligned drives reach the target at (2/omega) arccos|a'|, with a'
    # the overlap of the metric-normalized images of the boundary pair under
    # the root [[1, g], [conj g, f]]
    rng = np.random.default_rng(909)
    for _ in range(40):
        omega = rng.uniform(0.3, 3.0)
        v = bloch(rng.uniform(0.05, np.pi), *rng.uniform(-np.pi, np.pi, size=2))
        f = rng.uniform(0.8, 2.5)
        g = rng.uniform(0.15, 0.7) * np.sqrt(f) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        ham = aligned_hamiltonian(metric_from_sqrt(f, g), omega, E0, v).operator
        root = np.array([[1.0, g], [np.conj(g), f]])
        u1, v1 = root @ E0, root @ v
        a_abs = abs(np.vdot(u1, v1)) / (np.linalg.norm(u1) * np.linalg.norm(v1))
        tau = (2.0 / omega) * np.arccos(min(1.0, a_abs))
        t = first_passage_scan(ham, E0, v, t_max=1.02 * 2.0 * np.pi / omega, steps=1500)
        assert t is not None
        assert abs(t - tau) <= 1e-10


def test_passage_threshold_is_tight():
    assert PASSAGE_FIDELITY == 1.0 - 1e-8


# ------------------------------- metric-Hermitian passages near degeneracy

#: first passage of the aligned drive of ``_fast_passage_case(k)``, k = 0..23,
#: from a 40-digit mpmath root of the slope of its normalized fidelity (the
#: drive's entries taken exactly as aligned_hamiltonian builds them; the
#: ideal (2/omega) atan2(|b'|, |a'|) of the exact parameters agrees to 1e-16)
FAST_PASSAGE_TAU = (
    2.0460441649149052516e-7, 4.2240423822746317678e-7, 7.8398321346322611197e-7,
    1.3895637804504486344e-6, 2.4056900304331751074e-6, 4.1114166452406575735e-6,
    6.975830097743765615e-6, 1.1788815734956928321e-5, 1.9881558467881928051e-5,
    3.3497221193825805126e-5, 5.6410513814752739094e-5, 9.4953910969453057406e-5,
    1.5969511807808078519e-4, 2.6813013162320127063e-4, 4.489088970627952895e-4,
    7.482930810066218801e-4, 1.2397755927579531212e-3, 2.0381787318893655229e-3,
    3.3204186188373264564e-3, 5.3571557575670770802e-3, 8.563923387478023352e-3,
    1.358936142106577405e-2, 2.1478213475843313611e-2, 3.3998218806312593332e-2,
)


def _fast_passage_case(k):
    """(drive, target, omega): an aligned drive whose metric root
    [[1, g], [conj g, f]] has 1 - |g|^2/f = 10^(-6 + 5k/23), in [1e-6, 1e-1]."""
    x = 10.0 ** (-6.0 + 5.0 * k / 23.0)
    f, omega = 0.8 + 0.07 * k, 0.4 + 0.11 * k
    g = np.sqrt(f * (1.0 - x)) * np.exp(0.9j * k)
    v = bloch(0.2 + 0.12 * k, alpha=0.5 * k, beta=-0.3 * k)
    return aligned_hamiltonian(metric_from_sqrt(f, g), omega, E0, v).operator, v, omega


@pytest.mark.parametrize("k", range(len(FAST_PASSAGE_TAU)))
def test_near_degenerate_aligned_passage_matches_mpmath(k):
    # the near-degenerate metric shrinks the passage to 2e-7 ... 3.4e-2, for
    # periods 2 pi / omega of 16 ... 2.1; the drive is far from normal
    ham, v, omega = _fast_passage_case(k)
    t = first_passage_scan(ham, E0, v, t_max=1.02 * 2.0 * np.pi / omega, steps=1500)
    assert t is not None
    assert abs(t - FAST_PASSAGE_TAU[k]) <= 1e-12


# ------------------------------------------- dispatch and the grid that stays


def _count_grid_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(brachistochrone, "_general_passage", counted(brachistochrone._general_passage, calls))
    return calls


def test_complex_spectrum_passage_matches_expm_grid_scan(monkeypatch):
    # broken-PT drives 0.5 a, a a random complex matrix: targets on the orbit
    # of the initial state (a passage at t0 at the latest) and random targets
    calls = _count_grid_calls(monkeypatch)
    rng = np.random.default_rng(2718)
    hits = 0
    for kind in ("on_orbit", "random") * 15:
        ham = 0.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = _random_state(rng)
        t_max = rng.uniform(1.0, 4.0)
        if kind == "on_orbit":
            v = scipy.linalg.expm(-1j * rng.uniform(0.1, 0.9) * t_max * ham) @ u
            v = v / np.linalg.norm(v)
        else:
            v = _random_state(rng)
        want = _expm_passage(ham, u, v, t_max)
        got = first_passage_scan(ham, u, v, t_max)
        assert (got is None) == (want is None), (ham, u, v, t_max, got, want)
        if got is not None:
            hits += 1
            assert abs(got - want) <= 1e-9
    assert len(calls) == 30
    assert 15 <= hits < 30


@pytest.mark.parametrize("ratio", [0.5, 2.0], ids=["inside", "outside"])
def test_dispatch_boundary_paths_agree(monkeypatch, ratio):
    # the Pauli part of a metric-Hermitian drive turned by (1 + i delta): n.n
    # gains an imaginary part 2 delta n.n, set to ``ratio`` times the closed
    # form's tolerance 16 eps sum |n_k|^2; just inside it takes the closed
    # form, just outside the grid, and both find the same passage
    v = bloch(1.7, alpha=0.4, beta=-1.1)
    base = aligned_hamiltonian(metric_from_sqrt(1.6, 0.7 + 0.3j), 1.3, E0, v).operator
    a0 = 0.5 * np.trace(base)
    pauli = base - a0 * np.eye(2)
    nx, ny, nz = 0.5 * (pauli[0, 1] + pauli[1, 0]), 0.5j * (pauli[0, 1] - pauli[1, 0]), pauli[0, 0]
    nn = (nx * nx + ny * ny + nz * nz).real
    scale = abs(nx) ** 2 + abs(ny) ** 2 + abs(nz) ** 2
    delta = ratio * 16.0 * np.finfo(float).eps * scale / (2.0 * nn)
    calls = _count_grid_calls(monkeypatch)
    t_max = 1.02 * 2.0 * np.pi / 1.3
    want = first_passage_scan(base, E0, v, t_max)
    assert calls == []
    got = first_passage_scan(a0 * np.eye(2) + (1.0 + 1j * delta) * pauli, E0, v, t_max)
    assert len(calls) == (ratio > 1.0)
    assert want is not None and got is not None
    assert abs(got - want) <= 1e-9


def test_exceptional_point_passage_is_the_earliest_maximum():
    # at r = 0 psi(t) = u - i t (n.sigma) u: the normalized fidelity has one
    # maximum on t > 0, reached only when it lies in (0, t_max]
    s, t0 = 0.7, 1.3
    ham = np.array([[1j * s, s], [s, -1j * s]])
    v = scipy.linalg.expm(-1j * t0 * ham) @ E0
    v = v / np.linalg.norm(v)
    t = first_passage_scan(ham, E0, v, t_max=4.0)
    assert abs(t - t0) <= 1e-9
    # a window that ends before t0 returns None, unless t_max is close
    # enough for the fidelity there to clear the threshold
    assert first_passage_scan(ham, E0, v, t_max=0.9 * t0) is None
    edge = first_passage_scan(ham, E0, v, t_max=t0 - 1e-6)
    assert edge == t0 - 1e-6
