"""Metric construction, dressed generators, and angle geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tachys.metric import (
    Metric,
    MetricDegeneracyError,
    QuasiHamiltonian,
    diag_metric,
    metric_angle,
    metric_from_matrix,
    metric_from_sqrt,
    pseudo_hermiticity_defect,
    quasi_hamiltonian,
    state_angle,
    transition_defect,
)
from tachys.smallmat import PAULI_X, dagger, propagator

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)

small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


# ----------------------------------------------------------- metric builders


def test_metric_from_sqrt_frozen_example():
    # root [[1,1],[1,2]] squares to [[2,3],[3,5]]; det eta = (2 - 1)^2 = 1
    m = metric_from_sqrt(2.0, 1.0)
    assert np.allclose(m.eta, np.array([[2.0, 3.0], [3.0, 5.0]]))
    assert np.linalg.det(m.eta).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(m.inv_sqrt_eta, np.array([[2.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(m.sqrt_eta @ m.inv_sqrt_eta, np.eye(2))


def test_metric_from_sqrt_complex_offdiag():
    g = 0.4 + 0.3j
    m = metric_from_sqrt(1.5, g)
    root = np.array([[1.0, g], [np.conj(g), 1.5]])
    assert np.allclose(m.eta, root @ root)
    # det of the root is diag - |offdiag|^2
    assert np.linalg.det(m.sqrt_eta) == pytest.approx(1.5 - abs(g) ** 2)


@settings(max_examples=60, deadline=None)
@given(
    f=st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
    gr=small,
    gi=small,
)
def test_metric_from_sqrt_determinant_law(f, gr, gi):
    g = gr + 1j * gi
    margin = f - abs(g) ** 2
    if margin <= 1e-6:
        with pytest.raises(MetricDegeneracyError):
            metric_from_sqrt(f, g)
        return
    m = metric_from_sqrt(f, g)
    # det eta = (diag - |offdiag|^2)^2, eta positive definite
    assert np.linalg.det(m.eta).real == pytest.approx(margin**2, rel=1e-9)
    assert float(np.linalg.eigvalsh(m.eta).min()) > 0.0
    assert np.allclose(m.sqrt_eta @ m.sqrt_eta, m.eta, atol=1e-12)


def test_metric_from_sqrt_rejects_degenerate():
    with pytest.raises(MetricDegeneracyError) as exc:
        metric_from_sqrt(1.0, 1.0)
    assert exc.value.eigenvalue == pytest.approx(0.0, abs=1e-15)


def test_diag_metric():
    m = diag_metric(3.0)
    assert np.allclose(m.eta, np.diag([1.0, 9.0]))
    assert np.allclose(m.sqrt_eta, np.diag([1.0, 3.0]))
    assert np.allclose(m.inv_sqrt_eta, np.diag([1.0, 1.0 / 3.0]))
    with pytest.raises(ValueError):
        diag_metric(0.0)
    with pytest.raises(ValueError):
        diag_metric(-1.0)


def test_metric_from_matrix_round_trip():
    m0 = metric_from_sqrt(2.0, 1.0)
    m1 = metric_from_matrix(m0.eta)
    assert np.allclose(m1.sqrt_eta, m0.sqrt_eta, atol=1e-12)
    assert np.allclose(m1.inv_sqrt_eta, m0.inv_sqrt_eta, atol=1e-12)
    with pytest.raises(MetricDegeneracyError):
        metric_from_matrix(np.diag([1.0, 0.0]))


# -------------------------------------------------------- dressed generators


def test_quasi_hamiltonian_diag_metric_offdiagonals():
    # eta^{1/2} = diag(1, s): the similarity scales the two off-diagonals
    # oppositely, which is what breaks flat Hermiticity
    h = 0.5 * PAULI_X
    qh = quasi_hamiltonian(h, diag_metric(2.0), 1.0)
    assert np.allclose(qh.operator, np.array([[0.0, 1.0], [0.25, 0.0]]))
    assert qh.omega == 1.0
    assert np.allclose(qh.h, h)


def test_quasi_hamiltonian_pseudo_hermitian_and_isospectral():
    m = metric_from_sqrt(2.0, 1.0)
    h = np.array([[0.3, 0.5 - 0.1j], [0.5 + 0.1j, -0.3]], dtype=complex)
    gap = 2.0 * np.sqrt(0.09 + 0.26)
    qh = quasi_hamiltonian(h, m, gap)
    assert pseudo_hermiticity_defect(qh.operator, m.eta) < 1e-12
    got = sorted(np.linalg.eigvals(qh.operator).real)
    want = sorted(np.linalg.eigvalsh(h))
    assert np.allclose(got, want, atol=1e-12)
    assert float(np.max(np.abs(np.linalg.eigvals(qh.operator).imag))) < 1e-12


def test_quasi_hamiltonian_rejects_bad_inputs():
    m = diag_metric(2.0)
    with pytest.raises(ValueError, match="Hermitian"):
        quasi_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), m, 1.0)
    with pytest.raises(ValueError, match="gap"):
        quasi_hamiltonian(0.5 * PAULI_X, m, 2.0)
    for bad in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega"):
            quasi_hamiltonian(0.5 * PAULI_X, m, bad)


@settings(max_examples=40, deadline=None)
@given(d=small, xr=small, xi=small, f=st.floats(min_value=0.3, max_value=3.0))
def test_quasi_hamiltonian_evolution_preserves_metric_norm(d, xr, xi, f):
    h = np.array([[d, xr - 1j * xi], [xr + 1j * xi, -d]], dtype=complex)
    gap = 2.0 * np.sqrt(d * d + xr * xr + xi * xi)
    if gap < 1e-3:
        return
    m = metric_from_sqrt(f, 0.25)
    qh = quasi_hamiltonian(h, m, gap)
    psi = propagator(qh.operator, 1.3) @ np.array([0.6, 0.8j])
    before = np.vdot([0.6, 0.8j], m.eta @ np.array([0.6, 0.8j])).real
    after = np.vdot(psi, m.eta @ psi).real
    assert after == pytest.approx(before, rel=1e-9)


def test_pseudo_hermiticity_defect_zero_for_hermitian_flat():
    assert pseudo_hermiticity_defect(PAULI_X, np.eye(2)) == 0.0
    with pytest.raises(ValueError, match="singular"):
        pseudo_hermiticity_defect(PAULI_X, np.zeros((2, 2)))


# ------------------------------------------------------------------- angles


def test_state_angle_endpoints():
    assert state_angle(E0, E0) == 0.0
    assert state_angle(E0, E1) == pytest.approx(np.pi / 2.0)
    mid = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert state_angle(E0, mid) == pytest.approx(np.pi / 4.0)


def test_metric_angle_flat_reduces_to_state_angle():
    m = metric_from_matrix(np.eye(2))
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        assert metric_angle(u, v, m) == pytest.approx(state_angle(u, v), abs=1e-12)


def test_metric_angle_equals_flat_angle_of_mapped_states():
    # the metric angle is the flat angle between eta^{1/2}-mapped, renormalized
    # states; this is the dual route the travel-time shortcut relies on
    m = metric_from_sqrt(2.0, 0.7 + 0.2j)
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        mu = m.sqrt_eta @ u
        mv = m.sqrt_eta @ v
        direct = metric_angle(u, v, m)
        mapped = state_angle(mu / np.linalg.norm(mu), mv / np.linalg.norm(mv))
        assert direct == pytest.approx(mapped, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    f=st.floats(min_value=0.3, max_value=3.0),
    g=st.floats(min_value=-0.5, max_value=0.5),
)
def test_metric_angle_gauge_invariant_under_rescaling(scale, f, g):
    m = metric_from_sqrt(f, g)
    scaled = metric_from_matrix(scale * m.eta)
    u = np.array([0.8, 0.6j])
    v = np.array([0.6, -0.8])
    assert metric_angle(u, v, scaled) == pytest.approx(metric_angle(u, v, m), abs=1e-9)


def test_metric_angle_diag_orthogonal_pair_stays_right():
    # diag metrics never bring the basis states closer: the cross term is 0
    for lam in (0.1, 0.5, 2.0, 10.0):
        assert metric_angle(E0, E1, diag_metric(lam)) == pytest.approx(np.pi / 2.0)


def test_metric_angle_shrinks_toward_degeneracy():
    # near-degenerate roots pull the basis states together: the shortcut
    angles = []
    for delta in (0.5, 1e-1, 1e-2, 1e-3):
        m = metric_from_sqrt(1.0, np.sqrt(1.0 - delta))
        angles.append(metric_angle(E0, E1, m))
    assert all(a > b for a, b in zip(angles, angles[1:]))
    assert angles[-1] < 0.05


def test_metric_angle_norm_collapse_raises():
    m = Metric(eta=np.diag([1.0, 0.0]).astype(complex), sqrt_eta=np.diag([1.0, 0.0]).astype(complex), inv_sqrt_eta=np.eye(2, dtype=complex))
    with pytest.raises(MetricDegeneracyError):
        metric_angle(E0, E1, m)


# ------------------------------------------------------- transition defect


def test_transition_defect_static_compatible_pair_vanishes():
    # time-independent eta with an eta-Hermitian generator balances exactly
    m = metric_from_sqrt(2.0, 1.0)
    h = quasi_hamiltonian(0.5 * PAULI_X, m, 1.0).operator
    ts = np.linspace(0.0, 1.0, 9)
    defect = transition_defect(ts, [m.eta] * 9, [h] * 9)
    assert defect < 1e-12


def test_transition_defect_flat_hermitian_vanishes():
    ts = np.linspace(0.0, 2.0, 7)
    defect = transition_defect(ts, [np.eye(2)] * 7, [PAULI_X] * 7)
    assert defect == 0.0


def test_transition_defect_analytic_ramp():
    # eta(t) = diag(1, 1+t) with a constant diagonal generator: the balance
    # residual is exactly 1/(1+t), maximized at the first interior sample;
    # central differencing adds O(step^2)
    ts = np.linspace(0.5, 1.5, 201)
    etas = [np.diag([1.0, 1.0 + t]).astype(complex) for t in ts]
    hams = [np.diag([0.7, -0.7]).astype(complex)] * len(ts)
    defect = transition_defect(ts, etas, hams)
    assert defect == pytest.approx(1.0 / (1.0 + ts[1]), abs=1e-5)


def test_transition_defect_input_validation():
    eye = [np.eye(2)] * 3
    h3 = [PAULI_X] * 3
    with pytest.raises(ValueError, match="three"):
        transition_defect([0.0, 1.0], eye[:2], h3[:2])
    with pytest.raises(ValueError, match="increasing"):
        transition_defect([0.0, 0.0, 1.0], eye, h3)
    for bad in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            transition_defect(bad, eye, [0.5 * PAULI_X] * 3)
    with pytest.raises(ValueError, match="length"):
        transition_defect([0.0, 0.5, 1.0], eye, h3[:2])
    with pytest.raises(ValueError, match="singular"):
        transition_defect([0.0, 0.5, 1.0], [np.eye(2), np.zeros((2, 2)), np.eye(2)], h3)
