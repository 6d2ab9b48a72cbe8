"""Four-level Hermitian embedding of metric-dressed two-level dynamics."""

import numpy as np
import pytest
import scipy.linalg

from tachys.dilation import build_dilation, evolve_dilated, visibility_ratio
from tachys.metric import Metric, diag_metric, metric_from_matrix, metric_from_sqrt
from tachys.smallmat import MetricDegeneracyError, PAULI_X, dagger

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)

H_HALF_X = 0.5 * PAULI_X


def _rand_traceless_hermitian(rng):
    v = rng.normal(size=3)
    h = np.array(
        [[v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], -v[2]]], dtype=complex
    )
    return h, 2.0 * float(np.linalg.norm(v))


# ----------------------------------------------------------------- structure


def test_flat_metric_gives_balanced_beamsplitter():
    model = build_dilation(H_HALF_X, metric_from_matrix(np.eye(2)), 1.0)
    assert model.norm_factor == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
    expected = np.block([[np.eye(2), np.eye(2)], [np.eye(2), -np.eye(2)]]) / np.sqrt(2.0)
    assert np.allclose(model.extended_vectors, expected, atol=1e-14)
    # flat embedding just doubles the spectrum of the generator
    assert np.allclose(
        sorted(np.linalg.eigvalsh(model.hamiltonian)), [-0.5, -0.5, 0.5, 0.5], atol=1e-12
    )


def test_extended_vectors_unitary_and_hamiltonian_hermitian():
    model = build_dilation(H_HALF_X, metric_from_sqrt(2.0, 1.0), 1.0)
    v = model.extended_vectors
    assert np.linalg.norm(dagger(v) @ v - np.eye(4)) < 1e-12
    assert np.linalg.norm(model.hamiltonian - dagger(model.hamiltonian)) <= 1e-13
    # the stored metric is the unit-determinant rescale, in the eigenbasis
    assert np.linalg.det(model.metric.eta).real == pytest.approx(1.0, abs=1e-10)


def test_unit_determinant_rescale_is_recorded():
    model = build_dilation(H_HALF_X, diag_metric(2.0), 1.0)
    # diag(1, 4) has det 4; rescaled to diag(1/2, 2) with trace 5/2
    assert model.norm_factor == pytest.approx(1.0 / np.sqrt(2.5), abs=1e-12)


# ------------------------------------------------------------------ dynamics


def test_observed_dynamics_matches_expm_oracle():
    # frozen oracle: psi(0.9) under the dressed generator [[0, 1], [1/4, 0]],
    # computed with scipy's general expm
    model = build_dilation(H_HALF_X, diag_metric(2.0), 1.0)
    _, observed = evolve_dilated(model, E0, 0.9)
    expected = np.array([0.90044710235267689, -0.21748276705561512j])
    assert np.linalg.norm(observed - expected) < 1e-12


def test_embedding_reproduces_two_level_evolution_on_grid():
    metric = metric_from_sqrt(1.5, 0.4 - 0.2j)
    model = build_dilation(H_HALF_X, metric, 1.0)
    op = metric.inv_sqrt_eta @ H_HALF_X @ metric.sqrt_eta
    psi0 = np.array([0.6, 0.8j])
    for t in np.linspace(0.0, 7.0, 29):
        _, observed = evolve_dilated(model, psi0, t)
        direct = scipy.linalg.expm(-1j * t * op) @ (psi0 / np.linalg.norm(psi0))
        assert np.linalg.norm(observed - direct) < 1e-10


def test_evolve_dilated_time_array_matches_scalar_calls():
    rng = np.random.default_rng(4)
    metric = metric_from_sqrt(1.5, 0.4 - 0.2j)
    model = build_dilation(H_HALF_X, metric, 1.0)
    psi0 = np.array([0.6, 0.8j])
    ts = np.sort(rng.uniform(0.0, 40.0, 200))
    evolved, observed = evolve_dilated(model, psi0, ts)
    assert evolved.shape == (200, 4) and observed.shape == (200, 2)
    for k, t in enumerate(ts):
        big, small = evolve_dilated(model, psi0, float(t))
        assert np.array_equal(big, evolved[k])
        assert np.array_equal(small, observed[k])


def test_four_vector_norm_is_conserved():
    model = build_dilation(H_HALF_X, metric_from_sqrt(2.0, 1.0), 1.0)
    norms = []
    for t in np.linspace(0.0, 10.0, 41):
        big, _ = evolve_dilated(model, E0, t)
        norms.append(np.linalg.norm(big))
    assert np.max(np.abs(np.diff(norms))) < 1e-12


def test_observed_norm_is_not_conserved():
    # the embedded two-level part breathes while the four-vector does not
    # (the reference state is an eigenvector of this dressed generator, so
    # start from the other basis state)
    model = build_dilation(H_HALF_X, metric_from_sqrt(2.0, 1.0), 1.0)
    obs = [np.linalg.norm(evolve_dilated(model, E1, t)[1]) for t in np.linspace(0.0, 3.0, 13)]
    assert max(obs) - min(obs) > 1e-2


def test_random_embeddings_are_exact():
    rng = np.random.default_rng(20260815)
    for _ in range(10):
        h, omega = _rand_traceless_hermitian(rng)
        f = rng.uniform(0.5, 3.0)
        g = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
        if f - abs(g) ** 2 < 0.05:
            continue
        metric = metric_from_sqrt(f, g)
        model = build_dilation(h, metric, omega)
        op = metric.inv_sqrt_eta @ h @ metric.sqrt_eta
        v = model.extended_vectors
        assert np.linalg.norm(dagger(v) @ v - np.eye(4)) < 1e-10
        assert np.linalg.norm(model.hamiltonian - dagger(model.hamiltonian)) < 1e-12
        for t in (0.3, 1.7):
            _, observed = evolve_dilated(model, E0, t)
            direct = scipy.linalg.expm(-1j * t * op) @ E0
            assert np.linalg.norm(observed - direct) < 1e-8


# ---------------------------------------------------------------- validation


def test_build_dilation_input_checks():
    metric = metric_from_sqrt(2.0, 1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        build_dilation(np.array([[0.0, 1.0], [0.0, 0.0]]), metric, 1.0)
    with pytest.raises(ValueError, match="traceless"):
        build_dilation(H_HALF_X + 0.1 * np.eye(2), metric, 1.0)
    with pytest.raises(ValueError, match="gap"):
        build_dilation(H_HALF_X, metric, 3.0)
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega"):
            build_dilation(H_HALF_X, metric, bad)


def test_evolve_dilated_rejects_non_finite_times():
    model = build_dilation(H_HALF_X, diag_metric(2.0), 1.0)
    with pytest.raises(ValueError, match="t must be finite, got nan"):
        evolve_dilated(model, E0, np.nan)
    with pytest.raises(ValueError, match="t must be finite, got inf"):
        evolve_dilated(model, E0, np.array([0.0, np.inf]))


def test_build_dilation_rejects_degenerate_metric():
    root = np.array([[1.0, 1.0 - 1e-7], [1.0 - 1e-7, 1.0]])
    eta = root @ root  # det ~ 4e-14, below the floor
    metric = Metric(eta=eta.astype(complex), sqrt_eta=root.astype(complex), inv_sqrt_eta=np.linalg.inv(root).astype(complex))
    with pytest.raises(MetricDegeneracyError):
        build_dilation(H_HALF_X, metric, 1.0)


# ---------------------------------------------------------------- visibility


def test_visibility_ratio_diag_metric_power_law():
    for lam in (0.5, 2.0, 3.0):
        m = diag_metric(lam)
        assert visibility_ratio(m, E1) == pytest.approx(1.0 / lam**4, rel=1e-12)
        assert visibility_ratio(m, E0) == pytest.approx(1.0)


def test_visibility_ratio_frozen_offdiag_metric():
    # eta = [[2,3],[3,5]]: chi = (2, 3) for the reference state, ratio 1/13
    m = metric_from_sqrt(2.0, 1.0)
    assert visibility_ratio(m, E0) == pytest.approx(1.0 / 13.0, rel=1e-12)


def test_visibility_ratio_vanishing_image_raises():
    m = Metric(
        eta=np.diag([1.0, 0.0]).astype(complex),
        sqrt_eta=np.diag([1.0, 0.0]).astype(complex),
        inv_sqrt_eta=np.eye(2, dtype=complex),
    )
    with pytest.raises(ValueError, match="vanishes"):
        visibility_ratio(m, E1)


def test_visibility_collapses_along_degenerating_rescaled_metrics():
    # det(eta) -> 0 with the unit-normalized convention: the observable part
    # of the stack loses all weight while the shortcut time collapses
    vis = []
    for delta in (1e-1, 1e-2, 1e-3):
        m = metric_from_sqrt(1.0, np.sqrt(1.0 - delta))
        det = float(np.linalg.det(m.eta).real)
        vis.append(visibility_ratio(metric_from_matrix(m.eta / det), E0))
    assert all(b < a for a, b in zip(vis, vis[1:]))
    assert vis[-1] < 1e-3
