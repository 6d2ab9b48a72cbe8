"""Four-level Hermitian embedding of metric-dressed two-level dynamics."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from tachys import dilation, smallmat
from tachys.dilation import build_dilation, evolve_dilated, visibility_ratio
from tachys.metric import Metric, diag_metric, metric_from_matrix, metric_from_sqrt, quasi_hamiltonian
from tachys.smallmat import MetricDegeneracyError, PAULI_X, PAULI_Y, PAULI_Z, dagger, frobenius, normalize
from support import E0, E1, counted, taylor_expm

H_HALF_X = 0.5 * PAULI_X


def _rand_traceless_hermitian(rng):
    v = rng.normal(size=3)
    h = np.array(
        [[v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], -v[2]]], dtype=complex
    )
    return h, 2.0 * float(np.linalg.norm(v))


def _random_model(rng):
    """A dilation of a random traceless drive under a random metric root."""
    h, omega = _rand_traceless_hermitian(rng)
    f = rng.uniform(1.0, 3.0)
    g = rng.uniform(0.0, 0.6) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return build_dilation(h, metric_from_sqrt(f, g), omega)


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


def test_blocks_are_np_block_bit_for_bit():
    rng = np.random.default_rng(46)
    a, b, c, d = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    for blocks in ((a, b, c, d), (a, -b, b, -a), (a.T, b, -b, a.T)):
        got, want = dilation._blocks(*blocks), np.block([list(blocks[:2]), list(blocks[2:])])
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


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
    # rows equal the scalar calls bit for bit: 200 times up to 40, one row,
    # and 257 times through negative ones, for the README model and random ones
    rng = np.random.default_rng(4)
    models = [build_dilation(H_HALF_X, metric_from_sqrt(1.5, 0.4 - 0.2j), 1.0)]
    models += [_random_model(rng) for _ in range(4)]
    psi0 = np.array([0.6, 0.8j])
    grids = (np.sort(rng.uniform(0.0, 40.0, 200)), np.array([0.7]), np.linspace(-2.0, 5.0, 257))
    for model in models:
        for ts in grids:
            evolved, observed = evolve_dilated(model, psi0, ts)
            assert evolved.shape == (ts.size, 4) and observed.shape == (ts.size, 2)
            for k, t in enumerate(ts):
                big, small = evolve_dilated(model, psi0, float(t))
                assert np.array_equal(big, evolved[k])
                assert np.array_equal(small, observed[k])


def test_dilated_evolution_matches_a_taylor_sum():
    # the four-vector is exp(-i B t) applied to (psi; eta psi) in the model's
    # eigenbasis, with exp(-i B t) unitary
    rng = np.random.default_rng(7)
    psi0 = np.array([0.6, 0.8j])
    for _ in range(5):
        model = _random_model(rng)
        psi_e = dagger(model.eigenbasis) @ normalize(psi0)
        stacked = np.concatenate([psi_e, model.metric.eta @ psi_e])
        for t in (0.9, -1.7):
            evolved, _ = evolve_dilated(model, psi0, t)
            want = taylor_expm(model.hamiltonian, t, 60) @ stacked
            assert np.linalg.norm(evolved - want) < 1e-11 * np.linalg.norm(stacked)
            assert abs(np.linalg.norm(evolved) - np.linalg.norm(stacked)) < 1e-12 * np.linalg.norm(stacked)


def test_evolve_dilated_rejects_a_non_hermitian_generator():
    # a hand-built model is checked as it is built, before any evolve_dilated call
    model = build_dilation(H_HALF_X, metric_from_sqrt(2.0, 1.0), 1.0)
    big = model.hamiltonian.copy()
    big[0, 1] += 0.5
    with pytest.raises(ValueError, match="4x4 generators must be Hermitian"):
        dataclasses.replace(model, hamiltonian=big)


def test_evolve_dilated_neither_checks_nor_decomposes_its_generator(monkeypatch):
    # B is checked and decomposed once, as the model is built; a call only evaluates exp(-i B t)
    model = build_dilation(H_HALF_X, metric_from_sqrt(2.0, 1.0), 1.0)
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, calls))
    for module in (dilation, smallmat):
        monkeypatch.setattr(module, "_is_hermitian", counted(smallmat._is_hermitian, calls))
    evolve_dilated(model, E0, 0.5)
    evolve_dilated(model, E1, np.linspace(0.0, 3.0, 7))
    assert calls == []
    # the counters are live: a rebuilt model takes one check and one eigh
    dataclasses.replace(model)
    assert calls == ["_is_hermitian", "eigh"]


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
        v, big = model.extended_vectors, model.hamiltonian
        assert np.linalg.norm(dagger(v) @ v - np.eye(4)) < 1e-10
        assert np.linalg.norm(big - dagger(big)) < 1e-12
        # the audits the model keeps, bit for bit those of the conj().T forms
        assert model.unitarity_defect == frobenius(v.conj().T @ v - np.eye(4))
        assert model.hermiticity_defect == frobenius(big - big.conj().T)
        for t in (0.3, 1.7):
            _, observed = evolve_dilated(model, E0, t)
            direct = scipy.linalg.expm(-1j * t * op) @ E0
            assert np.linalg.norm(observed - direct) < 1e-8


@pytest.mark.parametrize("omega", [1e-6, 1e5, 1e8, 2.0**-40, 2.0**40])
def test_dilation_of_a_scaled_drive_is_the_unit_model_on_a_scaled_clock(omega):
    # the dilation of omega h is the dilation of h with time t / omega: each
    # gate compares its residual with the size of what it checks, so none
    # rejects the scaled model (absolute gates rejected omega = 1e5 and 1e8).
    # Bound: 1e-13 on every entry of the evolved states over t in [0, 7]
    metric = metric_from_sqrt(1.5, 0.4 - 0.2j)
    unit = build_dilation(H_HALF_X, metric, 1.0)
    model = build_dilation(omega * H_HALF_X, metric, omega)
    assert np.linalg.norm(model.hamiltonian / omega - unit.hamiltonian) <= 1e-14
    assert np.abs(model.extended_vectors - unit.extended_vectors).max() <= 1e-15
    psi0 = np.array([0.6, 0.8j])
    ts = np.linspace(0.0, 7.0, 15)
    big, observed = evolve_dilated(model, psi0, ts / omega)
    want_big, want_observed = evolve_dilated(unit, psi0, ts)
    assert np.abs(big - want_big).max() <= 1e-13
    assert np.abs(observed - want_observed).max() <= 1e-13


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


def test_build_dilation_keeps_the_dressed_generator_bit_for_bit():
    # criterion 07's family of drives and metrics
    rng = np.random.default_rng(271828)
    for _ in range(50):
        omega = rng.uniform(0.5, 2.5)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        h = 0.5 * omega * (n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)
        f = rng.uniform(0.8, 2.5)
        g = rng.uniform(0.1, 0.7) * np.sqrt(f) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        m = metric_from_sqrt(f, g)
        generator = build_dilation(h, m, omega).generator
        want = quasi_hamiltonian(h, m, omega)
        assert generator.operator.tobytes() == want.operator.tobytes()
        assert generator.h.tobytes() == want.h.tobytes()
        assert generator.metric is m and generator.omega == want.omega


def test_evolve_dilated_reads_its_state_once(monkeypatch):
    model = build_dilation(H_HALF_X, diag_metric(2.0), 1.0)
    ts = np.linspace(0.0, 3.0, 7)
    before = evolve_dilated(model, [3.0, 4.0j], ts)
    reads = []
    monkeypatch.setattr(smallmat, "_numeric", counted(smallmat._numeric, reads, record=lambda what, *_, **__: what))
    after = evolve_dilated(model, [3.0, 4.0j], ts)
    assert reads.count("state") == 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
    # the errors of a bad shape and of the zero state
    for bad, message in (
        ([[1.0, 0.0]], r"^expected a 1-d state, got shape \(1, 2\)$"),
        ([1.0, 0.0, 0.0], "^expected a length-2 state, got length 3$"),
        ([0.0, 0.0], "^cannot normalize the zero vector$"),
    ):
        with pytest.raises(ValueError, match=message):
            evolve_dilated(model, bad, ts)


def test_evolve_dilated_rejects_non_finite_times():
    model = build_dilation(H_HALF_X, diag_metric(2.0), 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"t must be finite, got {bad!r}"):
            evolve_dilated(model, E0, bad)
    with pytest.raises(ValueError, match="t must be finite, got inf"):
        evolve_dilated(model, E0, np.array([0.0, np.inf]))


def test_build_dilation_rejects_degenerate_metric():
    root = np.array([[1.0, 1.0 - 1e-7], [1.0 - 1e-7, 1.0]])
    eta = root @ root  # det ~ 4e-14, below the floor
    metric = Metric(eta=eta.astype(complex), sqrt_eta=root.astype(complex), inv_sqrt_eta=np.linalg.inv(root).astype(complex))
    with pytest.raises(MetricDegeneracyError):
        build_dilation(H_HALF_X, metric, 1.0)


def test_build_dilation_root_column_self_check_raises_on_an_ill_conditioned_metric():
    # cond(eta) 5.5e11 passes the determinant floor, but the rounding of about eps cond^2 fails
    # the root columns' adjoint eigenvalue relation.  Only the ValueError is pinned: a
    # MetricDegeneracyError with a known bound, its subclass, would serve as well
    h = float.fromhex
    f = h("0x1.fe0443138875cp-19")
    g = complex(h("-0x1.1275c44e04ed1p-10"), h("0x1.31bb0c14c0b84p-10"))
    n = (h("-0x1.2691a8cfc7a4dp-1"), h("-0x1.9a66987c3c7a5p-1"), h("-0x1.4d549d6066ba6p-3"))
    omega = h("0x1.7bfaac41e6d69p+3")
    drive = 0.5 * omega * (n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)
    with pytest.raises(ValueError):
        build_dilation(drive, metric_from_sqrt(f, g), omega)


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


def test_visibility_ratio_of_a_scaled_state_is_that_of_the_state():
    # the state is scaled as normalize scales it: at 2**600 its norms overflowed to a NaN
    # ratio, and at 2**-600 its image vanished
    m, psi = metric_from_sqrt(2.0, 0.5), np.array([1.0, 0.3j])
    want = visibility_ratio(m, psi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-600, -300, 300, 600, 1000):
            assert visibility_ratio(m, 2.0**k * psi).hex() == want.hex()


@pytest.mark.parametrize("n", [1, 3])
def test_visibility_ratio_rejects_a_stacked_metric(n):
    stacked = metric_from_sqrt(np.linspace(2.0, 3.0, n), np.linspace(1.0, 0.5, n))
    with pytest.raises(ValueError, match=rf"^metric must be a single 2x2 metric, got a stack of shape \({n}, 2, 2\)$"):
        visibility_ratio(stacked, E0)


@pytest.mark.parametrize("n", [1, 3])
def test_build_dilation_rejects_a_stacked_metric_after_the_trace_check(n):
    # the metric is checked single before its determinant floor, which reads one float
    stacked = metric_from_sqrt(np.full(n, 2.0), np.zeros(n))
    with pytest.raises(ValueError, match=rf"^metric must be a single 2x2 metric, got a stack of shape \({n}, 2, 2\)$"):
        build_dilation(H_HALF_X, stacked, 1.0)
    with pytest.raises(ValueError, match="^build_dilation requires a traceless generator$"):
        build_dilation(H_HALF_X + np.eye(2), stacked, 1.0)


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
