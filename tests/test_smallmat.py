"""Dense 2x2/4x4 helpers checked against independent routes.

The propagator is validated against a plain Taylor sum, the Hermitian square
root against re-squaring and scipy's general sqrtm, and the closed-form
eigenvalues against np.roots on the characteristic polynomial.  The frozen
literals below were produced by those oracle routes, not by the code under
test.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tachys.smallmat import (
    _EP_RADIUS,
    MetricDegeneracyError,
    _pauli_split,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_operator,
    as_state,
    dagger,
    eigvals2,
    fidelity,
    frobenius,
    hermitian_sqrt,
    is_hermitian,
    normalize,
    positive_finite,
    propagator,
    row_norms,
    spectral_gap,
    states_equal,
)

UNITARITY_TOL = 1e-11
GROUP_LAW_TOL = 1e-10
SQRT_TOL = 1e-9
TRACE_DET_TOL = 1e-12


def _taylor_expm(m, t, terms=40):
    """Independent oracle: plain Taylor sum of exp(-1j*m*t)."""
    acc = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    x = -1j * t * np.asarray(m, dtype=complex)
    for k in range(1, terms):
        term = term @ x / k
        acc = acc + term
    return acc


finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _hermitian_from(reals):
    d0, d1, xr, xi = reals
    return np.array([[d0, xr - 1j * xi], [xr + 1j * xi, d1]], dtype=complex)


# ---------------------------------------------------------------- propagator


def test_propagator_matches_taylor_oracle_hermitian():
    # frozen oracle output for exp(-i*H*0.7), 40-term Taylor sum
    h = np.array([[0.3, 0.5 - 0.2j], [0.5 + 0.2j, -0.1]], dtype=complex)
    expected = np.array(
        [
            [0.90844971701572208 - 0.20028745131385048j, -0.159749267353443 - 0.33027900339000482j],
            [0.11209811908199288 - 0.34933946269858485j, 0.92751017632430188 + 0.071559935121585413j],
        ]
    )
    got = propagator(h, 0.7)
    assert np.linalg.norm(got - expected) < 1e-13


def test_propagator_matches_taylor_oracle_non_hermitian():
    m = np.array([[0.2 + 0.1j, 1.1], [0.05j, -0.4 - 0.3j]], dtype=complex)
    expected = np.array(
        [
            [1.0992344507846927 - 0.33690459825541613j, 0.099529090289579764 - 1.2346731304817899j],
            [0.056121505930990447 + 0.0045240495586172623j, 0.59597380863336225 + 0.30036107644753129j],
        ]
    )
    got = propagator(m, 1.3)
    assert np.linalg.norm(got - expected) < 1e-12


def test_propagator_identity_at_zero_time():
    h = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    assert np.linalg.norm(propagator(h, 0.0) - np.eye(2)) == 0.0


def test_propagator_scalar_generator():
    # r = 0 branch: pure phase
    u = propagator(0.7 * np.eye(2), 2.0)
    assert np.linalg.norm(u - np.exp(-1.4j) * np.eye(2)) < 1e-15


def test_propagator_nilpotent_generator():
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    u = propagator(n, 0.5)
    assert np.linalg.norm(u - (np.eye(2) - 0.5j * n)) < 1e-15


def test_propagator_pauli_x_half_period():
    u = propagator(0.5 * PAULI_X, np.pi)
    # half period of the sigma_x drive swaps the basis states (up to phase)
    assert states_equal(u @ np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_propagator_4x4_hermitian():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (a + dagger(a))
    got = propagator(h, 0.9)
    assert np.linalg.norm(got - _taylor_expm(h, 0.9, terms=60)) < 1e-11
    assert np.linalg.norm(got @ dagger(got) - np.eye(4)) < UNITARITY_TOL


def test_propagator_time_array_stacks_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(11)
    general = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ts = np.linspace(-2.0, 5.0, 257)
    for gen in (general, a + dagger(a)):
        stack = propagator(gen, ts)
        assert stack.shape == (ts.size,) + gen.shape
        assert np.array_equal(stack, np.stack([propagator(gen, float(t)) for t in ts]))


def _random_generators(rng, n):
    return rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))


def _bytes_equal(stack, singles):
    return np.asarray(stack).tobytes() == np.asarray(singles).tobytes()


def test_propagator_generator_stack_matches_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(12)
    general = _random_generators(rng, 300)
    hermitian = 0.5 * (general + dagger(general))
    nilpotent = np.zeros((4, 2, 2), dtype=complex)
    nilpotent[:, 0, 1] = [1.0, -2.5, 1j, 0.3 - 0.7j]
    stack = np.concatenate(
        [
            hermitian,
            general,  # complex r
            hermitian + (rng.normal(size=300) + 1j * rng.normal(size=300))[:, None, None] * np.eye(2),
            nilpotent,
            nilpotent + 0.7j * np.eye(2),
            # |r| just below and just above the exceptional-point radius
            np.array([s * PAULI_Z for s in (0.5, 0.99, 1.01, 2.0)]) * _EP_RADIUS,
            np.array([0.3 * np.eye(2) + s * _EP_RADIUS * PAULI_X for s in (0.9, 1.1)]),
        ]
    )
    ts = rng.uniform(-4.0, 6.0, size=len(stack))
    got = propagator(stack, ts)
    assert got.shape == stack.shape
    assert _bytes_equal(got, [propagator(m, float(t)) for m, t in zip(stack, ts)])
    # n = 1 is a stack too, and a time-array call on one generator agrees
    assert _bytes_equal(propagator(stack[:1], ts[:1]), propagator(stack[0], ts[0])[None])
    assert _bytes_equal(propagator(np.repeat(general[:1], 5, axis=0), ts[:5]), propagator(general[0], ts[:5]))


def test_propagator_stack_needs_one_time_per_2x2_generator():
    with pytest.raises(ValueError, match="one time each"):
        propagator(np.stack([PAULI_X, PAULI_Z]), 0.5)
    with pytest.raises(ValueError, match="one time each"):
        propagator(np.stack([PAULI_X, PAULI_Z]), np.zeros(3))
    with pytest.raises(ValueError, match="one time each"):
        propagator(np.zeros((2, 4, 4)), np.zeros(2))
    bad = np.stack([PAULI_X, PAULI_Z, PAULI_Y])
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite") as exc:
        propagator(bad, np.zeros(3))
    assert exc.value.row == 1


def test_stacked_products_round_as_the_scalar_products():
    # numpy's complex array multiply fuses its products: on this data it
    # rounds differently from the scalar product, so a stacked eigvals2 or
    # Pauli split built on it would not match the single-matrix calls
    rng = np.random.default_rng(13)
    m = _random_generators(rng, 2000)
    fused = m[:, 0, 0] * m[:, 1, 1]
    assert np.any(fused != [a * b for a, b in zip(m[:, 0, 0].tolist(), m[:, 1, 1].tolist())])
    hi, lo = eigvals2(m)
    assert _bytes_equal(np.stack([hi, lo], axis=-1), [eigvals2(x) for x in m])
    a0, r, pauli = _pauli_split(m)
    singles = [_pauli_split(x) for x in m]
    assert _bytes_equal(a0, [s[0] for s in singles])
    assert _bytes_equal(r, [s[1] for s in singles])
    assert _bytes_equal(pauli, [s[2] for s in singles])


def test_row_norms_equal_numpy_norm_of_each_row():
    rng = np.random.default_rng(14)
    for shape in ((500, 2), (500, 4), (500, 2, 2), (0, 2)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert _bytes_equal(row_norms(x), [np.linalg.norm(row) for row in x])
    # a dagger is laid out column-major; its norm still matches
    m = _random_generators(rng, 500)
    assert _bytes_equal(frobenius(dagger(m) - m), [np.linalg.norm(dagger(x) - x) for x in m])


def test_propagator_rejects_non_hermitian_4x4():
    m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    m[0, 1] = 0.5
    with pytest.raises(ValueError, match="Hermitian"):
        propagator(m, 0.5)


def test_propagator_rejects_2d_time_grid():
    with pytest.raises(ValueError):
        propagator(0.5 * PAULI_X, np.zeros((2, 2)))


def test_propagator_rejects_non_finite_times():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"t must be finite, got {bad!r}"):
            propagator(0.5 * PAULI_X, bad)
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            propagator(np.eye(4), bad)
    # an array names its first non-finite time
    with pytest.raises(ValueError, match="got inf") as exc:
        propagator(0.5 * PAULI_X, [0.0, 1.0, np.inf, np.nan])
    assert exc.value.row == 2
    with pytest.raises(ValueError, match="got -inf") as exc:
        propagator(np.stack([PAULI_X, PAULI_Z]), [-np.inf, 0.5])
    assert exc.value.row == 0


def test_import_loads_no_scipy():
    code = "import sys, tachys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@settings(max_examples=60, deadline=None)
@given(
    reals=st.lists(finite_floats, min_size=4, max_size=4),
    t=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
def test_propagator_unitary_for_hermitian(reals, t):
    h = _hermitian_from(reals)
    u = propagator(h, t)
    assert np.linalg.norm(u @ dagger(u) - np.eye(2)) < UNITARITY_TOL


@settings(max_examples=60, deadline=None)
@given(
    reals=st.lists(finite_floats, min_size=4, max_size=4),
    t=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    s=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_propagator_group_law(reals, t, s):
    h = _hermitian_from(reals)
    lhs = propagator(h, t + s)
    rhs = propagator(h, t) @ propagator(h, s)
    assert np.linalg.norm(lhs - rhs) < GROUP_LAW_TOL


@settings(max_examples=40, deadline=None)
@given(reals=st.lists(finite_floats, min_size=8, max_size=8))
def test_propagator_taylor_agreement_general(reals):
    m = np.array(
        [
            [reals[0] + 1j * reals[1], reals[2] + 1j * reals[3]],
            [reals[4] + 1j * reals[5], reals[6] + 1j * reals[7]],
        ]
    )
    assert np.linalg.norm(propagator(m, 0.3) - _taylor_expm(m, 0.3, terms=60)) < 1e-10


# ------------------------------------------------------------- hermitian_sqrt


def test_hermitian_sqrt_frozen_scipy_oracle():
    p = np.array([[2.0, 0.6 - 0.3j], [0.6 + 0.3j, 1.1]], dtype=complex)
    expected = np.array(
        [
            [1.3862471859406515, 0.25030979121340358 - 0.12515489560670182j],
            [0.25030979121340347 + 0.12515489560670179j, 1.0107824991205461],
        ]
    )
    s = hermitian_sqrt(p)
    assert np.linalg.norm(s - expected) < 1e-13
    assert is_hermitian(s)


@settings(max_examples=60, deadline=None)
@given(reals=st.lists(finite_floats, min_size=4, max_size=4))
def test_hermitian_sqrt_resquares(reals):
    d0, d1, xr, xi = reals
    base = np.array([[1.2 + abs(d0), xr + 1j * xi], [0.0, 1.2 + abs(d1)]])
    p = base @ dagger(base)  # positive definite by construction
    s = hermitian_sqrt(p)
    assert np.linalg.norm(s @ s - p) < SQRT_TOL * max(1.0, frobenius(p))
    assert float(np.linalg.eigvalsh(s).min()) > 0.0


def test_hermitian_sqrt_rejects_indefinite():
    with pytest.raises(MetricDegeneracyError) as exc:
        hermitian_sqrt(np.diag([1.0, -0.5]))
    assert exc.value.eigenvalue == pytest.approx(-0.5)


def test_hermitian_sqrt_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


# ------------------------------------------------------------------ eigvals2


def test_eigvals2_frozen_roots_oracle():
    m = np.array([[1.5 + 0.2j, -0.7], [0.3 + 0.9j, -0.8j]], dtype=complex)
    hi, lo = eigvals2(m)
    assert hi == pytest.approx(1.110774958264058 - 0.13369133964091601j, abs=1e-13)
    assert lo == pytest.approx(0.38922504173594152 - 0.46630866035908386j, abs=1e-13)


@settings(max_examples=80, deadline=None)
@given(reals=st.lists(finite_floats, min_size=8, max_size=8))
def test_eigvals2_trace_det_identities(reals):
    m = np.array(
        [
            [reals[0] + 1j * reals[1], reals[2] + 1j * reals[3]],
            [reals[4] + 1j * reals[5], reals[6] + 1j * reals[7]],
        ]
    )
    hi, lo = eigvals2(m)
    assert abs(hi + lo - np.trace(m)) < TRACE_DET_TOL * max(1.0, abs(np.trace(m)))
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert abs(hi * lo - det) < 1e-11 * max(1.0, abs(det))


def test_eigvals2_ordering():
    hi, lo = eigvals2(np.diag([-2.0, 5.0]))
    assert (hi, lo) == (5.0 + 0j, -2.0 + 0j)


def test_spectral_gap_pauli():
    assert spectral_gap(PAULI_Z) == pytest.approx(2.0)
    assert spectral_gap(0.5 * PAULI_X) == pytest.approx(1.0)
    assert spectral_gap(0.5 * PAULI_Y) == pytest.approx(1.0)


# ------------------------------------------------------------------- helpers


def test_as_operator_validation():
    with pytest.raises(ValueError):
        as_operator(np.ones((3, 3)))
    with pytest.raises(ValueError):
        as_operator(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_operator(np.eye(2), dim=4)
    with pytest.raises(ValueError, match="non-finite"):
        as_operator([[np.nan, 0.0], [0.0, 1.0]])


def test_as_state_validation():
    assert as_state([1.0, 0.0]).dtype == np.complex128
    with pytest.raises(ValueError):
        as_state([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        as_state([1.0, 0.0], dim=4)
    with pytest.raises(ValueError, match="non-finite"):
        as_state([np.inf, 0.0])


def test_positive_finite():
    assert positive_finite("omega", 2) == 2.0
    assert type(positive_finite("omega", np.float64(0.5))) is float
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega must be a positive finite real"):
            positive_finite("omega", bad)


def test_normalize_and_zero_vector():
    v = normalize([3.0, 4.0])
    assert np.linalg.norm(v) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalize([0.0, 0.0])


def test_fidelity_is_phase_insensitive():
    u = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    assert fidelity(u, np.exp(0.83j) * u) == pytest.approx(1.0)
    assert fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0
    with pytest.raises(ValueError):
        fidelity([0.0, 0.0], [1.0, 0.0])


def test_states_equal_tolerance():
    u = np.array([1.0, 0.0])
    v = np.array([np.cos(1e-6), np.sin(1e-6)])
    assert states_equal(u, v)
    assert fidelity(u, v) >= 1.0 - 1e-11
    assert not states_equal(u, [0.0, 1.0])


def test_is_hermitian():
    assert is_hermitian(PAULI_Y)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
