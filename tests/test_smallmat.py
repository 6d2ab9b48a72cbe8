"""Dense 2x2 helpers and qubit states checked against independent routes.

The propagator is validated against a plain Taylor sum, the Hermitian square
root against re-squaring and scipy's general sqrtm, and the closed-form
eigenvalues against np.roots on the characteristic polynomial.  The frozen
literals below were produced by those oracle routes, not by the code under
test.
"""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tachys.smallmat import (
    MetricDegeneracyError,
    _eigvals2,
    _entries2,
    _first_failing_row,
    _frobenius,
    _hermitian_part,
    _is_hermitian,
    _is_hermitian2,
    _matmul,
    _norm,
    _numeric,
    _operator2,
    _pauli_root,
    _pauli_split,
    _pauli_vector,
    _unit2,
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
)
from support import taylor_expm

UNITARITY_TOL = 1e-11
GROUP_LAW_TOL = 1e-10
SQRT_TOL = 1e-9
TRACE_DET_TOL = 1e-12


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
    assert fidelity(u @ np.array([1.0, 0.0]), np.array([0.0, 1.0])) >= 1.0 - 1e-10


def _random_generators(rng, n):
    return rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))


def _bytes_equal(stack, singles):
    return np.asarray(stack).tobytes() == np.asarray(singles).tobytes()


#: exponents k at the edges of the range step's [2**-252, 2**252], and where
#: a squared norm reaches the ends of the normal floats (2**-1022, 2**1022)
EDGE_KS = (-512, -511, -253, -252, 252, 253, 300, 511, 512)


def test_propagator_stack_needs_one_time_per_2x2_generator():
    with pytest.raises(ValueError, match="one time each"):
        propagator(np.stack([PAULI_X, PAULI_Z]), 0.5)
    with pytest.raises(ValueError, match="one time each"):
        propagator(np.stack([PAULI_X, PAULI_Z]), np.zeros(3))
    with pytest.raises(ValueError, match="expected a 2x2 matrix, got 4x4"):
        propagator(np.zeros((2, 4, 4)), np.zeros(2))
    bad = np.stack([PAULI_X, PAULI_Z, PAULI_Y])
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite") as exc:
        propagator(bad, np.zeros(3))
    assert exc.value.row == 1


def _scale_family():
    """Hermitian, metric-Hermitian (S^-1 h S under the metric root S),
    broken-PT and near-exceptional 2x2 generators, each with its Pauli parts
    summing to about 1."""
    rng = np.random.default_rng(19)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    root = np.array([[1.0, 0.4 + 0.2j], [0.4 - 0.2j, 1.7]])
    return [
        0.25 * (a + dagger(a)),
        np.linalg.solve(root, 0.5 * PAULI_Y @ root),
        0.5 * np.array([[1.0 + 0.5j, 2.0], [0.5, -1.0j]]),
        # n.n = 2**-30: |r| = 2**-15 next to |n| ~ 1
        np.array([[0.2 + 0.1j, 1.0], [2.0**-30, 0.2 + 0.1j]]),
    ]


def test_propagator_is_covariant_under_scale():
    # a drive's size only sets the clock: with the range step, 2**k ham on
    # the clock 2**-k t gives the bits of ham on t for |k| up to 1000, in
    # single, time-array and generator-stack calls.  Before it, n.n lost
    # bits, vanished or overflowed past |k| ~ 500, and 1e-200 times the
    # broken-PT generator was taken for an exceptional point
    ts = np.array([0.0, 0.3, 1.1, 2.5])
    ks = list(range(-1000, 1001, 37)) + [-253, -252, 252, 253, 1000]
    for ham in _scale_family():
        want = propagator(ham, ts)
        for k in ks:
            # the scaled arguments are exact: no entry falls below the normal floats
            assert (2.0**k * ham * 2.0**-k).tobytes() == ham.tobytes()
            scaled, clock = 2.0**k * ham, 2.0**-k * ts
            assert _bytes_equal([propagator(scaled, t) for t in clock], want), k
            assert _bytes_equal(propagator(scaled, clock), want), k
            assert _bytes_equal(propagator(np.stack([scaled] * len(ts)), clock), want), k
        # one stack of every scale, each row of it the unit call
        stack = np.stack([2.0**k * ham for k in ks])
        got = propagator(stack, np.array([2.0**-k * ts[2] for k in ks]))
        assert _bytes_equal(got, [want[2]] * len(ks))
    # a Pauli vector that sums past the float range raises, where the
    # parent returned a NaN matrix
    huge = np.array([[0.8e308, 1e308], [0.8e308, -0.8e308]])
    with pytest.raises(ValueError, match="^the generator's Pauli vector leaves the float range$"):
        propagator(huge, 1.0)
    # a finite Pauli vector on a clock t 2**e past the float range raises with no warning, naming
    # its earliest such time (a stack its first such row's time, and marks the row); so does a
    # phase a0 t past it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = 0.75e308 * np.ones((2, 2))
        assert np.isfinite(propagator(edge, 1.0)).all()
        for t in (4.0, [1.0, 4.0], [5.0, 1.0, -4.0]):
            with pytest.raises(ValueError, match=r"^the propagator's clock t 2\*\*e is first not finite at t = -?4\.0$"):
                propagator(edge, t)
        # row 1 fails first, though row 2's t = 4.0 is the earliest time
        for t in (np.array([1.0, 5.0, 4.0]), [1.0, 5.0, 4.0]):
            with pytest.raises(ValueError, match=r"^the propagator's clock t 2\*\*e is not finite at t = 5\.0$") as exc:
                propagator(np.stack([edge] * 3), t)
            assert exc.value.row == 1
        with pytest.raises(ValueError, match=r"^the propagator overflows: U\(t\) is first not finite at t = 4\.0$"):
            propagator(1e308 * np.eye(2), 4.0)
    # the entries are halved before they are summed, so a finite Pauli vector
    # is not taken for an overflow: 2**1023 X on the clock 2**-1023 is X on
    # 1, and 1e308 X gives its finite unitary
    edge = [[0.0, 2.0**1023], [2.0**1023, 0.0]]
    assert propagator(edge, 2.0**-1023).tobytes() == propagator(PAULI_X, 1.0).tobytes()
    got = propagator([[0.0, 1e308], [1e308, 0.0]], 1.0)
    assert np.abs(got - (math.cos(1e308) * np.eye(2) - 1j * math.sin(1e308) * PAULI_X)).max() <= 1e-15
    with pytest.raises(ValueError, match="Pauli vector leaves the float range") as exc:
        propagator(np.stack([PAULI_X, huge, [[0.0, 1e308], [1e308, 0.0]]]), np.ones(3))
    assert exc.value.row == 1


def test_propagator_damps_a_large_imaginary_root_before_it_overflows():
    # r = i (plus a real part for levels 1, -2i): cosh(t) alone passes the
    # float range near t = 710, but one level only rotates and the other
    # decays as e^{-2t}, so every exact result is bounded
    v = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    ts = np.array([1.0, 800.0, 650.0, 1500.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for levels in ([0.0, -2j], [1.0, -2j], [0.3, 0.3 - 2j]):
            for basis in (np.eye(2), v):
                m = basis @ np.diag(levels) @ dagger(basis)
                for t in (800.0, 1500.0):
                    want = basis @ np.diag(np.exp(-1j * np.array(levels) * t)) @ dagger(basis)
                    assert np.abs(propagator(m, t) - want).max() <= 1e-12
                # rows past the limit match the scalar calls bit for bit too
                singles = [propagator(m, t) for t in ts]
                assert _bytes_equal(propagator(m, ts), singles)
                assert _bytes_equal(propagator(np.stack([m] * len(ts)), ts), singles)


def test_propagator_damps_a_tiny_imaginary_root_before_it_overflows():
    # r = 1e-10 i: at t = 6.9e12, |Im r t| = 690 is under the cosh limit, but
    # sin(r t)/r = sinh(690) / 1e-10 is not; the exact operator is
    # diag(1, e^-1380), and past the limit (t = 7.1e12) it is diag(1, e^-1420)
    m = np.diag([0.0, -2e-10j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (6.9e12, 7.1e12):
            got = propagator(m, t)
            assert np.abs(got - np.diag([1.0, 0.0])).max() <= 1e-12
        ts = np.array([1.0, 6.9e12, 7.1e12])
        assert _bytes_equal(propagator(m, ts), [propagator(m, t) for t in ts])


def test_propagator_raises_at_its_first_overflowing_time():
    # levels 0 and 2i: the exact operator grows as e^{2t} and passes the float
    # range near t = 355, under the damping gate (|Im r t| = t < 700); it
    # raises with no warning, naming the earliest time, or a stack's row
    m = np.array([[0.0, 1.0], [0.0, 2j]])
    first = r"^the propagator overflows: U\(t\) is first not finite at t = 400\.0$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(propagator(m, [1.0, 300.0])).all()
        for t in (400.0, [1.0, 400.0, 500.0], [500.0, 400.0, 1.0]):
            with pytest.raises(ValueError, match=first):
                propagator(m, t)
        with pytest.raises(ValueError, match=r"^the propagator overflows: U\(t\) is not finite at t = 400\.0$") as exc:
            propagator(np.stack([PAULI_X, m, m]), [1.0, 400.0, 300.0])
    assert exc.value.row == 1


def test_matmul_is_the_product_chain_bit_for_bit():
    rng = np.random.default_rng(37)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    # a 2x2, (n, 2, 2) stacks, a matrix on a state stack, a three-factor 4x4 chain
    a, b, s, t, states = draw(2, 2), draw(2, 2), draw(50, 2, 2), draw(50, 2, 2), draw(50, 2)
    x, y, z = draw(4, 4), draw(4, 4), draw(4, 4)
    cases = [((a, b), a @ b), ((s, t), s @ t), ((a, states[..., None]), a @ states[..., None]), ((x, y, z), x @ y @ z)]
    for factors, want in cases:
        got = _matmul(*factors)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the real (k, 4) . (4, 8) product of evolve_semigroup, written into out
    rows, basis = rng.normal(size=(4, 9)), rng.normal(size=(4, 8))
    out = np.empty((9, 8))
    assert _matmul(rows.T, basis, out=out) is out
    assert out.tobytes() == (rows.T @ basis).tobytes()


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
    a0, e, r, pauli = _pauli_split(m)
    singles = [_pauli_split(x) for x in m]
    assert _bytes_equal(a0, [s[0] for s in singles])
    assert e == 0 and all(s[1] == 0 for s in singles)
    assert _bytes_equal(r, [s[2] for s in singles])
    assert _bytes_equal(pauli, [s[3] for s in singles])
    # the Pauli vector and its range step, in and past [2**-252, 2**252]
    for k in (-300, 0, 300):
        scaled = m * 2.0**k
        a0, e, *n = _pauli_vector(*_entries2(scaled))
        singles = [_pauli_vector(*_entries2(x)) for x in scaled]
        assert _bytes_equal(a0, [s[0] for s in singles])
        assert np.array_equal(np.broadcast_to(e, len(m)), [s[1] for s in singles])
        assert np.all(e != 0) if k else e == 0
        assert _bytes_equal(np.stack(n, axis=-1), [s[2:] for s in singles])


def test_norm_of_a_stack_equals_numpy_norm_of_each_row():
    rng = np.random.default_rng(14)
    for shape in ((500, 2), (500, 4), (500, 2, 2), (0, 2)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert _bytes_equal(_norm(x), [np.linalg.norm(row) for row in x])
    # one vector is np.linalg.norm itself, as a Python float
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert _norm(v) == np.linalg.norm(v) and type(_norm(v)) is float
    # a dagger is laid out column-major; its norm still matches
    m = _random_generators(rng, 500)
    assert _bytes_equal(frobenius(dagger(m) - m), [np.linalg.norm(dagger(x) - x) for x in m])
    # a stack in Fortran order, or of strided views, has the norms of its C-ordered copy
    strided = np.stack([m, m], axis=-1)[..., 0]
    assert _bytes_equal(frobenius(np.asfortranarray(m)), frobenius(m))
    assert _bytes_equal(frobenius(strided), frobenius(m))


def test_hermitian_part_halves_before_it_sums():
    # on normal floats the bits of the sum halved; past half the float range
    # still finite, where m + m^dag overflows
    rng = np.random.default_rng(24)
    for shape in ((2, 2), (4, 4), (50, 2, 2)):
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert _bytes_equal(_hermitian_part(m), 0.5 * (m + dagger(m)))
    m = np.array([[1.5e308, 1e308 - 1e308j], [1e308 + 1e308j, -1.5e308]])
    assert _bytes_equal(_hermitian_part(m), m)


def test_numeric_reads_a_complex128_array_as_it_is():
    m = np.arange(8.0).view(complex).reshape(2, 2)
    for x in (m, m.T, m[:, :1]):
        assert _numeric("matrix", x) is x
        copied = _numeric("matrix", x, copy=True)
        assert copied is not x and copied.flags.c_contiguous and _bytes_equal(copied, np.ascontiguousarray(x))
    # any other numeric dtype, a byte-swapped complex128 included, is converted to native complex128
    for x in (m.astype(">c16"), m.astype(np.complex64), np.arange(4).reshape(2, 2), [[1.0, 2j], [3, 4]]):
        got = _numeric("matrix", x)
        assert got.dtype == np.complex128 and got.dtype.isnative and np.array_equal(got, np.asarray(x))


def test_first_failing_row_raises_an_unmarked_error_as_it_is():
    # an error with no row mark is not a row's: it leaves at once, even after
    # a marked one sent the sweep back to its earlier rows
    unmarked = ValueError("no row")
    marked = ValueError("row 3")
    marked.row = 3

    def run(n):
        raise marked if n == 10 else unmarked

    with pytest.raises(ValueError) as exc:
        _first_failing_row(run, 10)
    assert exc.value is unmarked
    assert _first_failing_row(lambda n: n, 10) == 10


def test_propagator_rejects_2d_time_grid():
    with pytest.raises(ValueError):
        propagator(0.5 * PAULI_X, np.zeros((2, 2)))


def test_propagator_rejects_non_finite_times():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"t must be finite, got {bad!r}"):
            propagator(0.5 * PAULI_X, bad)
    # an array names its first non-finite time
    with pytest.raises(ValueError, match="got inf") as exc:
        propagator(0.5 * PAULI_X, [0.0, 1.0, np.inf, np.nan])
    assert exc.value.row == 2
    with pytest.raises(ValueError, match="got -inf") as exc:
        propagator(np.stack([PAULI_X, PAULI_Z]), [-np.inf, 0.5])
    assert exc.value.row == 0


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
    assert np.linalg.norm(propagator(m, 0.3) - taylor_expm(m, 0.3, 60)) < 1e-10


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


def test_hermitian_sqrt_of_entries_near_the_float_range():
    # the Hermitian part is halved before it is summed: p + p^dag overflowed
    # past about 9e307 and the root was taken of inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hermitian_sqrt(np.diag([1e308, 1e308]))
    assert np.abs(got - 1e154 * np.eye(2)).max() <= 1e-15 * 1e154


def test_hermitian_sqrt_scales_by_powers_of_two_across_the_float_range():
    # the floor is judged in the frame of an even range step 4**-j, so a finite root of entries
    # whose Frobenius norm passes the float range is returned, not refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hermitian_sqrt(2.0**1022 * np.diag([3.0, 3.0]))
    assert got.tobytes() == (math.sqrt(3.0) * 2.0**511 * np.eye(2, dtype=complex)).tobytes()
    # and 4**k P has the root of P times 2**k, bit for bit, far outside [2**-252, 2**252]
    rng = np.random.default_rng(25)
    for _ in range(20):
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        p = _matmul(b, dagger(b)) + 0.1 * np.eye(2)
        p = 0.5 * p + 0.5 * dagger(p)
        want = hermitian_sqrt(p).view(float)
        for k in (300, -300, 500, -500):
            got = hermitian_sqrt(np.ldexp(p.view(float), 2 * k).view(complex))
            assert got.tobytes() == np.ldexp(want, k).tobytes(), k
    # an indefinite matrix out of range names its eigenvalue in the caller's frame
    with pytest.raises(MetricDegeneracyError, match=r"smallest eigenvalue -2\.000e-300$") as exc:
        hermitian_sqrt(np.diag([3e-300, -2e-300]))
    assert exc.value.eigenvalue == -2e-300


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


def test_eigvals2_scales_by_powers_of_two_across_the_float_range():
    # past |k| ~ 511 the squared trace and determinant used to underflow or
    # overflow: at 2**-540 a double root, at 2**515 NaN.  A matrix whose
    # largest entry part leaves [2**-252, 2**252] is rescaled, so the roots
    # of 2**k h are those of h times 2**k, bit for bit, single and stacked
    rng = np.random.default_rng(540)
    for _ in range(4):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for h in (0.5 * (a + dagger(a)), a):
            base = eigvals2(h)
            ks = list(range(-1000, 1001, 3)) + [-540, -522, -511, -510, 509, 510, 511, 515]
            want = [[complex(math.ldexp(z.real, k), math.ldexp(z.imag, k)) for z in base] for k in ks]
            got = [list(eigvals2(h * 2.0**k)) for k in ks]
            assert got == want
            hi, lo = eigvals2(np.stack([h * 2.0**k for k in ks]))
            assert np.stack([hi, lo], axis=-1).tobytes() == np.array(want).tobytes()
    assert eigvals2(np.zeros((2, 2))) == (0j, 0j)
    assert [x.shape for x in eigvals2(np.zeros((0, 2, 2)))] == [(0,), (0,)]
    # an eigenvalue past the float range raises on the way back from the range step, single and
    # stacked, with no warning: the parent raised OverflowError("math range error") for one matrix
    _raise_past_the_float_range(eigvals2)


def _raise_past_the_float_range(f):
    """``f`` of np.full((2, 2), 1.5e308), whose result (3e308) passes the float range, alone and as
    row 1 of a stack, raises ValueError marking that row, with no warning."""
    huge = np.full((2, 2), 1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the result leaves the float range$"):
            f(huge)
        with pytest.raises(ValueError, match="^the result leaves the float range$") as exc:
            f(np.stack([PAULI_X, huge]))
    assert exc.value.row == 1


def test_eigvals2_ordering():
    hi, lo = eigvals2(np.diag([-2.0, 5.0]))
    assert (hi, lo) == (5.0 + 0j, -2.0 + 0j)
    # tr^2 - 4 det = -4 - 4e-17 i: the root's real part 2e-17 rounds away
    # next to tr, so the real parts tie and the larger imaginary part, which
    # (tr - disc) / 2 carries, sorts first
    m = np.array([[1.0, 1.0], [-1.0 - 1e-17j, 1.0]])
    assert eigvals2(m) == (1.0 + 1.0j, 1.0 - 1.0j)
    assert [z.tolist() for z in eigvals2(m[None])] == [[1.0 + 1.0j], [1.0 - 1.0j]]


def test_spectral_gap_pauli():
    for mat, gap in ((PAULI_Z, 2.0), (0.5 * PAULI_X, 1.0), (0.5 * PAULI_Y, 1.0)):
        hi, lo = eigvals2(mat)
        assert hi - lo == pytest.approx(gap)


# ------------------------------------------------------------------- helpers


def test_as_operator_validation():
    with pytest.raises(ValueError):
        as_operator(np.ones((3, 3)))
    with pytest.raises(ValueError):
        as_operator(np.ones((2, 3)))
    with pytest.raises(ValueError, match="expected a 2x2 matrix, got 4x4"):
        as_operator(np.eye(4))
    with pytest.raises(ValueError, match="non-finite"):
        as_operator([[np.nan, 0.0], [0.0, 1.0]])


def test_as_state_validation():
    assert as_state([1.0, 0.0]).dtype == np.complex128
    with pytest.raises(ValueError):
        as_state([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="expected a length-2 state, got length 4"):
        as_state([1.0, 0.0, 0.0, 0.0])
    # a state is 1-d, or with stack an (n, 2) stack: no other shape is flattened
    for shape in ((2, 1), (1, 2), (1, 1, 2), (2, 2), ()):
        with pytest.raises(ValueError, match=re.escape(f"expected a 1-d state, got shape {shape}")):
            as_state(np.ones(shape))
    for shape in ((1, 1, 2), ()):
        with pytest.raises(ValueError, match=re.escape(f"expected a 1-d state or an (n, 2) stack, got shape {shape}")):
            as_state(np.ones(shape), stack=True)
    with pytest.raises(ValueError, match="expected a length-2 state, got length 1"):
        as_state(np.ones((2, 1)), stack=True)
    assert as_state(np.ones((1, 2)), stack=True).shape == (1, 2)
    with pytest.raises(ValueError, match="non-finite"):
        as_state([np.inf, 0.0])


#: every reader of a 2x2 matrix or a length-2 state, as (name, call, input kind)
_SIZED_CALLS = [
    ("as_operator", as_operator, "matrix"),
    ("as_operator stack", lambda x: as_operator(x, stack=True), "matrices"),
    ("propagator", lambda x: propagator(x, 0.5), "matrix"),
    ("propagator stack", lambda x: propagator(x, [0.5, 1.0]), "matrices"),
    ("hermitian_sqrt", hermitian_sqrt, "matrix"),
    ("as_state", as_state, "state"),
    ("as_state stack", lambda x: as_state(x, stack=True), "states"),
    ("fidelity first", lambda x: fidelity(x, [1.0, 0.0]), "state"),
    ("fidelity second", lambda x: fidelity([1.0, 0.0], x), "state"),
    ("normalize", normalize, "state"),
    ("normalize stack", normalize, "states"),
]


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("name, call, kind", _SIZED_CALLS, ids=[row[0] for row in _SIZED_CALLS])
def test_a_wrong_size_raises_the_one_two_level_message(name, call, kind, k):
    # smallmat is two-level only: a 3x3 or 4x4 matrix, or a state of length
    # 3 or 4, raises the same message from every reader
    x = {"matrix": np.eye(k), "matrices": np.stack([np.eye(k)] * 2), "state": np.ones(k), "states": np.ones((2, k))}[kind]
    message = f"expected a 2x2 matrix, got {k}x{k}" if kind.startswith("matri") else f"expected a length-2 state, got length {k}"
    with pytest.raises(ValueError) as exc:
        call(x)
    assert type(exc.value) is ValueError and str(exc.value) == message


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


@pytest.mark.parametrize("scale", [1e300, 1e200, 1e-170, 1e-200, 1e-310, 5e-324] + [2.0**k for k in EDGE_KS])
def test_normalize_rescales_states_whose_squares_leave_the_float_range(scale):
    # |x|^2 overflows (or vanishes, or is subnormal) although |x| does not;
    # a power-of-two rescaling first keeps the direction.  At the edges of
    # the range a scaled state gives the unscaled one's bits
    if scale in [2.0**k for k in EDGE_KS]:
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        assert _bytes_equal(normalize(scale * x), normalize(x))
        assert _bytes_equal([normalize(scale * v) for v in x], normalize(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = normalize([scale, scale])
        assert np.abs(got - np.sqrt(0.5)).max() <= 1e-15
        assert np.abs(normalize([scale, 1j * scale]) - [np.sqrt(0.5), 1j * np.sqrt(0.5)]).max() <= 1e-15
        stack = normalize([[scale, scale], [3.0, 4.0], [0.0, scale]])
    assert np.abs(stack[0] - np.sqrt(0.5)).max() <= 1e-15
    assert stack[1].tobytes() == normalize([3.0, 4.0]).tobytes()
    assert np.abs(stack[2] - [0.0, 1.0]).max() <= 1e-15
    with pytest.raises(ValueError, match="zero vector") as exc:
        normalize([[scale, scale], [0.0, 0.0]])
    assert exc.value.row == 1


def test_normalize_keeps_ordinary_states_bit_for_bit():
    # states in the ordinary range are not rescaled: the plain quotient stays
    rng = np.random.default_rng(15)
    scales = 10.0 ** rng.uniform(-150, 150, size=(400, 1))
    x = (rng.normal(size=(400, 2)) + 1j * rng.normal(size=(400, 2))) * scales
    want = [v / np.linalg.norm(v) for v in x]
    assert _bytes_equal(normalize(x), want)
    assert _bytes_equal([normalize(v) for v in x], want)


def test_unit2_is_normalize_bit_for_bit():
    # the scalar normalization of first_passage_scan, against normalize: every
    # entry, signed zeros included, on random, signed-zero and extreme states
    rng = np.random.default_rng(16)
    states = list((rng.normal(size=(3000, 2)) + 1j * rng.normal(size=(3000, 2))) * 10.0 ** rng.uniform(-200, 200, size=(3000, 1)))
    zeros = [0.0, -0.0, 1.5, -0.25]
    states += [np.array([complex(a, b), complex(c, d)]) for a in zeros for b in zeros for c in zeros for d in zeros if a or b or c or d]
    states += [np.array(x, dtype=complex) for x in ([1e300, 1e300], [1e-170, 1e-170j], [5e-324, 0.0], [1.7e308, -1.7e308j])]
    for v in states:
        got = np.array(_unit2(v))
        assert got.tobytes() == normalize(v).tobytes(), v
    # at the edges of the range a scaled state gives the unscaled one's bits
    for v in states[:50]:
        v = v / np.abs(v.view(float)).max()
        want = _unit2(v)
        for k in EDGE_KS:
            assert np.array(_unit2(2.0**k * v)).tobytes() == np.array(want).tobytes(), k
    with pytest.raises(ValueError, match="cannot normalize the zero vector"):
        _unit2([0.0, -0.0])


def _outcome(read, x):
    """What ``read(x)`` gives: the exception's type and message, or the
    entries' parts as float.hex strings, signed zeros included."""
    try:
        entries = read(x)
    except Exception as exc:  # the type itself is compared
        return type(exc), str(exc)
    return [part.hex() for z in entries for part in (z.real, z.imag)]


def _with_entry(shape, k, bad):
    """Ones of ``shape``, with the k-th entry (in C order) set to ``bad``."""
    x = np.ones(shape, dtype=complex)
    x.flat[k] = bad
    return x


_NON_FINITE = (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf), complex(0.5, -np.inf))

#: inputs on which the scalar readers must act as as_operator / as_state do:
#: raise the same error, or give the same entries
_OPERATOR_INPUTS = [
    np.eye(4), np.eye(3), np.ones((2, 1)), np.ones((1, 2, 2)), np.ones(4), [], 5, True, 2.5j,
    [[1, 0], [0, 1]], [[True, False], [1j, -0.0]], [[1, 2], [3]], "ab",
    np.array([[0.5, -0.0], [0.25j, 3.0]]), np.arange(8.0).reshape(2, 4)[:, ::2],
    np.array([[1, 2], [3, 4]], dtype=np.int8), [[1, np.nan], [0, 1]], [[1, 0], [0, np.inf]],
] + [_with_entry((2, 2), k, bad) for k in range(4) for bad in _NON_FINITE]
# a bad shape is reported before a non-finite entry
_OPERATOR_INPUTS += [_with_entry((4, 4), 5, np.nan), _with_entry((3, 3), 0, np.inf), _with_entry((2, 1), 1, -np.inf)]
_STATE_INPUTS = [
    np.ones(3), np.ones(4), np.zeros(2), [0.0, -0.0], np.ones((2, 1)), np.ones((1, 2)), np.ones((2, 2)),
    [], 5, True, 2.5j, [1, 0], [True, 1j], [[1], [2, 3]], "ab", np.eye(2)[:, 1],
    np.array([1, 2], dtype=np.int8), [np.nan, 1], [1, -np.inf],
] + [_with_entry(2, k, bad) for k in range(2) for bad in _NON_FINITE]
_STATE_INPUTS += [_with_entry(3, 1, np.nan), _with_entry(4, 0, np.inf), _with_entry((2, 1), 1, -np.inf)]


def _verdict(gate, x):
    """``gate(x)``, or the type and message of the exception it raises."""
    try:
        return gate(x)
    except Exception as exc:  # the type itself is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("x", _OPERATOR_INPUTS)
def test_operator_reader_acts_as_as_operator(x):
    want = _outcome(lambda y: as_operator(y).ravel().tolist(), x)
    assert _outcome(_operator2, x) == want
    # the checked read and the Hermiticity gate raise the same, or give the
    # verdict of the numpy rule on the one-matrix stack
    want = _verdict(lambda y: bool(is_hermitian(as_operator(y)[None])[0]), x)
    assert _verdict(lambda y: _is_hermitian2(*_operator2(y))[0], x) == want


@pytest.mark.parametrize("x", _STATE_INPUTS)
def test_state_reader_acts_as_as_state(x):
    # _unit2's one read and pass raise what as_state, then normalize, raise,
    # or give normalize's bits
    assert _outcome(_unit2, x) == _outcome(lambda y: normalize(as_state(y)), x)


def test_one_pass_readers_keep_bits_and_errors_across_the_float_range():
    # parts at scales 2**-600..2**600, mixed octaves, zeros and non-finite
    # parts: the pretest sends each outside its range to the full checks,
    # and every result keeps the bits (or the error) of the checked path
    rng = np.random.default_rng(23)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.0**-252, 2.0**252, 2.0**-250, 2.0**251]
    for k in range(4000):
        parts = rng.normal(size=8) * 2.0 ** (rng.uniform(-600.0, 600.0) + 3.0 * rng.integers(-1, 2, size=8))
        if k % 5 == 0:
            parts[rng.integers(0, 8, size=2)] = rng.choice(specials, size=2)
        entries = parts.view(complex)
        state = entries[:2]
        want = _outcome(lambda y: normalize(as_state(y)), state)
        assert _outcome(_unit2, state) == want
        m = entries.reshape(2, 2)
        if k % 3 == 0:
            m = np.array([[m[0, 0].real, m[0, 1]], [m[0, 1].conjugate(), m[1, 1].real]])
        want = _verdict(lambda y: (bool(is_hermitian(as_operator(y)[None])[0]), math.hypot(*y.view(float).ravel())), m)
        got = _verdict(lambda y: _is_hermitian2(*_operator2(y)), m)
        if isinstance(got, tuple) and got[0] is True and got[1] == 0.0:
            # an exactly Hermitian matrix's verdict needs no norm
            want = (want[0], 0.0) if isinstance(want[0], bool) else want
        assert got == want, m


def test_strided_and_fortran_order_stacks_read_as_their_c_order_copies():
    # past 16 entries the finiteness check views the copy as floats, which
    # needs a contiguous last axis: every reader copies in C order, so a
    # transposed or Fortran-order stack gives the bits of its C-order copy
    from tachys.brachistochrone import minimal_time, transfer
    from tachys.opendyn import split_generator

    rng = np.random.default_rng(30)
    strided = _random_generators(rng, 8).transpose(0, 2, 1)
    c_order = np.ascontiguousarray(strided)
    t = rng.uniform(-2.0, 2.0, 8)
    assert _bytes_equal(as_operator(strided, stack=True), c_order)
    assert as_operator(strided, stack=True).flags.c_contiguous
    assert _bytes_equal(eigvals2(strided), eigvals2(c_order))
    got, want = split_generator(strided), split_generator(c_order)
    for field in ("coherent", "drift", "rate_max", "rate_min"):
        assert _bytes_equal(getattr(got, field), getattr(want, field)), field
    assert _bytes_equal(propagator(strided, t), propagator(c_order, t))
    states = (rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9))).T
    assert _bytes_equal(as_state(states, stack=True), np.ascontiguousarray(states))
    targets = normalize(states)
    fortran = np.asfortranarray(targets)
    got, want = transfer(fortran, 1.3), transfer(targets, 1.3)
    for x, y in ((got.tau, want.tau), (got.overlap, want.overlap), (got.drive.matrix, want.drive.matrix)):
        assert _bytes_equal(x, y)
    assert _bytes_equal(minimal_time(fortran, fortran[::-1], 1.3), minimal_time(targets, targets[::-1], 1.3))


def test_readers_give_python_complex_scalars():
    m = np.array([[0.5, 1j], [-1j, 0.25]], dtype=np.complex64)
    for entries in (_operator2(m), _unit2([1, 0.5])):
        assert {type(z) for z in entries} == {complex}
    # a (1, 2) array is no state: the reader raises as as_state does
    with pytest.raises(ValueError, match=re.escape("expected a 1-d state, got shape (1, 2)")):
        _unit2(np.ones((1, 2)))


def test_fidelity_rescales_states_whose_squares_leave_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fidelity([1e300, 0.0], [1.0, 0.0]) == 1.0
        assert fidelity([1e200, 0.0], [1e200, 0.0]) == 1.0
        assert fidelity([1e-170, 1e-170], [1.0, 0.0]) == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert fidelity([1e-320, 0.0], [1e300, 1e300j]) == pytest.approx(np.sqrt(0.5), abs=1e-15)
    # ordinary states keep their bits
    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        want = float(abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert fidelity(a, b) == want


def test_fidelity_is_phase_insensitive():
    u = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    assert fidelity(u, np.exp(0.83j) * u) == pytest.approx(1.0)
    assert fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0
    with pytest.raises(ValueError):
        fidelity([0.0, 0.0], [1.0, 0.0])


def test_states_equal_tolerance():
    u = np.array([1.0, 0.0])
    v = np.array([np.cos(1e-6), np.sin(1e-6)])
    assert fidelity(u, v) >= 1.0 - 1e-11
    assert not fidelity(u, [0.0, 1.0]) >= 1.0 - 1e-10


def test_is_hermitian():
    assert is_hermitian(PAULI_Y)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("k", sorted({-540, -1000, *EDGE_KS}))
def test_frobenius_is_true_across_the_float_range(k):
    # sum |m_ij|^2 underflows at 2**-540 (0.0) and overflows at 2**512 (inf);
    # a power-of-two rescaling first gives the true norm, exactly scaled
    rng = np.random.default_rng(18)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    stack = _random_generators(rng, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius(2.0**k * a) == 2.0**k * frobenius(a)
        got = frobenius(np.stack([2.0**k * stack[0], stack[1], np.zeros((2, 2))]))
    assert got.tolist() == [2.0**k * frobenius(stack[0]), frobenius(stack[1]), 0.0]


def test_frobenius_past_the_float_range_raises():
    # the norm of 2**1023-sized entries, 3e308 here, is past the float range: the parent
    # returned inf with "overflow encountered in ldexp"
    _raise_past_the_float_range(frobenius)


def test_a_nan_part_counts_in_the_range_step_of_one_matrix():
    # max skips a NaN that is not first: the zero shortcut gave frobenius 0.0
    # and a Hermitian verdict where the one-matrix stack gave NaN and False.
    # The public readers reject a non-finite entry; the kernels still meet
    # interior values
    bad = []
    for k in range(8):
        m = np.zeros(8)
        m[k] = np.nan
        m = m.view(complex).reshape(2, 2)
        assert math.isnan(_frobenius(m)) and np.isnan(_frobenius(m[None])).tolist() == [True], k
        assert _is_hermitian(m) is False and _is_hermitian(m[None]).tolist() == [False], k
        bad.append(m)
    # the skew inf - inf is NaN: one matrix read True, its stack [False]
    m = np.array([[1.0, np.inf], [np.inf, 1.0]], dtype=complex)
    with np.errstate(invalid="ignore"):
        assert _is_hermitian(m) is False and _is_hermitian(m[None]).tolist() == [False]
    for m in [*bad, m]:
        big = np.eye(4, dtype=complex)
        big[2:, 2:] = m
        for x, row in ((m, 0), (m[None], 0), (np.stack([np.eye(2), m]), 1), (big, 0), (big.T, 0)):
            for public in (frobenius, is_hermitian):
                with pytest.raises(ValueError, match="matrix has non-finite entries") as exc:
                    public(x)
                assert exc.value.row == row


def test_frobenius_keeps_ordinary_matrices_bit_for_bit():
    rng = np.random.default_rng(19)
    m = _random_generators(rng, 400) * 10.0 ** rng.uniform(-150, 150, size=(400, 1, 1))
    want = [np.linalg.norm(x) for x in m]
    assert _bytes_equal(frobenius(m), want)
    assert _bytes_equal([frobenius(x) for x in m], want)


def test_non_hermitian_generators_raise_at_every_scale():
    # the gate is relative to ||m||_F: a generator far from Hermitian stays
    # so at every scale 2**-k, and its Hermitian part passes at every scale;
    # with an absolute gate, 1e-12 a was exponentiated as its Hermitian part
    # and the 2x2 square root raised MetricDegeneracyError instead
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    p = b @ dagger(b) + np.eye(2)
    scales = 2.0 ** -np.arange(1001)
    for s in scales:
        assert not is_hermitian(s * a)
        assert is_hermitian(s * 0.5 * (a + dagger(a)))
        with pytest.raises(ValueError, match="requires a Hermitian matrix") as exc:
            hermitian_sqrt(s * b)
        assert type(exc.value) is ValueError
        hermitian_sqrt(s * p)
    # a stack gives one verdict per row, each the single call's
    stack = np.concatenate([s * np.stack([a, 0.5 * (a + dagger(a))]) for s in scales])
    verdicts = is_hermitian(stack)
    assert verdicts.tolist() == [is_hermitian(m) for m in stack] == [False, True] * len(scales)


@pytest.mark.parametrize("k", [0, 300, -300, 900])
@pytest.mark.parametrize("size, hermitian", [((1.0 - 1e-4) * 1e-10, True), ((1.0 + 1e-4) * 1e-10, False)])
def test_is_hermitian_gate_is_relative_to_the_matrix(k, size, hermitian):
    # ||m - m^dag||_F = size ||m||_F on either side of the tolerance, at 2**-k
    rng = np.random.default_rng(20)
    h = _hermitian_from(rng.normal(size=4))
    skew = 1j * _hermitian_from(rng.normal(size=4))
    m = h + 0.5 * size * np.linalg.norm(h) * skew / np.linalg.norm(skew)
    assert is_hermitian(2.0**-k * m) is hermitian


def test_scalar_hermiticity_gate_is_is_hermitians_across_the_float_range():
    # _is_hermitian2 gives the numpy rule's verdict on the one-matrix stack, on
    # both sides of the tolerance, at every scale 2**k with |k| <= 1000, and the
    # Frobenius norm with it (0.0 for an exactly Hermitian matrix)
    rng = np.random.default_rng(21)
    for _ in range(10):
        h = _hermitian_from(rng.normal(size=4))
        skew = 1j * _hermitian_from(rng.normal(size=4))
        for size in (0.0, (1.0 - 1e-4) * 1e-10, (1.0 + 1e-4) * 1e-10, 1.0):
            m = h + 0.5 * size * np.linalg.norm(h) * skew / np.linalg.norm(skew)
            unit = _is_hermitian2(*m.ravel().tolist())
            for k in [*range(-1000, 1001, 50), *EDGE_KS]:
                s = 2.0**k * m
                hermitian, norm = _is_hermitian2(*s.ravel().tolist())
                assert hermitian is bool(is_hermitian(s[None])[0]) is (size < 1e-10)
                assert norm == (0.0 if size == 0.0 else pytest.approx(frobenius(s), rel=1e-15))
                if k in EDGE_KS:
                    # the unscaled verdict, and its norm scaled exactly
                    assert (hermitian, norm) == (unit[0], math.ldexp(unit[1], k))


def test_scalar_hermiticity_gate_rejects_an_overflowing_skew():
    # the skew of these finite matrices overflows: m01 - conj(m10) or a norm
    # passes the float range, and inf <= 1e-10 * inf passed them as Hermitian
    for m in (
        [[0.0, 1.5e308 + 1.5e308j], [0.0, 0.0]],
        [[0.5, 1e308], [-1e308, 0.5]],
        [[1.7e308j, 0.0], [0.0, 1.7e308]],
    ):
        entries = np.array(m, dtype=complex)
        hermitian, norm = _is_hermitian2(*entries.ravel().tolist())
        assert hermitian is False and norm == math.hypot(*entries.view(float).ravel())
    # at the top of the float range (||m||_F = 3.2e308 overflows) the gate
    # still sizes the skew 2 Im m00 by the norm: 2e298 passes, 4e298 does not
    m = [[1.7e308, 1e308 + 1e308j], [1e308 - 1e308j, -1.7e308]]
    assert _is_hermitian2(*np.array(m, dtype=complex).ravel().tolist()) == (True, 0.0)
    m[0][0] += 1e298j
    assert _is_hermitian2(*np.array(m, dtype=complex).ravel().tolist()) == (True, math.inf)
    m[0][0] += 1e298j
    assert _is_hermitian2(*np.array(m, dtype=complex).ravel().tolist()) == (False, math.inf)


def test_pauli_root_counts_rounding_of_a_real_spectrum_as_real():
    # n = (1 + i d, i / 2, 0): n.n = 0.75 + 2 i d exactly and sum |n_k|^2 =
    # 1.25, so the rule takes 2 d <= 16 eps 1.25, d <= 10 eps, as rounding
    eps = sys.float_info.epsilon
    inside = _pauli_root(complex(1.0, 10 * eps * (1 - 2**-8)), 0.5j, 0j)
    assert type(inside) is float and inside == math.sqrt(0.75)
    outside = _pauli_root(complex(1.0, 10 * eps * (1 + 2**-8)), 0.5j, 0j)
    assert type(outside) is complex and outside.imag > 0.0
    assert outside == complex(np.sqrt(complex(0.75, 20 * eps * (1 + 2**-8))))
    # Re(n.n) < 0 (broken PT) is complex however small Im(n.n) is
    assert _pauli_root(0.5 + 0j, 1j, 0j) == 1j * math.sqrt(0.75)
    assert _pauli_root(0j, 0j, 0j) == 0.0


def test_scalar_eigenvalues_are_eigvals2s_bit_for_bit():
    # _eigvals2 is eigvals2's own formula on Python scalars, its rescaling
    # included: the same complex pair, signed zeros and all
    rng = np.random.default_rng(22)
    mats = [np.zeros((2, 2)), -np.zeros((2, 2)) + 0j, np.diag([1.0, 1.0]), PAULI_Y]
    for _ in range(200):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mats += [a, 0.5 * (a + dagger(a)), (a - dagger(a)) / 2j, a * 2.0 ** int(rng.integers(-1000, 1000))]
    for m in mats:
        want = eigvals2(m)
        got = _eigvals2(*np.asarray(m, dtype=complex).ravel().tolist())
        assert [type(z) for z in got] == [complex, complex]
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [(z.real.hex(), z.imag.hex()) for z in want]
