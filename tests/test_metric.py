"""Metric construction, dressed generators, and angle geometry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tachys.metric import (
    Metric,
    MetricDegeneracyError,
    diag_metric,
    metric_angle,
    metric_from_matrix,
    metric_from_sqrt,
    pseudo_hermiticity_defect,
    quasi_hamiltonian,
    state_angle,
)
from tachys.metric import _determinant
from tachys.dilation import build_dilation
from tachys.smallmat import PAULI_X, PAULI_Z, dagger, hermitian_sqrt, propagator

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


def test_metric_from_sqrt_rejects_a_root_too_large_to_square():
    # the root passes the finite and margin gates, but eta = root @ root
    # overflows; the error is typed and no numpy warning leaks (pytest makes
    # RuntimeWarning an error)
    with pytest.raises(ValueError, match="not finite"):
        metric_from_sqrt(1e200, 1.0)
    with pytest.raises(ValueError, match="not finite") as exc:
        metric_from_sqrt(np.array([2.0, 1e300, 3.0]), np.array([1.0, 1e149, 1.0]))
    assert exc.value.row == 1
    # |offdiag|^2 past the float range is an infinitely negative margin
    with pytest.raises(MetricDegeneracyError):
        metric_from_sqrt(2.0, 1e200)


def test_diag_metric():
    m = diag_metric(3.0)
    assert np.allclose(m.eta, np.diag([1.0, 9.0]))
    assert np.allclose(m.sqrt_eta, np.diag([1.0, 3.0]))
    assert np.allclose(m.inv_sqrt_eta, np.diag([1.0, 1.0 / 3.0]))
    with pytest.raises(ValueError):
        diag_metric(0.0)
    with pytest.raises(ValueError):
        diag_metric(-1.0)


def test_diag_metric_equals_the_explicit_diagonal_value_for_value():
    # diag_metric builds its root with metric_from_sqrt; == ignores the sign
    # of the zero off-diagonal entries, which is all that may differ
    for s in np.logspace(-6.0, 6.0, 2001):
        m = diag_metric(s)
        assert (m.eta == np.diag([1.0, s * s])).all()
        assert (m.sqrt_eta == np.diag([1.0, s])).all()
        assert (m.inv_sqrt_eta == np.diag([1.0, 1.0 / s])).all()


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


def test_quasi_hamiltonian_gates_have_no_unit_floor():
    # with max(1, omega) as the size, a zero generator passed as an
    # omega = 1e-9 drive, and a 1e-12 gap matched omega = 5e-9
    m = diag_metric(2.0)
    with pytest.raises(ValueError, match="gap 0 does not match omega 1e-09"):
        quasi_hamiltonian(np.zeros((2, 2)), m, 1e-9)
    with pytest.raises(ValueError, match="gap 1e-12 does not match omega 5e-09"):
        quasi_hamiltonian(0.5e-12 * PAULI_Z, m, 5e-9)


H_TILTED = np.array([[0.3, 0.5 - 0.1j], [0.5 + 0.1j, -0.3]], dtype=complex)


def _gate_cases(side):
    """(h, metric, omega factor, message) just inside (side -1) or just outside
    (side +1) each gate of quasi_hamiltonian, in the order they run."""
    near = 1.0 + side * 1e-3
    m = metric_from_sqrt(2.0, 1.0)
    anti = 1j * np.array([[0.2, 0.7 + 0.4j], [0.7 - 0.4j, -0.5]])
    # ||h - h^dag||_F = near 1e-10 ||h||_F
    skewed = H_TILTED + 0.5 * near * 1e-10 * np.linalg.norm(H_TILTED) * anti / np.linalg.norm(anti)
    # the defect grows linearly with a Hermitian error eps X in eta; this eps
    # puts it at 1e-10 ||op||_F cond^2
    op = m.inv_sqrt_eta @ H_TILTED @ m.sqrt_eta
    cond = 0.5 * np.linalg.norm(m.sqrt_eta) * np.linalg.norm(m.inv_sqrt_eta)
    unit_defect = pseudo_hermiticity_defect(op, m.eta + 1e-9 * PAULI_X) / 1e-9
    eps = 1e-10 * np.linalg.norm(op) * cond * cond / unit_defect
    bad_eta = Metric(eta=m.eta + near * eps * PAULI_X, sqrt_eta=m.sqrt_eta, inv_sqrt_eta=m.inv_sqrt_eta)
    # a root pair off by the factor 1 + d moves both eigenvalues +-omega/2 by d omega/2
    off_root = Metric(eta=m.eta, sqrt_eta=m.sqrt_eta, inv_sqrt_eta=(1.0 + near * 2e-10) * m.inv_sqrt_eta)
    return [
        (skewed, m, 1.0, "Hermitian generator"),
        (H_TILTED, m, 1.0 + near * 1e-8, "does not match omega"),
        (H_TILTED, bad_eta, 1.0, "violates metric-Hermiticity"),
        (H_TILTED, off_root, 1.0, "does not share the generator spectrum"),
    ]


@pytest.mark.parametrize("side", [-1, 1], ids=["inside", "outside"])
def test_quasi_hamiltonian_gates_are_relative_at_every_scale(side):
    # every gate compares a residual with HERMITICITY_TOL (or GAP_MATCH_TOL)
    # times the size of what it checks, and eigvals2 rescales matrices whose
    # squares would leave the float range, so (2**-k h, 2**-k omega) gets the
    # verdict of (h, omega) for |k| <= 1000
    gap = 2.0 * np.sqrt(0.09 + 0.26)
    for h, m, factor, message in _gate_cases(side):
        for k in range(-1000, 1001):
            s = 2.0**-k
            if side < 0:
                quasi_hamiltonian(s * h, m, s * gap * factor)
            else:
                with pytest.raises(ValueError, match=message):
                    quasi_hamiltonian(s * h, m, s * gap * factor)


def test_metric_fields_of_any_layout_or_real_dtype_keep_their_results_past_the_range_step():
    # a Metric reads its fields once, as it is built: held in Fortran order, as strided views or
    # as real arrays, 4**k eta (its roots 2**+-k) gives the operator and the angle of eta
    # (a real array of a real root's metric; a complex root, whose eta is not its transpose, for the layouts)
    h = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    layouts = (np.ascontiguousarray, np.asfortranarray, lambda x: np.stack([x, x], axis=-1)[..., 0])
    for j, (g, layout) in enumerate([(0.7, lambda x: x.real.copy()), *((0.7 + 0.3j, f) for f in layouts)]):
        m, got = metric_from_sqrt(1.6, g), []
        for k in (0, 150, -200):
            s, r = 2.0 ** (2 * k), 2.0**k
            held = Metric(layout(s * m.eta), layout(r * m.sqrt_eta), layout(m.inv_sqrt_eta / r))
            got.append((quasi_hamiltonian(h, held, 1.0).operator.tobytes(), metric_angle([1.0, 0.3j], [0.2, 1.0], held)))
        assert got == [got[0]] * 3
        if j:
            assert got[0][0] == quasi_hamiltonian(h, m, 1.0).operator.tobytes()
    # int64 fields are read as their values, not as the bytes of floats
    m = diag_metric(2.0)
    held = Metric(np.array([[1, 0], [0, 4]]), np.array([[1, 0], [0, 2]]), np.diag([1.0, 0.5]))
    for metric in (held, m):
        got.append((quasi_hamiltonian(h, metric, 1.0).operator.tobytes(), metric_angle([1.0, 0.3j], [0.2, 1.0], metric),
                    build_dilation(h, metric, 1.0).hamiltonian.tobytes()))
    assert got[-2] == got[-1]


def test_quasi_hamiltonian_rejects_non_hermitian_generators_at_every_scale():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    herm = 0.5 * (a + dagger(a))
    gap = float(np.ptp(np.linalg.eigvalsh(herm)))
    m = metric_from_sqrt(2.0, 1.0)
    for k in range(1001):
        s = 2.0**-k
        with pytest.raises(ValueError, match="requires a Hermitian generator"):
            quasi_hamiltonian(s * a, m, s * gap)
        quasi_hamiltonian(s * herm, m, s * gap)


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


def test_pseudo_hermiticity_defect_is_scale_free_in_the_metric():
    # eta @ op @ eta^-1 is judged and formed in eta's scaled frame, so 2**k eta gives eta's bits;
    # the parent called 2**-600 eta singular, its determinant and norm underflowed to 0.  2**k op
    # gives 2**k times op's distance
    op = np.array([[0.3, 0.5 - 0.2j], [0.7j, -0.4]])
    eta = metric_from_sqrt(2.0, 0.5 + 0.25j).eta
    want = pseudo_hermiticity_defect(op, eta)
    assert want > 0.1
    for k in (-1000, -600, -300, 300, 600, 1000):
        assert pseudo_hermiticity_defect(op, 2.0**k * eta) == want, k
        assert pseudo_hermiticity_defect(2.0**k * op, eta) == math.ldexp(want, k), k
        stacked = pseudo_hermiticity_defect(np.stack([op, op]), np.stack([eta, 2.0**k * eta]))
        assert stacked.tolist() == [want, want], k
    with pytest.raises(ValueError, match="^the result leaves the float range$"):
        pseudo_hermiticity_defect(2.0**1022 * op, eta)


def _exact_det(m):
    """The real and imaginary parts of m00 m11 - m01 m10 of a 2x2 complex
    matrix in rational arithmetic, then the sums of the moduli of their
    products, as Fractions."""
    (a, b), (c, d) = (complex(x) for x in m[0]), (complex(x) for x in m[1])
    F = Fraction
    terms_re = [F(a.real) * F(d.real), -F(a.imag) * F(d.imag), -F(b.real) * F(c.real), F(b.imag) * F(c.imag)]
    terms_im = [F(a.real) * F(d.imag), F(a.imag) * F(d.real), -F(b.real) * F(c.imag), -F(b.imag) * F(c.real)]
    return sum(terms_re), sum(terms_im), sum(map(abs, terms_re)), sum(map(abs, terms_im))


def test_near_degenerate_metric_is_not_singular():
    # LU rounded det eta of this metric to 0, and pseudo_hermiticity_defect
    # called it singular; the determinant of the rounded eta is 3.42e-14
    eta = metric_from_sqrt(5.9, math.sqrt(5.9 - 1e-7)).eta
    assert float(_exact_det(eta)[0]) == pytest.approx(3.42e-14, rel=1e-3)
    assert math.isfinite(pseudo_hermiticity_defect(np.eye(2), eta))
    scaled, det = _determinant(eta)
    assert scaled is eta and det == float(_exact_det(eta)[0])


def test_determinant_is_dot2_accurate_and_stacks_keep_the_single_bits():
    # Ogita, Rump and Oishi's bound on Dot2 over n = 4 products:
    # |det - exact| <= u |exact| + gamma_4^2 sum |products|, u = 2**-53
    u = Fraction(1, 2**53)
    gamma2 = (4 * u / (1 - 4 * u)) ** 2
    rng = np.random.default_rng(26)
    mats = []
    for _ in range(300):
        f = float(np.exp(rng.uniform(-3.0, 3.0)))
        g = math.sqrt(f - f * 10.0 ** rng.uniform(-11.0, -1.0)) * complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        mats.append(metric_from_sqrt(f, g).eta * 2.0 ** int(rng.integers(-400, 401)))
        mats.append((rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 2.0 ** int(rng.integers(-200, 201)))
    # the determinant is that of the metric after its range step, an exact power-of-two scaling
    scaled_stack, dets = _determinant(np.array(mats))
    for m, row, stacked in zip(mats, scaled_stack, dets):
        scaled, det = _determinant(m)
        assert np.array(det, dtype=complex).tobytes() == stacked.tobytes()
        assert scaled.tobytes() == row.tobytes()
        k = math.frexp(np.abs(scaled.view(float)).max())[1] - math.frexp(np.abs(m.view(float)).max())[1]
        assert np.array_equal(scaled, m * 2.0**k)
        re, im, size_re, size_im = _exact_det(scaled)
        assert abs(Fraction(det.real) - re) <= u * abs(re) + gamma2 * size_re
        assert abs(Fraction(det.imag) - im) <= u * abs(im) + gamma2 * size_im


# ------------------------------------------------------------------- angles


def test_state_angle_endpoints():
    assert state_angle(E0, E0) == 0.0
    assert state_angle(E0, E1) == pytest.approx(np.pi / 2.0)
    mid = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert state_angle(E0, mid) == pytest.approx(np.pi / 4.0)


def test_state_angle_is_the_angle_of_the_rays():
    # each state is scaled as normalize does: 2**k and non-unit multiples
    # give the unit-state angle, and a zero state raises
    u, v = np.array([1.0, 0.0]), np.array([0.6, 0.8])
    want = math.acos(0.6)
    assert state_angle(u, v) == pytest.approx(want, abs=1e-15)
    for k in (-1000, -600, -300, -1, 1, 300, 600, 1000):
        assert abs(state_angle(u * 2.0**k, v) - want) <= 1e-15
        assert abs(state_angle(u, v * 2.0**k) - want) <= 1e-15
    for c in (2.0, 1e-3, 3.7 - 1.1j, -1e250, 1e-250j):
        assert abs(state_angle(c * u, v) - want) <= 1e-15
        assert abs(state_angle(u, c * v) - want) <= 1e-15
    with pytest.raises(ValueError, match="zero vector"):
        state_angle([0.0, 0.0], v)
    with pytest.raises(ValueError, match="zero vector"):
        state_angle(u, np.zeros(2))


#: atan of eps (the float nearest the decimal), 50-digit mpmath values
ATAN_EPS = {
    1e-4: "0.00009999999966666667345884020684514654573449",
    1e-6: "0.0000009999999999996666214147786925981772403118",
    1e-8: "0.000000009999999999999999875892274967951392497372",
}

#: draws of criterion 13's family (f, g, x, y) at seed 5 whose metric angle missed its 50-digit
#: mpmath value (the flat angle of S x and S y, S = [[1, g], [conj g, f]]) by more than 1e-8
#: relative while it was the arccos of the overlap ratio: the one at p = 1e-2 and the
#: four worst of 170 at p = 1e-3, float.hex parts
NEAR_PARALLEL_METRIC_ANGLES = [
    ("0x1.2a4eaf32c785cp+1", ("0x1.b9ab530815552p-3", "-0x1.820b4741d2546p+0"),
     ("-0x1.e30de46ba95a4p-2", "-0x1.e291a60c4439fp-1", "0x1.273afa5b6070fp-2", "0x1.6532f89b19de1p+0"),
     ("0x1.29c8190ddd97ep-1", "-0x1.03eaccb1ff053p-1", "-0x1.be71ed6e79770p-1", "0x1.b40c993437647p-2"),
     "0.00008399337025171895161959935812804451862156"),
    ("0x1.50f063926c790p+1", ("0x1.85456ff7fecddp+0", "-0x1.213dcb006aec9p-1"),
     ("0x1.eba62663bc107p-1", "0x1.683231ac6ce9dp-1", "0x1.31d2d7bfa8e31p+0", "0x1.5ff6b18aa3da2p-1"),
     ("0x1.332087ff72ca2p+0", "0x1.335748cac1d10p-1", "0x1.5760abdc09440p+0", "0x1.5ddcb994ffbafp-1"),
     "0.000004878985048520924929943035667126363188929"),
    ("0x1.1a74148faf0cap+1", ("0x1.3f2f9c415454ap+0", "0x1.9d238e715de20p-1"),
     ("-0x1.ffca22f673c23p-2", "-0x1.400e62b504d87p-2", "-0x1.324d6a3762a7ap+0", "0x1.671264d4bcb2ep-1"),
     ("0x1.0c806e06cb103p-3", "-0x1.687cef6dbc4fep-2", "-0x1.06413a717c984p-1", "-0x1.816e490b3c24bp-1"),
     "0.000005156196427254632478557330938399810194334"),
    ("0x1.c3d2c7e435ddfp+0", ("-0x1.eee615520a358p-4", "-0x1.529789eabc912p+0"),
     ("-0x1.35eb54d621bedp+0", "-0x1.466b66d18dd0bp-2", "0x1.886710a30e391p-3", "-0x1.54daecaa66eb6p-1"),
     ("0x1.9fce999cd9665p+0", "-0x1.a33dbdd2f7380p-2", "0x1.12495a5637842p-3", "0x1.4b9d4394b5cc1p+0"),
     "0.00002440543645272227778610224371847736871556"),
    ("0x1.79c3cfa912209p+1", ("0x1.581a6cafe127fp-1", "-0x1.94a885886bbb8p+0"),
     ("-0x1.2401fbfd35dd0p-1", "-0x1.217eb28464365p+0", "-0x1.b1c1ddaa93defp-1", "-0x1.596ef24cd9bf7p-1"),
     ("-0x1.34daeb704b02fp-1", "-0x1.570d027d07369p-2", "-0x1.0e623cec42438p-1", "-0x1.1819cc4e0a6c1p-4"),
     "0.000008067460675909700110114976503839083828114"),
]


def _hex_state(parts):
    re0, im0, re1, im1 = map(float.fromhex, parts)
    return np.array([complex(re0, im0), complex(re1, im1)])


def test_angles_of_near_parallel_rays_keep_their_digits():
    # the arccos of an overlap near 1 loses them: at eps = 1e-8 the state angle read 0.0, and
    # the metric angle below missed atan(3e-7) by 4e-4 relative
    for eps, want in ATAN_EPS.items():
        assert abs(state_angle([1.0, 0.0], [1.0, eps]) - float(want)) <= 4 * math.ulp(float(want))
    want = float("0.0000002999999999999909864244335482530994066649")
    assert abs(metric_angle([1.0, 0.0], [1.0, 1e-7], diag_metric(3.0)) - want) <= 4 * math.ulp(want)
    for f, (g_re, g_im), x, y, angle in NEAR_PARALLEL_METRIC_ANGLES:
        m = metric_from_sqrt(float.fromhex(f), complex(float.fromhex(g_re), float.fromhex(g_im)))
        want = float(angle)
        assert abs(metric_angle(_hex_state(x), _hex_state(y), m) - want) <= 1e-10 * want


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
    scale=st.floats(min_value=2.0**-500, max_value=2.0**500),
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


def test_metric_angle_floor_is_relative_to_the_states():
    # the floor sizes <u|eta|u> by ||eta||_F |u|^2: a short state is not a
    # collapsed metric norm (1e-8 E0 raised "metric norm collapsed
    # (1.000e-16)"), and 2**k u has the angle of u, bit for bit
    assert metric_angle(1e-8 * E0, E1, diag_metric(1.0)) == np.pi / 2.0
    m = metric_from_sqrt(1.6, 0.7 + 0.3j)
    rng = np.random.default_rng(24)
    u, v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    want = metric_angle(u, v, m)
    for k in range(-600, 601):
        assert metric_angle(2.0**k * u, v, m) == want == metric_angle(u, 2.0**k * v, m), k
    # a zero state raises as before
    with pytest.raises(MetricDegeneracyError, match=r"^metric norm collapsed \(0\.000e\+00\); angle undefined$"):
        metric_angle([0.0, 0.0], E1, m)


def test_metric_angle_norm_collapse_raises():
    m = Metric(eta=np.diag([1.0, 0.0]).astype(complex), sqrt_eta=np.diag([1.0, 0.0]).astype(complex), inv_sqrt_eta=np.eye(2, dtype=complex))
    with pytest.raises(MetricDegeneracyError):
        metric_angle(E0, E1, m)


@pytest.mark.parametrize("n", [1, 3])
def test_metric_angle_rejects_a_stacked_metric(n):
    stacked = metric_from_sqrt(np.linspace(1.6, 2.4, n), np.linspace(0.7, 0.2, n) + 0.3j)
    with pytest.raises(ValueError, match=rf"^metric must be a single 2x2 metric, got a stack of shape \({n}, 2, 2\)$"):
        metric_angle(E0, [0.6, 0.8j], stacked)


#: condition number 2.6; at 1e-12 its smallest eigenvalue, 7.9e-13, fell
#: below the absolute positive-definiteness floor 1e-12
ETA_GOOD = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
ETA_DEGENERATE = np.diag([1.0, 0.0]).astype(complex)


def _floor_verdicts(eta, metric):
    """What each of the four positive-definiteness and singularity floors
    makes of ``eta`` (``metric`` its Metric): None where the call passes,
    else the type and message it raises."""
    calls = (
        lambda: hermitian_sqrt(eta),
        lambda: build_dilation(0.5 * PAULI_X, metric, 1.0),
        lambda: pseudo_hermiticity_defect(PAULI_X, eta),
        lambda: metric_angle(E0, E1, metric),
    )
    verdicts = []
    for call in calls:
        try:
            call()
        except ValueError as exc:
            verdicts.append((type(exc), str(exc)))
        else:
            verdicts.append(None)
    return verdicts


def test_floors_are_relative_to_their_matrix():
    # a metric counts only up to a positive factor: every floor gives s eta
    # the verdict of eta, s = 2**k for |k| <= 500 and the unit-free scales
    # that used to fail (hermitian_sqrt at 1e-12, build_dilation at 1e-7);
    # a degenerate eta raises the same type and message at every scale
    scales = [2.0**k for k in range(-500, 501, 7)] + [2.0**-500, 2.0**500, 1e-12, 1e-7, 1e7]
    assert _floor_verdicts(ETA_GOOD, metric_from_matrix(ETA_GOOD)) == [None] * 4
    degenerate = _floor_verdicts(ETA_DEGENERATE, Metric(ETA_DEGENERATE, ETA_DEGENERATE, np.eye(2, dtype=complex)))
    assert degenerate == [
        (MetricDegeneracyError, "matrix is not positive definite: smallest eigenvalue 0.000e+00"),
        (MetricDegeneracyError, "metric determinant 0.000e+00 is below the dilation floor"),
        (ValueError, "metric matrix is singular"),
        (MetricDegeneracyError, "metric norm collapsed (0.000e+00); angle undefined"),
    ]
    for s in scales:
        assert _floor_verdicts(s * ETA_GOOD, metric_from_matrix(s * ETA_GOOD)) == [None] * 4, s
        eta = s * ETA_DEGENERATE
        assert _floor_verdicts(eta, Metric(eta, np.sqrt(s) * ETA_DEGENERATE, np.eye(2, dtype=complex))) == degenerate, s
