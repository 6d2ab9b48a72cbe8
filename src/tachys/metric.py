"""Positive-definite metrics on C^2 and the non-Hermitian operators they tame.

A metric ``eta`` redefines the inner product as <u|eta|v>.  An operator that
is Hermitian with respect to such a metric ("quasi-Hermitian") is similar to
an ordinary Hermitian generator via the metric square root; this module
builds those pairs, measures how far an operator is from metric-Hermiticity,
and computes metric-deformed angles between states.  The metric norm
<psi|eta|psi> of a state has one reader, ``_metric_norm``, which first
scales the state as ``normalize`` does, so 2**k psi gives the result of psi.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .smallmat import (
    MetricDegeneracyError,
    _abs,
    _det2,
    _eigvals2,
    _entries2,
    _finite,
    _frobenius,
    _hermitian_part,
    _hermitian_sqrt,
    _inverse,
    _is_hermitian,
    _ldexp,
    _matmul,
    _matrix2,
    _negligible,
    _normalized,
    _numeric,
    _pair,
    _pair_angle,
    _paired,
    _reals,
    _reject_rows,
    _rescaled,
    _square,
    _stepped,
    _vdots,
    _where,
    as_operator,
    as_state,
    dagger,
    positive_finite,
)

__all__ = [
    "Metric",
    "QuasiHamiltonian",
    "diag_metric",
    "metric_from_sqrt",
    "metric_from_matrix",
    "quasi_hamiltonian",
    "pseudo_hermiticity_defect",
    "state_angle",
    "metric_angle",
]

#: below this margin the metric square root is treated as singular
DEGENERACY_MARGIN = 1e-12

#: metric norms <u|eta|u> at most this times ||eta||_F |u|^2 make angles meaningless
NORM_FLOOR = 1e-14

GAP_MATCH_TOL = 1e-8

#: the float epsilon, 2**-52, that sizes quasi_hamiltonian's rounding allowance
_EPS = sys.float_info.epsilon


@dataclass(frozen=True, eq=False)
class Metric:
    """A positive-definite metric with cached square root and inverse root.

    ``metric_from_sqrt`` over arrays gives ``(n, 2, 2)`` stacks of the three
    matrices, one metric per row.  Each field is read once, as the record is
    built, into a C-ordered complex array (the library's own pass uncopied);
    kernels take the fields as they are.
    """

    eta: np.ndarray
    sqrt_eta: np.ndarray
    inv_sqrt_eta: np.ndarray

    def __post_init__(self):
        for name in ("eta", "sqrt_eta", "inv_sqrt_eta"):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype=complex))


@dataclass(frozen=True, eq=False)
class QuasiHamiltonian:
    """A metric-Hermitian generator and its flat Hermitian partner.

    ``operator`` is the (generally non-Hermitian) matrix that actually evolves
    states; ``h`` is the Hermitian generator it is similar to through the
    metric square root; both share the real eigenvalue gap ``omega``.
    """

    h: np.ndarray
    metric: Metric
    operator: np.ndarray
    omega: float


def diag_metric(scale: float) -> Metric:
    """Metric diag(1, scale**2): ``metric_from_sqrt`` of the root diag(1, scale)."""
    return _metric_from_sqrt(positive_finite("diagonal metric scale", scale), np.array(0j))


def metric_from_sqrt(diag, offdiag) -> Metric:
    """Metric whose Hermitian square root is [[1, offdiag], [conj(offdiag), diag]].

    The root must stay positive definite, which requires real ``diag`` and a
    determinant margin ``diag - |offdiag|**2`` above DEGENERACY_MARGIN; below
    it the construction is rejected (that margin going to zero is exactly the
    degenerate limit where travel times collapse); a root too large to square
    in floating point raises ValueError.  This floor alone is absolute: the
    root's (0, 0) entry 1 fixes its scale, and a huge ``diag`` (``dilation
    --scale 1e200``) keeps its overflow error.  ``diag`` and ``offdiag`` may
    also be 1-d arrays of one length n: the metric then holds ``(n, 2, 2)``
    stacks whose slices equal the single calls bit for bit, and the first failing pair of the
    first gate any pair fails raises; arrays of two lengths raise ValueError naming both.
    ``diag`` is read by ``_reals``: TypeError for a complex or str value, ValueError naming
    its first non-finite value or the shape of a 2-d one.  ``offdiag`` is read by
    ``_numeric``: TypeError naming it for a str, None or other non-numeric value, ValueError
    for a non-finite value or, naming its shape, for one of more than one dimension.
    """
    f = _reals("diag", diag)
    g = _numeric("offdiag", offdiag)
    _reject_rows(~np.isfinite(g), ValueError("metric root parameters must be finite"))
    if g.ndim > 1:
        raise ValueError(f"offdiag must be a scalar or a 1-d array, got shape {g.shape}")
    _paired("diag", f, "offdiag", g, 0)
    return _metric_from_sqrt(f, g)


def _metric_from_sqrt(f, g) -> Metric:
    """``metric_from_sqrt`` of a diag read by ``_reals`` and an offdiag by ``_numeric``."""
    margin = f - _square(_abs(g))
    _reject_rows(
        margin <= DEGENERACY_MARGIN,
        lambda m: MetricDegeneracyError(
            f"metric square root is degenerate: diag - |offdiag|^2 = {m:.3e}", eigenvalue=float(m)
        ),
        margin,
    )
    root = _matrix2(1.0, g, np.conj(g), f)
    with np.errstate(over="ignore", invalid="ignore"):
        eta = _matmul(root, root)
    _reject_rows(
        ~np.isfinite(eta).all(axis=(-2, -1)),
        ValueError("metric overflows: the square of its root is not finite"),
    )
    inv_root = _inverse(root, margin)
    # complex division multiplies by 1/margin, so f/f of a diagonal root can
    # round to 1 - 2**-53; a diagonal root inverts to diag(1, 1/f) exactly
    inv_root[..., 0, 0] = _where(g == 0, 1.0, inv_root[..., 0, 0])
    return Metric(eta=eta, sqrt_eta=root, inv_sqrt_eta=inv_root)


def metric_from_matrix(eta) -> Metric:
    """Metric built from an explicit positive-definite matrix."""
    return _metric_from_matrix(as_operator(eta))


def _metric_from_matrix(m: np.ndarray) -> Metric:
    """``metric_from_matrix`` of a 2x2 matrix already read, C-ordered."""
    root = _hermitian_sqrt(m)
    inv_root = np.linalg.inv(root)
    inv_root = _hermitian_part(inv_root)
    return Metric(eta=m, sqrt_eta=root, inv_sqrt_eta=inv_root)


def quasi_hamiltonian(h, metric: Metric, omega: float) -> QuasiHamiltonian:
    """Dress a Hermitian generator with a metric.

    Returns the similarity image ``inv_sqrt_eta @ h @ sqrt_eta`` bundled with
    its ingredients.  Sizes of the gates: ||h||_F for Hermiticity, ``omega``
    for the gap (to GAP_MATCH_TOL) and for the spread of the image's spectrum
    (which may also stay within its rounding 50 eps ||op||_F cond), and
    ||op||_F cond^2 for the metric-Hermiticity defect, where cond is
    ||sqrt_eta||_F ||inv_sqrt_eta||_F / 2.  ``h`` may be an ``(n, 2, 2)``
    stack, paired with a metric of ``(n, 2, 2)`` stacks of the same n (or
    ValueError naming both lengths): every gate then runs once over the
    stack, slice k equals the single call bit for bit, and the first failing slice of the
    first gate any slice fails raises (``dissipation_scan`` raises what a row loop would).
    """
    hm = as_operator(h, stack=True)
    _paired("h", hm, "metric", metric.eta, 2)
    return _quasi_hamiltonian(hm, metric, omega)


def _quasi_hamiltonian(hm: np.ndarray, metric: Metric, omega) -> QuasiHamiltonian:
    """``quasi_hamiltonian`` of a generator (or stack) already read: its Hermitian gate, then
    omega read by ``positive_finite``, then its gap, defect and spectrum gates."""
    _reject_rows(np.logical_not(_is_hermitian(hm)), ValueError("quasi_hamiltonian requires a Hermitian generator"))
    omega = positive_finite("omega", omega)
    l_h = _eigvals2(*_entries2(hm))
    gap = l_h[0] - l_h[1]
    _reject_rows(
        np.logical_not(_negligible(_abs(gap - omega), omega, GAP_MATCH_TOL)),
        lambda g: ValueError(f"generator gap {g.real:.12g} does not match omega {omega:.12g}"),
        gap,
    )
    op = _matmul(metric.inv_sqrt_eta, hm, metric.sqrt_eta)
    # the sizes grow with the conditioning of the similarity: near the
    # degenerate-metric limit its roundoff dominates the residuals
    cond = 0.5 * _frobenius(metric.sqrt_eta) * _frobenius(metric.inv_sqrt_eta)
    op_norm = _frobenius(op)
    defect = _pseudo_hermiticity_defect(_finite(op), metric.eta)
    violates = ValueError("constructed operator violates metric-Hermiticity")
    _reject_rows(np.logical_not(_negligible(defect, op_norm * cond * cond)), violates)
    l_op = _eigvals2(*_entries2(op))
    rounding = 50.0 * _EPS * op_norm * cond
    miss0, miss1 = _abs(l_op[0] - l_h[0]), _abs(l_op[1] - l_h[1])
    spread = _where(miss1 > miss0, miss1, miss0)
    foreign = ValueError("constructed operator does not share the generator spectrum")
    _reject_rows(np.logical_not(_negligible(spread, omega) | (spread <= rounding)), foreign)
    return QuasiHamiltonian(h=hm, metric=metric, operator=op, omega=omega)


def pseudo_hermiticity_defect(operator, eta):
    """Frobenius distance ||op^dag - eta @ op @ eta^-1||_F.

    Zero exactly when ``operator`` is Hermitian in the ``eta`` inner product.
    Stacks of operators and metrics, of one length, give one distance per
    slice; a singular metric raises, and a stack the first failing row of the first gate any row fails.
    Both take the range step first: eta @ op @ eta^-1 is the same in eta's scaled frame, and the
    distance of op's is scaled back (``_ldexp``), so 2**k eta gives eta's distance bit for bit, and
    2**k op 2**k times op's; ValueError where that passes the float range.
    """
    op = as_operator(operator, stack=True)
    em = as_operator(eta, stack=True)
    _paired("operator", op, "eta", em, 2)
    return _pseudo_hermiticity_defect(op, em)


def _pseudo_hermiticity_defect(op: np.ndarray, em: np.ndarray):
    """``pseudo_hermiticity_defect`` of an operator and a metric (or stacks) already read, C-ordered."""
    op, _, e = _stepped(op, 2)
    em, det = _determinant(em)
    return _ldexp(_frobenius(dagger(op) - _matmul(em, op, _inverse(em, det))), e)


def _determinant(eta):
    """A metric, or each of a stack, after the range step, and its det there from ``_det2``,
    as accurate as if computed in twice the precision; ValueError "metric matrix is singular"
    for the first whose |det| is negligible, at the smallest normal float, next to
    ||eta||_F^2 in that frame.  ``_pseudo_hermiticity_defect`` is its one caller."""
    scaled, size, _ = _rescaled(eta, 2)
    re, im = _det2(*_entries2(scaled))
    det = re + 1j * im
    _reject_rows(_negligible(_abs(det), size * size, sys.float_info.min), ValueError("metric matrix is singular"))
    return scaled, det


def _single_eta(metric: Metric) -> np.ndarray:
    """``metric.eta`` of one metric; ValueError for an ``(n, 2, 2)`` stack of them."""
    if metric.eta.ndim != 2:
        raise ValueError(f"metric must be a single 2x2 metric, got a stack of shape {metric.eta.shape}")
    return metric.eta


def state_angle(u, v) -> float:
    """Fubini-Study angle arccos |<u|v>| between the rays of two 2-states.

    ``_pair_angle`` of the pair of unit states: each is read by ``as_state``
    and scaled as ``normalize`` scales it, so the angle of 2**k u or c u is
    that of u, and a zero state raises ValueError.
    """
    a, _, b = _pair(_normalized(as_state(u)), _normalized(as_state(v)))
    return float(_pair_angle(_abs(a), b))


def _metric_norm(psi: np.ndarray, eta: np.ndarray):
    """A state read by ``as_state``, scaled as ``normalize`` scales it (``_rescaled``), its
    norm and its metric norm Re <psi|eta|psi> in that scale, one per metric of a stack.
    A state in range comes back as the same array, so its results keep their bits."""
    a, n, _ = _rescaled(psi)
    return a, n, np.real(_vdots(a, _matmul(eta, a)))


def _flat_image(metric: Metric, psi, norm2):
    """S psi / sqrt(<psi|eta|psi>), the unit flat image of a state and its ``_metric_norm``, S the root."""
    return _matmul(metric.sqrt_eta, psi) / np.sqrt(norm2)[..., None]


def metric_angle(u, v, metric: Metric) -> float:
    """Angle between states in the metric inner product.

    ``_pair_angle`` of the ``_flat_image`` pair that ``aligned_hamiltonian`` aligns, each
    state and its metric norm read by ``_metric_norm``, so the angle of 2**k u is u's.
    Raises MetricDegeneracyError when either metric norm <u|eta|u> is
    negligible, at NORM_FLOOR, next to ||eta||_F |u|^2 (the degenerate
    "shortcut" limit, or a zero state), and ValueError for a stacked metric.
    """
    eta = _single_eta(metric)
    a, na, nu = _metric_norm(as_state(u), eta)
    b, nb, nv = _metric_norm(as_state(v), eta)
    size = _frobenius(eta)
    if _negligible(nu, size * na * na, NORM_FLOOR) or _negligible(nv, size * nb * nb, NORM_FLOOR):
        raise MetricDegeneracyError(
            f"metric norm collapsed ({min(nu, nv):.3e}); angle undefined",
            eigenvalue=float(min(nu, nv)),
        )
    overlap, _, sine = _pair(_flat_image(metric, a, nu), _flat_image(metric, b, nv))
    return float(_pair_angle(_abs(overlap), sine))
