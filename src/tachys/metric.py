"""Positive-definite metrics on C^2 and the non-Hermitian operators they tame.

A metric ``eta`` redefines the inner product as <u|eta|v>.  An operator that
is Hermitian with respect to such a metric ("quasi-Hermitian") is similar to
an ordinary Hermitian generator via the metric square root; this module
builds those pairs, measures how far an operator is from metric-Hermiticity,
and computes metric-deformed angles between states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .smallmat import (
    MetricDegeneracyError,
    _abs,
    _matrix2,
    _max,
    _reject_rows,
    _square,
    as_operator,
    as_state,
    dagger,
    eigvals2,
    frobenius,
    hermitian_sqrt,
    is_hermitian,
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
    "transition_defect",
]

#: below this margin the metric square root is treated as singular
DEGENERACY_MARGIN = 1e-12

#: metric norms smaller than this make angles meaningless
NORM_FLOOR = 1e-14

GAP_MATCH_TOL = 1e-8
DEFECT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Metric:
    """A positive-definite metric with cached square root and inverse root.

    ``metric_from_sqrt`` over arrays gives ``(n, 2, 2)`` stacks of the three
    matrices, one metric per row.
    """

    eta: np.ndarray
    sqrt_eta: np.ndarray
    inv_sqrt_eta: np.ndarray


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
    """Metric diag(1, scale**2) together with its roots."""
    s = positive_finite("diagonal metric scale", scale)
    return Metric(
        eta=np.diag([1.0 + 0j, s * s]),
        sqrt_eta=np.diag([1.0 + 0j, s]),
        inv_sqrt_eta=np.diag([1.0 + 0j, 1.0 / s]),
    )


def metric_from_sqrt(diag, offdiag) -> Metric:
    """Metric whose Hermitian square root is [[1, offdiag], [conj(offdiag), diag]].

    The root must stay positive definite, which requires real ``diag`` and a
    determinant margin ``diag - |offdiag|**2`` above DEGENERACY_MARGIN; below
    it the construction is rejected (that margin going to zero is exactly the
    degenerate limit where travel times collapse).  ``diag`` and ``offdiag``
    may also be 1-d arrays of one length n: the metric then holds ``(n, 2, 2)``
    stacks whose slices equal the single calls bit for bit, and the first
    rejected pair raises.
    """
    f = np.asarray(diag, dtype=float)
    g = np.asarray(offdiag, dtype=complex)
    finite = np.isfinite(f) & np.isfinite(g.real) & np.isfinite(g.imag)
    _reject_rows(~finite, ValueError("metric root parameters must be finite"))
    margin = f - _square(_abs(g))
    _reject_rows(
        margin <= DEGENERACY_MARGIN,
        lambda m: MetricDegeneracyError(
            f"metric square root is degenerate: diag - |offdiag|^2 = {m:.3e}", eigenvalue=float(m)
        ),
        margin,
    )
    root = _matrix2(1.0, g, np.conj(g), f)
    eta = root @ root
    inv_root = _matrix2(f, -g, -np.conj(g), 1.0) / margin[..., None, None]
    return Metric(eta=eta, sqrt_eta=root, inv_sqrt_eta=inv_root)


def metric_from_matrix(eta) -> Metric:
    """Metric built from an explicit positive-definite matrix."""
    m = as_operator(eta, dim=2)
    root = hermitian_sqrt(m)
    inv_root = np.linalg.inv(root)
    inv_root = 0.5 * (inv_root + dagger(inv_root))
    return Metric(eta=m, sqrt_eta=root, inv_sqrt_eta=inv_root)


def quasi_hamiltonian(h, metric: Metric, omega: float) -> QuasiHamiltonian:
    """Dress a Hermitian generator with a metric.

    Returns the similarity image ``inv_sqrt_eta @ h @ sqrt_eta`` bundled with
    its ingredients.  The generator must be Hermitian and its eigenvalue gap
    must match ``omega``.  ``h`` may be an ``(n, 2, 2)`` stack, paired with a
    metric of ``(n, 2, 2)`` stacks: every gate then runs once over the stack,
    slice k equals the single call bit for bit, and the first failing slice
    raises, from the earliest gate it fails.
    """
    hm = as_operator(h, dim=2, stack=True)
    not_hermitian = ValueError("quasi_hamiltonian requires a Hermitian generator")
    _reject_rows(np.logical_not(is_hermitian(hm)), not_hermitian)
    omega = positive_finite("omega", omega)
    l_h = eigvals2(hm)
    gap = l_h[0] - l_h[1]
    _reject_rows(
        _abs(gap - omega) > GAP_MATCH_TOL * max(1.0, omega),
        lambda g: ValueError(f"generator gap {g.real:.12g} does not match omega {omega:.12g}"),
        gap,
    )
    op = metric.inv_sqrt_eta @ hm @ metric.sqrt_eta
    # validation gates scale with the conditioning of the similarity: near the
    # degenerate-metric limit the raw residuals are dominated by roundoff that
    # double precision cannot avoid, so an absolute gate would reject exact
    # constructions.  For well-conditioned metrics cond/2 ~ 1 and the gates
    # collapse to the tight absolute tolerances.
    cond = 0.5 * frobenius(metric.sqrt_eta) * frobenius(metric.inv_sqrt_eta)
    op_norm = frobenius(op)
    defect_gate = DEFECT_TOL * _max(1.0, op_norm) * cond * cond
    defect = pseudo_hermiticity_defect(op, metric.eta)
    _reject_rows(defect > defect_gate, ValueError("constructed operator violates metric-Hermiticity"))
    l_op = eigvals2(op)
    spectrum_gate = _max(1e-10 * max(1.0, omega), 50.0 * np.finfo(float).eps * op_norm * cond)
    spread = _max(_abs(l_op[0] - l_h[0]), _abs(l_op[1] - l_h[1]))
    foreign = ValueError("constructed operator does not share the generator spectrum")
    _reject_rows(spread > spectrum_gate, foreign)
    return QuasiHamiltonian(h=hm, metric=metric, operator=op, omega=omega)


def pseudo_hermiticity_defect(operator, eta):
    """Frobenius distance ||op^dag - eta @ op @ eta^-1||_F.

    Zero exactly when ``operator`` is Hermitian in the ``eta`` inner product.
    Stacks of operators and metrics give one distance per slice.
    """
    op = as_operator(operator, dim=2, stack=True)
    em = as_operator(eta, dim=2, stack=True)
    det = np.linalg.det(em)
    _reject_rows(_abs(det) < 1e-300, ValueError("metric matrix is singular"))
    return frobenius(dagger(op) - em @ op @ np.linalg.inv(em))


def state_angle(u, v) -> float:
    """Fubini-Study angle arccos |<u|v>| between unit states."""
    a = as_state(u, dim=2)
    b = as_state(v, dim=2)
    return float(np.arccos(np.clip(abs(np.vdot(a, b)), 0.0, 1.0)))


def metric_angle(u, v, metric: Metric) -> float:
    """Angle between states in the metric inner product.

    arccos sqrt( <u|eta|v><v|eta|u> / (<u|eta|u><v|eta|v>) ), radicand clipped
    to [0, 1].  Raises MetricDegeneracyError when either metric norm collapses
    below NORM_FLOOR (the degenerate "shortcut" limit).
    """
    a = as_state(u, dim=2)
    b = as_state(v, dim=2)
    eta = metric.eta
    nu = float(np.real(np.vdot(a, eta @ a)))
    nv = float(np.real(np.vdot(b, eta @ b)))
    if nu < NORM_FLOOR or nv < NORM_FLOOR:
        raise MetricDegeneracyError(
            f"metric norm collapsed ({min(nu, nv):.3e}); angle undefined",
            eigenvalue=min(nu, nv),
        )
    cross = abs(np.vdot(a, eta @ b)) ** 2
    radicand = np.clip(cross / (nu * nv), 0.0, 1.0)
    return float(np.arccos(np.sqrt(radicand)))


def transition_defect(times, etas, hams) -> float:
    """How badly a time-dependent (metric, generator) pair violates the
    norm-preservation balance law.

    For each interior sample the derivative of the inverse metric is formed by
    central differences and the residual
    ``ham^dag - (eta @ ham @ eta^-1 - 1j * eta @ d(eta^-1)/dt)`` is measured in
    Frobenius norm; the maximum over interior samples is returned.  At least
    three finite, strictly increasing sample times are required, and every
    metric sample must be invertible.
    """
    ts = np.asarray(times, dtype=float).reshape(-1)
    if ts.shape[0] < 3:
        raise ValueError("transition_defect needs at least three samples")
    if not np.isfinite(ts).all():
        raise ValueError("sample times must be finite")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    es = as_operator(etas, dim=2, stack=True)
    hs = as_operator(hams, dim=2, stack=True)
    if len(es) != len(ts) or len(hs) != len(ts):
        raise ValueError("times, etas and hams must have matching lengths")
    _reject_rows(_abs(np.linalg.det(es)) < 1e-300, ValueError("metric sample is singular"))
    invs = np.linalg.inv(es)
    dinv = (invs[2:] - invs[:-2]) / (ts[2:] - ts[:-2])[:, None, None]
    e, h = es[1:-1], hs[1:-1]
    balance = e @ h @ invs[1:-1] - 1j * (e @ dinv)
    return float(frobenius(dagger(h) - balance).max())
