"""Fastest fixed-gap Hermitian drives between two qubit states.

With the energy spread (eigenvalue gap) of the drive pinned to ``omega``, the
shortest time to steer the reference state (1, 0) into a target (a, b) is
``(2/omega) * arccos|a|``, and the drive that achieves it has equal diagonal
entries and an off-diagonal element of modulus ``omega/2``.  This module
constructs that drive, validates it by propagating the reference state, and
provides a scan that locates first-passage times for arbitrary drives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .smallmat import (
    _EP_RADIUS,
    _abs,
    _cos_sinc,
    _first_failing_row,
    _float_or_array,
    _matrix2,
    _norm,
    _pauli_split,
    _reject_rows,
    _vdots,
    _where,
    as_operator,
    as_state,
    dagger,
    is_hermitian,
    normalize,
    positive_finite,
    propagator,
)

__all__ = [
    "OptimalHamiltonianSpec",
    "BrachistochroneResult",
    "minimal_time",
    "optimal_hamiltonian",
    "transfer",
    "first_passage_scan",
    "PASSAGE_FIDELITY",
]

#: fidelity that counts as "arrived" for the first-passage scan
PASSAGE_FIDELITY = 1.0 - 1e-8

#: propagation residual accepted when validating the constructed drive
_PROPAGATION_TOL = 1e-9

#: bisection window below which first-passage refinement stops
_REFINE_TOL = 1e-12

_REFERENCE = np.array([1.0, 0.0], dtype=complex)


@dataclass(frozen=True, eq=False)
class OptimalHamiltonianSpec:
    """The minimal-time drive in closed form.

    ``matrix`` is [[shift, (omega/2) e^{-i phase}], [(omega/2) e^{i phase},
    shift]]; for a stack of targets ``shift`` and ``phase`` are arrays and
    ``matrix`` an ``(n, 2, 2)`` stack.
    """

    omega: float
    shift: float
    phase: float
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class BrachistochroneResult:
    tau: float
    overlap: complex
    drive: OptimalHamiltonianSpec


def minimal_time(initial, final, omega: float):
    """Shortest travel time (2/omega) * arccos|<initial|final>|.

    Either state may be an ``(n, 2)`` stack of states, giving ``(n,)`` times.
    """
    omega = positive_finite("omega", omega)
    u = normalize(as_state(initial, dim=2, stack=True), stack=True)
    v = normalize(as_state(final, dim=2, stack=True), stack=True)
    overlap = _vdots(u, v)
    return _float_or_array((2.0 / omega) * np.arccos(np.clip(_abs(overlap), 0.0, 1.0)))


def optimal_hamiltonian(target, omega: float) -> OptimalHamiltonianSpec:
    """Minimal-time Hermitian drive taking (1, 0) to ``target``; see ``transfer``."""
    return transfer(target, omega).drive


def transfer(target, omega: float) -> BrachistochroneResult:
    """Minimal-time drive taking (1, 0) to ``target``, with its travel time
    and the overlap <(1, 0)|target>.

    The target must be normalized with a nonzero second component (otherwise
    no excursion is needed and the drive is not unique).  With target
    (a, b), the drive of off-diagonal phase phi sends (1, 0) over the minimal
    time to e^{i alpha} (|a|, -i e^{i phi} |b|), so phi = arg b - arg a + pi/2
    is the only phase that reaches the target; the diagonal shift is fixed so
    the propagated phase matches the target phase, not only the ray.  The
    drive is propagated over the minimal time and must land on the target
    within 1e-9, or ValueError is raised.

    ``target`` may be an ``(n, 2)`` stack of targets: every row is validated,
    the drives are propagated in one stacked ``propagator`` call, and the
    result holds ``(n,)`` arrays and an ``(n, 2, 2)`` drive stack whose rows
    equal the single calls bit for bit.  The first row that fails a check
    raises, from the earliest check it fails, as a loop over the rows would.
    """
    omega = positive_finite("omega", omega)
    v = as_state(target, dim=2, stack=True)
    if v.ndim == 1:
        return _transfer(v, omega)
    return _first_failing_row(lambda n: _transfer(v[:n], omega), len(v))


def _transfer(v: np.ndarray, omega: float) -> BrachistochroneResult:
    """``transfer`` of one validated target, or of each row of a stack."""
    nrm = _norm(v)
    _reject_rows(
        abs(nrm - 1.0) > 1e-10,
        lambda x: ValueError(f"target must be normalized (norm = {x:.12g})"),
        nrm,
    )
    v = v / np.asarray(nrm)[..., None]
    a, b = v[..., 0], v[..., 1]
    abs_a, abs_b = _abs(a), _abs(b)
    trivial = ValueError("trivial target: second component vanishes, travel time is zero")
    _reject_rows(abs_b == 0.0, trivial)
    arg_a = _where(abs_a > 0.0, np.angle(a), 0.0)
    arg_b = np.angle(b)
    half_turn = np.arcsin(np.clip(abs_b, 0.0, 1.0))
    shift = -omega * arg_a / (2.0 * half_turn)
    tau = minimal_time(_REFERENCE, v, omega)
    phase = (arg_b - arg_a + np.pi / 2.0 + np.pi) % (2.0 * np.pi) - np.pi
    phase = _where(phase == -np.pi, np.pi, phase)
    off = 0.5 * omega * np.exp(-1j * phase)
    ham = _matrix2(shift, off, np.conj(off), shift)
    residual = _norm(propagator(ham, tau) @ _REFERENCE - v)
    _reject_rows(
        np.logical_not(residual <= _PROPAGATION_TOL),
        lambda x: ValueError(f"the minimal-time drive misses the target by {x:.3e}"),
        residual,
    )
    overlap = _vdots(_REFERENCE, v)
    if v.ndim == 1:
        shift, phase, overlap = float(shift), float(phase), complex(overlap)
    return BrachistochroneResult(
        tau=tau,
        overlap=overlap,
        drive=OptimalHamiltonianSpec(omega=omega, shift=shift, phase=phase, matrix=ham),
    )


def first_passage_scan(ham, initial, final, t_max: float, steps: int = 10_000) -> float | None:
    """Earliest time in [0, t_max] at which the evolution reaches ``final``.

    The evolution arrives at a peak of the normalized fidelity
    |<final|psi(t)>| / |psi(t)| that clears PASSAGE_FIDELITY; the earliest
    such peak is returned, 0.0 when the initial state already clears it, and
    None when no peak in [0, t_max] does.  Both paths use the identity+Pauli
    split ham = a0 I + n.sigma, whose phase e^{-i a0 t} cancels in the
    normalized fidelity.

    Hermitian drives need no grid.  With alpha = <v|u>, beta = <v|(n.sigma)u>
    and r = |n| the amplitude is c+ e^{irt} + c- e^{-irt}, where
    c+ = (alpha - beta/r)/2 and c- = (alpha + beta/r)/2, so every peak has
    height |c+| + |c-| and the first one lies at
    (-arg(c+ conj(c-)) mod 2 pi) / (2 r).  When that is past t_max, t_max is
    returned if the fidelity there clears the threshold.

    Other drives sample psi(t) = cos(r t) u - i sin(r t)/r (n.sigma) u, exact
    for defective generators too, on a uniform grid of ``steps`` points;
    ``steps`` sets only this grid (it is validated on both paths).  Candidate
    peaks are visited in time order and each is refined to about 1e-12 in t by
    bisection on the analytic slope of the normalized fidelity, from
    d psi/dt = -i (n.sigma) psi.  Where the growth of psi(t) overflows on the
    grid, ValueError names the earliest grid time whose state is not finite.
    """
    m = as_operator(ham, dim=2)
    t_max = positive_finite("t_max", t_max)
    steps = int(steps)
    if steps < 1000:
        raise ValueError("at least 1000 scan steps are required")
    u = normalize(as_state(initial, dim=2))
    v = normalize(as_state(final, dim=2))
    if is_hermitian(m):
        return _hermitian_passage(0.5 * (m + dagger(m)), u, v, t_max)
    return _general_passage(m, u, v, t_max, steps)


def _hermitian_passage(h: np.ndarray, u: np.ndarray, v: np.ndarray, t_max: float) -> float | None:
    """Closed-form first passage under the Hermitian 2x2 drive ``h``."""
    alpha = complex(np.vdot(v, u))
    if abs(alpha) >= PASSAGE_FIDELITY:
        return 0.0
    _, r, pauli_part = _pauli_split(h)
    r = float(r.real)
    if r == 0.0:
        return None
    beta = complex(np.vdot(v, pauli_part @ u)) / r
    c_plus, c_minus = 0.5 * (alpha - beta), 0.5 * (alpha + beta)
    t = min(t_max, (-cmath.phase(c_plus * c_minus.conjugate())) % (2.0 * math.pi) / (2.0 * r))
    if abs(c_plus * cmath.exp(1j * r * t) + c_minus * cmath.exp(-1j * r * t)) >= PASSAGE_FIDELITY:
        return t
    return None


def _general_passage(
    m: np.ndarray, u: np.ndarray, v: np.ndarray, t_max: float, steps: int
) -> float | None:
    """Grid scan plus slope bisection for a 2x2 drive that is not Hermitian."""
    _, r, pauli_part = _pauli_split(m)
    # plain complex scalars keep each bisection step cheap
    r = complex(r)
    n00, n01, n10, n11 = (complex(x) for x in pauli_part.ravel())
    u0, u1, su0, su1 = (complex(x) for x in (*u, *(pauli_part @ u)))
    w0, w1 = (complex(x) for x in np.conj(v))
    ts = np.linspace(0.0, t_max, steps)
    with np.errstate(over="ignore", invalid="ignore"):
        cosf, sincf = _cos_sinc(r, ts)
        psi0 = cosf * u0 - 1j * sincf * su0
        psi1 = cosf * u1 - 1j * sincf * su1
        fid = np.abs(w0 * psi0 + w1 * psi1) / np.hypot(np.abs(psi0), np.abs(psi1))
    finite = np.isfinite(fid)
    if not finite.all():
        t_bad = float(ts[~finite][0])
        raise ValueError(f"the evolution overflows: psi(t) is first not finite at t = {t_bad!r}")
    if fid[0] >= PASSAGE_FIDELITY:
        return 0.0
    exceptional = abs(r) < _EP_RADIUS

    def state(t: float) -> tuple[complex, complex]:
        c, s = (1.0, t) if exceptional else (cmath.cos(r * t), cmath.sin(r * t) / r)
        return c * u0 - 1j * s * su0, c * u1 - 1j * s * su1

    def rising(t: float) -> bool:
        # with g = <v|psi> and psi' = -i (n.sigma) psi, d/dt |g|^2 / |psi|^2 has
        # the sign of Re(g* g') |psi|^2 - |g|^2 Re<psi|psi'>
        p0, p1 = state(t)
        d0 = -1j * (n00 * p0 + n01 * p1)
        d1 = -1j * (n10 * p0 + n11 * p1)
        g = w0 * p0 + w1 * p1
        dg = w0 * d0 + w1 * d1
        norm2 = abs(p0) ** 2 + abs(p1) ** 2
        growth = (p0.conjugate() * d0 + p1.conjugate() * d1).real
        return (g.conjugate() * dg).real * norm2 > abs(g) ** 2 * growth

    slack = 2.0 * (t_max / (steps - 1)) * max(float(np.linalg.norm(m)), 1e-30)
    # grid peaks: no lower than either neighbour; the last sample needs only the left one
    climbs = fid[1:] >= fid[:-1]
    tops = np.append(fid[1:-1] >= fid[2:], True)
    for j in np.flatnonzero(climbs & tops & (fid[1:] + slack >= PASSAGE_FIDELITY)) + 1:
        lo, hi = float(ts[j - 1]), float(ts[min(j + 1, steps - 1)])
        while hi - lo > _REFINE_TOL:
            mid = 0.5 * (lo + hi)
            if rising(mid):
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        p0, p1 = state(t)
        if abs(w0 * p0 + w1 * p1) / math.hypot(abs(p0), abs(p1)) >= PASSAGE_FIDELITY:
            return t
    return None
