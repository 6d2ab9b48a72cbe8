"""Fastest fixed-gap Hermitian drives between two qubit states.

With the energy spread (eigenvalue gap) of the drive pinned to ``omega``, the
shortest time to steer the reference state (1, 0) into a target (a, b) is
``(2/omega) * arccos|a|``, and the drive that achieves it has equal diagonal
entries and an off-diagonal element of modulus ``omega/2``.  This module
constructs that drive, validates it by propagating the reference state, and
provides a scan that locates first-passage times for arbitrary drives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .smallmat import (
    _E0,
    _abs,
    _angle,
    _arg,
    _asin,
    _cis,
    _cos_sinc,
    _finite,
    _first_failing_row,
    _float_or_array,
    _is_hermitian2,
    _matmul,
    _matrix2,
    _norm,
    _normalized,
    _operator2,
    _paired,
    _pauli_entries,
    _pauli_root,
    _pauli_vector,
    _propagator,
    _real,
    _reals,
    _reject_first_time,
    _reject_rows,
    _unit2,
    _vdots,
    _where,
    as_state,
    normalize,
    positive_finite,
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

    Either state may be an ``(n, 2)`` stack of states, giving ``(n,)`` times;
    two stacks must have one length.
    """
    omega = positive_finite("omega", omega)
    u = normalize(initial)
    v = normalize(final)
    _paired("initial", u, "final", v, 1)
    return _minimal_time(u, v, omega)


def _minimal_time(u: np.ndarray, v: np.ndarray, omega: float):
    """``minimal_time`` of two unit states (or stacks) and omega already read."""
    return _float_or_array((2.0 / omega) * _angle(_abs(_vdots(u, v))))


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
    equal the single calls bit for bit.  The stack is read whole first: a
    non-finite row anywhere raises the reader's error, that row marked, so
    ``[target at angle 1e-8, [nan, 0]]`` names row 1 where a loop over the
    rows stops at row 0's miss.  Then the first row that fails a check
    raises, from the earliest check it fails, as a loop over the rows would.
    """
    omega = positive_finite("omega", omega)
    v = as_state(target, stack=True)
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
    arg_a = _where(abs_a > 0.0, _arg(a), 0.0)
    arg_b = _arg(b)
    half_turn = _asin(abs_b)
    shift = -omega * arg_a / (2.0 * half_turn)
    tau = _minimal_time(_E0, _normalized(v), omega)
    phase = (arg_b - arg_a + np.pi / 2.0 + np.pi) % (2.0 * np.pi) - np.pi
    phase = _where(phase == -np.pi, np.pi, phase)
    off = 0.5 * omega * _cis(-phase)
    ham = _matrix2(shift, off, np.conj(off), shift)
    residual = _norm(_matmul(_propagator(_finite(ham), _reals("t", tau)), _E0) - v)
    _reject_rows(
        np.logical_not(residual <= _PROPAGATION_TOL),
        lambda x: ValueError(f"the minimal-time drive misses the target by {x:.3e}"),
        residual,
    )
    overlap = _vdots(_E0, v)
    if v.ndim == 1:
        shift, phase, overlap = float(shift), float(phase), complex(overlap)
    drive = OptimalHamiltonianSpec(omega=omega, shift=shift, phase=phase, matrix=ham)
    return BrachistochroneResult(tau=tau, overlap=overlap, drive=drive)


def first_passage_scan(ham, initial, final, t_max: float, steps: int = 10_000) -> float | None:
    """Earliest time in [0, t_max] at which the evolution reaches ``final``.

    The evolution arrives at a peak of the normalized fidelity
    |<final|psi(t)>| / |psi(t)| that clears PASSAGE_FIDELITY; the earliest
    such peak is returned, 0.0 when the initial state already clears it, and
    t_max when no peak in [0, t_max] clears it but the fidelity at t_max
    does; otherwise None.  Both paths use the identity+Pauli split
    ham = a0 I + n.sigma, whose phase e^{-i a0 t} cancels in the normalized
    fidelity, and psi(t) = cos(r t) u - i sin(r t)/r (n.sigma) u with
    r^2 = n.n, exact for defective generators too.

    Drives with a real spectrum need no grid: Hermitian drives (symmetrized
    first), metric-Hermitian drives and exceptional points, whose n.n is real
    and >= 0 (an imaginary part up to 16 eps sum |n_k|^2 counts as
    rounding: the rule of ``_pauli_root``, which ``evolve_semigroup`` shares).
    With w = (n.sigma) u, c = cos(r t) and s = sin(r t)/r are
    real, so the squared fidelity is a ratio of two real quadratic forms in
    (c, s).  Its stationary points solve one homogeneous quadratic, the
    larger of the two is the peak, and tan(r t) = r s / c gives its first
    time, in [0, pi / r); every peak of a periodic evolution has that
    height.  At an exceptional point (r = 0) the peak lies at t = s / c, or
    never.

    Complex or negative n.n (broken PT symmetry) keeps a grid: psi(t) is
    sampled on ``steps`` uniform points (``steps`` sets only this grid, and
    must be an integer >= 1000 on both paths), and candidate peaks are
    visited in time order, each refined to about 1e-12 in t by bisection on
    the analytic slope of the normalized fidelity, from
    d psi/dt = -i (n.sigma) psi.  Where the growth of psi(t) overflows on the
    grid, ValueError names the earliest grid time whose state is not finite.

    The arguments are checked in order (ham, t_max, steps, initial, final),
    each once, and the first bad one raises ValueError (TypeError, naming
    it, for a str, complex or array ``t_max`` or ``steps``); a bad array raises
    what ``as_operator(ham)``, ``as_state(x)`` or ``normalize`` would.  The
    drive and each state are read once into Python complex scalars, the drive
    checked (``_operator2``) and gated by ``_is_hermitian2``, the states normalized
    by ``_unit2``, which reads each once: they give ``is_hermitian``'s verdict and
    ``normalize``'s bits; where a norm lies inside [2**-250, 2**251], as for every
    ordinary input, they and the real-spectrum path are Python scalar arithmetic
    with no numpy call.  The drive's norm also sizes the grid's candidate slack.
    The drive's Pauli vector n takes the range step of ``_pauli_vector``: where
    its sum_k |Re n_k| + |Im n_k| leaves [2**-252, 2**252], it is scanned as
    n 2**-e over [0, t_max 2**e] and the time found scaled back; ValueError
    where t_max 2**e leaves the normal floats, or that sum the float range.
    """
    m00, m01, m10, m11 = _operator2(ham)
    hermitian, size = _is_hermitian2(m00, m01, m10, m11)
    t_max = positive_finite("t_max", t_max)
    steps = _scan_steps(steps)
    u = _unit2(initial)
    v = _unit2(final)
    if hermitian:
        # the symmetrized drive (m + m^dag) / 2, halved before it is summed,
        # whose n.n has imaginary part 0
        m01 = 0.5 * m01 + 0.5 * m10.conjugate()
        m10, m00, m11 = m01.conjugate(), m00.real, m11.real
    # the passage time scales as 1/|n|: solve for n 2**-e over [0, t_max 2**e]
    _, e, nx, ny, nz = _pauli_vector(m00, m01, m10, m11)
    if e:
        if not -1021 <= math.frexp(t_max)[1] + e <= 1024:
            raise ValueError(f"t_max = {t_max!r} times the drive leaves the float range")
        t_max = math.ldexp(t_max, e)
    u0, u1 = u
    n = n00, n01, n10, n11 = _pauli_entries(nx, ny, nz)
    w = n00 * u0 + n01 * u1, n10 * u0 + n11 * u1
    v = v[0].conjugate(), v[1].conjugate()
    r = _pauli_root(nx, ny, nz)
    if not r.imag:
        # a real spectrum by the rule of _pauli_root: r is a float
        t = _real_spectrum_passage(r.real, u, w, v, t_max)
    else:
        # a drive that takes the grid is not exactly Hermitian, so size is its norm
        t = _general_passage(r, n, math.ldexp(size, -e), u, w, v, t_max, steps, e)
    return t if t is None or not e else math.ldexp(t, -e)


def _scan_steps(steps) -> int:
    """``steps`` as an int; TypeError for a str, complex or array ``steps``
    (``_real``), ValueError unless it is an integer >= 1000."""
    try:
        n = operator.index(steps)
    except TypeError:
        x = _real("steps", steps)
        if not (math.isfinite(x) and x.is_integer()):
            raise ValueError(f"steps must be an integer, got {steps!r}") from None
        n = int(x)
    if n < 1000:
        raise ValueError("at least 1000 scan steps are required")
    return n


def _real_spectrum_passage(r: float, u, w, v, t_max: float) -> float | None:
    """Closed-form first passage under a drive with Pauli part n.sigma, n.n = r^2,
    from the unit state ``u``, with w = (n.sigma) u and ``v`` the conjugate of
    the unit target, each a pair of complex scalars."""
    u0, u1 = u
    w0, w1 = w
    v0, v1 = v
    alpha, beta = v0 * u0 + v1 * u1, v0 * w0 + v1 * w1
    if abs(alpha) >= PASSAGE_FIDELITY:
        return 0.0
    # psi = c u - i s w, so |<v|psi>|^2 = a c^2 + 2 e c s + b s^2 and
    # |psi|^2 = ap c^2 + 2 ep c s + bp s^2, all six coefficients real
    a, e, b = abs(alpha) ** 2, (alpha.conjugate() * beta).imag, abs(beta) ** 2
    ap = abs(u0) ** 2 + abs(u1) ** 2
    ep = (u0.conjugate() * w0 + u1.conjugate() * w1).imag
    bp = abs(w0) ** 2 + abs(w1) ** 2
    forms = a, e, b, ap, ep, bp
    # the ratio is stationary where q2 s^2 + q1 s c + q0 c^2 = 0; its roots
    # (c : s) = (q2 : k) and (k : q0) stay homogeneous, so c = 0 (tan(r t)
    # infinite) is one too.  A root (0 : 0) is none; of two, the second is
    # the peak only where its fidelity is strictly the larger
    q2, q1, q0 = b * ep - e * bp, b * ap - a * bp, e * ap - a * ep
    k = -0.5 * (q1 + math.copysign(math.sqrt(max(q1 * q1 - 4.0 * q2 * q0, 0.0)), q1))
    h1, h2 = math.hypot(q2, k), math.hypot(k, q0)
    root = (q2 / h1, k / h1) if h1 > 0.0 else None
    if h2 > 0.0:
        c, s = k / h2, q0 / h2
        if root is None or _fidelity2(forms, c, s) > _fidelity2(forms, *root):
            root = c, s
    t = t_max
    if root is not None:
        c, s = root
        if r > 0.0:
            t = min(t, (math.atan2(r * s, c) % math.pi) / r)
        elif c * s > 0.0:
            t = min(t, s / c)
    c, s = (math.cos(r * t), math.sin(r * t) / r) if r > 0.0 else (1.0, t)
    return t if math.sqrt(_fidelity2(forms, c, s)) >= PASSAGE_FIDELITY else None


def _fidelity2(forms, c: float, s: float) -> float:
    """The squared normalized fidelity at (c, s), the ratio of the quadratic
    forms (a, e, b) over (ap, ep, bp) of ``_real_spectrum_passage``."""
    a, e, b, ap, ep, bp = forms
    overlap2 = a * c * c + 2.0 * e * c * s + b * s * s
    return overlap2 / (ap * c * c + 2.0 * ep * c * s + bp * s * s)


def _general_passage(r: complex, n, size: float, u, w, v, t_max: float, steps: int,
                     e: int) -> float | None:
    """Grid scan plus slope bisection for a drive with Pauli part n.sigma whose
    n.n = r^2 is complex or negative; ``n`` holds the entries of n.sigma in row
    order (``_pauli_entries``), ``size`` is the drive's Frobenius norm, and
    ``u``, w = (n.sigma) u and ``v``, the conjugate of the unit target, are
    pairs of complex scalars.  The drive is the caller's scaled by 2**-e and
    ``t_max`` its by 2**e, so an overflow names its grid time scaled back by
    2**-e."""
    n00, n01, n10, n11 = n
    u0, u1 = u
    w0, w1 = w
    v0, v1 = v
    ts = np.linspace(0.0, t_max, steps)
    with np.errstate(over="ignore", invalid="ignore"):
        cosf, sincf = _cos_sinc(r, ts)
        psi0 = cosf * u0 - 1j * sincf * w0
        psi1 = cosf * u1 - 1j * sincf * w1
        fid = np.abs(v0 * psi0 + v1 * psi1) / np.hypot(np.abs(psi0), np.abs(psi1))
    _reject_first_time(np.ldexp(ts, -e) if e else ts, fid, "the evolution overflows: psi(t)")
    if fid[0] >= PASSAGE_FIDELITY:
        return 0.0

    def state(t: float) -> tuple[complex, complex]:
        # the grid's factors, as Python complex scalars: their arithmetic is faster
        c, s = _cos_sinc(r, t)
        c, s = complex(c), complex(s)
        return c * u0 - 1j * s * w0, c * u1 - 1j * s * w1

    def rising(t: float) -> bool:
        # with g = <v|psi> and psi' = -i (n.sigma) psi, d/dt |g|^2 / |psi|^2 has
        # the sign of Re(g* g') |psi|^2 - |g|^2 Re<psi|psi'>
        p0, p1 = state(t)
        d0 = -1j * (n00 * p0 + n01 * p1)
        d1 = -1j * (n10 * p0 + n11 * p1)
        g = v0 * p0 + v1 * p1
        dg = v0 * d0 + v1 * d1
        norm2 = abs(p0) ** 2 + abs(p1) ** 2
        growth = (p0.conjugate() * d0 + p1.conjugate() * d1).real
        return (g.conjugate() * dg).real * norm2 > abs(g) ** 2 * growth

    slack = 2.0 * (t_max / (steps - 1)) * max(size, 1e-30)
    # grid peaks: no lower than either neighbour; the last sample needs only the left one
    climbs = fid[1:] >= fid[:-1]
    tops = np.append(fid[1:-1] >= fid[2:], True)
    for j in np.flatnonzero(climbs & tops & (fid[1:] + slack >= PASSAGE_FIDELITY)) + 1:
        lo, hi = float(ts[j - 1]), float(ts[min(j + 1, steps - 1)])
        while hi - lo > _REFINE_TOL:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                # past t ~ 8192 adjacent floats lie more than _REFINE_TOL apart
                break
            if rising(mid):
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        p0, p1 = state(t)
        if abs(v0 * p0 + v1 * p1) / math.hypot(abs(p0), abs(p1)) >= PASSAGE_FIDELITY:
            return t
    return None
