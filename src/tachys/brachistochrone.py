"""Fastest fixed-gap Hermitian drives between two qubit states.

With the energy spread (eigenvalue gap) of the drive pinned to ``omega``, the
shortest time to steer the reference state (1, 0) into a target (a, b) is
``(2/omega) * arccos|a|``, and the drive that achieves it has equal diagonal
entries and an off-diagonal element of modulus ``omega/2``.  This module
constructs that drive, validates it by propagating the reference state, and
provides a scan that locates first-passage times for arbitrary drives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .smallmat import (
    _cos_sinc,
    _pauli_split,
    as_operator,
    as_state,
    is_hermitian,
    normalize,
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
    shift]].  ``phase_convention`` records which sign of the quarter-turn term
    survived the propagation check ("literal" or "flipped").
    """

    omega: float
    shift: float
    phase: float
    matrix: np.ndarray
    phase_convention: str


@dataclass(frozen=True, eq=False)
class BrachistochroneResult:
    tau: float
    overlap: complex
    drive: OptimalHamiltonianSpec


def minimal_time(initial, final, omega: float) -> float:
    """Shortest travel time (2/omega) * arccos|<initial|final>|."""
    omega = float(omega)
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    u = normalize(as_state(initial, dim=2))
    v = normalize(as_state(final, dim=2))
    return (2.0 / omega) * float(np.arccos(np.clip(abs(np.vdot(u, v)), 0.0, 1.0)))


def _drive_matrix(omega: float, shift: float, phase: float) -> np.ndarray:
    off = 0.5 * omega * np.exp(-1j * phase)
    return np.array([[shift, off], [np.conj(off), shift]], dtype=complex)


def optimal_hamiltonian(target, omega: float) -> OptimalHamiltonianSpec:
    """Minimal-time Hermitian drive taking (1, 0) to ``target``.

    The target must be normalized with a nonzero second component (otherwise
    no excursion is needed and the drive is not unique).  The off-diagonal
    phase convention is not taken on faith: the candidate with the literal
    quarter-turn sign is propagated over the minimal time first, and if it
    misses the target the sign is flipped; the convention that reproduces the
    target exactly is recorded on the returned spec.  The diagonal shift is
    fixed so the propagated phase matches the target phase, not only the ray.
    """
    omega = float(omega)
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    v = as_state(target, dim=2)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"target must be normalized (norm = {nrm:.12g})")
    v = v / nrm
    a, b = complex(v[0]), complex(v[1])
    if abs(b) == 0.0:
        raise ValueError("trivial target: second component vanishes, travel time is zero")
    arg_a = float(np.angle(a)) if abs(a) > 0.0 else 0.0
    arg_b = float(np.angle(b))
    half_turn = float(np.arcsin(np.clip(abs(b), 0.0, 1.0)))
    shift = -omega * arg_a / (2.0 * half_turn)
    tau = minimal_time(_REFERENCE, v, omega)
    base = arg_b - arg_a
    for convention, phase in (("literal", base - np.pi / 2.0), ("flipped", base + np.pi / 2.0)):
        phase = float((phase + np.pi) % (2.0 * np.pi) - np.pi)
        if phase == -np.pi:
            phase = np.pi
        ham = _drive_matrix(omega, shift, phase)
        reached = propagator(ham, tau) @ _REFERENCE
        if float(np.linalg.norm(reached - v)) <= _PROPAGATION_TOL:
            return OptimalHamiltonianSpec(
                omega=omega, shift=shift, phase=phase, matrix=ham, phase_convention=convention
            )
    raise ValueError("no off-diagonal phase convention reproduces the target")


def transfer(target, omega: float) -> BrachistochroneResult:
    """Bundle the minimal-time drive with its travel time and target overlap."""
    drive = optimal_hamiltonian(target, omega)
    v = normalize(as_state(target, dim=2))
    return BrachistochroneResult(
        tau=minimal_time(_REFERENCE, v, omega),
        overlap=complex(np.vdot(_REFERENCE, v)),
        drive=drive,
    )


def first_passage_scan(ham, initial, final, t_max: float, steps: int = 10_000) -> float | None:
    """Earliest time in [0, t_max] at which the evolution reaches ``final``.

    The fidelity |<final|psi(t)>| (normalized) is sampled on a uniform grid of
    ``steps`` points; the earliest fidelity peak clearing PASSAGE_FIDELITY is
    refined to about 1e-10 in t and returned.  None when the target is never
    reached.  Hermitian drives use an exact eigendecomposition of the sampled
    amplitudes and bisect on the analytic slope.  Non-Hermitian drives
    evaluate the closed-form state cos(r t) u - i sin(r t)/r (n.sigma) u of
    the identity+Pauli split, exact for defective generators too, and refine
    by golden-section search on the normalized fidelity.
    """
    m = as_operator(ham, dim=2)
    t_max = float(t_max)
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise ValueError("t_max must be a positive finite real")
    steps = int(steps)
    if steps < 1000:
        raise ValueError("at least 1000 scan steps are required")
    u = normalize(as_state(initial, dim=2))
    v = normalize(as_state(final, dim=2))
    ts = np.linspace(0.0, t_max, steps)

    hermitian = is_hermitian(m)
    if hermitian:
        w, vecs = np.linalg.eigh(0.5 * (m + np.conj(m).T))
        coeff = (np.conj(v) @ vecs) * (np.conj(vecs).T @ u)

        def amplitude(t):
            return np.exp(-1j * np.outer(np.atleast_1d(t), w)) @ coeff

        fid = np.abs(amplitude(ts)).reshape(-1)

        def fid_at(t: float) -> float:
            return float(abs(amplitude(t)[0]))

        def slope_at(t: float) -> float:
            phases = np.exp(-1j * w * t)
            g = np.sum(coeff * phases)
            dg = np.sum(coeff * (-1j * w) * phases)
            return float(2.0 * np.real(np.conj(g) * dg))

        scale = float(np.max(np.abs(w)))
    else:
        # psi(t) = e^{-i a0 t} (cos(r t) u - i sin(r t)/r (n.sigma) u); the
        # phase factor cancels in the normalized fidelity, and plain complex
        # scalars keep the golden-section steps cheap
        _, r, pauli_part = _pauli_split(m)
        r = complex(r)
        u0, u1 = (complex(x) for x in u)
        su0, su1 = (complex(x) for x in pauli_part @ u)
        v0, v1 = (complex(x) for x in np.conj(v))

        def fid_at(t):
            cosf, sincf = _cos_sinc(r, t)
            isinc = 1j * sincf
            psi0 = cosf * u0 - isinc * su0
            psi1 = cosf * u1 - isinc * su1
            return np.abs(v0 * psi0 + v1 * psi1) / np.hypot(np.abs(psi0), np.abs(psi1))

        fid = fid_at(ts)
        slope_at = None
        scale = float(np.linalg.norm(m))

    if fid[0] >= PASSAGE_FIDELITY:
        return 0.0

    step = ts[1] - ts[0]
    slack = 2.0 * step * max(scale, 1e-30)
    n = steps
    for j in range(1, n):
        left = fid[j] >= fid[j - 1]
        right = fid[j] >= fid[j + 1] if j + 1 < n else True
        if not (left and right):
            continue
        if fid[j] + slack < PASSAGE_FIDELITY:
            continue
        lo = ts[j - 1]
        hi = ts[j + 1] if j + 1 < n else ts[j]
        if hi <= lo:
            t_peak = ts[j]
        elif slope_at is not None and slope_at(lo) > 0.0 >= slope_at(hi):
            while hi - lo > _REFINE_TOL:
                mid = 0.5 * (lo + hi)
                if slope_at(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            t_peak = 0.5 * (lo + hi)
        else:
            t_peak = _golden_max(fid_at, lo, hi)
        if fid_at(t_peak) >= PASSAGE_FIDELITY:
            return float(t_peak)
    return None


def _golden_max(fun, lo: float, hi: float) -> float:
    """Golden-section maximizer used when no analytic slope is available."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > _REFINE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)
