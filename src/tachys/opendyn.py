"""Open-system reading of metric-Hermitian drives.

A non-Hermitian generator splits as ``H = coherent + 1j * drift`` with both
parts Hermitian; the drift part feeds or drains trace at rate 2*Tr(drift@rho)
under the one-sided semigroup rho(t) = e^{-iHt} rho e^{+iH^dag t}.  Shifting
the generator by -1j*rate_max makes the trace non-increasing while leaving
the trajectory shape untouched.  The module also carries the machinery for
the degenerate-metric limit: boundary states mapped into the flat frame, the
aligned fastest drive, and the revelation-probability scan over the metric
root parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import Metric, QuasiHamiltonian, metric_from_sqrt, quasi_hamiltonian
from .smallmat import (
    PAULI_X,
    _cos_sinc,
    _pauli_split,
    as_operator,
    as_state,
    dagger,
    eigvals2,
    is_hermitian,
    positive_finite,
    propagator,
)

__all__ = [
    "AlignmentError",
    "OpenSplit",
    "EvolutionTrace",
    "DissipationScanRow",
    "split_generator",
    "evolve_semigroup",
    "shifted_generator",
    "map_boundary_states",
    "aligned_hamiltonian",
    "dissipative_factor",
    "revelation_probability",
    "energy_gap_squared",
    "dissipation_scan",
]

_E0 = np.array([1.0, 0.0], dtype=complex)
_E1 = np.array([0.0, 1.0], dtype=complex)

_ALIGN_RESIDUAL_TOL = 1e-10


class AlignmentError(RuntimeError):
    """The aligned-drive phase solve could not reach its residual target."""


@dataclass(frozen=True, eq=False)
class OpenSplit:
    """Hermitian/anti-Hermitian split of a generator.

    generator = coherent + 1j * drift, both Hermitian; rate_max >= rate_min
    are the drift eigenvalues (the extreme instantaneous trace rates / 2).
    """

    coherent: np.ndarray
    drift: np.ndarray
    rate_max: float
    rate_min: float


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Sampled one-sided semigroup trajectory.

    ``k_values[j] = exp(-2 * rate_max * times[j])`` is the factor relating the
    trajectory of the trace-shifted generator to this one.
    """

    times: np.ndarray
    rhos: np.ndarray
    trace_values: np.ndarray
    k_values: np.ndarray


@dataclass(frozen=True, eq=False)
class DissipationScanRow:
    f: float
    d_factor: float
    finite_factor: float
    gap_sq: float
    a_prime: float
    tau: float


def split_generator(ham) -> OpenSplit:
    """Split a generator into Hermitian and anti-Hermitian parts."""
    m = as_operator(ham, dim=2)
    coherent = 0.5 * (m + dagger(m))
    drift = (m - dagger(m)) / 2j
    hi, lo = eigvals2(drift)
    return OpenSplit(coherent=coherent, drift=drift, rate_max=float(hi.real), rate_min=float(lo.real))


def evolve_semigroup(ham, rho0, times) -> EvolutionTrace:
    """One-sided semigroup rho(t) = e^{-i ham t} rho0 e^{+i ham^dag t}.

    ``rho0`` must be a density matrix (Hermitian, positive semidefinite, unit
    trace) and ``times`` a non-empty array of finite times.  With the
    identity+Pauli split ham = a0 I + N, c = cos(r t), s = sin(r t)/r and
    B = -i N rho0, the trajectory has the closed form

        rho(t) = e^{2 Im(a0) t} (|c|^2 rho0 + s c* B + c s* B^dag + |s|^2 N rho0 N^dag),

    so every state is four time coefficients times four fixed matrices, and
    every trace the same coefficients times their four traces.  The form is
    exact up to rounding, defective generators at an exceptional point
    included (s -> t as r -> 0); no stepping error is involved.  Where the
    growth e^{Im(a0) t} |c| or |s| overflows, ValueError names the earliest
    time whose state is not finite.
    """
    m = as_operator(ham, dim=2)
    rho = as_operator(rho0, dim=2)
    if not is_hermitian(rho):
        raise ValueError("rho0 must be Hermitian")
    evs = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    if float(evs.min()) < -1e-10:
        raise ValueError(f"rho0 must be positive semidefinite (min eigenvalue {evs.min():.3e})")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-8:
        raise ValueError("rho0 must have unit trace")
    ts = np.asarray(times, dtype=float).reshape(-1)
    if ts.shape[0] == 0:
        raise ValueError("times must be non-empty")
    if not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite")
    a0, r, pauli_part = _pauli_split(m)
    with np.errstate(over="ignore", invalid="ignore"):
        cosf, sincf = _cos_sinc(r, ts)
        # |e^{-i a0 t}| = e^{Im(a0) t} goes onto c and s before they are squared,
        # as it goes onto the propagator, so |c|^2 overflows no earlier than U does
        modulus = np.exp(a0.imag * ts)
        cosf *= modulus
        sincf *= modulus
        coeffs = np.empty((ts.shape[0], 4), dtype=complex)
        coeffs[:, 0] = cosf.real**2 + cosf.imag**2
        np.multiply(sincf, np.conj(cosf), out=coeffs[:, 1])
        np.conj(coeffs[:, 1], out=coeffs[:, 2])
        coeffs[:, 3] = sincf.real**2 + sincf.imag**2
        b = -1j * (pauli_part @ rho)
        # rows rho0, B, B^dag, N rho0 N^dag; B^dag is written out as i rho0 N^dag so
        # a rho0 Hermitian only to tolerance is conjugated exactly as given
        basis = np.stack([rho, b, 1j * (rho @ dagger(pauli_part)), pauli_part @ rho @ dagger(pauli_part)])
        rhos = (coeffs @ basis.reshape(4, 4)).reshape(-1, 2, 2)
        traces = np.real(coeffs @ (basis[:, 0, 0] + basis[:, 1, 1]))
    # each trace sums all four coefficients of its state (inf * 0 is NaN), so
    # the n traces show every overflow the (n, 2, 2) stack would
    blown = ~np.isfinite(traces)
    if blown.any():
        t_bad = float(ts[blown].min())
        raise ValueError(f"the trajectory overflows: rho(t) is first not finite at t = {t_bad!r}")
    rate = split_generator(m).rate_max
    return EvolutionTrace(times=ts, rhos=rhos, trace_values=traces, k_values=np.exp(-2.0 * rate * ts))


def shifted_generator(ham) -> tuple[np.ndarray, float]:
    """Trace-taming shift: returns (ham - 1j*rate_max*I, rate_max).

    The shifted generator's own drift has top eigenvalue zero, so its
    semigroup never pushes the trace above one.
    """
    m = as_operator(ham, dim=2)
    rate = split_generator(m).rate_max
    return m - 1j * rate * np.eye(2), rate


def map_boundary_states(metric: Metric, initial, final) -> tuple[np.ndarray, np.ndarray, float]:
    """Metric-normalized images of a boundary pair in the flat frame.

    Each state is sent to sqrt_eta @ psi / sqrt(<psi|eta|psi>); the returned
    scalar is the modulus of the flat overlap of the two images, which sets
    the travel time of the aligned problem.
    """
    u = as_state(initial, dim=2)
    v = as_state(final, dim=2)
    out = []
    for psi in (u, v):
        nrm2 = float(np.real(np.vdot(psi, metric.eta @ psi)))
        if nrm2 <= 0.0:
            raise ValueError("state has non-positive metric norm")
        out.append(metric.sqrt_eta @ psi / np.sqrt(nrm2))
    overlap = complex(np.vdot(out[0], out[1]))
    return out[0], out[1], float(abs(overlap))


def aligned_hamiltonian(metric: Metric, omega: float, initial, final) -> QuasiHamiltonian:
    """Metric-Hermitian drive steering ``initial`` to ``final`` in minimal time.

    The boundary pair is mapped to the flat frame, an orthonormal frame is
    aligned with it by two decoupled phase rotations so the pair takes the
    normal form (|a'|, -i b'), and the flat fastest drive (omega/2 times the
    Pauli-X form) is conjugated back.  The propagated state then reaches
    ``final`` (as a ray) at tau = (2/omega) * arccos|a'|.
    """
    return _aligned_drive(metric, omega, initial, final)[0]


def _aligned_drive(metric: Metric, omega: float, initial, final) -> tuple[QuasiHamiltonian, float]:
    """``aligned_hamiltonian`` together with the flat overlap |a'| of the pair."""
    omega = positive_finite("omega", omega)
    mapped_i, mapped_f, a_abs = map_boundary_states(metric, initial, final)
    a_complex = complex(np.vdot(mapped_i, mapped_f))
    u0 = mapped_i
    w = mapped_f - a_complex * u0
    # second orthogonalization pass: near the degenerate limit the pair is
    # almost parallel and a single subtraction leaves an O(eps/|b'|) shadow
    # of u0 in the complement, which the residual gate below would reject
    w = w - complex(np.vdot(u0, w)) * u0
    b_abs = float(np.linalg.norm(w))
    if b_abs < 1e-8:
        raise AlignmentError("mapped boundary states are parallel; no aligned drive exists")
    u1 = w / b_abs
    # decoupled phase solves: rotate u0 by arg(a') and u1 by a quarter turn
    if a_abs > 0.0:
        u0 = u0 * np.exp(1j * np.angle(a_complex))
    u1 = 1j * u1
    frame = np.column_stack([u0, u1])
    coords = dagger(frame) @ mapped_f
    residual = float(np.linalg.norm(coords - np.array([a_abs, -1j * b_abs])))
    if residual > _ALIGN_RESIDUAL_TOL:
        raise AlignmentError(f"phase alignment residual {residual:.3e} exceeds tolerance")
    h = 0.5 * omega * (frame @ PAULI_X @ dagger(frame))
    h = 0.5 * (h + dagger(h))
    return quasi_hamiltonian(h, metric, omega), a_abs


def dissipative_factor(f: float) -> float:
    """Degenerate-limit revelation probability (1/f) * exp(-(1/f + f))."""
    f = positive_finite("f", f)
    return float(np.exp(-(1.0 / f + f)) / f)


def revelation_probability(metric: Metric, omega: float) -> float:
    """Squared norm of the evolved reference state at arrival under the
    shifted (trace-contracting) realization of the aligned drive, for the
    canonical orthogonal boundary pair (1,0) -> (0,1).

    The shift makes the one-sided evolution a genuine sub-normalized process,
    so the returned value is the probability that the system is revealed at
    the target.  At a root diagonal of 1 it tends to exp(-2) as the root
    degenerates, matching ``dissipative_factor(1.0)``.
    """
    _, _, _, arrived = _canonical_arrival(metric, omega)
    return float(np.real(np.vdot(arrived, arrived)))


def _canonical_arrival(
    metric: Metric, omega: float
) -> tuple[OpenSplit, float, float, np.ndarray]:
    """The aligned canonical problem (1,0) -> (0,1) under ``metric``.

    Returns the open split of the aligned drive, the flat overlap |a'|, the
    arrival time tau = (2/omega) * arccos|a'| and the reference state evolved
    to tau under the shifted (trace-contracting) generator.
    """
    qh, a_abs = _aligned_drive(metric, omega, _E0, _E1)
    tau = (2.0 / omega) * float(np.arccos(np.clip(a_abs, 0.0, 1.0)))
    split = split_generator(qh.operator)
    # the shift of shifted_generator, from the split computed once here
    shifted = qh.operator - 1j * split.rate_max * np.eye(2)
    return split, a_abs, tau, propagator(shifted, tau) @ _E0


def energy_gap_squared(hermitian_part) -> float:
    """(Tr M)^2 - 4 det M for a Hermitian matrix: the squared eigenvalue gap."""
    m = as_operator(hermitian_part, dim=2)
    tr = complex(np.trace(m))
    det = complex(np.linalg.det(m))
    return float((tr * tr - 4.0 * det).real)


def dissipation_scan(f_grid, omega: float, proximity: float = 1e-6) -> list[DissipationScanRow]:
    """Sweep the metric root diagonal and report the degenerate-limit numbers.

    For each ``f`` the row carries the limit revelation probability, plus the
    squared gap of the coherent part, the flat overlap |a'| and the travel
    time tau of the aligned canonical problem evaluated at the caller-set
    ``proximity`` (the offset of |offdiag|^2 below f along real offdiag).
    """
    omega = positive_finite("omega", omega)
    proximity = positive_finite("proximity", proximity)
    rows = []
    for f in np.asarray(f_grid, dtype=float).reshape(-1):
        rows.append(_scan_row(float(f), omega, proximity))
    return rows


def _scan_row(f: float, omega: float, proximity: float) -> DissipationScanRow:
    if proximity >= f:
        raise ValueError(f"proximity {proximity:.3g} must be smaller than f {f:.3g}")
    metric = metric_from_sqrt(f, np.sqrt(f - proximity))
    split, a_abs, tau, arrived = _canonical_arrival(metric, omega)
    gap_sq = energy_gap_squared(split.coherent)
    # finite-proximity revelation probability under the shifted realization;
    # cross-checks the closed-form d_factor at f = 1, where both tend to
    # exp(-2) as the proximity shrinks
    finite = float(np.linalg.norm(arrived) ** 2)
    return DissipationScanRow(
        f=f,
        d_factor=dissipative_factor(f),
        finite_factor=finite,
        gap_sq=gap_sq,
        a_prime=a_abs,
        tau=tau,
    )
