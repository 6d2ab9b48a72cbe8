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
    _abs,
    _cmul,
    _cos_sinc,
    _col,
    _first_failing_row,
    _float_or_array,
    _norm,
    _pauli_split,
    _reject_rows,
    _square,
    _vdots,
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
    """Split a generator into Hermitian and anti-Hermitian parts.

    An ``(n, 2, 2)`` stack gives stacked parts and ``(n,)`` rate arrays.
    """
    m = as_operator(ham, dim=2, stack=True)
    coherent = 0.5 * (m + dagger(m))
    drift = (m - dagger(m)) / 2j
    hi, lo = eigvals2(drift)
    return OpenSplit(coherent=coherent, drift=drift, rate_max=np.real(hi), rate_min=np.real(lo))


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


def map_boundary_states(metric: Metric, initial, final):
    """Metric-normalized images of a boundary pair in the flat frame.

    Each state is sent to sqrt_eta @ psi / sqrt(<psi|eta|psi>); the returned
    scalar is the modulus of the flat overlap of the two images, which sets
    the travel time of the aligned problem.  A metric of ``(n, 2, 2)`` stacks
    gives ``(n, 2)`` images and ``(n,)`` moduli.
    """
    u = as_state(initial, dim=2)
    v = as_state(final, dim=2)
    out = []
    for psi in (u, v):
        nrm2 = np.real(_vdots(psi, metric.eta @ psi))
        _reject_rows(nrm2 <= 0.0, ValueError("state has non-positive metric norm"))
        out.append(metric.sqrt_eta @ psi / np.sqrt(nrm2)[..., None])
    overlap = _vdots(out[0], out[1])
    return out[0], out[1], _abs(overlap)


def aligned_hamiltonian(metric: Metric, omega: float, initial, final) -> QuasiHamiltonian:
    """Metric-Hermitian drive steering ``initial`` to ``final`` in minimal time.

    The boundary pair is mapped to the flat frame, an orthonormal frame is
    aligned with it by two decoupled phase rotations so the pair takes the
    normal form (|a'|, -i b'), and the flat fastest drive (omega/2 times the
    Pauli-X form) is conjugated back.  The propagated state then reaches
    ``final`` (as a ray) at tau = (2/omega) * arccos|a'|.  A metric of
    ``(n, 2, 2)`` stacks gives a stack of drives, each equal to the single
    call bit for bit; the first pair that fails a gate raises.
    """
    return _aligned_drive(metric, omega, initial, final)[0]


def _aligned_drive(metric: Metric, omega: float, initial, final):
    """``aligned_hamiltonian`` together with the flat overlap |a'| of the pair."""
    omega = positive_finite("omega", omega)
    mapped_i, mapped_f, a_abs = map_boundary_states(metric, initial, final)
    a_complex = _vdots(mapped_i, mapped_f)
    u0 = mapped_i
    w = mapped_f - a_complex[..., None] * u0
    # second orthogonalization pass: near the degenerate limit the pair is
    # almost parallel and a single subtraction leaves an O(eps/|b'|) shadow
    # of u0 in the complement, which the residual gate below would reject
    w = w - _vdots(u0, w)[..., None] * u0
    b_abs = _norm(w)
    parallel = AlignmentError("mapped boundary states are parallel; no aligned drive exists")
    _reject_rows(b_abs < 1e-8, parallel)
    u1 = w / np.asarray(b_abs)[..., None]
    # decoupled phase solves: rotate u0 by arg(a') and u1 by a quarter turn
    turned = u0 * np.exp(1j * np.angle(a_complex))[..., None]
    u0 = np.where(np.asarray(a_abs > 0.0)[..., None], turned, u0)
    u1 = 1j * u1
    frame = np.stack([u0, u1], axis=-1)
    coords = (dagger(frame) @ mapped_f[..., None])[..., 0]
    residual = _norm(coords - np.array([a_abs, -1j * b_abs]).T)
    _reject_rows(
        residual > _ALIGN_RESIDUAL_TOL,
        lambda r: AlignmentError(f"phase alignment residual {r:.3e} exceeds tolerance"),
        residual,
    )
    h = 0.5 * omega * (frame @ PAULI_X @ dagger(frame))
    h = 0.5 * (h + dagger(h))
    return quasi_hamiltonian(h, metric, omega), a_abs


def dissipative_factor(f: float) -> float:
    """Degenerate-limit revelation probability (1/f) * exp(-(1/f + f))."""
    f = positive_finite("f", f)
    return float(np.exp(-(1.0 / f + f)) / f)


def revelation_probability(metric: Metric, omega: float):
    """Squared norm of the evolved reference state at arrival under the
    shifted (trace-contracting) realization of the aligned drive, for the
    canonical orthogonal boundary pair (1,0) -> (0,1).

    The shift makes the one-sided evolution a genuine sub-normalized process,
    so the returned value is the probability that the system is revealed at
    the target.  At a root diagonal of 1 it tends to exp(-2) as the root
    degenerates, matching ``dissipative_factor(1.0)``.  A metric of
    ``(n, 2, 2)`` stacks gives one probability per metric.
    """
    return _float_or_array(_square(_norm(_canonical_arrival(metric, omega)[3])))


def _canonical_arrival(metric: Metric, omega: float):
    """The aligned canonical problem (1,0) -> (0,1) under ``metric``.

    Returns the open split of the aligned drive, the flat overlap |a'|, the
    arrival time tau = (2/omega) * arccos|a'| and the reference state evolved
    to tau under the shifted (trace-contracting) generator; a metric of
    ``(n, 2, 2)`` stacks gives each of them stacked.
    """
    qh, a_abs = _aligned_drive(metric, omega, _E0, _E1)
    tau = (2.0 / omega) * np.arccos(np.clip(a_abs, 0.0, 1.0))
    split = split_generator(qh.operator)
    # the shift of shifted_generator, from the split computed once here
    shifted = qh.operator - _col(1j * split.rate_max) * np.eye(2)
    return split, a_abs, _float_or_array(tau), propagator(shifted, tau) @ _E0


def energy_gap_squared(hermitian_part):
    """(Tr M)^2 - 4 det M for a Hermitian matrix: the squared eigenvalue gap.

    An ``(n, 2, 2)`` stack gives one value per matrix.
    """
    m = as_operator(hermitian_part, dim=2, stack=True)
    tr = m[..., 0, 0] + m[..., 1, 1]
    return _float_or_array((_cmul(tr, tr) - 4.0 * np.linalg.det(m)).real)


def dissipation_scan(f_grid, omega: float, proximity: float = 1e-6) -> list[DissipationScanRow]:
    """Sweep the metric root diagonal and report the degenerate-limit numbers.

    For each ``f`` the row carries the limit revelation probability, plus the
    squared gap of the coherent part, the flat overlap |a'| and the travel
    time tau of the aligned canonical problem evaluated at the caller-set
    ``proximity`` (the offset of |offdiag|^2 below f along real offdiag).

    The grid is computed in one stacked pass: the metrics of every row are
    ``(n, 2, 2)`` stacks, and the boundary mapping, the aligned frame, the
    ``quasi_hamiltonian`` gates, the open split, the propagation and the gap
    each run once over them.  Every row equals the single-metric chain
    (``metric_from_sqrt``, ``revelation_probability``, ``aligned_hamiltonian``,
    ``split_generator``, ``energy_gap_squared``) bit for bit, and a failing
    grid raises the error of its first failing row, from the earliest gate
    that row fails, as a loop over the rows would.
    """
    omega = positive_finite("omega", omega)
    proximity = positive_finite("proximity", proximity)
    fs = np.asarray(f_grid, dtype=float).reshape(-1)
    columns = _first_failing_row(lambda n: _scan_columns(fs[:n], omega, proximity), len(fs))
    return [DissipationScanRow(*row) for row in zip(fs.tolist(), *(c.tolist() for c in columns))]


def _scan_columns(f: np.ndarray, omega: float, proximity: float):
    """d_factor, finite_factor, gap_sq, a_prime and tau over the grid ``f``."""
    _reject_rows(
        proximity >= f,
        lambda x: ValueError(f"proximity {proximity:.3g} must be smaller than f {x:.3g}"),
        f,
    )
    metric = metric_from_sqrt(f, np.sqrt(f - proximity))
    split, a_abs, tau, arrived = _canonical_arrival(metric, omega)
    gap_sq = energy_gap_squared(split.coherent)
    # finite-proximity revelation probability under the shifted realization;
    # cross-checks the closed-form d_factor at f = 1, where both tend to
    # exp(-2) as the proximity shrinks
    finite_factor = _square(_norm(arrived))
    return np.exp(-(1.0 / f + f)) / f, finite_factor, gap_sq, a_abs, tau
