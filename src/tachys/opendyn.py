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

import math
from dataclasses import dataclass

import numpy as np

from .metric import Metric, QuasiHamiltonian, _flat_image, _metric_from_sqrt, _metric_norm, _quasi_hamiltonian
from .smallmat import (
    _E0,
    _E1,
    _EP_RADIUS,
    PAULI_X,
    _abs,
    _angle,
    _arg,
    _cis,
    _cmul,
    _col,
    _damped_sinh_cosh,
    _det2,
    _eigvals2,
    _entries2,
    _exp,
    _finite,
    _first_failing_row,
    _float_or_array,
    _hermitian_part,
    _is_hermitian2,
    _ldexp,
    _matmul,
    _matrix2,
    _norm,
    _operator2,
    _pair,
    _pauli_entries,
    _pauli_root,
    _pauli_vector,
    _propagator,
    _reals,
    _reject_first_time,
    _reject_rows,
    _square,
    _stepped,
    _tan,
    _vdots,
    _where,
    as_operator,
    as_state,
    dagger,
    positive_finite,
)

__all__ = [
    "AlignmentError",
    "OpenSplit",
    "EvolutionTrace",
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

_ALIGN_RESIDUAL_TOL = 1e-10

#: most samples per block of evolve_semigroup: its seven scratch rows
#: (896 KiB) and the block's states (1 MiB) fit in a 2 MiB L2
_BLOCK = 2**14


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
    trajectory of the trace-shifted generator to this one.  ``rhos``,
    ``trace_values`` and ``k_values`` are disjoint C-contiguous views of one
    buffer, so any one of them kept alone keeps all 80 B/sample alive.
    """

    times: np.ndarray
    rhos: np.ndarray
    trace_values: np.ndarray
    k_values: np.ndarray


def split_generator(ham) -> OpenSplit:
    """Split a generator into Hermitian and anti-Hermitian parts.

    Both halve before they sum, coherent = ``_hermitian_part(ham)`` and
    drift = (0.5 ham - 0.5 ham^dag) / i, so a finite generator has a finite
    split.  An ``(n, 2, 2)`` stack gives stacked parts and ``(n,)`` rate arrays.
    """
    return _split_generator(as_operator(ham, stack=True))


def _split_generator(m: np.ndarray) -> OpenSplit:
    """``split_generator`` of a generator (or stack) already read, C-ordered."""
    drift = _drift2(*_entries2(m))
    hi, lo = _eigvals2(*drift)
    return OpenSplit(coherent=_hermitian_part(m), drift=_matrix2(*drift), rate_max=np.real(hi), rate_min=np.real(lo))


def _drift2(m00, m01, m10, m11):
    """The entries of the drift (0.5 m - 0.5 m^dag) / i of [[m00, m01], [m10, m11]]:
    of Python complex scalars, or elementwise of ``(n,)`` rows (``_entries2``)."""
    # named, so numpy never multiplies a large temporary conjugate in place,
    # as c * 0.5, which rounds a signed zero unlike 0.5 * c
    c00, c01, c10, c11 = m00.conjugate(), m01.conjugate(), m10.conjugate(), m11.conjugate()
    return ((0.5 * m00 - 0.5 * c00) / 1j, (0.5 * m01 - 0.5 * c10) / 1j,
            (0.5 * m10 - 0.5 * c01) / 1j, (0.5 * m11 - 0.5 * c11) / 1j)


def evolve_semigroup(ham, rho0, times) -> EvolutionTrace:
    """One-sided semigroup rho(t) = e^{-i ham t} rho0 e^{+i ham^dag t}.

    ``rho0`` must be a density matrix (Hermitian, positive semidefinite, unit
    trace) and ``times`` a finite time or a non-empty 1-d array of them, read
    by ``_reals``: TypeError for complex or str times, ValueError naming the
    first non-finite time or the shape of a grid of two dimensions.  With the
    identity+Pauli split ham = a0 I + N, r = w + ik the root of N^2, alpha =
    Im(a0), e = e^{alpha t}, B = -i N rho0 and X = B/r, the trajectory is four
    real time coefficients times four fixed matrices,

        rho(t) = c0 rho0 + c1 (X + X^dag) + c2 i(X - X^dag) + c3 N rho0 N^dag/|r|^2,

    c0 = (e cos wt)^2 + (e sinh kt)^2,  c1 = (e sin wt)(e cos wt),
    c2 = (e sinh kt)(e cosh kt),        c3 = (e sin wt)^2 + (e sinh kt)^2,

    and every trace the same coefficients times the four traces.  Sums of
    squares replace differences such as cosh 2kt - cos 2wt, and e sinh kt
    comes from expm1, so nothing cancels near an exceptional point; at one
    (|r| below _EP_RADIUS) cos rt -> 1 and sin(rt)/r -> t.  The form is exact
    up to rounding and involves no stepping error.  The rotation costs one
    ``tan`` per sample: with u = tan wt, cos^2 wt = 1/(1 + u^2),
    sin^2 wt = u^2 cos^2 wt and sin wt cos wt = u cos^2 wt.  Each rotation
    term is multiplied by e twice, (c e) e, and the damping e meets the
    growth of cosh kt inside one exponential, so a state is non-finite only
    where the exact state overflows; ValueError then names the earliest such
    time, and likewise the earliest time whose ``k_values`` entry overflows.
    Where alpha is exactly 0, as for every Hermitian generator (and a
    metric-Hermitian one whose trace rounds to a real number), e is 1 and
    its ``exp`` and products are skipped.

    r follows the real-spectrum rule of ``first_passage_scan``
    (``_pauli_root``): where Re(N^2) >= 0 and |Im(N^2)| is at most
    16 eps sum |n_k|^2, as for a Hermitian or metric-Hermitian generator, r
    is real and k = 0, and the coefficients skip the hyperbolic terms, which
    add exact zeros at k = 0.

    The size of ``ham`` is s = sum_k |Re n_k| + |Im n_k| of its Pauli vector.
    Before anything reads |n| or |r| (the rule, the exceptional-point radius,
    X and N rho0 N^dag/|r|^2), N takes the range step of ``_pauli_vector`` and
    turns on its clock, so the basis overflows only where the state does and
    ``evolve_semigroup(2**k ham, rho0, 2**-k times)`` keeps every bit; an s
    past the float range raises ValueError.

    The set-up runs on Python scalars, with no numpy call: ``ham`` and
    ``rho0`` are each read once, raising what ``as_operator(x)``
    would, in the order ham, rho0, times (``_operator2``); rho0 is gated by
    ``_is_hermitian2`` (``is_hermitian``'s one verdict of a 2x2 matrix, in scalar
    arithmetic for a rho0 of ordinary size) and by its smaller eigenvalue and trace;
    the rate of ``k_values`` is ``split_generator``'s ``rate_max``, bit for
    bit, and k(t) is e^{-2 (rate t)}, so it overflows only where it exceeds
    the float range; a rate of exactly 0 (a Hermitian generator, most
    trace-shifted ones) gives k = 1 with no ``exp``.
    The evaluation is blocked, with O(_BLOCK) scratch and 80 B/sample
    returned in one allocation: the times run in equal blocks of at most
    _BLOCK samples, which reuse one set of seven scratch rows, and each block
    writes its states, traces and ``k_values`` straight into the returned
    arrays.
    """
    m00, m01, m10, m11 = _operator2(ham)
    rho = p00, p01, p10, p11 = _operator2(rho0)
    if not _is_hermitian2(*rho)[0]:
        raise ValueError("rho0 must be Hermitian")
    # the smaller eigenvalue of the Hermitian part (rho0 + rho0^dag) / 2
    off = 0.5 * p01 + 0.5 * p10.conjugate()
    low = 0.5 * (p00.real + p11.real) - math.hypot(0.5 * (p00.real - p11.real), off.real, off.imag)
    if low < -1e-10:
        raise ValueError(f"rho0 must be positive semidefinite (min eigenvalue {low:.3e})")
    if abs(p00.real + p11.real - 1.0) > 1e-8:
        raise ValueError("rho0 must have unit trace")
    ts = np.reshape(_reals("times", times), -1)
    if ts.size == 0:
        raise ValueError("times must be non-empty")
    a0, e, nx, ny, nz = _pauli_vector(m00, m01, m10, m11)
    r = _pauli_root(nx, ny, nz)
    exceptional = math.hypot(r.real, r.imag) < _EP_RADIUS
    # exceptional point: cos rt -> 1, sin(rt)/r -> t and sinh kt -> 0; X is B
    basis_re = _semigroup_basis(rho, _pauli_entries(nx, ny, nz), 1.0 if exceptional else r)
    rate = _eigvals2(*_drift2(m00, m01, m10, m11))[0].real
    n = ts.shape[0]
    # equal blocks, so that none is short; n <= _BLOCK is one block
    size = -(-n // -(-n // _BLOCK))
    scratch = np.empty(7 * size)
    # one buffer for the three outputs: per sample eight floats of the state,
    # then the n traces and the n k values
    out = np.empty(10 * n)
    flat = out[: 8 * n].reshape(n, 8)
    rhos = flat.view(complex).reshape(n, 2, 2)
    traces, k_values = out[8 * n : 9 * n], out[9 * n :]
    with np.errstate(over="ignore", invalid="ignore"):
        # real coefficients: one real product writes the real and imaginary parts
        basis_traces = basis_re[:, 0] + basis_re[:, 6]
        for lo in range(0, n, size):
            hi = min(lo + size, n)
            # a C-contiguous (7, hi - lo) view: c0..c3, then three scratch rows
            rows = scratch[: 7 * (hi - lo)].reshape(7, hi - lo)
            _semigroup_coefficients(ts[lo:hi], a0.imag, None if exceptional else r, e, rows)
            _matmul(rows[:4].T, basis_re, out=flat[lo:hi])
            _matmul(basis_traces, rows[:4], out=traces[lo:hi])
            k = k_values[lo:hi]
            if rate:
                # rate t, then doubled (exactly): -2 rate alone may overflow
                np.multiply(ts[lo:hi], rate, out=k)
                np.multiply(k, -2.0, out=k)
                _exp(k, out=k)
            else:
                # e^{-2 rate t} = e^{+-0} = 1 at every finite t
                k.fill(1.0)
    # each trace sums all four coefficients of its state (inf * 0 is NaN), so
    # the n traces show every overflow the (n, 2, 2) stack would
    _reject_first_time(ts, traces, "the trajectory overflows: rho(t)")
    _reject_first_time(ts, k_values, "k_values overflow: k(t)")
    return EvolutionTrace(times=ts, rhos=rhos, trace_values=traces, k_values=k_values)


def _semigroup_basis(rho, n, r) -> np.ndarray:
    """rho0, X + X^dag, i(X - X^dag) and N rho0 N^dag / |r|^2 of
    ``evolve_semigroup`` as the rows of a ``(4, 8)`` float array, each the real
    and imaginary parts of its four entries; ``rho`` and ``n`` hold the entries
    of rho0 and N in row order, Python complex scalars."""
    p00, p01, p10, p11 = rho
    n00, n01, n10, n11 = n
    c00, c01, c10, c11 = n00.conjugate(), n01.conjugate(), n10.conjugate(), n11.conjugate()
    nr = n00 * p00 + n01 * p10, n00 * p01 + n01 * p11, n10 * p00 + n11 * p10, n10 * p01 + n11 * p11
    # B^dag is written out as i rho0 N^dag, so a rho0 Hermitian only to
    # tolerance is conjugated exactly as given
    rn = p00 * c00 + p01 * c01, p00 * c10 + p01 * c11, p10 * c00 + p11 * c01, p10 * c10 + p11 * c11
    nrn = nr[0] * c00 + nr[1] * c01, nr[0] * c10 + nr[1] * c11, nr[2] * c00 + nr[3] * c01, nr[2] * c10 + nr[3] * c11
    q = -1j / r
    x = [q * z for z in nr]
    x_dag = [q.conjugate() * z for z in rn]
    r2 = r.real * r.real + r.imag * r.imag
    basis = [
        rho,
        [a + b for a, b in zip(x, x_dag)],
        [1j * (a - b) for a, b in zip(x, x_dag)],
        [z / r2 for z in nrn],
    ]
    return np.array(basis, dtype=complex).view(float)


def _semigroup_coefficients(ts: np.ndarray, alpha: float, r, e: int, rows: np.ndarray) -> None:
    """c0..c3 of ``evolve_semigroup`` at the times ``ts``, written to rows[:4].

    ``rows`` is a ``(7, len(ts))`` array whose last three rows are scratch;
    ``r`` is the root of the Pauli vector scaled by 2**-e, on the clock
    ts 2**e, and None at an exceptional point.  The rotation terms come
    from u = tan wt, whose square stays finite (|tan| of a float stays below
    2**61), and take e^{alpha t} only where alpha is not 0.  The hyperbolic
    terms are added only where k = Im r is not 0: at k = 0 they add exact
    zeros.
    """
    c0, c1, c2, c3, u, v, at = rows
    if alpha or r is None or r.imag:
        np.multiply(ts, alpha, out=at)
    if e:
        # c2 is written last, after the clock's last use
        ts = np.ldexp(ts, e, out=c2)
    if r is None:
        # cos rt -> 1 and sin(rt)/r -> t: e and e t
        _exp(at, out=u)
        np.multiply(u, ts, out=v)
        np.multiply(u, v, out=c1)
        np.square(v, out=c3)
        np.square(u, out=c0)
    else:
        # cos^2 = 1/(1 + u^2), sin^2 = u^2 cos^2 and sin cos = u cos^2
        np.multiply(ts, r.real, out=u)
        _tan(u, out=u)
        np.square(u, out=v)
        np.add(v, 1.0, out=c0)
        if alpha:
            # (c e) e, e = e^{alpha t}, from e cos^2 = e / (1 + u^2)
            _exp(at, out=c1)
            np.divide(c1, c0, out=c0)
            np.multiply(v, c0, out=c3)
            np.multiply(u, c0, out=v)
            np.multiply(c0, c1, out=c0)
            np.multiply(c3, c1, out=c3)
            np.multiply(v, c1, out=c1)
        else:
            np.reciprocal(c0, out=c0)
            np.multiply(v, c0, out=c3)
            np.multiply(u, c0, out=c1)
    if r is None or not r.imag:
        c2.fill(0.0)
        return
    # e sinh kt into c2 and e cosh kt into the row of alpha t
    np.multiply(ts, r.imag, out=u)
    _damped_sinh_cosh(at, u, (c2, at))
    np.square(c2, out=v)
    np.add(c3, v, out=c3)
    np.add(c0, v, out=c0)
    np.multiply(c2, at, out=c2)


def shifted_generator(ham) -> tuple[np.ndarray, float]:
    """Trace-taming shift: returns (ham - 1j*rate_max*I, rate_max).

    The shifted generator's own drift has top eigenvalue zero, so its
    semigroup never pushes the trace above one.  ``ham`` is read once into
    Python scalars, raising what ``as_operator(ham)`` would, and the
    rate and the matrix carry the bits of ``split_generator`` and of the
    array expression ham - 1j * rate * I.
    """
    m = _operator2(ham)
    rate = _eigvals2(*_drift2(*m))[0].real
    return _shifted(_matrix2(*m), rate), rate


def _shifted(m, rate):
    """The trace-taming shift m - i rate I of a 2x2 generator, or of each of a stack with ``(n,)`` rates."""
    return m - _col(1j * rate) * np.eye(2)


def map_boundary_states(metric: Metric, initial, final):
    """Metric-normalized images of a boundary pair in the flat frame.

    Each state is sent to sqrt_eta @ psi / sqrt(<psi|eta|psi>), psi and its
    metric norm read by ``metric._metric_norm``, so 2**k psi maps as psi; the
    returned scalar is the modulus of the flat overlap of the two images,
    which sets the travel time of the aligned problem.  A metric of ``(n, 2, 2)`` stacks gives
    ``(n, 2)`` images and ``(n,)`` moduli, and the first failing row of the first gate any row fails raises.
    """
    return _map_boundary_states(metric, as_state(initial), as_state(final))


def _map_boundary_states(metric: Metric, initial: np.ndarray, final: np.ndarray):
    """``map_boundary_states`` of the two states already read."""
    out = []
    for psi in (initial, final):
        a, _, nrm2 = _metric_norm(psi, metric.eta)
        _reject_rows(nrm2 <= 0.0, ValueError("state has non-positive metric norm"))
        out.append(_flat_image(metric, a, nrm2))
    return out[0], out[1], _abs(_vdots(*out))


def aligned_hamiltonian(metric: Metric, omega: float, initial, final) -> QuasiHamiltonian:
    """Metric-Hermitian drive steering ``initial`` to ``final`` in minimal time.

    The boundary pair is mapped to the flat frame, an orthonormal frame is
    aligned with it by two decoupled phase rotations so the pair takes the
    normal form (|a'|, -i b'), and the flat fastest drive (omega/2 times the
    Pauli-X form) is conjugated back.  The propagated state then reaches
    ``final`` (as a ray) at tau = (2/omega) * arccos|a'|.  A metric of
    ``(n, 2, 2)`` stacks gives a stack of drives, each equal to the single call bit for bit,
    and the first failing row of the first gate any row fails raises (not a row loop's error).
    """
    return _aligned_drive(metric, positive_finite("omega", omega), as_state(initial), as_state(final))[0]


def _aligned_drive(metric: Metric, omega: float, initial, final):
    """``aligned_hamiltonian`` of omega and two states already read, and the flat overlap |a'| of the pair.
    Its drive, a Hermitian part, Hermitian bit for bit, passes ``_finite`` and then ``_quasi_hamiltonian``'s gates."""
    mapped_i, mapped_f, a_abs = _map_boundary_states(metric, initial, final)
    a_complex, w, b_abs = _pair(mapped_i, mapped_f)
    u0 = mapped_i
    parallel = AlignmentError("mapped boundary states are parallel; no aligned drive exists")
    _reject_rows(b_abs < 1e-8, parallel)
    u1 = w / np.asarray(b_abs)[..., None]
    # decoupled phase solves: rotate u0 by arg(a') and u1 by a quarter turn
    turned = u0 * _cis(_arg(a_complex))[..., None]
    u0 = np.where(np.asarray(a_abs > 0.0)[..., None], turned, u0)
    u1 = 1j * u1
    frame = np.stack([u0, u1], axis=-1)
    coords = _matmul(dagger(frame), mapped_f[..., None])[..., 0]
    residual = _norm(coords - np.array([a_abs, -1j * b_abs]).T)
    _reject_rows(
        residual > _ALIGN_RESIDUAL_TOL,
        lambda r: AlignmentError(f"phase alignment residual {r:.3e} exceeds tolerance"),
        residual,
    )
    h = _finite(_hermitian_part(0.5 * omega * _matmul(frame, PAULI_X, dagger(frame))))
    return _quasi_hamiltonian(h, metric, omega), a_abs


def dissipative_factor(f: float) -> float:
    """Degenerate-limit revelation probability (1/f) * exp(-(1/f + f))."""
    return float(_dissipative_factor(positive_finite("f", f)))


def _dissipative_factor(f):
    """(1/f) exp(-(1/f + f)) of a float, or elementwise of an array of them."""
    return _exp(-(1.0 / f + f)) / f


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
    return _float_or_array(_canonical_arrival(metric, positive_finite("omega", omega))[3])


def _canonical_arrival(metric: Metric, omega: float):
    """The aligned canonical problem (1,0) -> (0,1) under ``metric``.

    Returns the open split of the aligned drive, the flat overlap |a'|, the
    arrival time tau = (2/omega) * arccos|a'| and the revelation probability,
    the squared norm of the reference state evolved to tau under the shifted
    (trace-contracting) generator; a metric of ``(n, 2, 2)`` stacks gives each
    of them stacked; ``omega`` is read by ``positive_finite``.
    """
    qh, a_abs = _aligned_drive(metric, omega, _E0, _E1)
    tau = _float_or_array((2.0 / omega) * _angle(a_abs))
    split = _split_generator(qh.operator)
    # the shift of shifted_generator, from the split computed once here; it and tau may leave the
    # float range, so they keep the checks of propagator's reader
    shifted = _finite(_shifted(qh.operator, split.rate_max))
    return split, a_abs, tau, _square(_norm(_matmul(_propagator(shifted, _reals("t", tau)), _E0)))


def energy_gap_squared(hermitian_part):
    """(Tr M)^2 - 4 det M for a Hermitian matrix: the squared eigenvalue gap.

    An ``(n, 2, 2)`` stack gives one value per matrix.  Only where M's largest entry
    part leaves [2**-252, 2**252] does M take the range step and its gap come back
    through ``_ldexp``, so there 2**k M gives 4**k times M's gap (ValueError past the
    float range).  Inside, ``det`` rounds by scale: 2**60 [[1, 0.5], [0.5, -0.3]] gives
    4**60 times 2.6899999999999973, not 2.69, until ROADMAP item 2's closed forms.
    """
    return _energy_gap_squared(as_operator(hermitian_part, stack=True))


def _energy_gap_squared(m: np.ndarray):
    """``energy_gap_squared`` of a matrix (or stack) already read."""
    m, _, e = _stepped(m, 2)
    tr = m[..., 0, 0] + m[..., 1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        det = np.linalg.det(m)
    if not np.isfinite(det).all():
        # LU divides by its pivot, and a subnormal pivot gives NaN: there the exact det
        re, im = _det2(*_entries2(m))
        det = _where(np.isfinite(det), det, re + 1j * im)
    return _float_or_array(_ldexp((_cmul(tr, tr) - 4.0 * det).real, e if e is None else 2 * e))


def dissipation_scan(f_grid, omega: float, proximity: float = 1e-6) -> np.recarray:
    """Sweep the metric root diagonal and report the degenerate-limit numbers.

    Returns a record array, one row per ``f`` (``scan.tau`` is a column,
    ``scan[k].tau`` a value), with the fields ``f``; ``d_factor``, the limit
    revelation probability; and, for the aligned canonical problem at the
    caller-set ``proximity`` (the offset of |offdiag|^2 below f along real
    offdiag), ``finite_factor``, ``gap_sq`` of the coherent part, the flat
    overlap ``a_prime`` = |a'| and the travel time ``tau``.  As the proximity
    tends to 0, ``finite_factor`` tends to (1/f) e^{-(sqrt f + 1/sqrt f)}, not
    to ``d_factor`` = (1/f) e^{-(f + 1/f)}: the two agree only at f = 1, where
    both are e^{-2} (at f = 2 the limits are 0.0599 and 0.0410).

    The grid is computed in one stacked pass: the metrics of every row are
    ``(n, 2, 2)`` stacks, and the boundary mapping, the aligned frame, the
    ``quasi_hamiltonian`` gates, the open split, the propagation and the gap
    each run once over them.  Every row equals the single-metric chain
    (``metric_from_sqrt``, ``revelation_probability``, ``aligned_hamiltonian``,
    ``split_generator``, ``energy_gap_squared``) bit for bit, and a failing
    grid raises the error of its first failing row, from the earliest gate
    that row fails, as a loop over the rows would.  ``f_grid``, a scalar or a
    1-d grid, is read by ``_reals``: TypeError for complex or str values,
    ValueError naming the first non-finite one or the shape of a 2-d grid.
    """
    omega = positive_finite("omega", omega)
    proximity = positive_finite("proximity", proximity)
    fs = np.reshape(_reals("f_grid", f_grid), -1)
    columns = _first_failing_row(lambda n: _scan_columns(fs[:n], omega, proximity), len(fs))
    return np.rec.fromarrays([fs, *columns], names="f,d_factor,finite_factor,gap_sq,a_prime,tau")


def _scan_columns(f: np.ndarray, omega: float, proximity: float):
    """d_factor, finite_factor, gap_sq, a_prime and tau over the grid ``f``."""
    _reject_rows(
        proximity >= f,
        lambda x: ValueError(f"proximity {proximity:.3g} must be smaller than f {x:.3g}"),
        f,
    )
    metric = _metric_from_sqrt(f, np.sqrt(f - proximity).astype(complex))
    split, a_abs, tau, finite_factor = _canonical_arrival(metric, omega)
    gap_sq = _energy_gap_squared(split.coherent)
    # finite_factor tends to (1/f) e^{-(sqrt f + 1/sqrt f)} as the proximity
    # shrinks, and d_factor is (1/f) e^{-(f + 1/f)}: the two meet only at f = 1
    return _dissipative_factor(f), finite_factor, gap_sq, a_abs, tau
