"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything in this module is pure: matrices are plain complex128 ndarrays
with value semantics, pure states are 1-d complex128 ndarrays.  State
comparison is phase-insensitive throughout (two states are "the same" when
their fidelity is 1 up to tolerance).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "POSDEF_FLOOR",
    "STATE_EQUALITY_TOL",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "MetricDegeneracyError",
    "as_operator",
    "as_state",
    "frobenius",
    "is_hermitian",
    "dagger",
    "normalize",
    "positive_finite",
    "fidelity",
    "states_equal",
    "propagator",
    "row_norms",
    "hermitian_sqrt",
    "eigvals2",
    "spectral_gap",
]

HERMITICITY_TOL = 1e-10
POSDEF_FLOOR = 1e-12
STATE_EQUALITY_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_SUPPORTED_DIMS = (2, 4)

#: |r| below which sin(r t)/r is taken as t (the generator is at an exceptional point)
_EP_RADIUS = 1e-150


class MetricDegeneracyError(ValueError):
    """A required positive-definite operator is singular or indefinite.

    Attributes:
        eigenvalue: the offending (smallest) eigenvalue or degeneracy margin.
    """

    def __init__(self, message: str, eigenvalue: float | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


def positive_finite(name: str, x) -> float:
    """``x`` as a float; ValueError naming ``name`` unless it is finite and > 0."""
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be a positive finite real, got {x!r}")
    return x


def _reject_rows(bad, error, *values) -> None:
    """Raise ``error`` for the first row flagged in ``bad``.

    ``bad`` is a boolean, or a 1-d mask over the rows of a stack.  ``error``
    is an exception, or a function building one from each of ``values`` at
    that row; it records the row as ``row``, which ``_first_failing_row`` reads.
    """
    if not _any(bad):
        return
    j = int(np.flatnonzero(bad)[0])
    exc = error(*(np.ravel(v)[j] for v in values)) if callable(error) else error
    exc.row = j
    raise exc


def _any(flags) -> bool:
    """Whether any of a bool array is set; a scalar bool as it is (the faster test)."""
    return bool(flags.any() if isinstance(flags, np.ndarray) else flags)


def _abs(z):
    """|z| of a complex scalar, or of each entry of an array, as Python's ``abs``
    computes it (``hypot``); numpy's array ``abs`` rounds differently."""
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def _where(cond, x, y):
    """``np.where`` for a bool array; for a scalar bool, ``x if cond else y`` (faster)."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _max(a, b):
    """Python's ``max(a, b)``, elementwise for arrays: ``b`` only where it is greater."""
    return _where(b > a, b, a)


def _first_failing_row(run, n: int):
    """``run(n)`` over a sweep of ``n`` rows, raising as a loop over the rows would.

    ``run(k)`` evaluates the first ``k`` rows one gate at a time, each gate
    raising through ``_reject_rows`` for its first failing row j.  Rows before
    j passed that gate but may still fail a later one, so ``run(j)`` is tried
    next; the error that is left belongs to the first failing row in grid
    order, from its earliest gate.
    """
    error = None
    while error is None or n > 0:
        try:
            result = run(n)
        except (ValueError, RuntimeError) as exc:
            if getattr(exc, "row", None) is None:
                raise
            error, n = exc, exc.row
        else:
            if error is None:
                return result
            break
    raise error


def as_operator(mat, dim: int | None = None, stack: bool = False) -> np.ndarray:
    """Coerce ``mat`` to a square complex128 matrix of dimension 2 or 4.

    With ``stack``, an ``(n, d, d)`` stack of such matrices is accepted too.
    """
    m = np.array(mat, dtype=complex)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] not in _SUPPORTED_DIMS:
        raise ValueError(f"unsupported dimension {m.shape[-1]}; expected one of {_SUPPORTED_DIMS}")
    if dim is not None and m.shape[-1] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape[-1]}x{m.shape[-1]}")
    finite = np.isfinite(m.view(float))
    if not finite.all():
        _reject_rows(~finite.all(axis=(-2, -1)), ValueError("matrix has non-finite entries"))
    return m


def as_state(vec, dim: int | None = None, stack: bool = False) -> np.ndarray:
    """Coerce ``vec`` to a complex128 vector of length 2 or 4.

    With ``stack``, a 2-d input is an ``(n, d)`` stack of states, one per row.
    """
    v = np.array(vec, dtype=complex)
    if not (stack and v.ndim == 2):
        v = v.reshape(-1)
    if v.shape[-1] not in _SUPPORTED_DIMS:
        raise ValueError(f"unsupported state dimension {v.shape[-1]}")
    if dim is not None and v.shape[-1] != dim:
        raise ValueError(f"expected a length-{dim} state, got length {v.shape[-1]}")
    finite = np.isfinite(v.view(float))
    if not finite.all():
        _reject_rows(~finite.all(axis=-1), ValueError("state has non-finite entries"))
    return v


def row_norms(x) -> np.ndarray:
    """``np.linalg.norm`` of each ``x[k]``, bit for bit, in one pass.

    The norm of a complex array is sqrt(re.re + im.im) over its flattened
    entries, each dot one BLAS call; a stacked matmul makes the same call per
    row, where a reduction over the trailing axes would sum in another order.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    flat = x.reshape(len(x), math.prod(x.shape[1:]))
    re, im = flat.real[:, None, :], flat.imag[:, None, :]
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


def frobenius(mat):
    """Frobenius norm; a float for one matrix, an array for an ``(n, d, d)`` stack."""
    m = np.asarray(mat)
    return row_norms(m) if m.ndim == 3 else float(np.linalg.norm(m))


def dagger(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(mat).swapaxes(-1, -2)


def is_hermitian(mat):
    """Whether ``||mat - mat^dag||_F <= HERMITICITY_TOL``; a stack gives one bool per matrix."""
    m = np.asarray(mat, dtype=complex)
    ok = frobenius(m - dagger(m)) <= HERMITICITY_TOL
    return ok if m.ndim == 3 else bool(ok)


def normalize(vec, stack: bool = False) -> np.ndarray:
    """``vec`` over its norm; with ``stack``, each row of an ``(n, d)`` stack."""
    v = as_state(vec, stack=stack)
    n = _norm(v)
    _reject_rows(n == 0.0, ValueError("cannot normalize the zero vector"))
    return v / (n if v.ndim == 1 else n[:, None])


def _norm(x):
    """``np.linalg.norm`` of one state as a float, or of each row of an ``(n, d)`` stack."""
    return row_norms(x) if x.ndim == 2 else float(np.linalg.norm(x))


def _float_or_array(x):
    """A 0-d result as a Python float, anything else as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _vdots(u, v):
    """``np.vdot`` of each pair of rows of two (broadcast) state stacks, bit for bit."""
    if u.ndim == v.ndim == 1:
        return np.vdot(u, v)
    return (np.conj(u)[..., None, :] @ v[..., :, None])[..., 0, 0]


def fidelity(u, v) -> float:
    """Phase-insensitive overlap |<u|v>| of two (not necessarily unit) states."""
    a = as_state(u)
    b = as_state(v)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity of the zero vector is undefined")
    return float(abs(np.vdot(a, b)) / (na * nb))


def states_equal(u, v) -> bool:
    """Equality up to a global phase: fidelity >= 1 - STATE_EQUALITY_TOL."""
    return fidelity(u, v) >= 1.0 - STATE_EQUALITY_TOL


def _matrix2(m00, m01, m10, m11) -> np.ndarray:
    """The complex matrix [[m00, m01], [m10, m11]]; array entries give a stack."""
    out = np.empty(np.broadcast(m00, m01, m10, m11).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m00, m01, m10, m11
    return out


def _square(x):
    """``x ** 2`` elementwise as a Python or numpy float squares: through libm
    ``pow``, which rounds differently from ``x * x`` in about 1 value in 1000."""
    if isinstance(x, float):
        return math.pow(x, 2.0)
    return np.reshape([math.pow(v, 2.0) for v in np.ravel(x).tolist()], np.shape(x))


def _cmul(a, b):
    """``a * b`` of complex scalars or arrays, rounded as the scalar product is.

    numpy's complex array multiply fuses its products and rounds differently
    from numpy's (and Python's) scalar product.  Arrays are multiplied in
    real arithmetic, which rounds as the scalar product does, so a stacked
    computation reproduces the scalar one bit for bit.
    """
    if not isinstance(a, np.ndarray):
        return a * b
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return (ar * br - ai * bi) + 1j * (ar * bi + ai * br)


def _col(x):
    """An array of per-matrix scalars shaped to scale a matrix stack; scalars as they are."""
    return x[..., None, None] if isinstance(x, np.ndarray) else x


def _pauli_split(m: np.ndarray):
    """Split a 2x2 generator as ``a0 * I + n.sigma``; returns (a0, r, n.sigma).

    ``r`` is the principal root of n.n, complex for non-Hermitian generators
    and zero at an exceptional point, where n.sigma is nilpotent.  An
    ``(n, 2, 2)`` stack gives ``(n,)`` arrays and an ``(n, 2, 2)`` stack.
    """
    # one matrix gives Python complex scalars: rounded as numpy's, and faster
    (m00, m01), (m10, m11) = m.tolist() if m.ndim == 2 else m.transpose(1, 2, 0)
    a0 = 0.5 * (m00 + m11)
    ax = 0.5 * (m01 + m10)
    ay = 0.5j * (m01 - m10)
    az = 0.5 * (m00 - m11)
    r = np.sqrt(_cmul(ax, ax) + _cmul(ay, ay) + _cmul(az, az) + 0j)
    return a0, r, _col(ax) * PAULI_X + _col(ay) * PAULI_Y + _col(az) * PAULI_Z


def _cos_sinc(r, t):
    """cos(r t) and sin(r t)/r, elementwise; sin(r t)/r -> t where |r| < _EP_RADIUS."""
    exceptional = abs(r) < _EP_RADIUS
    if not _any(exceptional):
        phi = r * t
        return np.cos(phi), np.sin(phi) / r
    safe = np.where(exceptional, 1.0, r)
    phi = safe * t
    cosf, sincf = np.cos(phi), np.sin(phi) / safe
    return np.where(exceptional, 1.0 + 0j, cosf), np.where(exceptional, t + 0j, sincf)


def propagator(ham, t) -> np.ndarray:
    """Time-evolution operator ``exp(-1j * ham * t)``.

    ``t`` is a scalar, giving one ``(d, d)`` matrix, or a 1-d array of times,
    giving a ``(len(t), d, d)`` stack whose slices equal the scalar calls bit
    for bit.  ``ham`` may also be an ``(n, 2, 2)`` stack of generators with
    ``t`` an ``(n,)`` array of times; slice k then equals
    ``propagator(ham[k], t[k])`` bit for bit.  2x2 generators use the
    closed-form identity+Pauli decomposition, exact up to rounding whether or
    not ``ham`` is Hermitian, defective generators at an exceptional point
    included.  4x4 generators must be Hermitian and go through an
    eigendecomposition; a non-Hermitian 4x4 generator raises ValueError.
    A NaN or infinite time raises ValueError naming the first such value.
    """
    m = as_operator(ham, stack=True)
    t = np.asarray(t, dtype=float)
    if m.ndim == 3 and (m.shape[-1] != 2 or t.shape != m.shape[:1]):
        raise ValueError(f"a generator stack needs 2x2 matrices and one time each, got t {t.shape}")
    if t.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-d array, got shape {t.shape}")
    _reject_rows(~np.isfinite(t), lambda x: ValueError(f"t must be finite, got {float(x)!r}"), t)
    t = t if t.ndim else float(t)
    if m.shape[-1] == 2:
        a0, r, pauli_part = _pauli_split(m)
        cosf, sincf = _cos_sinc(r, t)
        rotation = _col(cosf) * np.eye(2) - _col(1j * sincf) * pauli_part
        return _col(np.exp(-1j * a0 * t)) * rotation
    if not is_hermitian(m):
        raise ValueError("4x4 generators must be Hermitian")
    w, v = np.linalg.eigh(0.5 * (m + dagger(m)))
    return (v * np.exp(-1j * w * _col(t))) @ dagger(v)


def hermitian_sqrt(mat) -> np.ndarray:
    """Principal square root of a Hermitian positive-definite matrix.

    Raises MetricDegeneracyError (carrying the offending eigenvalue) when the
    smallest eigenvalue does not clear the positive-definiteness floor.
    """
    p = as_operator(mat)
    if not is_hermitian(p):
        raise ValueError("hermitian_sqrt requires a Hermitian matrix")
    w, v = np.linalg.eigh(0.5 * (p + dagger(p)))
    wmin = float(w.min())
    if wmin <= POSDEF_FLOOR:
        raise MetricDegeneracyError(
            f"matrix is not positive definite: smallest eigenvalue {wmin:.3e}",
            eigenvalue=wmin,
        )
    s = (v * np.sqrt(w)) @ dagger(v)
    return 0.5 * (s + dagger(s))


def eigvals2(mat):
    """Eigenvalues of a 2x2 matrix by the quadratic formula.

    Ordered by descending real part, ties broken by descending imaginary part.
    An ``(n, 2, 2)`` stack gives two ``(n,)`` arrays.
    """
    m = as_operator(mat, dim=2, stack=True)
    (m00, m01), (m10, m11) = m.tolist() if m.ndim == 2 else m.transpose(1, 2, 0)
    tr = m00 + m11
    det = _cmul(m00, m11) - _cmul(m01, m10)
    disc = np.sqrt(_cmul(tr, tr) - 4.0 * det + 0j)
    hi, lo = (tr + disc) / 2.0, (tr - disc) / 2.0
    swap = (lo.real > hi.real) | ((lo.real == hi.real) & (lo.imag > hi.imag))
    if m.ndim == 3:
        return np.where(swap, lo, hi), np.where(swap, hi, lo)
    return (complex(lo), complex(hi)) if swap else (complex(hi), complex(lo))


def spectral_gap(mat):
    """Difference of the two ``eigvals2`` eigenvalues (largest minus smallest)."""
    hi, lo = eigvals2(mat)
    return hi - lo
