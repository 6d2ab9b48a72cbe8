"""Dense complex linear algebra for 2x2 operators and qubit states.

Everything in this module is pure: matrices are plain 2x2 complex128 ndarrays
with value semantics, pure states are 1-d complex128 ndarrays of length 2
(``is_hermitian``, ``frobenius``, ``dagger`` and ``_hermitian_part`` also
take the dilation's 4x4 matrices).  State comparison is
phase-insensitive throughout (two states are "the same" when their fidelity
is 1 up to tolerance).

Every residual gate on an operator has one rule, ``_negligible``: at most
HERMITICITY_TOL (or its own tolerance) times the Frobenius size of what it
checks, both norms true across the float range, whatever the energy unit;
so does every floor.  Every kernel takes one range step, ``_exponent``: a
size (a largest entry part, or a Pauli vector's sum_k |Re n_k| + |Im n_k|)
outside [2**-252, 2**252] is first scaled by a power of two, which is exact
(``_stepped``, and ``_rescaled`` with the norm); the one ``eigh``, ``_eigh``,
takes the even step 4**-j for this module and the dilation, so its eigenvalues go
back by 4**j and a square root by 2**j.  ``_ldexp`` is the one way
back: it scales a result by the step's power of two, and raises ValueError
where that leaves the float range (``propagator``'s clock t 2**e is checked by
``_reject_first_time`` instead).  Every norm, of one vector or of each row
of a stack, is ``_norm``.
Every Hermitian part is ``_hermitian_part``, 0.5 m + 0.5 m^dag, halved
before it is summed so that a finite matrix has a finite part.  Each 2x2
rule runs on Python complex scalars for one matrix and elementwise on rows
for a stack: ``_entries2`` is the one reader of a matrix's four entries,
``_eigvals2`` the one eigenvalue kernel and ``_is_hermitian2`` the one Hermitian
verdict (``_is_hermitian``'s numpy rule judges a stack, a 4x4 matrix and a 2x2
one past its scalar range, with one range step).  ``_reals`` reads every real scalar
or grid argument, and ``_numeric`` every matrix, state or complex parameter:
each raises TypeError for a str, None or other non-numeric value.  Each
argument is read once: a public function is its reader (``_numeric`` or
``_reals``, the shape checks, ``_finite``, the one finiteness rule of a matrix
or state of any layout, ``positive_finite``, ``_paired``) followed by a
private kernel of the values read, such as ``frobenius`` and ``_frobenius``;
inside the package a function calls another's kernel, never its reader, and a
kernel checks only what it computes.
On the scalar path ``_operator2`` reads one 2x2 matrix, and ``_unit2`` reads
and normalizes a 2-state, each once, with no fallback re-read.

Every numpy function whose last bits depend on the host (its SIMD loops,
glibc's libm, the BLAS kernel) has one owner here, which the other modules
call: ``_exp`` (every exponential), ``_arg`` (every complex argument),
``_cos_sin`` (every cosine and sine), ``_tan``, ``_angle``/``_asin`` (arccos
and arcsin of a clipped modulus), ``_cis`` (every phase factor, through
``_exp``), ``_vdots`` (every complex dot) and ``_matmul`` (every matrix
product); ``propagator``'s kernels keep its one ``log`` and ``expm1``.  Every
Gram-Schmidt pair of two unit rays is ``_pair``, and their angle ``_pair_angle``.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "POSDEF_FLOOR",
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
    "propagator",
    "hermitian_sqrt",
    "eigvals2",
]

HERMITICITY_TOL = 1e-10
POSDEF_FLOOR = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: the reference states (1, 0) and (0, 1), read-only
_E0 = np.array([1.0, 0.0], dtype=complex)
_E1 = np.array([0.0, 1.0], dtype=complex)
_E0.flags.writeable = False
_E1.flags.writeable = False

#: |r| below which sin(r t)/r is taken as t (the generator is at an exceptional point)
_EP_RADIUS = 1e-150

#: |Im(r) t| past which ``propagator`` damps cosh(Im(r) t) before forming it;
#: cosh overflows past 710.5, and sin(r t)/r may be larger still
_COSH_LIMIT = 700.0

#: |Im(n.n)| allowed, relative to sum |n_k|^2, for n.n to count as real
#: (``_pauli_root``)
_REAL_SPECTRUM_TOL = 16.0 * sys.float_info.epsilon

#: the sizes ``_exponent`` keeps: inside, a squared norm (at most 32 times the
#: largest part squared), a 2x2 matrix's squared trace and 4 det (at most 24
#: times it) and the first-passage discriminant (as |n|^4) stay normal floats
_SCALE_MIN, _SCALE_MAX = 2.0**-252, 2.0**252

#: the pretest of the scalar readers: the parts of a norm in this range (a
#: state's four, a 2x2 matrix's eight) are finite and the largest lies in
#: [_SCALE_MIN, _SCALE_MAX], so they need no range step (the factors hold
#: sqrt 8 and the norm's rounding)
_NORM_MIN, _NORM_MAX = 4.0 * _SCALE_MIN, 0.5 * _SCALE_MAX


class MetricDegeneracyError(ValueError):
    """A required positive-definite operator is singular or indefinite.

    Attributes:
        eigenvalue: the offending (smallest) eigenvalue or degeneracy margin.
    """

    def __init__(self, message: str, eigenvalue: float | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


def positive_finite(name: str, x) -> float:
    """``x`` as a float; TypeError naming ``name`` for a str, a complex value or
    an array (``_real``), ValueError naming it unless it is finite and > 0."""
    x = float(x) if isinstance(x, (float, int)) else _real(name, x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be a positive finite real, got {x!r}")
    return x


def _real(name: str, x) -> float:
    """A real scalar ``x`` (a Python or numpy bool, int or float, or a 0-d array
    of one) as a Python float; TypeError naming ``name`` for anything else:
    a str, a complex value, an array of one or more dimensions."""
    a = np.asarray(x)
    if a.ndim or a.dtype.kind not in "biuf":
        raise TypeError(f"{name} must be a real scalar, got {x!r}")
    return float(a)


def _reals(name: str, x):
    """The one reader of a real scalar, as a Python float, or 1-d grid, as a float array (float64 uncopied).
    Naming ``name``: TypeError unless bool, int or float, then ValueError at NaN/inf (row-marked) or a 2nd axis."""
    a = np.asarray(x)
    if a.dtype.kind not in "biuf":
        raise TypeError(f"{name} must be real, got dtype {a.dtype}")
    if not (np.isfinite(a).all() if a.ndim else math.isfinite(a)):
        _reject_rows(~np.isfinite(a), lambda v: ValueError(f"{name} must be finite, got {float(v)!r}"), a)
    if a.ndim > 1:
        raise ValueError(f"{name} must be a scalar or a 1-d array, got shape {a.shape}")
    return np.asarray(a, dtype=float) if a.ndim else float(a)


def _paired(name_a: str, a, name_b: str, b, rank: int, rank_b: int | None = None) -> None:
    """ValueError naming both arguments and both lengths where ``a`` and ``b``
    are stacks of different lengths.  Each is an array (or a Python scalar)
    of one item of ``rank`` dimensions (``b`` of ``rank_b``, where given) or
    a stack of them; one item pairs with any stack."""
    ndim_a, ndim_b = getattr(a, "ndim", 0), getattr(b, "ndim", 0)
    if ndim_a > rank and ndim_b > (rank if rank_b is None else rank_b) and len(a) != len(b):
        raise ValueError(f"{name_a} and {name_b} must be stacks of one length, got {len(a)} and {len(b)}")


def _reject_rows(bad, error, *values) -> None:
    """Raise ``error`` for the first row flagged in ``bad``.

    ``bad`` is a boolean, or a mask over the rows of a stack, read flat.  ``error``
    is an exception, or a function building one from each of ``values`` at
    that row; it records the row as ``row``, which ``_first_failing_row`` reads.
    """
    if not _any(bad):
        return
    j = int(np.flatnonzero(bad)[0])
    exc = error(*(np.ravel(v)[j] for v in values)) if callable(error) else error
    exc.row = j
    raise exc


def _reject_first_time(ts, values, what: str, stack: bool = False) -> None:
    """The earliest-overflow rule: ValueError "<what> is first not finite at t = <t>", naming the
    earliest time t in ``ts`` whose value is not finite; over the rows of a ``stack``, "<what> is
    not finite at t = <t>" naming the first such row's own time, the row marked (``_reject_rows``)."""
    finite = np.isfinite(values)
    if stack:
        _reject_rows(~finite, lambda t: ValueError(f"{what} is not finite at t = {float(t)!r}"), ts)
    elif not finite.all():
        raise ValueError(f"{what} is first not finite at t = {float(np.reshape(ts, -1)[~np.ravel(finite)].min())!r}")


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


def _exponent(size):
    """The range step: 0 where ``size`` lies in [2**-252, 2**252] (or is 0,
    inf or NaN), elsewhere the e that takes it into [0.5, 1) as size 2**-e.
    Of a Python float with no numpy name, or elementwise of an array."""
    if isinstance(size, float):
        return 0 if _SCALE_MIN <= size <= _SCALE_MAX else math.frexp(size)[1]
    return np.where((size >= _SCALE_MIN) & (size <= _SCALE_MAX), 0, np.frexp(size)[1])


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


_MATRIX_NOT_FINITE = "matrix has non-finite entries"
_PAULI_NOT_FINITE = "the generator's Pauli vector leaves the float range"
_STATE_NOT_FINITE = "state has non-finite entries"
_OUT_OF_RANGE = "the result leaves the float range"
_COMPLEX = np.dtype(complex)


def _numeric(what: str, x, copy: bool = False) -> np.ndarray:
    """The one reader of a matrix, state or complex parameter: ``x`` after one ``np.asarray``
    as a complex128 array (with ``copy``, a C-ordered copy; else complex128 as it is); TypeError
    naming ``what`` unless its dtype is bool, int, float or complex (not a str, None or another object)."""
    a = np.asarray(x)
    if a.dtype.kind not in "biufc":
        raise TypeError(f"{what} must be numeric, got dtype {a.dtype}")
    return a if a.dtype is _COMPLEX and not copy else a.astype(complex, order="C" if copy else "K", copy=copy)


def as_operator(mat, stack: bool = False) -> np.ndarray:
    """Coerce ``mat`` to a 2x2 complex128 matrix, a C-ordered copy.

    With ``stack``, an ``(n, 2, 2)`` stack of such matrices is accepted too.
    TypeError unless ``mat`` is numeric (``_numeric``); ValueError for a
    shape that is not 2x2 (or a stack of 2x2) and for a non-finite entry.
    """
    m = _numeric("matrix", mat, copy=True)
    _check_operator_shape(m.shape, stack)
    return _finite(m)


def as_state(vec, stack: bool = False) -> np.ndarray:
    """Coerce ``vec``, a 1-d state of length 2, to complex128, a C-ordered copy.

    With ``stack``, a 2-d input is an ``(n, 2)`` stack of states, one per row.
    TypeError unless ``vec`` is numeric (``_numeric``); ValueError for a
    shape that is not a length-2 state (or a stack of them) and for a
    non-finite entry.
    """
    v = _numeric("state", vec, copy=True)
    _check_state_shape(v.shape, stack)
    return _finite(v, 1)


def _finite(x: np.ndarray, rank: int = 2) -> np.ndarray:
    """``x``, a matrix (``rank`` 2) or state (1) or stack of any layout, uncopied; ValueError
    at its first non-finite item: the one finiteness rule of a matrix or state read."""
    if not _all_finite(x):
        finite = np.isfinite(x).all(axis=tuple(range(-rank, 0)))
        _reject_rows(~finite, ValueError(_MATRIX_NOT_FINITE if rank == 2 else _STATE_NOT_FINITE))
    return x


def _check_square(shape: tuple, stack: bool = True) -> None:
    """ValueError naming ``shape`` unless it is that of a square matrix, or
    with ``stack`` of an ``(n, k, k)`` stack of them."""
    if len(shape) not in ((2, 3) if stack else (2,)) or shape[-1] != shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {shape}")


def _check_operator_shape(shape: tuple, stack: bool = False) -> None:
    """ValueError unless ``shape`` is that of a 2x2 matrix, or with ``stack``
    of a stack of them."""
    _check_square(shape, stack)
    if shape[-1] != 2:
        raise ValueError(f"expected a 2x2 matrix, got {shape[-1]}x{shape[-1]}")


def _check_state_shape(shape: tuple, stack: bool = False) -> None:
    """ValueError unless ``shape`` is that of a 1-d state of length 2, or with
    ``stack`` of an ``(n, 2)`` stack of them."""
    if len(shape) not in ((1, 2) if stack else (1,)):
        raise ValueError(f"expected a 1-d state{' or an (n, 2) stack' if stack else ''}, got shape {shape}")
    if shape[-1] != 2:
        raise ValueError(f"expected a length-2 state, got length {shape[-1]}")


def _operator2(mat) -> list[complex]:
    """The entries m00, m01, m10, m11 of one 2x2 matrix as Python complex
    scalars, raising the error type and message of ``as_operator(mat)``
    (without its ``row`` mark): the matrix is read once, without a copy."""
    m = _numeric("matrix", mat)
    if m.shape != (2, 2):
        _check_operator_shape(m.shape)
    entries = m00, m01, m10, m11 = _entries2(m)
    if not (cmath.isfinite(m00) and cmath.isfinite(m01) and cmath.isfinite(m10) and cmath.isfinite(m11)):
        raise ValueError(_MATRIX_NOT_FINITE)
    return entries


def _entries2(m: np.ndarray):
    """The entries m00, m01, m10, m11 of a 2x2 matrix as Python complex scalars,
    or of an ``(n, 2, 2)`` stack as four contiguous ``(n,)`` rows, which ``_ldexp`` views as floats."""
    return m.ravel().tolist() if m.ndim == 2 else np.ascontiguousarray(m.reshape(-1, 4).T)


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of a complex array of any layout is finite.  Up to 16 entries a
    Python pass is used: it is about 3x faster than a ufunc and its reduction.  A larger
    C-contiguous array is read as floats, which takes half the time of the complex test."""
    if x.size <= 16:
        return all(map(cmath.isfinite, x.ravel().tolist()))
    return bool(np.isfinite(x.view(float) if x.flags.c_contiguous else x).all())


def frobenius(mat):
    """Frobenius norm, true across the float range (``_rescaled``); per matrix of a stack.
    TypeError unless ``mat`` is numeric (``_numeric``), ValueError naming its shape
    unless it is a square matrix or an ``(n, k, k)`` stack of them (``_check_square``),
    ValueError at its first matrix with a non-finite entry (the row marked), and
    ValueError where the norm itself passes the float range (``_ldexp``)."""
    m = _numeric("matrix", mat)
    _check_square(m.shape)
    return _frobenius(_finite(m))


def _frobenius(m: np.ndarray):
    """``frobenius`` of a complex matrix or stack already read."""
    _, n, e = _rescaled(m, 2)
    return _ldexp(n, e)


def dagger(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(mat).swapaxes(-1, -2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 of a matrix or a stack, halved before it is summed, so a
    finite m gives a finite part; for normal floats the bits of the sum halved."""
    return 0.5 * m + 0.5 * dagger(m)


def _negligible(residual, size, tol=HERMITICITY_TOL):
    """The rule of every gate: ``residual <= tol * size``, elementwise; NaN fails.
    A floor raises where its eigenvalue, determinant or norm is negligible."""
    return residual <= tol * size


def is_hermitian(mat):
    """Whether ||mat - mat^dag||_F is negligible next to ||mat||_F; one bool per stacked matrix.
    Both norms are of the matrix as ``frobenius`` rescales it, so an overflowing skew fails.
    TypeError and ValueError as ``frobenius`` raises them, a non-finite entry's included."""
    m = _numeric("matrix", mat)
    _check_square(m.shape)
    return _is_hermitian(_finite(m))


def _is_hermitian(m: np.ndarray):
    """``is_hermitian`` of a matrix or stack already read: one 2x2 by ``_is_hermitian2``, else both norms after one range step."""
    if m.shape == (2, 2):
        return _is_hermitian2(*_entries2(m))[0]
    scaled, size, _ = _rescaled(np.ascontiguousarray(m), 2)
    skew = scaled - dagger(scaled)
    ok = _negligible(_norm(skew if m.ndim == 3 else skew.ravel()), size)
    return ok if m.ndim == 3 else bool(ok)


def _is_hermitian2(m00: complex, m01: complex, m10: complex, m11: complex) -> tuple[bool, float]:
    """The one Hermitian verdict of a single 2x2 matrix [[m00, m01], [m10, m11]] of Python complex
    scalars, and its Frobenius norm, ``math.hypot`` of the entry parts (0.0 for an exactly
    Hermitian matrix, whose verdict needs no size).  In scalar arithmetic
    where the skew is 0 and the real diagonal finite, or where the norm lies
    in [_NORM_MIN, _NORM_MAX], which shows every entry finite and in range;
    every other matrix takes ``_is_hermitian``'s numpy rule as a one-matrix stack."""
    # ||m - m^dag||_F: the off-diagonal pair each give |m01 - conj m10|, each
    # diagonal entry 2 Im m_kk; a skew of 0 shows m01, m10 and Im m_kk finite
    d = m01 - m10.conjugate()
    skew = math.hypot(d.real, d.imag, d.real, d.imag, 2.0 * m00.imag, 2.0 * m11.imag)
    if not skew and math.isfinite(m00.real) and math.isfinite(m11.real):
        return True, 0.0
    size = math.hypot(m00.real, m00.imag, m01.real, m01.imag, m10.real, m10.imag, m11.real, m11.imag)
    if _NORM_MIN <= size <= _NORM_MAX:
        return _negligible(skew, size), size
    return bool(_is_hermitian(_matrix2(m00, m01, m10, m11)[None])[0]), size


def normalize(vec) -> np.ndarray:
    """``vec`` over its norm; a 2-d ``vec`` is an ``(n, 2)`` stack, normalized row by row.

    A state whose largest entry part leaves the range of ``_exponent`` (its
    squares could lose bits, vanish or overflow) is first scaled into it,
    exactly, so ``normalize([1e300, 1e300])`` and ``normalize([1e-170,
    1e-170])`` give (1, 1)/sqrt(2); a quotient of normal floats keeps its bits.
    """
    return _normalized(as_state(vec, stack=True))


def _normalized(v: np.ndarray) -> np.ndarray:
    """``normalize`` of a state or ``(n, 2)`` stack already read by ``as_state``."""
    v, n, _ = _rescaled(v)
    _reject_rows(n == 0.0, ValueError("cannot normalize the zero vector"))
    return v / (n if v.ndim == 1 else n[:, None])


def _stepped(x: np.ndarray, rank: int = 1):
    """The range step of one item (a state for ``rank`` 1, a matrix for 2) or a stack:
    ``x 2**-e``, its items flattened (None for one item that is 0, whose norm needs no
    pass) and e, ``_exponent`` of each item's largest entry part; None when none is
    scaled.  One item is flattened in memory order, as ``np.linalg.norm`` does, so its
    scaled copy is right for a C-contiguous x; a stack is read in C order, whatever its layout."""
    if x.ndim == rank:
        # one item: its largest part decides, in Python
        flat = x.ravel(order="K")
        parts = flat.view(float).tolist()
        big = max(map(abs, parts))
        e = _exponent(big)
        if not e:
            # max skips a NaN that is not first; any counts it
            return x, flat if big or any(parts) else None, None
    else:
        flat = np.ascontiguousarray(x).reshape(len(x), math.prod(x.shape[1:]))
        e = _exponent(np.abs(flat.view(float)).max(axis=-1))
        if not e.any():
            return x, flat, None
    flat = np.ldexp(flat.view(float), -np.expand_dims(e, -1)).view(complex)
    return flat.reshape(x.shape), flat, e


def _eigh(m: np.ndarray):
    """The one ``eigh``: the even range step m 4**-j of one C-contiguous m, j = ceil(e / 2) of ``_stepped``'s e
    (0 in range), then ``np.linalg.eigh`` of that step's Hermitian part.  Returns the stepped m, w and v
    in its frame, and j: eigenvalues go back by 4**j and a square root by 2**j (``_ldexp``)."""
    j = -(-(_stepped(m, 2)[2] or 0) // 2)
    m = _ldexp(m, -2 * j)
    return (m, *np.linalg.eigh(_hermitian_part(m)), j)


def _rescaled(x: np.ndarray, rank: int = 1):
    """``_stepped``'s ``x 2**-e`` and e, with the norm of each item between them."""
    x, flat, e = _stepped(x, rank)
    return x, 0.0 if flat is None else _norm(flat), e


def _unit2(vec) -> tuple[complex, complex]:
    """The one reader and normalizer of a 2-state on the scalar path: ``normalize(vec)`` as a
    pair of Python complex scalars, bit for bit and error for error.  ``vec`` is read once
    (``_numeric``, then ``as_state``'s shape error) and normalized in scalar arithmetic where its
    norm lies in [_NORM_MIN, _NORM_MAX], which shows the entries finite and in range; any other
    state takes ``as_state``'s finiteness check and ``_normalized`` on the array read."""
    v = _numeric("state", vec)
    if v.shape != (2,):
        _check_state_shape(v.shape)
    x0, x1 = v.tolist()
    a, b, c, d = x0.real, x0.imag, x1.real, x1.imag
    if not _NORM_MIN <= math.hypot(a, b, c, d) <= _NORM_MAX:
        y0, y1 = _normalized(_finite(np.ascontiguousarray(v), 1)).tolist()
        return y0, y1
    # np.linalg.norm's BLAS dot fuses its second product into the sum:
    # |x|^2 = fma(c, c, a a) + fma(d, d, b b)
    k = 1.0 / math.sqrt(_fma_square(c, a * a) + _fma_square(d, b * b))
    # x / |x| rounded, signed zeros included, as numpy's complex-by-real division
    return complex((a + b * 0.0) * k, (b - a * 0.0) * k), complex((c + d * 0.0) * k, (d - c * 0.0) * k)


def _fma_square(x: float, p: float) -> float:
    """fma(x, x, p), x x + p rounded once, for |x| < 2**511: x x is split
    exactly as h + l (Dekker, ``_two_product`` inlined for the scalar readers'
    speed) and ``fsum`` rounds p + h + l once."""
    t = 134217729.0 * x
    hi = t - (t - x)
    lo = x - hi
    h = x * x
    return math.fsum((p, h, ((hi * hi - h) + 2.0 * hi * lo) + lo * lo))


def _two_product(x, y):
    """(h, l) with h = x y rounded and h + l = x y exactly (Dekker), of Python
    floats or elementwise of arrays: each factor is split into halves of 26
    bits; exact for |x|, |y| < 2**995 where no partial product underflows."""
    t, u = 134217729.0 * x, 134217729.0 * y
    xh, yh = t - (t - x), u - (u - y)
    xl, yl = x - xh, y - yh
    h = x * y
    return h, ((xh * yh - h) + xh * yl + xl * yh) + xl * yl


def _dot2(*pairs):
    """sum x y over the (x, y) pairs, as accurate as if summed in twice the
    precision and rounded once: Ogita, Rump and Oishi's Dot2 over
    ``_two_product``; of Python floats, or elementwise with their bits."""
    p, s = _two_product(*pairs[0])
    for x, y in pairs[1:]:
        h, r = _two_product(x, y)
        t = p + h
        z = t - p
        s = s + (((p - (t - z)) + (h - z)) + r)
        p = t
    return p + s


def _det2(m00, m01, m10, m11):
    """m00 m11 - m01 m10 of complex Python scalars, or elementwise of complex
    arrays, as its real and imaginary parts, each one ``_dot2`` of four products."""
    re = _dot2((m00.real, m11.real), (-m00.imag, m11.imag), (-m01.real, m10.real), (m01.imag, m10.imag))
    im = _dot2((m00.real, m11.imag), (m00.imag, m11.real), (-m01.real, m10.imag), (-m01.imag, m10.real))
    return re, im


def _norm(x):
    """``np.linalg.norm`` of one complex vector as a float, or of each ``x[k]`` of a stack, bit for bit.

    The norm of a complex array is sqrt(re.re + im.im) over its flattened
    entries, each dot one BLAS call; a stacked matmul makes the same call per
    row, in one pass, where a reduction over the trailing axes would sum in
    another order.  One vector keeps ``np.linalg.norm``, which is faster there.
    """
    if x.ndim == 1:
        return float(np.linalg.norm(x))
    flat = np.ascontiguousarray(x).reshape(len(x), math.prod(x.shape[1:]))
    re, im = flat.real[:, None, :], flat.imag[:, None, :]
    return np.sqrt((_matmul(re, re.swapaxes(1, 2)) + _matmul(im, im.swapaxes(1, 2)))[:, 0, 0])


def _float_or_array(x):
    """A 0-d result as a Python float, anything else as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _exp(x, out=None):
    """e^x of a real or complex x, or elementwise of an array (into ``out``
    where given): every exponential."""
    return np.exp(x, out=out)


def _arg(z):
    """arg z of a complex z, or elementwise of an array: every complex argument."""
    return np.angle(z)


def _cos_sin(x):
    """cos x and sin x of a real or complex x, or elementwise of an array: every
    circular function."""
    return np.cos(x), np.sin(x)


def _tan(x, out=None):
    """tan x of a real x, or elementwise of an array (into ``out`` where given)."""
    return np.tan(x, out=out)


def _angle(x):
    """The Fubini-Study angle arccos x of an overlap modulus x, clipped to [0, 1]
    first, so rounding past 1 gives 0; elementwise on an array."""
    return np.arccos(np.clip(x, 0.0, 1.0))


def _asin(x):
    """arcsin x of a sine modulus x, clipped to [0, 1] first as in ``_angle``;
    elementwise on an array."""
    return np.arcsin(np.clip(x, 0.0, 1.0))


def _cis(x):
    """e^{ix} of a real x, or elementwise of an array: every phase factor."""
    return _exp(1j * x)


def _matmul(*factors, out=None):
    """The product of two or more ``factors`` left to right, each ``np.matmul`` as ``@`` forms
    it, the last into ``out`` where given: every matrix product, its bits the BLAS kernel's."""
    product = factors[0]
    for factor in factors[1:-1]:
        product = np.matmul(product, factor)
    return np.matmul(product, factors[-1], out=out)


def _vdots(u, v):
    """``np.vdot`` of each pair of rows of two (broadcast) state stacks, bit for
    bit: every complex dot."""
    if u.ndim == v.ndim == 1:
        return np.vdot(u, v)
    return _matmul(np.conj(u)[..., None, :], v[..., :, None])[..., 0, 0]


def _pair(u, v):
    """<u|v>, the part w of v orthogonal to u and |w|: of two unit states, or per row of two stacks."""
    a = _vdots(u, v)
    w = v - a[..., None] * u
    # second orthogonalization pass: near the degenerate limit the pair is almost parallel and a single
    # subtraction leaves an O(eps/|w|) shadow of u in the complement, which a residual gate would reject
    w = w - _vdots(u, w)[..., None] * u
    return a, w, _norm(w)


def _pair_angle(a, b):
    """The angle of two unit rays from ``_pair``'s |<u|v>| and |w|: arcsin b where b < a,
    else arccos a, so neither reads a value near 1."""
    return _asin(b) if b < a else _angle(a)


def fidelity(u, v) -> float:
    """Phase-insensitive overlap |<u|v>| of two (not necessarily unit) states.

    Each state is first scaled as in ``normalize``, so
    ``fidelity([1e300, 0], [1, 0])`` is 1.
    """
    a, na, _ = _rescaled(as_state(u))
    b, nb, _ = _rescaled(as_state(v))
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity of the zero vector is undefined")
    return float(abs(_vdots(a, b)) / (na * nb))


def _matrix2(m00, m01, m10, m11) -> np.ndarray:
    """The complex matrix [[m00, m01], [m10, m11]]; array entries give a stack."""
    out = np.empty(np.broadcast(m00, m01, m10, m11).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m00, m01, m10, m11
    return out


def _inverse(m, det):
    """The inverse of a 2x2 matrix, or of each of a stack: its adjugate over its determinant ``det``."""
    m00, m01, m10, m11 = _entries2(m)
    return _matrix2(m11, -m01, -m10, m00) / _col(det)


def _square(x):
    """``x ** 2`` elementwise as a Python or numpy float squares: through libm
    ``pow``, which rounds differently from ``x * x`` in about 1 value in 1000.
    A square past the float range is inf."""
    if isinstance(x, float):
        return _pow2(x)
    return np.reshape([_pow2(v) for v in np.ravel(x).tolist()], np.shape(x))


def _pow2(v: float) -> float:
    """``math.pow(v, 2.0)``; inf where that raises because the square overflows."""
    try:
        return math.pow(v, 2.0)
    except OverflowError:
        return math.inf


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
    """Split a 2x2 generator as ``a0 * I + 2**e n.sigma``; returns (a0, e, r, n.sigma).

    n is the Pauli vector after the range step of ``_pauli_vector``, and ``r``
    the principal root of its n.n, complex for non-Hermitian generators and
    zero at an exceptional point, where n.sigma (``_pauli_entries``) is nilpotent.
    An ``(n, 2, 2)`` stack gives ``(n,)`` arrays and an ``(n, 2, 2)`` stack.
    """
    a0, e, ax, ay, az = _pauli_vector(*_entries2(m))
    r = np.sqrt(_cmul(ax, ax) + _cmul(ay, ay) + _cmul(az, az) + 0j)
    return a0, e, r, _matrix2(*_pauli_entries(ax, ay, az))


def _pauli_vector(m00, m01, m10, m11):
    """(a0, e, nx, ny, nz) with [[m00, m01], [m10, m11]] = a0 I + 2**e (nx X + ny Y + nz Z),
    of Python scalars or elementwise of ``(n,)`` rows; halving before summing, a finite n is finite.

    n takes the range step of every 2x2 kernel: where s = sum_k |Re n_k| +
    |Im n_k| leaves the range of ``_exponent``, e takes s into [1, 2), one
    octave above the other kernels' target; elsewhere e is 0 and n is kept,
    bit for bit.  The kernel then turns n 2**-e on the clock t 2**e, so
    whatever reads |n| or |r| sees a size near 1, and 2**k n on 2**-k t gives
    the bits of n on t.  ValueError where s passes the float range.
    """
    m00, m01, m10, m11 = 0.5 * m00, 0.5 * m01, 0.5 * m10, 0.5 * m11
    a0, nx, ny, nz = m00 + m11, m01 + m10, 1j * (m01 - m10), m00 - m11
    if isinstance(nx.real, float):
        # scalars: Python arithmetic alone, no numpy name
        s = _pauli_size(nx, ny, nz)
        if not s < math.inf:
            raise ValueError(_PAULI_NOT_FINITE)
        e = _exponent(s)
        if not e:
            return a0, 0, nx, ny, nz
    else:
        # a stack whose Pauli vector passes the float range raises, not first warns
        with np.errstate(over="ignore"):
            s = _pauli_size(nx, ny, nz)
        _reject_rows(np.logical_not(s < math.inf), ValueError(_PAULI_NOT_FINITE))
        e = _exponent(s)
        if not e.any():
            return a0, 0, nx, ny, nz
    # s 2**-e in [1, 2), an octave above _exponent's, where passages' bits are pinned
    e = e - (e != 0)
    return a0, e, _ldexp(nx, -e), _ldexp(ny, -e), _ldexp(nz, -e)


def _pauli_entries(nx, ny, nz):
    """The entries n00, n01, n10, n11 of n.sigma for the Pauli vector (nx, ny, nz),
    of scalars or elementwise of arrays."""
    return nz, nx - 1j * ny, nx + 1j * ny, -nz


def _pauli_size(nx, ny, nz):
    """s = sum_k |Re n_k| + |Im n_k| of the Pauli vector (nx, ny, nz), of scalars or elementwise."""
    return abs(nx.real) + abs(nx.imag) + abs(ny.real) + abs(ny.imag) + abs(nz.real) + abs(nz.imag)


def _ldexp(x, e):
    """x 2**e, each part scaled exactly: the one way back from a range step, for a result.  Of a
    Python float or complex and an int ``e``, or elementwise of a float or complex array and an int
    (or int array); x itself where ``e`` is 0 or None.  ValueError, with no warning, where a value
    leaves the float range (a stack's first such row)."""
    if not isinstance(e, np.ndarray) and not e:
        return x
    if not isinstance(x, np.ndarray):
        try:
            if isinstance(x, complex):
                return complex(math.ldexp(x.real, e), math.ldexp(x.imag, e))
            return math.ldexp(x, e)
        except OverflowError:
            raise ValueError(_OUT_OF_RANGE) from None
    with np.errstate(over="ignore"):
        if x.dtype.kind == "c":
            y = np.ldexp(x.view(float).reshape(*x.shape, 2), np.expand_dims(e, -1)).view(complex)[..., 0]
        else:
            y = np.ldexp(x, e)
    _reject_rows(~np.isfinite(y), ValueError(_OUT_OF_RANGE))
    return y


def _pauli_root(nx: complex, ny: complex, nz: complex) -> complex | float:
    """The principal root r of n.n for the Pauli vector (nx, ny, nz) of Python
    complex scalars, under the real-spectrum rule.

    n.n counts as real when Re(n.n) >= 0 and |Im(n.n)| <= 16 eps sum |n_k|^2,
    the rounding of a real spectrum (a Hermitian or metric-Hermitian drive, an
    exceptional point); r is then the float sqrt(Re n.n), so k = Im r is 0.
    Otherwise r is the complex root (``np.sqrt`` of n.n), whose k is not 0
    where it does not underflow.
    """
    nn = nx * nx + ny * ny + nz * nz
    # Im(n.n) is 0 for every symmetrized drive, and 0 needs no scale; |n|^2
    # is inf, not an OverflowError, past the float range
    n = math.hypot(nx.real, nx.imag, ny.real, ny.imag, nz.real, nz.imag) if nn.imag else 0.0
    if nn.real >= 0.0 and abs(nn.imag) <= _REAL_SPECTRUM_TOL * (n * n):
        return math.sqrt(nn.real)
    return complex(np.sqrt(nn + 0j))


def _cos_sinc(r, t):
    """cos(r t) and sin(r t)/r, elementwise; sin(r t)/r -> t where |r| < _EP_RADIUS."""
    exceptional = abs(r) < _EP_RADIUS
    if not _any(exceptional):
        cosf, sinf = _cos_sin(r * t)
        return cosf, sinf / r
    safe = np.where(exceptional, 1.0, r)
    cosf, sinf = _cos_sin(safe * t)
    return np.where(exceptional, 1.0 + 0j, cosf), np.where(exceptional, t + 0j, sinf / safe)


def _damped_sinh_cosh(at, kt, out) -> None:
    """e^{at} sinh(kt) and e^{at} cosh(kt) of float arrays, written to the pair ``out``.

    With E = e^{at + |kt|} and q = expm1(-2|kt|) in [-1, 0], e^{at} sinh|kt|
    is -E q / 2 and e^{at} cosh kt is E (2 + q) / 2: nothing cancels as
    kt -> 0, and the growth meets the damping inside one exponential, so a
    value is non-finite only where e^{at} cosh kt itself overflows.  The
    cosh array of ``out`` may be ``at``; the sinh array must not be ``kt``.
    """
    sinh, cosh = out
    np.abs(kt, out=sinh)
    np.add(at, sinh, out=cosh)
    _exp(cosh, out=cosh)
    np.multiply(sinh, -2.0, out=sinh)
    np.expm1(sinh, out=sinh)
    np.multiply(sinh, cosh, out=sinh)
    np.multiply(sinh, -0.5, out=sinh)
    np.subtract(cosh, sinh, out=cosh)
    np.copysign(sinh, kt, out=sinh)


def _damped_factors(a0, r, t, tr):
    """exp(-i a0 t), cos(r tr) and sin(r tr)/r for ``propagator``; r and tr
    are the root and clock of the scaled Pauli vector.

    Where |Im(r) tr| passes _COSH_LIMIT, cosh(Im r tr) nears the float range
    and would overflow before e^{Im(a0) t} damps it; below |r| = 1 the
    1/|r| of sin(r tr)/r counts too, so there the test is
    |Im(r) tr| - ln|r| > _COSH_LIMIT.  There the damping moves from the phase
    onto cos and sin, whose hyperbolic parts come from ``_damped_sinh_cosh``;
    every other entry keeps the plain form.
    """
    kt = r.imag * tr
    damped = abs(kt) > _COSH_LIMIT
    size = abs(r)
    small = (size < 1.0) & (size >= _EP_RADIUS)
    if _any(small):
        damped = damped | (abs(kt) - np.log(_where(small, size, 1.0)) > _COSH_LIMIT)
    phase, cosf, sincf = _exp(-1j * a0 * t), *_cos_sinc(r, tr)
    if not _any(damped):
        return phase, cosf, sincf
    # [j, ...] keeps a scalar t's rows as 0-d arrays the ufuncs can write to
    hyperbolic = np.empty((2, *np.shape(kt)))
    esinh, ecosh = hyperbolic[0, ...], hyperbolic[1, ...]
    _damped_sinh_cosh(a0.imag * t, kt, (esinh, ecosh))
    cos_w, sin_w = _cos_sin(r.real * tr)
    return (
        _where(damped, _cis(-(a0.real * t)), phase),
        _where(damped, cos_w * ecosh - 1j * sin_w * esinh, cosf),
        _where(damped, (sin_w * ecosh + 1j * cos_w * esinh) / r, sincf),
    )


def propagator(ham, t) -> np.ndarray:
    """Time-evolution operator ``exp(-1j * ham * t)`` of a 2x2 generator.

    ``t`` is a scalar, giving one 2x2 matrix, or a 1-d array of times,
    giving a ``(len(t), 2, 2)`` stack whose slices equal the scalar calls bit
    for bit.  ``ham`` may also be an ``(n, 2, 2)`` stack of generators with
    ``t`` an ``(n,)`` array of times; slice k then equals
    ``propagator(ham[k], t[k])`` bit for bit.  2x2 generators use the
    closed-form identity+Pauli decomposition, exact up to rounding whether or
    not ``ham`` is Hermitian, defective generators at an exceptional point
    included.  Their size is s = sum_k |Re n_k| + |Im n_k| of the Pauli
    vector n of ham = a0 I + n.sigma: before anything reads |n| or |r|, n
    takes the range step of ``_pauli_vector``, so ``propagator(2**k ham, 2**-k t)``
    is ``propagator(ham, t)`` bit for bit, and an s past the float range
    raises ValueError, as does a clock t 2**e past it, naming its earliest
    such time (a stack names its first such row's time and marks the row).  Where
    |Im(r) t| passes 700 (r the root of the scaled n.n, t its clock),
    cosh(Im r t) nears the float range, so those entries
    put the damping e^{Im(a0) t} onto cos and sin through the overflow-free
    e^{at} sinh/cosh; below |r| = 1 the gate is |Im(r) t| - ln|r| > 700,
    since sin(r t)/r carries a further 1/|r|.  Those entries are then
    non-finite only where the exact operator overflows (diag(0, -2i) at
    t = 800 gives diag(1, e^-1600), diag(0, -2e-10 i) at t = 6.9e12 gives
    diag(1, e^-1380)).  Every other entry, real r included, keeps the plain
    form.  A result that is not finite raises ValueError, with no warning,
    in the same way (``_reject_first_time``).  ``t`` is read
    by ``_reals``: a complex or str ``t`` raises TypeError, a NaN or infinite
    time ValueError naming the first such value, and a ``t`` of more than one
    dimension ValueError naming its shape.
    """
    m = as_operator(ham, stack=True)
    t = _reals("t", t)
    if m.ndim == 3 and np.shape(t) != m.shape[:1]:
        raise ValueError(f"a generator stack needs one time each, got t {np.shape(t)}")
    return _propagator(m, t)


def _propagator(m: np.ndarray, t):
    """``propagator`` of a generator (or stack) and times already read."""
    a0, e, r, pauli_part = _pauli_split(m)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = t
        if _any(e):
            # n 2**-e turns on the clock t 2**e, which names its time where it passes the float range
            tr = _float_or_array(np.ldexp(t, e))
            _reject_first_time(t, tr, "the propagator's clock t 2**e", m.ndim == 3)
        phase, cosf, sincf = _damped_factors(a0, r, t, tr)
        u = _col(phase) * (_col(cosf) * np.eye(2) - _col(1j * sincf) * pauli_part)
        if not _all_finite(u):
            # NaN where a time's matrix is not finite: inf * 0 is NaN
            _reject_first_time(t, (u * 0.0).sum(axis=(-2, -1)), "the propagator overflows: U(t)", m.ndim == 3)
    return u


def hermitian_sqrt(mat) -> np.ndarray:
    """Principal square root of a Hermitian positive-definite 2x2 matrix.

    ValueError unless ``mat`` passes ``is_hermitian``; MetricDegeneracyError
    (carrying the offending eigenvalue) when the smallest eigenvalue is
    negligible, at POSDEF_FLOOR, next to ||mat||_F (``_negligible``), so
    2**k mat gets the verdict of mat and a zero matrix raises.  After the check
    ``_eigh`` takes the even range step 4**-j (j = 0 in range), the Hermitian part
    and the ``eigh``; the floor is judged and the root taken in that frame, and the
    root scaled back by 2**j (``_ldexp``): ``hermitian_sqrt(4**k mat)`` is 2**k times its root.
    """
    return _hermitian_sqrt(as_operator(mat))


def _hermitian_sqrt(p: np.ndarray) -> np.ndarray:
    """``hermitian_sqrt`` of a 2x2 matrix already read, C-ordered, in the frame of an even range step 4**-j."""
    if not _is_hermitian(p):
        raise ValueError("hermitian_sqrt requires a Hermitian matrix")
    p, w, v, j = _eigh(p)
    wmin = float(w.min())
    if _negligible(wmin, _frobenius(p), POSDEF_FLOOR):
        wmin = _ldexp(wmin, 2 * j)
        raise MetricDegeneracyError(f"matrix is not positive definite: smallest eigenvalue {wmin:.3e}", eigenvalue=wmin)
    return _ldexp(_hermitian_part(_matmul(v * np.sqrt(w), dagger(v))), j)


def eigvals2(mat):
    """Eigenvalues of a 2x2 matrix by the quadratic formula.

    Ordered by descending real part, ties broken by descending imaginary part.
    An ``(n, 2, 2)`` stack gives two ``(n,)`` arrays whose rows are the single
    calls, bit for bit: both run ``_eigvals2``.  A matrix whose largest entry
    part leaves the range of ``_exponent`` is first scaled into it, and its
    eigenvalues are scaled back (``_ldexp``), so the squared trace and the
    determinant neither overflow nor lose bits below the normal floats:
    ``eigvals2(2**k h)`` is ``2**k eigvals2(h)`` for |k| up to 1000, and an
    eigenvalue past the float range raises ValueError.  Every other matrix
    keeps the plain formula, bit for bit.
    """
    return _eigvals2(*_entries2(as_operator(mat, stack=True)))


def _eigvals2(m00, m01, m10, m11):
    """``eigvals2`` of [[m00, m01], [m10, m11]], (tr +- disc) / 2 with disc the root of
    tr^2 - 4 det: of Python complex scalars, as a pair of them, or elementwise of
    contiguous ``(n,)`` rows (``_entries2``), as a pair of arrays."""
    parts = (abs(m00.real), abs(m00.imag), abs(m01.real), abs(m01.imag),
             abs(m10.real), abs(m10.imag), abs(m11.real), abs(m11.imag))
    e = _exponent(np.maximum.reduce(parts) if isinstance(m00, np.ndarray) else max(parts))
    scaled = _any(e)
    if scaled:
        m00, m01, m10, m11 = (_ldexp(z, -e) for z in (m00, m01, m10, m11))
    tr = m00 + m11
    det = _cmul(m00, m11) - _cmul(m01, m10)
    disc = np.sqrt(_cmul(tr, tr) - 4.0 * det + 0j)
    if not isinstance(disc, np.ndarray):
        # a Python complex rounds as numpy's scalar, and its arithmetic is faster
        disc = complex(disc)
    hi, lo = (tr + disc) / 2.0, (tr - disc) / 2.0
    swap = (lo.real > hi.real) | ((lo.real == hi.real) & (lo.imag > hi.imag))
    hi, lo = _where(swap, lo, hi), _where(swap, hi, lo)
    if scaled:
        hi, lo = _ldexp(hi, e), _ldexp(lo, e)
    return hi, lo
