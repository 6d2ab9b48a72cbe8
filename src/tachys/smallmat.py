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


def as_operator(mat, dim: int | None = None) -> np.ndarray:
    """Coerce ``mat`` to a square complex128 matrix of dimension 2 or 4."""
    m = np.array(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in _SUPPORTED_DIMS:
        raise ValueError(f"unsupported dimension {m.shape[0]}; expected one of {_SUPPORTED_DIMS}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape[0]}x{m.shape[0]}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    return m


def as_state(vec, dim: int | None = None) -> np.ndarray:
    """Coerce ``vec`` to a complex128 vector of length 2 or 4."""
    v = np.array(vec, dtype=complex).reshape(-1)
    if v.shape[0] not in _SUPPORTED_DIMS:
        raise ValueError(f"unsupported state dimension {v.shape[0]}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected a length-{dim} state, got length {v.shape[0]}")
    if not np.all(np.isfinite(v.view(float))):
        raise ValueError("state has non-finite entries")
    return v


def frobenius(mat) -> float:
    return float(np.linalg.norm(mat))


def dagger(mat: np.ndarray) -> np.ndarray:
    return np.conj(mat).T


def is_hermitian(mat, tol: float = HERMITICITY_TOL) -> bool:
    m = np.asarray(mat, dtype=complex)
    return bool(np.linalg.norm(m - dagger(m)) <= tol)


def normalize(vec) -> np.ndarray:
    v = as_state(vec)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def fidelity(u, v) -> float:
    """Phase-insensitive overlap |<u|v>| of two (not necessarily unit) states."""
    a = as_state(u)
    b = as_state(v)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity of the zero vector is undefined")
    return float(abs(np.vdot(a, b)) / (na * nb))


def states_equal(u, v, tol: float = STATE_EQUALITY_TOL) -> bool:
    """Equality up to a global phase: fidelity >= 1 - tol."""
    return fidelity(u, v) >= 1.0 - tol


def _pauli_split(m: np.ndarray) -> tuple[complex, complex, np.ndarray]:
    """Split a 2x2 generator as ``a0 * I + n.sigma``; returns (a0, r, n.sigma).

    ``r`` is the principal root of n.n, complex for non-Hermitian generators
    and zero at an exceptional point, where n.sigma is nilpotent.
    """
    a0 = 0.5 * (m[0, 0] + m[1, 1])
    ax = 0.5 * (m[0, 1] + m[1, 0])
    ay = 0.5j * (m[0, 1] - m[1, 0])
    az = 0.5 * (m[0, 0] - m[1, 1])
    r = np.sqrt(ax * ax + ay * ay + az * az + 0j)
    return a0, r, ax * PAULI_X + ay * PAULI_Y + az * PAULI_Z


def _cos_sinc(r: complex, t):
    """cos(r t) and sin(r t)/r, elementwise in ``t``; sin(r t)/r -> t as r -> 0."""
    if abs(r) < _EP_RADIUS:
        return np.ones_like(t) + 0j, t + 0j
    phi = r * t
    return np.cos(phi), np.sin(phi) / r


def propagator(ham, t) -> np.ndarray:
    """Time-evolution operator ``exp(-1j * ham * t)``.

    ``t`` is a scalar, giving one ``(d, d)`` matrix, or a 1-d array of times,
    giving a ``(len(t), d, d)`` stack whose slices equal the scalar calls bit
    for bit.  2x2 generators use the closed-form identity+Pauli decomposition,
    exact up to rounding whether or not ``ham`` is Hermitian, defective
    generators at an exceptional point included.  4x4 generators must be
    Hermitian and go through an eigendecomposition; a non-Hermitian 4x4
    generator raises ValueError.
    """
    m = as_operator(ham)
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-d array, got shape {t.shape}")
    # a time array gains trailing matrix axes, so it broadcasts to (n, d, d)
    t = t[:, None, None] if t.ndim else float(t)
    if m.shape[0] == 2:
        a0, r, pauli_part = _pauli_split(m)
        cosf, sincf = _cos_sinc(r, t)
        return np.exp(-1j * a0 * t) * (cosf * np.eye(2) - 1j * sincf * pauli_part)
    if not is_hermitian(m):
        raise ValueError("4x4 generators must be Hermitian")
    w, v = np.linalg.eigh(0.5 * (m + dagger(m)))
    return (v * np.exp(-1j * w * t)) @ dagger(v)


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


def eigvals2(mat) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix by the quadratic formula.

    Ordered by descending real part, ties broken by descending imaginary part.
    """
    m = as_operator(mat, dim=2)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det + 0j)
    roots = sorted(((tr + disc) / 2.0, (tr - disc) / 2.0), key=lambda z: (-z.real, -z.imag))
    return complex(roots[0]), complex(roots[1])


def spectral_gap(mat) -> complex:
    """Difference of the two ``eigvals2`` eigenvalues (largest minus smallest)."""
    hi, lo = eigvals2(mat)
    return hi - lo
