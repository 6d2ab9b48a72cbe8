"""Hermitian dilation of metric-Hermitian qubit dynamics.

A metric-Hermitian generator acting on C^2 embeds into a genuinely Hermitian
generator on C^4: the extended vectors stack the state with its metric image,
and the big generator leaves that stack invariant while reproducing the
two-level dynamics exactly.  The price of a nearly degenerate metric shows up
as vanishing visibility of the embedded two-level part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import Metric, QuasiHamiltonian, _metric_from_matrix, _quasi_hamiltonian, _single_eta
from .smallmat import (
    POSDEF_FLOOR,
    MetricDegeneracyError,
    _arg,
    _cis,
    _col,
    _eigh,
    _finite,
    _frobenius,
    _hermitian_part,
    _is_hermitian,
    _ldexp,
    _matmul,
    _negligible,
    _normalized,
    _reals,
    _stepped,
    _vdots,
    as_operator,
    as_state,
    dagger,
)

__all__ = ["DilationModel", "build_dilation", "evolve_dilated", "visibility_ratio"]


@dataclass(frozen=True, eq=False)
class DilationModel:
    """Hermitian four-level container for a two-level metric-Hermitian drive.

    All 4x4 blocks (``extended_vectors``, ``hamiltonian``) and the stored
    ``metric`` are expressed in the orthonormal eigenbasis of the flat
    generator whose columns are recorded in ``eigenbasis``; two-level states
    are converted in and out of that basis explicitly by ``evolve_dilated``.
    The metric is rescaled to unit determinant, which makes
    ``extended_vectors`` exactly unitary with ``norm_factor`` =
    1/sqrt(trace of the rescaled metric).  ``generator`` is the two-level
    drive ``quasi_hamiltonian(h, metric, omega)`` in the original basis.
    ``unitarity_defect`` is ||V^dag V - I||_F of the extended vectors V, the
    residual that ``build_dilation``'s unitarity check measures, and
    ``hermiticity_defect`` is ||B - B^dag||_F of the stored, symmetrized
    ``hamiltonian`` B: exactly 0 for every model ``build_dilation`` builds, as it is
    measured after the symmetrization (0.5 B + 0.5 B^dag equals its own conjugate
    transpose entry for entry).  B is checked (``is_hermitian``, else ValueError) and decomposed by
    ``_eigh`` once, as the model is built; ``evolve_dilated`` reads that spectrum, no field.
    """

    metric: Metric
    extended_vectors: np.ndarray
    hamiltonian: np.ndarray
    norm_factor: float
    eigenbasis: np.ndarray
    generator: QuasiHamiltonian
    unitarity_defect: float
    hermiticity_defect: float

    def __post_init__(self):
        if not _is_hermitian(self.hamiltonian):
            raise ValueError("4x4 generators must be Hermitian")
        _, w, v, j = _eigh(np.ascontiguousarray(self.hamiltonian))
        object.__setattr__(self, "_spectrum", (_ldexp(w, 2 * j), v))


def build_dilation(h, metric: Metric, omega: float) -> DilationModel:
    """Assemble the four-level Hermitian model for (h, metric).

    Checks in order: ``h`` is traceless; ``metric`` is not a stack; its determinant is not
    negligible, at POSDEF_FLOOR, next to ||eta||_F^2; then the gates of
    ``quasi_hamiltonian(h, metric, omega)`` (Hermitian ``h`` with gap ``omega``),
    whose dressed generator the model keeps as ``generator``; then the two
    eigenvalue relations of the root columns, the unitarity of the extended
    vectors and the Hermiticity of the dilated generator B.  Their residuals
    are sized by ||h||_F, the right-hand side ||root E||_F, ||I||_F = 2, ||B||_F.
    """
    hm = as_operator(h)
    if not _negligible(abs(complex(np.trace(hm))), _frobenius(hm)):
        raise ValueError("build_dilation requires a traceless generator")
    det_eta = float(np.linalg.det(_single_eta(metric)).real)
    size = _frobenius(metric.eta)
    if _negligible(det_eta, size * size, POSDEF_FLOOR):
        raise MetricDegeneracyError(f"metric determinant {det_eta:.3e} is below the dilation floor", eigenvalue=det_eta)
    generator = _quasi_hamiltonian(hm, metric, omega)
    eta_unit = metric.eta / np.sqrt(det_eta)

    # orthonormal eigenbasis of h (``_eigh``, in range at any scale), gap-upper state first, phases pinned
    basis = _eigh(hm)[2][:, ::-1]
    anchor = basis[np.argmax(np.abs(basis), axis=0), [0, 1]]
    basis = basis * _cis(-_arg(anchor))

    eta_e = _hermitian_part(_matmul(dagger(basis), eta_unit, basis))
    m = _metric_from_matrix(_finite(eta_e))
    norm_factor = float(1.0 / np.sqrt(np.trace(eta_e).real))

    energies = np.diag([0.5 * generator.omega, -0.5 * generator.omega]).astype(complex)
    op = _matmul(m.inv_sqrt_eta, energies, m.sqrt_eta)

    rhs = _matmul(m.inv_sqrt_eta, energies)
    if not _negligible(_frobenius(_matmul(op, m.inv_sqrt_eta) - rhs), _frobenius(rhs)):
        raise ValueError("inverse-root columns fail the eigenvalue relation")
    rhs = _matmul(m.sqrt_eta, energies)
    if not _negligible(_frobenius(_matmul(dagger(op), m.sqrt_eta) - rhs), _frobenius(rhs)):
        raise ValueError("root columns fail the adjoint eigenvalue relation")

    vmat = norm_factor * _blocks(m.inv_sqrt_eta, m.sqrt_eta, m.sqrt_eta, -m.inv_sqrt_eta)
    unitarity_defect = _frobenius(_matmul(dagger(vmat), vmat) - np.eye(4))
    if not _negligible(unitarity_defect, 2.0):
        raise ValueError("extended-vector matrix failed its unitarity check")

    inv_eta = _matmul(m.inv_sqrt_eta, m.inv_sqrt_eta)
    top = _matmul(op, inv_eta) + _matmul(eta_e, op)
    off = op - dagger(op)
    big = norm_factor**2 * _blocks(top, off, -off, top)
    if not _is_hermitian(big):
        raise ValueError("dilated generator failed its Hermiticity check")
    big = _hermitian_part(big)

    return DilationModel(metric=m, extended_vectors=vmat, hamiltonian=big, norm_factor=norm_factor,
                         eigenbasis=basis, generator=generator, unitarity_defect=unitarity_defect,
                         hermiticity_defect=_frobenius(big - dagger(big)))


def _blocks(a, b, c, d) -> np.ndarray:
    """The 4x4 matrix [[a, b], [c, d]] of four 2x2 blocks: ``np.block``'s bits, without its walk of the nesting."""
    return np.concatenate([np.concatenate([a, b], axis=1), np.concatenate([c, d], axis=1)])


def evolve_dilated(model: DilationModel, initial, t) -> tuple[np.ndarray, np.ndarray]:
    """Evolve the stacked vector (psi; eta psi) under the dilated generator.

    ``initial`` is a two-level state in the original basis of the generator
    handed to ``build_dilation``.  Returns the evolved four-component vector
    (in the model's eigenbasis) and the observed two-level part converted
    back to the original basis; the observed part reproduces the two-level
    non-unitary evolution exactly while the four-vector norm stays constant.
    ``t`` is a scalar or a 1-d array of times, read as ``propagator`` reads
    it; an array gives ``(len(t), 4)`` and ``(len(t), 2)`` stacks whose rows
    equal the scalar calls bit for bit.  exp(-i B t) of the model's ``hamiltonian`` B
    takes the spectrum that ``DilationModel`` checked and took by ``_eigh`` as it was built.
    """
    psi_e = _matmul(dagger(model.eigenbasis), _normalized(as_state(initial)))
    t = _reals("t", t)
    w, v = model._spectrum
    stacked = np.concatenate([psi_e, _matmul(model.metric.eta, psi_e)])
    evolved = _matmul(v * _cis(-(w * _col(t))), dagger(v), stacked)
    return evolved, _matmul(model.eigenbasis, evolved[..., :2, None])[..., 0]


def visibility_ratio(metric: Metric, state) -> float:
    """Norm ratio <psi|psi> / <chi|chi> with chi = eta @ psi.

    This is the weight of the observable two-level part inside the stacked
    four-level vector; it collapses when the metric nearly loses rank.  psi is first scaled as
    ``normalize`` scales it (``_stepped``), so 2**k psi gives psi's ratio.  A stacked metric raises ValueError.
    """
    eta = _single_eta(metric)
    psi, _, _ = _stepped(as_state(state))
    chi = _matmul(eta, psi)
    denom = float(np.real(_vdots(chi, chi)))
    if denom <= 0.0:
        raise ValueError("metric image of the state vanishes; ratio undefined")
    return float(np.real(_vdots(psi, psi)) / denom)
