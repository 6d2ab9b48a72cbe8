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

from .metric import Metric, metric_from_matrix
from .smallmat import (
    MetricDegeneracyError,
    as_operator,
    as_state,
    dagger,
    frobenius,
    is_hermitian,
    normalize,
    positive_finite,
    propagator,
    spectral_gap,
)

__all__ = ["DilationModel", "build_dilation", "evolve_dilated", "visibility_ratio"]

_DET_FLOOR = 1e-12
_TRACELESS_TOL = 1e-10
_GAP_TOL = 1e-8
_EIGENREL_TOL = 1e-10
_UNITARITY_TOL = 1e-10
_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DilationModel:
    """Hermitian four-level container for a two-level metric-Hermitian drive.

    All 4x4 blocks (``extended_vectors``, ``hamiltonian``) and the stored
    ``metric`` are expressed in the orthonormal eigenbasis of the flat
    generator whose columns are recorded in ``eigenbasis``; two-level states
    are converted in and out of that basis explicitly by ``evolve_dilated``.
    The metric is rescaled to unit determinant, which makes
    ``extended_vectors`` exactly unitary with ``norm_factor`` =
    1/sqrt(trace of the rescaled metric).
    """

    metric: Metric
    extended_vectors: np.ndarray
    hamiltonian: np.ndarray
    norm_factor: float
    eigenbasis: np.ndarray


def build_dilation(h, metric: Metric, omega: float) -> DilationModel:
    """Assemble the four-level Hermitian model for (h, metric).

    ``h`` must be Hermitian and traceless with eigenvalue gap ``omega``; the
    metric must have determinant above the degeneracy floor before the
    unit-determinant rescale.
    """
    hm = as_operator(h, dim=2)
    if not is_hermitian(hm):
        raise ValueError("build_dilation requires a Hermitian generator")
    if abs(complex(np.trace(hm))) > _TRACELESS_TOL:
        raise ValueError("build_dilation requires a traceless generator")
    omega = positive_finite("omega", omega)
    gap = spectral_gap(hm).real
    if abs(gap - omega) > _GAP_TOL * max(1.0, omega):
        raise ValueError(f"generator gap {gap:.12g} does not match omega {omega:.12g}")

    det_eta = float(np.linalg.det(metric.eta).real)
    if det_eta <= _DET_FLOOR:
        raise MetricDegeneracyError(
            f"metric determinant {det_eta:.3e} is below the dilation floor",
            eigenvalue=det_eta,
        )
    eta_unit = metric.eta / np.sqrt(det_eta)

    # orthonormal eigenbasis of h, gap-upper state first, phases pinned
    w, vecs = np.linalg.eigh(0.5 * (hm + dagger(hm)))
    basis = vecs[:, ::-1].copy()
    for k in range(2):
        col = basis[:, k]
        anchor = col[np.argmax(np.abs(col))]
        basis[:, k] = col * np.exp(-1j * np.angle(anchor))

    eta_e = dagger(basis) @ eta_unit @ basis
    eta_e = 0.5 * (eta_e + dagger(eta_e))
    m = metric_from_matrix(eta_e)
    norm_factor = float(1.0 / np.sqrt(np.trace(eta_e).real))

    level = 0.5 * omega
    energies = np.diag([level, -level]).astype(complex)
    op = m.inv_sqrt_eta @ energies @ m.sqrt_eta

    if frobenius(op @ m.inv_sqrt_eta - m.inv_sqrt_eta @ energies) > _EIGENREL_TOL:
        raise ValueError("inverse-root columns fail the eigenvalue relation")
    if frobenius(dagger(op) @ m.sqrt_eta - m.sqrt_eta @ energies) > _EIGENREL_TOL:
        raise ValueError("root columns fail the adjoint eigenvalue relation")

    vmat = norm_factor * np.block([[m.inv_sqrt_eta, m.sqrt_eta], [m.sqrt_eta, -m.inv_sqrt_eta]])
    if frobenius(dagger(vmat) @ vmat - np.eye(4)) > _UNITARITY_TOL:
        raise ValueError("extended-vector matrix failed its unitarity check")

    inv_eta = m.inv_sqrt_eta @ m.inv_sqrt_eta
    top = op @ inv_eta + eta_e @ op
    off = op - dagger(op)
    big = norm_factor**2 * np.block([[top, off], [-off, top]])
    if frobenius(big - dagger(big)) > _HERMITICITY_TOL:
        raise ValueError("dilated generator failed its Hermiticity check")
    big = 0.5 * (big + dagger(big))

    return DilationModel(
        metric=m,
        extended_vectors=vmat,
        hamiltonian=big,
        norm_factor=norm_factor,
        eigenbasis=basis,
    )


def evolve_dilated(model: DilationModel, initial, t) -> tuple[np.ndarray, np.ndarray]:
    """Evolve the stacked vector (psi; eta psi) under the dilated generator.

    ``initial`` is a two-level state in the original basis of the generator
    handed to ``build_dilation``.  Returns the evolved four-component vector
    (in the model's eigenbasis) and the observed two-level part converted
    back to the original basis; the observed part reproduces the two-level
    non-unitary evolution exactly while the four-vector norm stays constant.
    ``t`` is a scalar or a 1-d array of times, as for ``propagator``; an
    array gives ``(len(t), 4)`` and ``(len(t), 2)`` stacks whose rows equal
    the scalar calls bit for bit.
    """
    psi = normalize(as_state(initial, dim=2))
    psi_e = dagger(model.eigenbasis) @ psi
    stacked = np.concatenate([psi_e, model.metric.eta @ psi_e])
    evolved = propagator(model.hamiltonian, t) @ stacked
    observed = (model.eigenbasis @ evolved[..., :2, None])[..., 0]
    return evolved, observed


def visibility_ratio(metric: Metric, state) -> float:
    """Norm ratio <psi|psi> / <chi|chi> with chi = eta @ psi.

    This is the weight of the observable two-level part inside the stacked
    four-level vector; it collapses when the metric nearly loses rank.
    """
    psi = as_state(state, dim=2)
    chi = metric.eta @ psi
    denom = float(np.real(np.vdot(chi, chi)))
    if denom <= 0.0:
        raise ValueError("metric image of the state vanishes; ratio undefined")
    return float(np.real(np.vdot(psi, psi)) / denom)
