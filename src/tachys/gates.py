"""Single-qubit information primitives built on the fastest fixed-gap drive.

The working pair is the reference state (1, 0) and a partner at polar angle
``theta`` on the same Bloch great circle.  On top of it the module builds the
unambiguous-discrimination POVM, the minimal-time NOT gate and its non-ideal
round trip, the cloning obstruction, a measure-and-prepare control-U channel,
and the information-efficiency bound tying travel time to distinguishability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .smallmat import (
    _angle,
    _cos_sin,
    _float_or_array,
    _frobenius,
    _matmul,
    _norm,
    _paired,
    _reals,
    _vdots,
    dagger,
    normalize,
    positive_finite,
)

__all__ = [
    "DegenerateBasisError",
    "BlochBasis",
    "Povm",
    "NotGateReport",
    "ControlUReport",
    "EfficiencyReport",
    "discrimination_povm",
    "inconclusive_probability",
    "not_gate_roundtrip",
    "cloning_defect",
    "control_u_channel",
    "efficiency_bound",
]

POVM_TOL = 1e-12

INCONCLUSIVE = "INCONCLUSIVE"


class DegenerateBasisError(ValueError):
    """The two working states coincide; the construction is undefined."""


def _circle_state(polar) -> np.ndarray:
    """(cos(polar/2), -i sin(polar/2)): the Bloch great circle of the working pair.

    An array of angles gives the states stacked on the last axis.
    """
    c, s = _cos_sin(0.5 * np.asarray(polar, dtype=float))
    return np.stack([c + 0j, -1j * s], axis=-1)


def _not_gate(psi1: np.ndarray) -> np.ndarray:
    """Minimal-time NOT of the working pair: the rotation taking (1, 0) to its
    partner ``psi1`` = (cos(theta/2), -i sin(theta/2))."""
    c, s = psi1
    return np.array([[c, s], [s, c]])


@dataclass(frozen=True)
class BlochBasis:
    """Working pair: (1, 0) and (cos(theta/2), -i sin(theta/2)), theta in (0, pi].

    ``theta`` may be a 1-d array of angles, one working pair each: every
    angle is validated, ``psi1`` stacks the partners as ``(n, 2)`` and
    ``overlap`` is an array; ``psi0`` stays the single shared reference.
    ``discrimination_povm`` takes such a basis, and ``inconclusive_probability``
    the stacks it gives; the other functions here take a single angle and
    raise ValueError, naming the shape of ``theta``, for an array of them,
    even of one angle.  ``theta`` is read by ``_reals``: a complex or str
    ``theta`` raises TypeError, a non-finite angle ValueError naming it, and
    a ``theta`` of more than one dimension ValueError naming its shape.
    """

    theta: float

    def __post_init__(self):
        th = _reals("theta", self.theta)
        if np.any(th == 0.0):
            raise DegenerateBasisError("theta = 0: the working states coincide")
        if np.any((th < 0.0) | (th > np.pi + 1e-12)):
            raise ValueError("theta must lie in (0, pi]")

    @property
    def psi0(self) -> np.ndarray:
        return np.array([1.0, 0.0], dtype=complex)

    @property
    def psi1(self) -> np.ndarray:
        return _circle_state(self.theta)

    @property
    def overlap(self) -> float:
        """<psi0|psi1> = cos(theta/2), real and non-negative here; an array of
        angles gives an array."""
        return _float_or_array(self.psi1[..., 0].real)


@dataclass(frozen=True, eq=False)
class Povm:
    """Effects summing to the identity, with per-outcome labels.

    Each effect is a 2x2 matrix, or an ``(n, 2, 2)`` stack for a basis with
    n angles.  The two audits are computed once, when the POVM is built:
    ``completeness_defect`` = ||sum of the effects - I||_F and
    ``min_eigenvalue``, the lowest eigenvalue over all effects; each is a
    float, or one value per angle for stacked effects.
    """

    effects: tuple
    labels: tuple
    completeness_defect: float = field(init=False)
    min_eigenvalue: float = field(init=False)

    def __post_init__(self):
        defect = np.linalg.norm(sum(self.effects) - np.eye(2), axis=(-2, -1))
        lowest = np.linalg.eigvalsh(np.stack(self.effects)).min(axis=(0, -1))
        object.__setattr__(self, "completeness_defect", _float_or_array(defect))
        object.__setattr__(self, "min_eigenvalue", _float_or_array(lowest))


@dataclass(frozen=True, eq=False)
class NotGateReport:
    theta: float
    omega: float
    forward_residual: float
    roundtrip_fidelity: float
    tau_not: float


@dataclass(frozen=True, eq=False)
class ControlUReport:
    """Measure-and-prepare numbers for one control-basis placement.

    p and q are the overlaps |<psi1|e1>|^2 and |<psi0|e0>|^2; bound_lhs/rhs
    are the two sides of the angular triangle bound pi/2 <= arccos(sqrt p) +
    arccos<psi0|psi1> + arccos(sqrt q), and ``slack`` = bound_rhs - bound_lhs
    is its margin, never negative beyond rounding; the outputs are the
    channel images of the two working-state projectors, and
    ``decomposition_residual`` measures how far those images are from
    mixtures of the working-state projectors with weights p, q.
    """

    theta: float
    e_polar: float
    p: float
    q: float
    bound_lhs: float
    bound_rhs: float
    slack: float
    output_psi1: np.ndarray
    output_psi0: np.ndarray
    decomposition_residual: float


@dataclass(frozen=True, eq=False)
class EfficiencyReport:
    """The bound delta_t >= bound_rhs = 2 epsilon / delta_e of ``efficiency_bound``
    and its ``slack`` = delta_t - bound_rhs, 0 to rounding for the optimal drive."""

    delta_t: float
    delta_e: float
    epsilon: float
    bound_rhs: float
    slack: float


def _single_theta(basis: BlochBasis) -> float:
    """``basis.theta`` of a basis of one angle; ValueError for an array of angles."""
    if np.ndim(basis.theta):
        raise ValueError(f"basis must hold a single angle, got theta of shape {np.shape(basis.theta)}")
    return float(basis.theta)


def _projector(state: np.ndarray) -> np.ndarray:
    """|state><state|, for a single state or a stack of them."""
    return state[..., :, None] * np.conj(state)[..., None, :]


def discrimination_povm(basis: BlochBasis) -> Povm:
    """Three-outcome unambiguous discrimination of the working pair.

    Outcome "0" never fires on psi1 and outcome "1" never fires on psi0, so
    each conclusively identifies one state; the third outcome is inconclusive
    and fires with probability cos(theta/2) on either working state.  A basis
    with an array of angles gives ``(n, 2, 2)`` effect stacks, slice for slice
    the effects of the single-angle calls.
    """
    psi1 = basis.psi1
    a, b = psi1[..., 0], psi1[..., 1]
    v0 = np.stack([np.conj(b), -np.conj(a)], axis=-1)
    e0 = _projector(v0)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    scale = (1.0 / (1.0 + np.abs(a)))[..., None, None]
    e2 = np.eye(2) - scale * (e0 + e1)
    effects = (scale * e0, scale * e1, e2)
    povm = Povm(effects=effects, labels=("0", "1", INCONCLUSIVE))
    if np.any(povm.completeness_defect > POVM_TOL):
        raise ValueError("effects do not sum to the identity")
    if np.any(povm.min_eigenvalue < -POVM_TOL):
        raise ValueError("an effect has a negative eigenvalue")
    return povm


def _expectation(effect, psi):
    """<psi|effect|psi>, real part: of one state, or row by row of an ``(n, 2)``
    stack and (broadcast) of an ``(n, 2, 2)`` effect stack."""
    return np.real(_vdots(psi, _matmul(effect, psi[..., None])[..., 0]))


def inconclusive_probability(povm: Povm, state) -> float:
    """Probability of the inconclusive outcome on ``state``, taken as a unit vector.

    A stacked POVM, an ``(n, 2)`` stack of states, or both (of one length n)
    give one value per row, each that of the single call bit for bit.
    """
    psi = normalize(state)
    effect = povm.effects[povm.labels.index(INCONCLUSIVE)]
    _paired("povm", effect, "state", psi, 2, 1)
    return _float_or_array(_expectation(effect, psi))


def not_gate_roundtrip(basis: BlochBasis, omega: float) -> NotGateReport:
    """Minimal-time NOT on the working pair and its imperfect inverse.

    The gate sends psi0 to psi1 exactly; applied to psi1 it returns to psi0
    only with fidelity |cos theta|.  ``tau_not`` = pi/omega is the time at
    which the same fixed-gap drive maps both working states across, by the
    half-period condition.
    """
    theta = _single_theta(basis)
    omega = positive_finite("omega", omega)
    psi1 = basis.psi1
    gate = _not_gate(psi1)
    forward = _matmul(gate, basis.psi0)
    forward_residual = _norm(forward - psi1)
    back = _matmul(gate, psi1)
    fid = float(abs(_vdots(basis.psi0, back)))
    return NotGateReport(
        theta=theta,
        omega=omega,
        forward_residual=forward_residual,
        roundtrip_fidelity=fid,
        tau_not=float(np.pi / omega),
    )


def cloning_defect(basis: BlochBasis) -> float:
    """Inner-product mismatch of the would-be cloner on the working pair.

    A unitary cloning both working states would need the product-state Gram
    numbers to agree before and after; the gap |a - a^2| with a = cos(theta/2)
    is computed from the four product states, not from the closed form.
    """
    _single_theta(basis)
    psi0, psi1 = basis.psi0, basis.psi1
    before = _vdots(np.kron(psi1, psi1), np.kron(psi0, psi1))
    after = _vdots(np.kron(psi1, psi0), np.kron(psi0, psi1))
    return float(abs(before - after))


def control_u_channel(basis: BlochBasis, e_basis_polar: float) -> ControlUReport:
    """Control-U channel with the control basis on the working great circle.

    The orthogonal control pair sits at Bloch polar angles ``e_basis_polar``
    and ``e_basis_polar + pi``; the controlled unitary is the minimal-time NOT
    of the working pair, the ancilla is prepared in the upper control state,
    and the input is traced out after the controlled action.  The report
    carries the overlaps p, q, both sides of the angular triangle bound, the
    channel images of the working projectors, and the residual of the claimed
    two-projector decomposition of those images.  ``e_basis_polar`` is read
    by ``_reals``: TypeError for a complex or str value, ValueError naming a
    non-finite value or the shape of an array.
    """
    theta = _single_theta(basis)
    alpha = _reals("e_basis_polar", e_basis_polar)
    if np.ndim(alpha):
        raise ValueError(f"e_basis_polar must be a single angle, got shape {alpha.shape}")
    e0 = _circle_state(alpha)
    e1 = _circle_state(alpha + np.pi)
    gate = _not_gate(basis.psi1)
    vmat = np.kron(_projector(e1), gate) + np.kron(_projector(e0), np.eye(2))

    ancilla = _projector(e1)
    outputs = []
    for psi in (basis.psi1, basis.psi0):
        rho4 = _matmul(vmat, np.kron(_projector(psi), ancilla), dagger(vmat))
        outputs.append(rho4[:2, :2] + rho4[2:, 2:])  # the control traced out
    out1, out0 = outputs

    p = float(abs(_vdots(basis.psi1, e1)) ** 2)
    q = float(abs(_vdots(basis.psi0, e0)) ** 2)
    proj0 = _projector(basis.psi0)
    proj1 = _projector(basis.psi1)
    res1 = _frobenius(out1 - (p * proj0 + (1.0 - p) * proj1))
    res0 = _frobenius(out0 - ((1.0 - q) * proj0 + q * proj1))
    residual = max(res1, res0)

    lhs = float(np.pi / 2.0)
    rhs = float(_angle(np.sqrt(p)) + _angle(basis.overlap) + _angle(np.sqrt(q)))
    return ControlUReport(
        theta=theta,
        e_polar=alpha,
        p=p,
        q=q,
        bound_lhs=lhs,
        bound_rhs=rhs,
        slack=rhs - lhs,
        output_psi1=out1,
        output_psi0=out0,
        decomposition_residual=residual,
    )


def efficiency_bound(basis: BlochBasis, omega: float) -> EfficiencyReport:
    """Travel time against distinguishability: delta_t >= (2/delta_e) * epsilon.

    epsilon = arccos<psi0|psi1> is the angular distinguishability of the
    working pair, delta_e = omega the energy spread of the drive, and delta_t
    the minimal-time transfer; the optimal drive saturates the bound.
    """
    _single_theta(basis)
    omega = positive_finite("omega", omega)
    epsilon = float(_angle(basis.overlap))
    # (2/omega) epsilon and 2 epsilon/omega round apart: slack is that rounding
    delta_t, bound = (2.0 / omega) * epsilon, 2.0 * epsilon / omega
    return EfficiencyReport(delta_t=delta_t, delta_e=omega, epsilon=epsilon,
                            bound_rhs=bound, slack=delta_t - bound)
