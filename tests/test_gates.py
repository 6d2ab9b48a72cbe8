"""Discrimination POVM, the fixed-gap NOT, control-U bound, efficiency."""

import numpy as np
import pytest

from tachys.brachistochrone import minimal_time
from tachys.gates import (
    BlochBasis,
    DegenerateBasisError,
    cloning_defect,
    control_u_channel,
    discrimination_povm,
    efficiency_bound,
    inconclusive_probability,
    not_gate_roundtrip,
)

POVM_TOL = 1e-12
MISID_TOL = 1e-14


def _p(effect, state):
    return float(np.real(np.vdot(state, effect @ state)))


# -------------------------------------------------------------------- basis


def test_basis_states_and_overlap():
    b = BlochBasis(theta=2.0 * np.pi / 3.0)
    assert np.allclose(b.psi0, [1.0, 0.0])
    assert np.allclose(b.psi1, [0.5, -1j * np.sin(np.pi / 3.0)])
    assert b.overlap == pytest.approx(0.5, abs=1e-15)


def test_basis_rejects_degenerate_and_out_of_range():
    with pytest.raises(DegenerateBasisError):
        BlochBasis(theta=0.0)
    with pytest.raises(ValueError):
        BlochBasis(theta=-0.3)
    with pytest.raises(ValueError):
        BlochBasis(theta=3.5)
    with pytest.raises(ValueError):
        BlochBasis(theta=np.nan)


def test_basis_orthogonal_at_half_turn():
    b = BlochBasis(theta=np.pi)
    assert abs(np.vdot(b.psi0, b.psi1)) < 1e-16


# --------------------------------------------------------------------- povm


def test_povm_completeness_and_positivity_across_angles():
    for k in range(1, 65):
        povm = discrimination_povm(BlochBasis(theta=k * np.pi / 64.0))
        assert povm.completeness_defect < POVM_TOL
        assert povm.min_eigenvalue > -POVM_TOL


def test_povm_conclusive_outcomes_never_misidentify():
    for theta in (0.3, 1.1, 2.0, 3.0):
        b = BlochBasis(theta=theta)
        povm = discrimination_povm(b)
        e0 = povm.effects[povm.labels.index("0")]
        e1 = povm.effects[povm.labels.index("1")]
        assert _p(e0, b.psi1) < MISID_TOL  # "it was psi0" never fires on psi1
        assert _p(e1, b.psi0) < MISID_TOL


def test_povm_inconclusive_probability_equals_overlap():
    for theta in (0.4, 1.3, 2.2, 3.1):
        b = BlochBasis(theta=theta)
        povm = discrimination_povm(b)
        want = np.cos(0.5 * theta)
        assert inconclusive_probability(povm, b.psi0) == pytest.approx(want, abs=1e-12)
        assert inconclusive_probability(povm, b.psi1) == pytest.approx(want, abs=1e-12)


def test_povm_frozen_third_angle():
    b = BlochBasis(theta=2.0 * np.pi / 3.0)
    povm = discrimination_povm(b)
    assert inconclusive_probability(povm, b.psi0) == pytest.approx(0.5, abs=1e-14)


def test_povm_orthogonal_pair_needs_no_inconclusive_outcome():
    povm = discrimination_povm(BlochBasis(theta=np.pi))
    e_inc = povm.effects[povm.labels.index(povm.labels[-1])]
    assert np.linalg.norm(e_inc) < 1e-14


def test_basis_over_an_angle_array_validates_every_angle():
    grid = np.array([0.5, 1.0, 3.0])
    b = BlochBasis(theta=grid)
    assert b.psi1.shape == (3, 2)
    assert np.array_equal(b.overlap, np.cos(0.5 * grid))
    with pytest.raises(DegenerateBasisError):
        BlochBasis(theta=np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="lie in"):
        BlochBasis(theta=np.array([0.5, 3.5]))
    with pytest.raises(ValueError, match="finite"):
        BlochBasis(theta=np.array([np.nan, 0.5]))


def test_basis_rejects_a_theta_of_more_than_one_dimension():
    with pytest.raises(ValueError, match=r"theta must be a scalar or a 1-d array, got shape \(2, 2\)"):
        BlochBasis(theta=np.full((2, 2), 1.0))
    with pytest.raises(ValueError, match=r"got shape \(1, 3\)"):
        BlochBasis(theta=[[0.5, 1.0, 3.0]])


#: the functions that take a single angle, each called on a basis
SINGLE_ANGLE_CALLS = {
    "not_gate_roundtrip": lambda b: not_gate_roundtrip(b, 1.0),
    "efficiency_bound": lambda b: efficiency_bound(b, 1.0),
    "cloning_defect": cloning_defect,
    "control_u_channel": lambda b: control_u_channel(b, 0.4),
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("name", sorted(SINGLE_ANGLE_CALLS))
def test_single_angle_functions_reject_a_basis_of_an_angle_array(name, n):
    # even one angle in an array is a stacked basis; the error names its shape
    call = SINGLE_ANGLE_CALLS[name]
    grid = np.linspace(0.5, 3.0, n)
    with pytest.raises(ValueError, match=rf"basis must hold a single angle, got theta of shape \({n},\)"):
        call(BlochBasis(theta=grid))
    call(BlochBasis(theta=float(grid[0])))


def test_povm_effect_stacks_match_single_angle_calls():
    rng = np.random.default_rng(9)
    grid = np.concatenate([rng.uniform(1e-3, np.pi, 400), [1e-9, np.pi]])
    stacked = discrimination_povm(BlochBasis(theta=grid))
    defects = stacked.completeness_defect
    lowest = stacked.min_eigenvalue
    for k, theta in enumerate(grid):
        b = BlochBasis(theta=float(theta))
        povm = discrimination_povm(b)
        assert np.array_equal(b.psi1.view(float), BlochBasis(theta=grid).psi1[k].view(float))
        for single, stack in zip(povm.effects, stacked.effects):
            # bit for bit, signed zeros included
            assert np.array_equal(single.view(float), stack[k].view(float))
        assert povm.completeness_defect == defects[k]
        assert povm.min_eigenvalue == lowest[k]


def test_inconclusive_probability_of_stacks_equals_single_calls():
    # a stacked POVM with one state or with a stack of states, and one POVM
    # with a stack of states, give the single calls bit for bit
    rng = np.random.default_rng(28)
    grid = np.concatenate([rng.uniform(1e-3, np.pi, 200), [1e-9, np.pi]])
    basis = BlochBasis(theta=grid)
    stacked = discrimination_povm(basis)
    states = rng.normal(size=(len(grid), 2)) + 1j * rng.normal(size=(len(grid), 2))
    on_psi0 = inconclusive_probability(stacked, basis.psi0)
    on_psi1 = inconclusive_probability(stacked, basis.psi1)
    one = discrimination_povm(BlochBasis(theta=1.1))
    on_states = inconclusive_probability(one, states)
    assert on_psi0.shape == on_psi1.shape == on_states.shape == grid.shape
    for k, theta in enumerate(grid):
        b = BlochBasis(theta=float(theta))
        povm = discrimination_povm(b)
        assert on_psi0[k] == inconclusive_probability(povm, b.psi0)
        assert on_psi1[k] == inconclusive_probability(povm, b.psi1)
        assert on_states[k] == inconclusive_probability(one, states[k])


def test_povm_outcome_probabilities_sum_to_one():
    b = BlochBasis(theta=1.7)
    povm = discrimination_povm(b)
    for state in (b.psi0, b.psi1):
        total = sum(_p(e, state) for e in povm.effects)
        assert total == pytest.approx(1.0, abs=1e-13)


# ----------------------------------------------------------------- NOT gate


def test_not_gate_forward_is_exact():
    for theta in (0.5, 1.5, np.pi):
        rep = not_gate_roundtrip(BlochBasis(theta=theta), 1.0)
        assert rep.forward_residual < 1e-15


def test_not_gate_roundtrip_fidelity_is_overlap_magnitude():
    for theta in (0.4, np.pi / 2.0, 2.5, np.pi):
        rep = not_gate_roundtrip(BlochBasis(theta=theta), 1.0)
        assert rep.roundtrip_fidelity == pytest.approx(abs(np.cos(theta)), abs=1e-12)


def test_not_gate_half_angle_pair_is_fully_scrambled():
    rep = not_gate_roundtrip(BlochBasis(theta=np.pi / 2.0), 1.0)
    assert rep.roundtrip_fidelity == pytest.approx(0.0, abs=1e-15)


def test_not_gate_time_is_half_period_for_every_angle():
    for theta in (0.2, 1.0, 3.0):
        for omega in (0.5, 1.0, 4.0):
            rep = not_gate_roundtrip(BlochBasis(theta=theta), omega)
            assert rep.tau_not == pytest.approx(np.pi / omega, rel=1e-15)
    for bad in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega"):
            not_gate_roundtrip(BlochBasis(theta=1.0), bad)


def test_cloning_defect_profile():
    # |a - a^2| with a = cos(theta/2): zero only at the orthogonal end,
    # maximal (1/4) at a = 1/2
    assert cloning_defect(BlochBasis(theta=np.pi)) == pytest.approx(0.0, abs=1e-15)
    assert cloning_defect(BlochBasis(theta=2.0 * np.pi / 3.0)) == pytest.approx(0.25, abs=1e-14)
    for theta in (0.3, 1.0, 2.0, 2.8):
        a = np.cos(0.5 * theta)
        got = cloning_defect(BlochBasis(theta=theta))
        assert got == pytest.approx(abs(a - a * a), abs=1e-13)
        assert got > 0.0


# ---------------------------------------------------------------- control-U


def test_control_u_aligned_orthogonal_saturates_the_bound():
    rep = control_u_channel(BlochBasis(theta=np.pi), 0.0)
    assert rep.p == pytest.approx(1.0, abs=1e-15)
    assert rep.q == pytest.approx(1.0, abs=1e-15)
    assert rep.bound_rhs == pytest.approx(rep.bound_lhs, abs=1e-12)
    assert rep.decomposition_residual < 1e-12


def test_control_u_bisecting_placement_also_saturates():
    # control basis bisecting the pair: p = q = cos^2(pi/8) and the three
    # angles add up to exactly pi/2
    rep = control_u_channel(BlochBasis(theta=np.pi / 2.0), -np.pi / 4.0)
    assert rep.p == pytest.approx(0.8535533905932737, abs=1e-12)
    assert rep.q == pytest.approx(0.8535533905932737, abs=1e-12)
    assert rep.bound_rhs == pytest.approx(np.pi / 2.0, abs=1e-12)


def test_control_u_bound_never_violated_random_sweep():
    rng = np.random.default_rng(424242)
    for _ in range(100):
        theta = rng.uniform(1e-3, np.pi)
        alpha = rng.uniform(-np.pi, np.pi)
        rep = control_u_channel(BlochBasis(theta=theta), alpha)
        assert rep.bound_rhs >= rep.bound_lhs - 1e-12
        assert rep.slack == rep.bound_rhs - rep.bound_lhs


def test_control_u_outputs_are_unit_trace_states():
    rep = control_u_channel(BlochBasis(theta=1.2), 0.7)
    for out in (rep.output_psi0, rep.output_psi1):
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(out - np.conj(out).T) < 1e-12
        assert float(np.linalg.eigvalsh(out).min()) > -1e-12


def test_control_u_generic_placement_misses_projector_mixture():
    rep = control_u_channel(BlochBasis(theta=1.2), 0.7)
    assert rep.decomposition_residual > 1e-2


def test_control_u_decomposition_holds_at_orthogonal_pair():
    rep = control_u_channel(BlochBasis(theta=np.pi), 0.0)
    assert rep.decomposition_residual < 1e-12


def test_control_u_validation():
    with pytest.raises(ValueError, match="finite"):
        control_u_channel(BlochBasis(theta=1.0), np.inf)


# --------------------------------------------------------------- efficiency


def test_efficiency_bound_orthogonal_pair():
    rep = efficiency_bound(BlochBasis(theta=np.pi), 1.0)
    assert rep.epsilon == pytest.approx(np.pi / 2.0, abs=1e-15)
    assert rep.delta_e == 1.0
    assert rep.delta_t == pytest.approx(np.pi, abs=1e-15)


def test_efficiency_bound_saturates_for_minimal_transfers():
    for theta in (0.3, 1.1, 2.6):
        for omega in (0.5, 2.0):
            b = BlochBasis(theta=theta)
            rep = efficiency_bound(b, omega)
            assert rep.delta_t == pytest.approx((2.0 / rep.delta_e) * rep.epsilon, rel=1e-15)
            assert rep.bound_rhs == 2.0 * rep.epsilon / rep.delta_e
            assert rep.slack == rep.delta_t - rep.bound_rhs
            assert abs(rep.slack) <= 1e-15 * rep.delta_t
            # dual route: the angular distance clocked by the transfer itself
            assert rep.delta_t == pytest.approx(minimal_time(b.psi0, b.psi1, omega), abs=1e-12)


def test_efficiency_bound_validation():
    for bad in (-1.0, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="omega"):
            efficiency_bound(BlochBasis(theta=1.0), bad)
