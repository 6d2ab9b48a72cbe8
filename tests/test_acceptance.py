"""Acceptance gate: the thirteen numbered guarantees the package ships under.

One test per criterion, tolerances pinned in the bodies, so ``pytest -v``
emits exactly one pass/fail line for each.  Every body also prints an
``ACCEPTANCE nn <tag>: PASS`` / ``FAIL`` line (visible with ``-s`` and in
failure reports); a criterion with a wall-clock budget appends
``(elapsed/budget s)``.  The module is self-contained.  It takes 3-6 s on a
2-core x86 machine (Python 3.11, numpy 2.4); criterion 02 takes about 1 s and
criterion 03 1-2 s.

Criterion 5 pins the peak of the dissipative factor D(f) = (1/f) e^{-(1/f + f)}
to its closed form: d/df ln D = -1/f + 1/f^2 - 1 = 0 gives f^2 + f - 1 = 0, so
the only maximum is at f* = (sqrt(5) - 1)/2 = 1/phi, and since
phi + 1/phi = sqrt(5) its height is D(f*) = phi e^{-sqrt(5)} = 0.17293211636...

Criterion 13 checks the metric-invariant reading of the speed-up
(Mostafazadeh, PRL 99, 130502, 2007): a metric-aligned drive of gap omega
passes from x to y in (2/omega) times their angle in the metric geometry, so
the passage is the Hermitian one measured with eta, however fast it looks in
the Euclidean geometry, and the two readings meet at eta = I.
"""

import math
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from tachys.brachistochrone import first_passage_scan, minimal_time, transfer
from tachys.dilation import build_dilation, evolve_dilated, visibility_ratio
from tachys.gates import (
    BlochBasis,
    cloning_defect,
    control_u_channel,
    discrimination_povm,
    efficiency_bound,
    inconclusive_probability,
    not_gate_roundtrip,
)
from tachys.metric import diag_metric, metric_angle, metric_from_matrix, metric_from_sqrt, quasi_hamiltonian, state_angle
from tachys.opendyn import (
    aligned_hamiltonian,
    dissipative_factor,
    energy_gap_squared,
    evolve_semigroup,
    map_boundary_states,
    shifted_generator,
    split_generator,
)
from tachys.smallmat import PAULI_X, PAULI_Y, PAULI_Z, propagator
from support import E0, E1, bloch


@contextmanager
def _verdict(tag: str, budget: float | None = None):
    """Print the criterion's PASS/FAIL line; with the wall-clock budget its
    body asserts, the line also shows elapsed/budget in seconds."""
    start = time.perf_counter()

    def line(verdict):
        timing = "" if budget is None else f" ({time.perf_counter() - start:.3f}/{budget:g} s)"
        return f"ACCEPTANCE {tag}: {verdict}{timing}"

    try:
        yield
    except BaseException:
        print(line("FAIL"))
        raise
    print(line("PASS"))


def _pauli_sum(vec) -> np.ndarray:
    return vec[0] * PAULI_X + vec[1] * PAULI_Y + vec[2] * PAULI_Z


# --------------------------------------------------------------- shared data


@lru_cache(maxsize=1)
def _optimality_sweep():
    """200 random (target, omega) pairs x 50 random drives with the same gap.

    Forty drives per target take a uniformly random rotation axis; those
    essentially never reach the target to within the passage threshold and
    exercise the bound vacuously.  The remaining ten draw their axis from the
    plane of axes whose orbits run through the target exactly (any axis
    equidistant from the two Bloch points), tilted away from the great-circle
    optimum, so each one yields a genuine passage strictly after the minimal
    time.  Returns the list of (passage time, minimal time) pairs and the
    largest amount by which any passage undercut the minimal time.
    """
    rng = np.random.default_rng(20260815)
    found = []
    worst_beat = 0.0
    for _ in range(200):
        theta = rng.uniform(0.05, np.pi)
        alpha, beta = rng.uniform(-np.pi, np.pi, size=2)
        omega = rng.uniform(0.3, 3.0)
        v = bloch(theta, alpha, beta)
        tau = minimal_time(E0, v, omega)
        a, b = v
        p = np.array(
            [
                2.0 * (np.conj(a) * b).real,
                2.0 * (np.conj(a) * b).imag,
                abs(a) ** 2 - abs(b) ** 2,
            ]
        )
        z = np.array([0.0, 0.0, 1.0])
        e1 = np.cross(z, p)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(z - p, e1)
        e2 /= np.linalg.norm(e2)
        for k in range(50):
            shift = rng.normal()
            if k < 40:
                axis = rng.normal(size=3)
            else:
                phi = rng.uniform(0.05, 1.4)
                axis = np.cos(phi) * e1 + np.sin(phi) * e2
            axis = axis / np.linalg.norm(axis) * 0.5 * omega
            h = shift * np.eye(2) + _pauli_sum(axis)
            t = first_passage_scan(h, E0, v, t_max=1.02 * 2.0 * np.pi / omega, steps=1500)
            if t is not None:
                found.append((t, tau))
                worst_beat = max(worst_beat, tau - t)
    return tuple(found), worst_beat


@lru_cache(maxsize=1)
def _trace_family_stats():
    """100 random metric-Hermitian generators, one trace period each.

    Returns the worst central-difference defect of the trace-rate law, the
    both-sides flag (every trajectory's trace exceeds 1 and dips below 1),
    the worst deviation of the damped run from (plain run) x k(t), and the
    largest trace any damped run ever attains.
    """
    rng = np.random.default_rng(31415)
    worst_law = 0.0
    both_sides = True
    worst_tie = 0.0
    max_shifted = 0.0
    for _ in range(100):
        omega = rng.uniform(0.5, 2.0)
        f = rng.uniform(0.8, 2.5)
        gmag = rng.uniform(0.15, 0.7) * np.sqrt(f)
        g = gmag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        m = metric_from_sqrt(f, g)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        qh = quasi_hamiltonian(0.5 * omega * _pauli_sum(n), m, omega)
        vpsi = rng.normal(size=2) + 1j * rng.normal(size=2)
        vpsi /= np.linalg.norm(vpsi)
        rho0 = np.outer(vpsi, vpsi.conj())
        ts = np.linspace(0.0, 2.0 * np.pi / omega, 24001)
        run = evolve_semigroup(qh.operator, rho0, ts)
        split = split_generator(qh.operator)
        dt = ts[1] - ts[0]
        fd = (run.trace_values[2:] - run.trace_values[:-2]) / (2.0 * dt)
        law = 2.0 * np.real(np.einsum("ij,tji->t", split.drift, run.rhos[1:-1]))
        worst_law = max(worst_law, float(np.max(np.abs(fd - law))))
        both_sides &= bool(run.trace_values.max() > 1.0 and run.trace_values.min() < 1.0)
        shifted, _ = shifted_generator(qh.operator)
        damped = evolve_semigroup(shifted, rho0, ts)
        tied = run.trace_values * run.k_values
        worst_tie = max(worst_tie, float(np.max(np.abs(damped.trace_values - tied))))
        max_shifted = max(max_shifted, float(damped.trace_values.max()))
    return worst_law, both_sides, worst_tie, max_shifted


# ------------------------------------------------------------------ criteria


def test_criterion_01_orthogonal_transfer_time():
    with _verdict("01 orthogonal-transfer-time", budget=1.0):
        start = time.perf_counter()
        tau = minimal_time(E0, E1, 1.0)
        assert abs(tau - np.pi) <= 1e-10
        h = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        t = first_passage_scan(h, E0, E1, t_max=1.2 * np.pi, steps=4000)
        assert t is not None
        assert abs(t - np.pi) <= 1e-8
        assert time.perf_counter() - start < 1.0


def test_criterion_02_no_drive_beats_minimal_time():
    with _verdict("02 no-drive-beats-minimal-time", budget=30.0):
        start = time.perf_counter()
        found, worst_beat = _optimality_sweep()
        assert len(found) > 0, "the sweep must produce some passages"
        assert worst_beat <= 1e-8
        assert time.perf_counter() - start < 30.0


def test_criterion_03_trace_derivative_law():
    with _verdict("03 trace-derivative-law", budget=10.0):
        start = time.perf_counter()
        worst_law, both_sides, _, _ = _trace_family_stats()
        elapsed = time.perf_counter() - start
        assert worst_law <= 1e-6
        assert both_sides, "every trajectory must cross trace 1 in both directions"
        assert elapsed < 10.0


def test_criterion_04_shifted_trajectory_factor():
    with _verdict("04 shifted-trajectory-factor"):
        _, _, worst_tie, max_shifted = _trace_family_stats()
        assert worst_tie <= 1e-9
        assert max_shifted <= 1.0 + 1e-10


def test_criterion_05_dissipative_factor_peak():
    with _verdict("05 dissipative-factor-peak", budget=1.0):
        start = time.perf_counter()
        assert abs(dissipative_factor(1.0) - np.exp(-2.0)) <= 1e-12
        res = minimize_scalar(
            lambda x: -dissipative_factor(x),
            bracket=(0.3, 0.7, 1.5),
            method="golden",
            options={"xtol": 1e-12},
        )
        f_star = float(res.x)
        d_star = float(-res.fun)
        assert d_star < 0.2
        assert abs(f_star - 0.6180) <= 0.0005
        assert time.perf_counter() - start < 1.0
        # closed form: f* = 1/phi, D(f*) = phi e^{-sqrt(5)} (module docstring)
        phi = 0.5 * (1.0 + math.sqrt(5.0))
        f_exact = 0.5 * (math.sqrt(5.0) - 1.0)
        d_exact = phi * math.exp(-math.sqrt(5.0))
        assert abs(f_star - f_exact) <= 1e-6, (
            f"peak location {f_star:.12f} differs from (sqrt(5)-1)/2 = {f_exact:.12f}"
        )
        assert abs(d_star - d_exact) <= 1e-12, (
            f"peak height {d_star:.16f} at f = {f_star:.12f} differs from the "
            f"closed form phi*exp(-sqrt(5)) = {d_exact:.16f}"
        )


def test_criterion_06_energy_divergence_near_degeneracy():
    with _verdict("06 energy-divergence", budget=5.0):
        start = time.perf_counter()
        gaps = []
        for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            m = metric_from_sqrt(1.0, np.sqrt(1.0 - delta))
            qh = aligned_hamiltonian(m, 1.0, E0, E1)
            gaps.append(energy_gap_squared(split_generator(qh.operator).coherent))
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] > 1e6
        assert time.perf_counter() - start < 5.0


def test_criterion_07_dilation_exactness():
    with _verdict("07 dilation-exactness", budget=10.0):
        start = time.perf_counter()
        rng = np.random.default_rng(271828)
        worst_embed = 0.0
        worst_unitarity = 0.0
        worst_hermiticity = 0.0
        for _ in range(50):
            omega = rng.uniform(0.5, 2.5)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            h = 0.5 * omega * _pauli_sum(n)
            f = rng.uniform(0.8, 2.5)
            gmag = rng.uniform(0.1, 0.7) * np.sqrt(f)
            g = gmag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            m = metric_from_sqrt(f, g)
            model = build_dilation(h, m, omega)
            qh = quasi_hamiltonian(h, m, omega)
            vmat = model.extended_vectors
            worst_unitarity = max(
                worst_unitarity,
                float(np.linalg.norm(vmat.conj().T @ vmat - np.eye(4))),
            )
            worst_hermiticity = max(
                worst_hermiticity,
                float(np.linalg.norm(model.hamiltonian - model.hamiltonian.conj().T)),
            )
            for t in np.linspace(0.0, 2.0 * np.pi / omega, 100):
                _, observed = evolve_dilated(model, E0, float(t))
                direct = propagator(qh.operator, float(t)) @ E0
                worst_embed = max(worst_embed, float(np.linalg.norm(observed - direct)))
        assert worst_embed < 1e-8
        assert worst_unitarity <= 1e-10
        assert worst_hermiticity <= 1e-12
        assert time.perf_counter() - start < 10.0


def test_criterion_08_visibility_collapse_tradeoff():
    with _verdict("08 visibility-collapse"):
        for f in (1.0, 1.3):
            previous = None
            for delta in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3):
                m = metric_from_sqrt(f, np.sqrt(f - delta))
                det = float(np.linalg.det(m.eta).real)
                vis = visibility_ratio(metric_from_matrix(m.eta / det), E0)
                if previous is not None:
                    assert vis < previous
                previous = vis
                # the fast transfer stays fast while visibility collapses
                _, _, a_prime = map_boundary_states(m, E0, E1)
                tau = 2.0 * np.arccos(min(a_prime, 1.0))
                assert tau < 0.1 * np.pi
            assert previous < 1e-3


def test_criterion_09_discrimination_povm_audit():
    with _verdict("09 discrimination-povm-audit", budget=1.0):
        start = time.perf_counter()
        for k in range(1, 65):
            theta = k * np.pi / 64.0
            basis = BlochBasis(theta=theta)
            povm = discrimination_povm(basis)
            assert povm.completeness_defect <= 1e-12
            assert povm.min_eigenvalue >= -1e-12
            want = np.cos(0.5 * theta)
            assert abs(inconclusive_probability(povm, basis.psi0) - want) <= 1e-12
            assert abs(inconclusive_probability(povm, basis.psi1) - want) <= 1e-12
            eff0 = povm.effects[povm.labels.index("0")]
            eff1 = povm.effects[povm.labels.index("1")]
            assert float(np.vdot(basis.psi1, eff0 @ basis.psi1).real) < 1e-14
            assert float(np.vdot(basis.psi0, eff1 @ basis.psi0).real) < 1e-14
        assert time.perf_counter() - start < 1.0


def test_criterion_10_not_gate_parity_and_cloning():
    with _verdict("10 not-gate-parity-and-cloning"):
        for omega in (0.7, 1.0, 2.3):
            for theta in np.linspace(0.05, np.pi, 40):
                rep = not_gate_roundtrip(BlochBasis(theta=float(theta)), omega)
                assert abs(rep.tau_not - np.pi / omega) <= 1e-12
                assert abs(rep.roundtrip_fidelity - abs(np.cos(theta))) <= 1e-12
        for theta in np.linspace(0.2, np.pi - 0.2, 30):
            assert cloning_defect(BlochBasis(theta=float(theta))) > 0.0
        assert cloning_defect(BlochBasis(theta=np.pi)) <= 1e-15
        # overlap 1 is only reachable as a limit: at theta = 1e-8 the overlap
        # rounds to exactly 1 and the defect to exactly 0
        assert cloning_defect(BlochBasis(theta=1e-8)) == 0.0


def test_criterion_11_control_channel_triangle_bound():
    with _verdict("11 control-channel-triangle-bound"):
        rng = np.random.default_rng(424242)
        worst_slack = np.inf
        for _ in range(1000):
            theta = rng.uniform(0.02, np.pi)
            polar = rng.uniform(-np.pi, np.pi)
            rep = control_u_channel(BlochBasis(theta=theta), polar)
            worst_slack = min(worst_slack, rep.bound_rhs - rep.bound_lhs)
        assert worst_slack >= -1e-12
        aligned = control_u_channel(BlochBasis(theta=np.pi), 0.0)
        assert abs(aligned.bound_rhs - aligned.bound_lhs) <= 1e-9


def test_criterion_12_time_energy_efficiency_inequality():
    with _verdict("12 time-energy-efficiency"):
        rng = np.random.default_rng(99)
        worst_eq = 0.0
        for _ in range(20):
            theta = rng.uniform(0.1, np.pi)
            alpha, beta = rng.uniform(-np.pi, np.pi, size=2)
            omega = rng.uniform(0.4, 2.5)
            v = bloch(theta, alpha, beta)
            res = transfer(v, omega)
            epsilon = float(np.arccos(np.clip(abs(res.overlap), 0.0, 1.0)))
            rhs = 2.0 * epsilon / omega
            t = first_passage_scan(
                res.drive.matrix, E0, v, t_max=1.2 * res.tau + 0.5, steps=2500
            )
            assert t is not None
            worst_eq = max(worst_eq, abs(t - rhs))
        assert worst_eq <= 1e-10
        found, _ = _optimality_sweep()
        assert len(found) > 0
        assert all(t > tau for t, tau in found), "suboptimal passages must be strictly late"
        # the report-level bound agrees with the transfer-time route
        for omega in (0.7, 1.3):
            for theta in np.linspace(0.1, np.pi, 25):
                basis = BlochBasis(theta=float(theta))
                report = efficiency_bound(basis, omega)
                direct = minimal_time(basis.psi0, basis.psi1, omega)
                assert abs(report.delta_t - direct) <= 1e-12


def test_criterion_13_metric_invariant_passage_time():
    with _verdict("13 metric-invariant-passage-time", budget=1.0):
        start = time.perf_counter()
        rng = np.random.default_rng(13)

        def passage(m, omega, x, y):
            h = aligned_hamiltonian(m, omega, x, y).operator
            return first_passage_scan(h, x, y, t_max=1.5 * np.pi / omega, steps=2000)

        def pair():
            return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

        # the passage time is the metric angle over omega/2, |g|^2 = f - p
        for p in (1e-1, 1e-2, 1e-3):
            for _ in range(40):
                f = rng.uniform(0.5, 3.0)
                m = metric_from_sqrt(f, math.sqrt(f - p) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
                (x, y), omega = pair(), rng.uniform(0.5, 2.0)
                want = 2.0 / omega * metric_angle(x, y, m)
                assert abs(passage(m, omega, x, y) - want) <= 1e-10 * want, (p, f)
        # the same passage of the canonical pair looks far faster than pi/omega
        for p, bound in ((1e-1, 0.1), (1e-2, 0.01), (1e-3, 0.001)):
            for _ in range(40):
                f = rng.uniform(0.5, 3.0)
                assert passage(metric_from_sqrt(f, math.sqrt(f - p)), 1.0, E0, E1) < bound * np.pi, (p, f)
        # at eta = I the two readings meet
        flat = diag_metric(1.0)
        for _ in range(40):
            (x, y), omega = pair(), rng.uniform(0.5, 2.0)
            angle = state_angle(x, y)
            assert abs(metric_angle(x, y, flat) - angle) <= 1e-12
            assert abs(passage(flat, omega, x, y) - 2.0 / omega * angle) <= 1e-12 * (2.0 / omega * angle)
        assert time.perf_counter() - start < 1.0
