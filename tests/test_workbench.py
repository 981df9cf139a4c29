"""Protocol propagators, conditional thermal states, and work bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ergokit import (
    DensityMatrix,
    DrivingProtocol,
    HermitianOperator,
    WorkReport,
    conditional_thermal_state,
    eigendecompose,
    evolve_unitary,
    gibbs_state,
    quantum_relative_entropy,
    sharpened_bound_report,
    step_product,
)
from ergokit import _threads, workbench
from ergokit.errors import InvariantViolation, NotConverged, OutOfScope, require
from ergokit.quantum import _gibbs_logs, _spectra, _stack_of
from ergokit.sampling import random_hermitian, stream
from ergokit.workbench import _bound_checks, _bound_reports, _evolve_all, magnus_product
from haar import haar_unitaries

H_A = HermitianOperator(np.diag([0.0, 1.0]))
H_B = HermitianOperator(np.array([[0.0, 0.5], [0.5, 1.0]]))
SIGMA_X = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestProtocol:
    def test_custom_endpoints_must_match(self):
        # the endpoints are the first and last knots, and interpolation meets them
        protocol = DrivingProtocol(((0.0, H_A), (0.4, SIGMA_X), (1.0, H_B)))
        assert protocol.initial is H_A and protocol.final is H_B and protocol.tau == 1.0
        assert np.allclose(protocol.hamiltonian_at(0.0), H_A.matrix)
        assert np.allclose(protocol.hamiltonian_at(1.0), H_B.matrix)
        mid = protocol.hamiltonian_at(0.2)
        assert np.allclose(mid, 0.5 * H_A.matrix + 0.5 * SIGMA_X.matrix)

    def test_knots_must_share_one_dimension(self):
        h_3 = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="dimension"):
            DrivingProtocol(((0.0, H_A), (0.5, h_3), (1.0, H_B)))

    @pytest.mark.parametrize(
        "times", [(0.5, 0.0), (0.0, 0.6, 0.4), (0.0,)], ids=["late_start", "falling", "one_knot"]
    )
    def test_knot_times_must_rise_from_zero(self, times):
        with pytest.raises(ValueError, match="rising from 0"):
            DrivingProtocol(tuple((t, H_A) for t in times))

    def test_schedule_ending_in_a_jump_ends_at_final(self):
        protocol = DrivingProtocol(((0.0, H_A), (1.0, SIGMA_X), (1.0, H_B)))
        assert protocol.final is H_B
        assert np.array_equal(protocol.hamiltonian_at(1.0), H_B.matrix)
        assert np.array_equal(protocol.hamiltonian_at(0.5), 0.5 * (H_A.matrix + SIGMA_X.matrix))

    def test_sudden_is_a_jump_at_time_zero(self):
        protocol = DrivingProtocol.sudden(H_A, H_B)
        assert protocol.knots == ((0.0, H_A), (0.0, H_B))
        assert protocol.tau == 0.0
        assert np.array_equal(protocol.hamiltonian_at(0.0), H_B.matrix)

    def test_linear_ramp_interpolates(self):
        protocol = DrivingProtocol.linear_ramp(H_A, H_B, 2.0)
        assert np.allclose(protocol.hamiltonian_at(1.0), 0.5 * (H_A.matrix + H_B.matrix))

    @pytest.mark.parametrize(
        "protocol",
        [
            DrivingProtocol.sudden(H_A, H_B),
            DrivingProtocol.linear_ramp(H_A, H_B, 2.0),
            DrivingProtocol(((0.0, H_A), (0.4, SIGMA_X), (0.4, H_A), (1.0, H_B))),
        ],
        ids=["sudden", "linear_ramp", "custom"],
    )
    def test_array_of_times_stacks_the_scalar_calls(self, protocol):
        times = np.array([[-0.1, 0.0, 0.13, 0.4], [0.57, 0.9, 1.0, 2.5]])
        stacked = protocol.hamiltonian_at(times)
        assert stacked.shape == (2, 4, 2, 2)
        for index, t in np.ndenumerate(times):
            assert np.array_equal(stacked[index], protocol.hamiltonian_at(float(t)))


class TestEvolveUnitary:
    def test_sudden_is_identity(self):
        u = evolve_unitary(DrivingProtocol.sudden(H_A, H_B))
        assert np.array_equal(u, np.eye(2))

    def test_constant_hamiltonian_is_exact(self):
        h = random_hermitian(3, stream(0))
        protocol = DrivingProtocol.linear_ramp(h, h, 0.9)
        one_step = step_product(protocol, 1)
        many_steps = step_product(protocol, 57)
        exact = expm(-1j * 0.9 * h.matrix)
        assert np.max(np.abs(one_step - exact)) < 1e-10
        assert np.max(np.abs(many_steps - exact)) < 1e-10

    def test_second_order_richardson_ratio(self):
        protocol = DrivingProtocol.linear_ramp(H_A, SIGMA_X, 3.0)
        u1 = step_product(protocol, 32)
        u2 = step_product(protocol, 64)
        u3 = step_product(protocol, 128)
        coarse = np.max(np.abs(u2 - u1))
        fine = np.max(np.abs(u3 - u2))
        assert coarse / fine == pytest.approx(4.0, rel=0.3)

    def test_magnus_fourth_order_richardson_ratio(self):
        protocol = DrivingProtocol.linear_ramp(H_A, SIGMA_X, 3.0)
        u1, u2, u3 = (magnus_product(protocol, n) for n in (16, 32, 64))
        coarse = np.max(np.abs(u2 - u1))
        fine = np.max(np.abs(u3 - u2))
        assert coarse / fine == pytest.approx(16.0, rel=0.3)

    def test_magnus_keeps_fourth_order_across_schedule_kinks(self):
        # The kink at t = 1.1 falls inside a step of a uniform 16-, 32- or
        # 64-step grid; knot-aligned steps keep every Gauss node off it.
        protocol = DrivingProtocol(((0.0, H_A), (1.1, SIGMA_X), (3.0, H_B)))
        u1, u2, u3 = (magnus_product(protocol, n) for n in (16, 32, 64))
        coarse = np.max(np.abs(u2 - u1))
        fine = np.max(np.abs(u3 - u2))
        assert coarse / fine == pytest.approx(16.0, rel=0.3)

    def test_magnus_matches_extrapolated_midpoint_reference(self):
        h_a = random_hermitian(4, stream(11, 0))
        h_b = random_hermitian(4, stream(11, 1))
        protocol = DrivingProtocol.linear_ramp(h_a, h_b, 1.3)
        reference = (4.0 * step_product(protocol, 1024) - step_product(protocol, 512)) / 3.0
        assert np.max(np.abs(magnus_product(protocol, 256) - reference)) < 1e-10
        assert np.max(np.abs(step_product(protocol, 256) - reference)) > 1e-6

    def test_unitarity_defect(self):
        protocol = DrivingProtocol.linear_ramp(H_A, SIGMA_X, 5.0)
        u = step_product(protocol, 401)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-9

    def test_interval_commutators_equal_the_node_sampled_generators(self):
        # Unequal intervals and a jump at t = 0.7; the reference samples H at each step's
        # Gauss nodes and takes each step's own commutator.
        h = [random_hermitian(5, stream(12, k)) for k in range(5)]
        protocol = DrivingProtocol(
            ((0.0, h[0]), (0.25, h[1]), (0.7, h[2]), (0.7, h[3]), (1.6, h[4])))
        for n_steps in (1, 7, 64):
            counts = workbench._step_counts(protocol._times, n_steps)
            dt = np.repeat(np.diff(protocol._times) / counts, counts)[:, None, None]
            start = np.repeat(protocol._times[:-1], counts)
            index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            nodes = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
            h1, h2 = (protocol.hamiltonian_at(start + (index + c) * dt[:, 0, 0]) for c in nodes)
            reference = 0.5 * dt * (h1 + h2) - 1j * math.sqrt(3.0) / 12.0 * dt**2 * (
                h2 @ h1 - h1 @ h2)
            generators = workbench._magnus_generators((protocol._times, protocol._matrices),
                                                      n_steps)
            scale = np.abs(reference).max(axis=(1, 2), keepdims=True)
            jump = np.flatnonzero(dt[:, 0, 0] == 0.0)
            assert len(jump) == 1 and not generators[jump].any()  # the jump's step is exp(0) = I
            scale[jump] = 1.0
            assert np.all(np.abs(generators - reference) <= 1e-15 * scale)

    def test_refinement_gate(self):
        protocol = DrivingProtocol.linear_ramp(H_A, SIGMA_X, 1.0)
        u = evolve_unitary(protocol, n_steps=8, tol=1e-8)
        reference = evolve_unitary(protocol, n_steps=1024, tol=1e-10)
        assert np.max(np.abs(u - reference)) < 1e-6

    def test_a_ramp_that_misses_the_gate_raises_not_converged(self, monkeypatch):
        # Levels 12 apart coupled by 12 (TestBlocks' slow ramp) miss the 1e-6 gate at
        # (32, 64) steps, and one doubling is all that is allowed.
        monkeypatch.setattr(workbench, "MAX_DOUBLINGS", 1)
        slow = DrivingProtocol.linear_ramp(
            HermitianOperator(12.0 * np.diag(np.arange(3.0))),
            HermitianOperator(12.0 * (np.eye(3, k=1) + np.eye(3, k=-1))), 1.5)
        with pytest.raises(NotConverged, match="did not converge to 1e-06 within 64 steps"):
            evolve_unitary(slow, n_steps=32, tol=1e-6)


class TestPropagatorAccuracy:
    """REFERENCES holds (bound, w_irr) of a tau = 1.5 ramp from random_hermitian(d,
    stream(0, 0)) to random_hermitian(d, stream(0, 1)) at beta = 1, driven by a 4 096-step
    Magnus product (n = 2 048 at d = 64), whose step error is below 1e-12::

        protocol = DrivingProtocol.linear_ramp(random_hermitian(d, stream(0, 0)),
                                               random_hermitian(d, stream(0, 1)), 1.5)
        report = sharpened_bound_report(protocol, magnus_product(protocol, n), 1.0)
        print(repr(report.bound), repr(report.w_irr))
    """

    REFERENCES = {
        4: ("0.5708833257645192", "0.826403642681188"),
        16: ("2.2899377879074523", "2.8448774273202586"),
        64: ("3.6104380419561046", "3.9454474902611394"),
    }

    @pytest.mark.parametrize("dim, atol", [(4, 1e-10), (16, 1e-10), (64, 2e-10)])
    def test_otm_propagator_meets_a_converged_reference(self, dim, atol):
        # The propagator otm runs: doubling from (32, 64) to a 1e-6 gate, then extrapolated.
        # Without the extrapolation, the accepted U_2n is off by 1e-9 to 1e-7 here.
        protocol = DrivingProtocol.linear_ramp(
            random_hermitian(dim, stream(0, 0)), random_hermitian(dim, stream(0, 1)), 1.5)
        report = sharpened_bound_report(protocol, evolve_unitary(protocol, 32, 1e-6), 1.0)
        bound, w_irr = map(float, self.REFERENCES[dim])
        assert abs(report.bound - bound) <= atol
        assert abs(report.w_irr - w_irr) <= atol


class TestConditionalThermalState:
    def test_trivial_driving_reduces_to_gibbs(self):
        state = conditional_thermal_state(H_A, H_A, np.eye(2, dtype=complex), 1.0)
        g = gibbs_state(H_A, 1.0)
        assert np.max(np.abs(state.rho.matrix - g.rho.matrix)) < 1e-10
        assert state.log_conditional_z == pytest.approx(g.log_z, abs=1e-12)

    def test_identity_driving_uses_diagonal_energies(self):
        state = conditional_thermal_state(H_A, H_B, np.eye(2, dtype=complex), 1.0)
        z = 1.0 + math.exp(-1.0)
        assert np.allclose(state.h_values, [0.0, 1.0], atol=1e-12)
        assert np.allclose(state.weights, [1.0 / z, math.exp(-1.0) / z], atol=1e-12)
        assert state.log_conditional_z == pytest.approx(math.log(z), abs=1e-12)

    def test_eigenvalues_equal_weights(self):
        u = haar_unitaries(3, 1, stream(1))[0]
        h_a = random_hermitian(3, stream(2))
        h_b = random_hermitian(3, stream(3))
        state = conditional_thermal_state(h_a, h_b, u, 0.8)
        eigs = np.sort(np.linalg.eigvalsh(state.rho.matrix))
        assert np.max(np.abs(eigs - np.sort(state.weights))) < 1e-9

    def test_log_partition_identity(self):
        # S(conditional||gibbs_B) = ln Z_B - ln Z(B|A), for any driving.
        for trial in range(40):
            dim = 2 + trial % 2
            u = haar_unitaries(dim, 1, stream(4, trial))[0]
            h_a = random_hermitian(dim, stream(5, trial))
            h_b = random_hermitian(dim, stream(6, trial))
            beta = (0.5, 1.0, 2.0)[trial % 3]
            state = conditional_thermal_state(h_a, h_b, u, beta)
            g_b = gibbs_state(h_b, beta)
            lhs = quantum_relative_entropy(state.rho, g_b.rho)
            assert lhs == pytest.approx(g_b.log_z - state.log_conditional_z, abs=1e-9)

    @pytest.mark.parametrize("beta", [0.03, 0.1, 0.7, 70.0])
    def test_weights_are_the_gibbs_logs_of_the_conditional_energies(self, beta):
        u = haar_unitaries(3, 1, stream(1))[0]
        state = conditional_thermal_state(random_hermitian(3, stream(2)),
                                          random_hermitian(3, stream(3)), u, beta)
        log_z, _, weights = _gibbs_logs(state.h_values[None], beta)
        assert np.array_equal(state.weights, weights[0])
        assert state.log_conditional_z == float(log_z[0])

    def test_an_underflowing_weight_is_out_of_scope(self):
        # beta times the spread of h is 800, past the ~745 at which exp underflows to zero:
        # the conditional state is refused as the Gibbs state of the same spectrum is.
        h_b = HermitianOperator(np.diag([0.0, 1.0]))
        with pytest.raises(OutOfScope) as gibbs:
            gibbs_state(h_b, 800.0)
        with pytest.raises(OutOfScope) as conditional:
            conditional_thermal_state(H_A, h_b, np.eye(2, dtype=complex), 800.0)
        assert str(conditional.value) == str(gibbs.value)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            conditional_thermal_state(H_A, H_B, np.diag([1.0, 2.0]).astype(complex), 1.0)

    def test_degeneracy_flag(self):
        degenerate = HermitianOperator(np.diag([0.0, 0.0, 1.0]))
        state = conditional_thermal_state(degenerate, degenerate, np.eye(3, dtype=complex), 1.0)
        assert state.degenerate_initial


class TestWorkAccounting:
    def test_no_driving_no_work(self):
        report = sharpened_bound_report(DrivingProtocol.sudden(H_A, H_A), np.eye(2, dtype=complex), 1.0)
        assert report.avg_work == pytest.approx(0.0, abs=1e-12)
        assert report.delta_f == pytest.approx(0.0, abs=1e-12)
        assert report.w_irr == pytest.approx(0.0, abs=1e-12)

    def test_sudden_quench_oracle(self):
        # Z_B from the closed-form eigenvalues (1 +- sqrt(2))/2.
        report = sharpened_bound_report(DrivingProtocol.sudden(H_A, H_B), np.eye(2, dtype=complex), 1.0)
        z_a = 1.0 + math.exp(-1.0)
        eigs = np.array([(1.0 + math.sqrt(2.0)) / 2.0, (1.0 - math.sqrt(2.0)) / 2.0])
        z_b = float(np.exp(-eigs).sum())
        assert report.avg_work == pytest.approx(0.0, abs=1e-12)
        assert report.delta_f == pytest.approx(-(math.log(z_b) - math.log(z_a)), abs=1e-12)
        assert report.w_irr == pytest.approx(math.log(z_b) - math.log(z_a), abs=1e-12)

    def test_slow_ramp_approaches_reversibility(self):
        # Isospectral endpoints (basis rotation): the quasistatic limit then
        # carries no residual irreversible work.
        h_rotated = HermitianOperator(np.full((2, 2), 0.5))
        fast = DrivingProtocol.sudden(H_A, h_rotated)
        slow = DrivingProtocol.linear_ramp(H_A, h_rotated, 50.0)
        w_fast = sharpened_bound_report(fast, np.eye(2, dtype=complex), 1.0).w_irr
        u_slow = evolve_unitary(slow, n_steps=512, tol=1e-8)
        w_slow = sharpened_bound_report(slow, u_slow, 1.0).w_irr
        assert w_fast > 0.1
        assert w_slow < 0.05 * w_fast

    def test_checks_the_propagator(self):
        protocol = DrivingProtocol.sudden(H_A, H_B)
        with pytest.raises(ValueError, match="not unitary"):
            sharpened_bound_report(protocol, np.diag([1.0, 2.0]).astype(complex), 1.0)
        with pytest.raises(ValueError, match="propagator shape"):
            sharpened_bound_report(protocol, np.eye(3, dtype=complex), 1.0)


class TestSharpenedBound:
    def test_sudden_quench_equality_case(self):
        report = sharpened_bound_report(DrivingProtocol.sudden(H_A, H_B), np.eye(2, dtype=complex), 1.0)
        eigs = np.linalg.eigvalsh(H_B.matrix)
        oracle = math.log(float(np.exp(-eigs).sum())) - math.log(1.0 + math.exp(-1.0))
        assert report.bound == pytest.approx(oracle, abs=1e-9)
        assert report.beta * report.w_irr == pytest.approx(report.bound, abs=1e-9)
        assert report.jensen_slack == pytest.approx(0.0, abs=1e-12)

    def test_report_fields_are_the_block_columns_and_beta(self):
        columns = _bound_reports(_stack_of(H_A, "ascending"), _stack_of(H_B, "ascending"),
                                 np.eye(2, dtype=complex)[None], 1.0)
        assert {f.name for f in dataclasses.fields(WorkReport)} == {*columns, "beta"}

    def test_bound_gate_names_the_worst_row(self):
        # Rows 1 and 2 fail; the line prints row 2's shortfall (and miss), 2^-21.
        bound = np.array([1.0, 2.0, 3.0])
        below = bound - np.array([0.0, 2.0**-23, 2.0**-21])
        fields = dict(beta=1.0, bound=bound, coherence=0.0, population=0.0,
                      alt_incoherent_ergotropy=0.0, alt_coherent_ergotropy=0.0)
        with pytest.raises(InvariantViolation) as raised:
            require(_bound_checks({**fields, "w_irr": below, "incoherent": bound}))
        assert str(raised.value) == ("invariant failed: maximum_work_bound: "
                                     "value=-4.76837158203e-07, tolerance=-1e-09")
        with pytest.raises(InvariantViolation) as raised:
            require(_bound_checks({**fields, "w_irr": bound, "incoherent": below}))
        assert str(raised.value) == ("invariant failed: bound_decomposition: "
                                     "value=4.76837158203e-07, tolerance=1e-09")

    @pytest.mark.parametrize("field", ["w_irr", "bound", "incoherent", "alt_coherent_ergotropy"])
    def test_bound_gate_fails_a_nan(self, field):
        report = sharpened_bound_report(DrivingProtocol.sudden(H_A, H_B), np.eye(2, dtype=complex), 1.0)
        with pytest.raises(InvariantViolation, match="value=nan"):
            dataclasses.replace(report, **{field: math.nan})

    def test_trivial_protocol_zero_bound(self):
        report = sharpened_bound_report(DrivingProtocol.sudden(H_A, H_A), np.eye(2, dtype=complex), 1.0)
        assert report.bound == pytest.approx(0.0, abs=1e-10)
        assert report.w_irr == pytest.approx(0.0, abs=1e-10)

    def test_decomposition_and_inequality_sweep(self):
        for trial in range(100):
            dim = 2 + trial % 2
            h_a = random_hermitian(dim, stream(7, trial))
            h_b = random_hermitian(dim, stream(8, trial))
            u = haar_unitaries(dim, 1, stream(9, trial))[0]
            protocol = DrivingProtocol.sudden(h_a, h_b)
            report = sharpened_bound_report(protocol, u, 1.0)
            assert report.beta * report.w_irr >= report.bound - 1e-9
            assert report.incoherent + report.coherence + report.population == pytest.approx(
                report.bound, abs=1e-9)
            assert report.w_irr >= -1e-9
            assert report.jensen_slack >= -1e-9
            assert report.beta * report.w_irr - report.bound == pytest.approx(
                report.jensen_slack, abs=1e-9
            )

    def test_alternative_split_reported(self):
        report = sharpened_bound_report(DrivingProtocol.sudden(H_A, H_B), np.eye(2, dtype=complex), 1.0)
        total = report.alt_incoherent_ergotropy + report.alt_coherent_ergotropy
        conditional = conditional_thermal_state(H_A, H_B, np.eye(2, dtype=complex), 1.0)
        from ergokit import ergotropy_direct

        assert total == pytest.approx(ergotropy_direct(conditional.rho, H_B), abs=1e-12)


@st.composite
def bound_cases(draw):
    """(H_A, H_B, Haar U, beta) with d in [2, 12]; H_A has pairwise degenerate
    levels in about half of the examples."""
    dim = draw(st.integers(2, 12))
    beta = draw(st.floats(0.05, 5.0))
    seed = draw(st.integers(0, 2**32 - 1))
    h_a = random_hermitian(dim, stream(seed, 0))
    if draw(st.booleans()):
        basis = haar_unitaries(dim, 1, stream(seed, 3))[0]
        levels = stream(seed, 4).normal(size=dim)[np.arange(dim) // 2]
        h_a = HermitianOperator((basis * levels) @ basis.conj().T)
    u = haar_unitaries(dim, 1, stream(seed, 2))[0]
    return h_a, random_hermitian(dim, stream(seed, 1)), u, beta


class TestBoundReportProperties:
    @settings(derandomize=True, deadline=None, database=None)
    @given(bound_cases())
    def test_bound_slack_and_average_work(self, case):
        h_a, h_b, u, beta = case
        report = sharpened_bound_report(DrivingProtocol.sudden(h_a, h_b), u, beta)
        assert report.beta * report.w_irr >= report.bound - 1e-9
        assert report.incoherent + report.coherence + report.population == pytest.approx(
            report.bound, abs=1e-9)
        assert report.jensen_slack >= -1e-9
        assert report.jensen_slack == pytest.approx(
            report.beta * report.w_irr - report.bound, abs=1e-9
        )
        # dense reference: tr(U rho U^dagger H_B) - tr(rho H_A) for rho = exp(-beta H_A)/Z
        energies, vectors = np.linalg.eigh(h_a.matrix)
        populations = np.exp(-beta * (energies - energies[0]))
        rho = (vectors * (populations / populations.sum())) @ vectors.conj().T
        dense = np.trace(u @ rho @ u.conj().T @ h_b.matrix).real - np.trace(rho @ h_a.matrix).real
        assert abs(report.avg_work - dense) <= 1e-12 * (1.0 + abs(dense))


class TestEigensolverCalls:
    @staticmethod
    def operators(seed):
        return (
            random_hermitian(5, stream(20, seed)),
            random_hermitian(5, stream(21, seed)),
            haar_unitaries(5, 1, stream(22, seed))[0],
        )

    def test_bound_report_diagonalizes_h_a_h_b_and_the_conditional_state(
        self, eigensolver_calls
    ):
        h_a, h_b, u = self.operators(0)
        eigensolver_calls["qr"] = 0  # the Haar draw of u
        sharpened_bound_report(DrivingProtocol.sudden(h_a, h_b), u, 0.7)
        assert eigensolver_calls == {"eigh": 3, "eigvalsh": 0, "qr": 0}
        # the case is one whose conditional state keeps its validating eigh
        eigensolver_calls["eigh"] = 0
        eigendecompose(conditional_thermal_state(h_a, h_b, u, 0.7).rho, "descending")
        assert eigensolver_calls == {"eigh": 1, "eigvalsh": 0, "qr": 0}

    def test_otm_ramp_at_dim_64_converges_at_the_second_doubling(self, eigensolver_calls,
                                                                  two_cpus):
        # otm --dim 64 --seed 0, trial 0: a ramp with tau = 1.45.  Its 64- and 32-step
        # generators (2^18 + 2^17 entries) fit one GENERATOR_BLOCK, one stack solved in the
        # 6 chunks of EIGH_CHUNK = 2^16 entries (16 matrices) that the threads claim.  The
        # two resolutions differ by more than 1e-6, so the 128 steps follow: 2^19 entries,
        # 8 chunks.
        tau = float(stream(0, 2).uniform(0.0, 1.5))
        protocol = DrivingProtocol.linear_ramp(
            random_hermitian(64, stream(0, 0)), random_hermitian(64, stream(0, 1)), tau
        )
        evolve_unitary(protocol, n_steps=32, tol=1e-6)
        assert eigensolver_calls == {"eigh": 6 + 8, "eigvalsh": 0, "qr": 0}
        assert eigensolver_calls.matrices["eigh"] == 64 + 32 + 128


class TestBlocks:
    @pytest.mark.parametrize("dim", [3, 16])
    def test_propagators_keep_their_bits_split_chunked_or_whole(self, monkeypatch, two_cpus,
                                                               dim):
        # Ramps, a sudden switch and a ramp that doubles further, their step exponentials
        # from one whole eigh per stack, then in two halves of 5-matrix chunks, then with
        # each unit's generators in a stack of their own.
        h = [random_hermitian(dim, stream(60, k)) for k in range(8)]
        slow_a = HermitianOperator(12.0 * np.diag(np.arange(dim, dtype=float)))
        slow_b = HermitianOperator(12.0 * (np.eye(dim, k=1) + np.eye(dim, k=-1)))
        block = [DrivingProtocol.linear_ramp(h[0], h[1], 0.7), DrivingProtocol.sudden(h[2], h[3]),
                 DrivingProtocol.linear_ramp(slow_a, slow_b, 1.5),
                 DrivingProtocol(((0.0, h[4]), (0.3, h[5]), (1.1, h[6])))]
        runs = []
        for entries, chunk, stack in ((2**62, 2**62, workbench.GENERATOR_BLOCK),
                                      (0, 5 * dim * dim, workbench.GENERATOR_BLOCK),
                                      (2**62, 2**62, 1)):
            monkeypatch.setattr(_threads, "EIGH_SPLIT_ENTRIES", entries)
            monkeypatch.setattr(workbench, "EIGH_CHUNK", chunk)
            monkeypatch.setattr(workbench, "GENERATOR_BLOCK", stack)
            paths = [(p._times, p._matrices) for p in block]
            runs.append([u.tobytes() for u in _evolve_all(paths, 32, 1e-6)])
        assert runs[0] == runs[1] == runs[2]

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(st.sampled_from(["sudden", "ramp", "slow", "degenerate"]), max_size=3),
           beta=st.sampled_from([0.3, 1.0, 4.0]))
    def test_block_rows_equal_trials_run_alone(self, dim, seed, extra, beta):
        # Each block mixes a sudden switch, a ramp, a ramp that misses the 1e-6 gate at
        # (32, 64) steps (levels 12 apart coupled by 12) and a degenerate H_B (where d allows).
        kinds = ["sudden", "ramp", "slow", "degenerate"] + extra

        def protocols():
            made = []
            for k, kind in enumerate(kinds):
                rng = stream(seed, k)
                h_a, h_b = random_hermitian(dim, rng), random_hermitian(dim, rng)
                if kind == "slow":
                    h_a = HermitianOperator(12.0 * np.diag(np.arange(dim, dtype=float)))
                    h_b = HermitianOperator(12.0 * (np.eye(dim, k=1) + np.eye(dim, k=-1)))
                if kind == "degenerate" and dim > 1:
                    levels = rng.standard_normal(dim)
                    levels[1] = levels[0]
                    u = haar_unitaries(dim, 1, rng)[0]
                    h_b = HermitianOperator(u @ np.diag(levels) @ u.conj().T)
                tau = 0.0 if kind == "sudden" else 1.5 if kind == "slow" else rng.uniform(0.15, 1.5)
                made.append(DrivingProtocol.linear_ramp(h_a, h_b, tau))
            return made

        block = protocols()
        unitaries = _evolve_all([(p._times, p._matrices) for p in block], 32, 1e-6)
        initial, final = (_spectra(np.array([p._matrices[k] for p in block]), "ascending")
                          for k in (0, -1))
        columns = _bound_reports(initial, final, np.array(unitaries), beta)
        for r, (kind, protocol, u) in enumerate(zip(kinds, protocols(), unitaries)):
            alone = evolve_unitary(protocol, n_steps=32, tol=1e-6)
            assert np.array_equal(u, alone)
            report = sharpened_bound_report(protocol, alone, beta)
            assert {name: float(values[r]) for name, values in columns.items()} == {
                name: vars(report)[name] for name in columns}
            if kind == "slow" and dim > 1:
                coarse, fine = magnus_product(protocol, 32), magnus_product(protocol, 64)
                assert np.max(np.abs(fine - coarse)) > 1e-6
        if dim > 1:
            assert len(eigendecompose(block[3].final, "ascending").clusters) == dim - 1
