"""Passive states and the three-way ergotropy identities."""

import itertools
import math

import numpy as np
import pytest

from ergokit import (
    DensityMatrix,
    ErgokitError,
    ErgotropyReport,
    HermitianOperator,
    coherent_ergotropy_eq11,
    dephased_ergotropy,
    ergotropy_direct,
    ergotropy_report,
    ergotropy_via_entropies,
    expectation,
    gibbs_state,
    passive_energy,
    passive_state,
    quantum_relative_entropy,
    spectral_relative_entropy,
    unitary_min_probe,
)
from ergokit.ergotropy import optimal_alignment_unitary
from ergokit.errors import InvariantViolation
from ergokit.sampling import haar_unitary, random_density, random_hermitian, stream

PLUS = DensityMatrix(np.full((2, 2), 0.5))
H01 = HermitianOperator(np.diag([0.0, 1.0]))


class TestPassiveState:
    def test_gibbs_is_passive(self):
        h = random_hermitian(4, stream(0))
        g = gibbs_state(h, 1.0)
        passive, _ = passive_state(g.rho, h)
        assert np.max(np.abs(passive.matrix - g.rho.matrix)) < 1e-10
        assert ergotropy_direct(g.rho, h) <= 1e-9

    def test_excited_pure_state_drops_to_ground(self):
        rho = DensityMatrix(np.diag([0.0, 1.0]))
        passive, unitary = passive_state(rho, H01)
        assert np.max(np.abs(passive.matrix - np.diag([1.0, 0.0]))) < 1e-12
        moved = unitary.apply(rho)
        assert np.max(np.abs(moved.matrix - passive.matrix)) < 1e-12

    def test_population_inversion(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        passive, _ = passive_state(rho, H01)
        # Brute force over both 2x2 pairings: (0.7, 0.3) on (E0, E1) wins.
        assert np.max(np.abs(passive.matrix - np.diag([0.7, 0.3]))) < 1e-12

    def test_unitary_maps_rho_to_passive(self):
        rho = random_density(5, stream(1))
        h = random_hermitian(5, stream(2))
        passive, unitary = passive_state(rho, h)
        assert np.max(np.abs(unitary.apply(rho).matrix - passive.matrix)) < 1e-10

    def test_passive_energy_beats_sampled_unitaries(self):
        rho = random_density(3, stream(3))
        h = random_hermitian(3, stream(4))
        passive, _ = passive_state(rho, h)
        floor = expectation(passive, h)
        rng = stream(5)
        for _ in range(200):
            u = haar_unitary(3, rng)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert floor <= expectation(rotated, h) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            passive_state(PLUS, HermitianOperator(np.diag([0.0, 1.0, 2.0])))


class TestDirectErgotropy:
    def test_gibbs_zero(self):
        h = random_hermitian(3, stream(6))
        assert ergotropy_direct(gibbs_state(h, 2.0).rho, h) == pytest.approx(0.0, abs=1e-9)

    def test_inverted_qubit(self):
        assert ergotropy_direct(DensityMatrix(np.diag([0.3, 0.7])), H01) == pytest.approx(0.4, abs=1e-12)

    def test_plus_state(self):
        assert ergotropy_direct(PLUS, H01) == pytest.approx(0.5, abs=1e-12)


class TestOptimalAlignment:
    def test_self_alignment_preserves_divergence(self):
        rho = random_density(3, stream(7))
        u = optimal_alignment_unitary(rho, rho)
        aligned = u.apply(rho)
        assert quantum_relative_entropy(aligned, rho) == pytest.approx(0.0, abs=1e-9)

    def test_plus_vs_gibbs(self):
        g = gibbs_state(H01, 1.0)
        u = optimal_alignment_unitary(PLUS, g.rho)
        aligned = u.apply(PLUS)
        # |+> lands on the ground state; the single-term divergence is ln Z.
        assert np.max(np.abs(aligned.matrix - np.diag([1.0, 0.0]))) < 1e-10
        assert quantum_relative_entropy(aligned, g.rho) == pytest.approx(g.log_z, abs=1e-9)

    def test_achieves_spectral_divergence(self):
        rho = random_density(4, stream(8))
        sigma = random_density(4, stream(9))
        aligned = optimal_alignment_unitary(rho, sigma).apply(rho)
        gap = quantum_relative_entropy(aligned, sigma) - spectral_relative_entropy(rho, sigma)
        assert abs(gap) <= 1e-9


class TestEntropyRoute:
    def test_plus_state_half(self):
        assert ergotropy_via_entropies(PLUS, H01, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_beta_independent(self):
        values = [ergotropy_via_entropies(PLUS, H01, b) for b in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert max(values) - min(values) <= 1e-10

    def test_gibbs_zero(self):
        h = random_hermitian(3, stream(10))
        g = gibbs_state(h, 1.5)
        assert ergotropy_via_entropies(g.rho, h, 1.5) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            ergotropy_via_entropies(PLUS, H01, -1.0)


class TestCoherentSplit:
    def test_plus_state_components(self):
        # ln 2 + S(I/2||rho_eq) - D = 0.5 at beta = 1.
        g = gibbs_state(H01, 1.0)
        mixed = DensityMatrix(np.eye(2) / 2)
        expected = (
            math.log(2.0)
            + quantum_relative_entropy(mixed, g.rho)
            - spectral_relative_entropy(PLUS, g.rho)
        )
        assert expected == pytest.approx(0.5, abs=1e-12)
        assert coherent_ergotropy_eq11(PLUS, H01, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_diagonal_passive_state_zero(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        assert coherent_ergotropy_eq11(rho, H01, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_literal_form_equals_entropy_route(self):
        for trial in range(50):
            dim = 2 + trial % 4
            rho = random_density(dim, stream(30, 2 * trial))
            h = random_hermitian(dim, stream(31, trial))
            lhs = coherent_ergotropy_eq11(rho, h, 1.0)
            rhs = ergotropy_via_entropies(rho, h, 1.0)
            assert abs(lhs - rhs) <= 1e-8


class TestDephasedErgotropy:
    def test_plus_state_zero(self):
        assert dephased_ergotropy(PLUS, H01) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_state_unchanged(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        assert dephased_ergotropy(rho, H01) == pytest.approx(ergotropy_direct(rho, H01), abs=1e-12)

    def test_never_exceeds_total(self):
        for trial in range(50):
            rho = random_density(3, stream(40, 2 * trial))
            h = random_hermitian(3, stream(41, trial))
            value = dephased_ergotropy(rho, h)
            assert -1e-9 <= value <= ergotropy_direct(rho, h) + 1e-9


class TestUnitaryMinProbe:
    def test_identical_states(self):
        rho = random_density(2, stream(50))
        probe = unitary_min_probe(rho, rho, 200, seed=1)
        assert probe.min_entropy >= -1e-9
        assert probe.spectral_bound == pytest.approx(0.0, abs=1e-12)

    def test_min_approaches_bound_statistically(self):
        rho = random_density(2, stream(51))
        sigma = random_density(2, stream(52))
        probe = unitary_min_probe(rho, sigma, 10_000, seed=2)
        assert probe.min_gap >= -1e-9
        assert probe.min_gap <= 0.05

    def test_optimal_sample_closes_gap(self):
        rho = random_density(4, stream(53))
        sigma = random_density(4, stream(54))
        probe = unitary_min_probe(rho, sigma, 100, seed=3, include_optimal=True)
        assert abs(probe.optimal_gap) <= 1e-9
        assert probe.min_gap >= -1e-9

    def test_seed_reproducible(self):
        rho = random_density(3, stream(55))
        sigma = random_density(3, stream(56))
        a = unitary_min_probe(rho, sigma, 64, seed=9)
        b = unitary_min_probe(rho, sigma, 64, seed=9)
        assert a.min_entropy == b.min_entropy
        assert a.mean_entropy == b.mean_entropy


class TestReport:
    def test_fields_consistent(self):
        rho = random_density(4, stream(60))
        h = random_hermitian(4, stream(61))
        report = ergotropy_report(rho, h, 1.0)
        assert report.incoherent == pytest.approx(report.total - report.coherent_eq11, abs=1e-12)
        assert report.total == pytest.approx(
            expectation(rho, h) - report.passive_energy, abs=1e-12
        )
        assert report.total >= -1e-9


class TestIdentitySweeps:
    def test_direct_equals_entropy_route(self):
        for trial in range(500):
            dim = 2 + trial % 7
            beta = (0.5, 1.0, 2.0)[trial % 3]
            rho = random_density(dim, stream(70, 2 * trial))
            h = random_hermitian(dim, stream(71, trial))
            direct = ergotropy_direct(rho, h)
            via = ergotropy_via_entropies(rho, h, beta)
            assert abs(direct - via) <= 1e-8 * (1.0 + abs(direct))

    def test_beta_independence_sweep(self):
        betas = (0.25, 0.5, 1.0, 2.0, 4.0)
        for trial in range(100):
            dim = 2 + trial % 5
            rho = random_density(dim, stream(80, 2 * trial))
            # Keep beta * spread below the support floor at beta = 4.
            h = random_hermitian(dim, stream(81, trial), scale=0.4)
            values = [ergotropy_via_entropies(rho, h, b) for b in betas]
            assert max(values) - min(values) <= 1e-8

    def test_passive_state_has_no_ergotropy(self):
        for trial in range(50):
            rho = random_density(4, stream(90, 2 * trial))
            h = random_hermitian(4, stream(91, trial))
            passive, _ = passive_state(rho, h)
            assert ergotropy_direct(passive, h) <= 1e-9

    def test_rearrangement_brute_force(self):
        # Exhaustive check that descending-populations-on-ascending-energies
        # minimizes the mean energy, for every d <= 5.
        for dim in range(2, 6):
            rho = random_density(dim, stream(95, dim))
            h = random_hermitian(dim, stream(96, dim))
            p = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
            e = np.sort(np.linalg.eigvalsh(h.matrix))
            best = min(
                float(np.dot(p[list(perm)], e)) for perm in itertools.permutations(range(dim))
            )
            passive, _ = passive_state(rho, h)
            assert expectation(passive, h) == pytest.approx(best, abs=1e-12)

    def test_invariance_under_degenerate_rotations(self):
        # Rotating inside degenerate eigenspaces leaves every route unchanged.
        rng = stream(97)
        u = haar_unitary(4, rng)
        rho = DensityMatrix(u @ np.diag([0.4, 0.4, 0.15, 0.05]) @ u.conj().T)
        h = HermitianOperator(np.diag([0.0, 1.0, 1.0, 2.0]))
        block = np.eye(4, dtype=complex)
        block[1:3, 1:3] = haar_unitary(2, rng)  # acts inside the degenerate energy pair
        h_rot = HermitianOperator(block @ h.matrix @ block.conj().T)
        for routes in (ergotropy_direct,):
            assert abs(routes(rho, h) - routes(rho, h_rot)) <= 1e-9
        assert abs(
            ergotropy_via_entropies(rho, h, 1.0) - ergotropy_via_entropies(rho, h_rot, 1.0)
        ) <= 1e-9


class TestSpectralContextReuse:
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_report_makes_at_most_three_eigensolver_calls(self, eigensolver_calls, degenerate):
        rho = random_density(6, stream(110))
        h = (
            HermitianOperator(np.diag([0.0, 1.0, 1.0, 2.0, 2.0, 3.0]))
            if degenerate
            else random_hermitian(6, stream(111))
        )
        eigensolver_calls.update(eigh=0, eigvalsh=0)
        ergotropy_report(rho, h, 1.0)
        assert eigensolver_calls["eigh"] + eigensolver_calls["eigvalsh"] <= 3

    def test_report_on_an_existing_state_diagonalizes_only_h(self, eigensolver_calls):
        rho = random_density(6, stream(110))
        h = random_hermitian(6, stream(111))
        eigensolver_calls.update(eigh=0, eigvalsh=0)
        ergotropy_report(rho, h, 1.0)
        assert eigensolver_calls == {"eigh": 1, "eigvalsh": 0}

    def test_routes_match_the_general_relative_entropies(self):
        rho = random_density(5, stream(112))
        h = random_hermitian(5, stream(113))
        eq = gibbs_state(h, 0.7).rho
        expected = (
            quantum_relative_entropy(rho, eq) - spectral_relative_entropy(rho, eq)
        ) / 0.7
        report = ergotropy_report(rho, h, 0.7)
        assert report.via_entropies == pytest.approx(expected, abs=1e-10)
        assert report.dephased_ergotropy == pytest.approx(dephased_ergotropy(rho, h), abs=1e-12)
        assert report.passive_energy == pytest.approx(passive_energy(rho, h), abs=1e-12)

    def test_probe_against_a_gibbs_state_matches_its_density_matrix(self):
        rho = random_density(4, stream(114))
        g = gibbs_state(random_hermitian(4, stream(115)), 1.0)
        from_gibbs = unitary_min_probe(rho, g, 64, seed=5, include_optimal=True)
        from_matrix = unitary_min_probe(rho, g.rho, 64, seed=5, include_optimal=True)
        assert from_gibbs.spectral_bound == pytest.approx(from_matrix.spectral_bound, abs=1e-12)
        assert from_gibbs.mean_entropy == pytest.approx(from_matrix.mean_entropy, abs=1e-12)
        assert abs(from_gibbs.optimal_gap) <= 1e-12

    def test_gibbs_probe_keeps_levels_below_the_support_floor(self):
        # Gibbs populations down to ~1e-22: a rebuilt density matrix would drop
        # them from its support; the analytic log-populations keep every level.
        h = HermitianOperator(np.diag([0.0, 10.0, 50.0]))
        g = gibbs_state(h, 1.0)
        assert g.populations.min() < 1e-12
        probe = unitary_min_probe(DensityMatrix(np.eye(3) / 3), g, 16, seed=1, include_optimal=True)
        assert abs(probe.optimal_gap) <= 1e-12
        assert probe.spectral_bound == pytest.approx(
            -math.log(3.0) - float(np.mean(g.log_populations)), abs=1e-12
        )

    def test_invariant_failures_are_toolkit_errors(self):
        with pytest.raises(InvariantViolation, match="route disagreement"):
            ErgotropyReport(
                total=1.0, via_entropies=2.0, coherent_eq11=1.0, incoherent=0.0,
                dephased_ergotropy=0.0, beta_used=1.0, passive_energy=0.0,
            )
        assert issubclass(InvariantViolation, ErgokitError)
