"""Passive states and the three-way ergotropy identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergokit import (
    DensityMatrix,
    ErgokitError,
    ErgotropyReport,
    HermitianOperator,
    coherent_ergotropy_eq11,
    dephased_ergotropy,
    eigendecompose,
    ergotropy_direct,
    ergotropy_geometric,
    ergotropy_report,
    ergotropy_via_entropies,
    expectation,
    gibbs_state,
    passive_energy,
    passive_state,
    quantum_relative_entropy,
    spectral_relative_entropy,
)
from ergokit.ergotropy import _aligned_gaps, _route_checks, optimal_alignment_unitary
from ergokit.errors import InvariantViolation, OutOfScope, require
from ergokit.quantum import spectral_context
from ergokit.sampling import (
    random_density,
    random_hermitian,
    stream,
)
from haar import haar_unitaries

PLUS = DensityMatrix(np.full((2, 2), 0.5))
H01 = HermitianOperator(np.diag([0.0, 1.0]))


def turned(u, rho):
    """U rho U† for a unitary given as an array."""
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


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
        moved = turned(unitary, rho)
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
        assert np.max(np.abs(turned(unitary, rho).matrix - passive.matrix)) < 1e-10

    def test_passive_energy_beats_sampled_unitaries(self):
        rho = random_density(3, stream(3))
        h = random_hermitian(3, stream(4))
        passive, _ = passive_state(rho, h)
        floor = expectation(passive, h)
        rng = stream(5)
        for _ in range(200):
            u = haar_unitaries(3, 1, rng)[0]
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert floor <= expectation(rotated, h) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            passive_state(PLUS, HermitianOperator(np.diag([0.0, 1.0, 2.0])))

    @pytest.mark.parametrize("dim", [2, 8, 28])
    @pytest.mark.parametrize("rank", [None, 2, 1], ids=["full-rank-rho", "rank-2-rho", "pure-rho"])
    def test_returned_unitaries_are_unitary(self, dim, rank):
        # Both pair two orthonormal eigenbases column by column: U†U = I to rounding.
        rho = random_density(dim, stream(77, dim), rank=rank)
        h = random_hermitian(dim, stream(78, dim))
        sigma = random_density(dim, stream(79, dim))
        unitaries = (passive_state(rho, h)[1], optimal_alignment_unitary(rho, sigma),
                     optimal_alignment_unitary(sigma, rho))
        for u in unitaries:
            assert u.shape == (dim, dim)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10


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
        aligned = turned(u, rho)
        assert quantum_relative_entropy(aligned, rho) == pytest.approx(0.0, abs=1e-9)

    def test_plus_vs_gibbs(self):
        g = gibbs_state(H01, 1.0)
        u = optimal_alignment_unitary(PLUS, g.rho)
        aligned = turned(u, PLUS)
        # |+> lands on the ground state; the single-term divergence is ln Z.
        assert np.max(np.abs(aligned.matrix - np.diag([1.0, 0.0]))) < 1e-10
        assert quantum_relative_entropy(aligned, g.rho) == pytest.approx(g.log_z, abs=1e-9)

    def test_achieves_spectral_divergence(self):
        rho = random_density(4, stream(8))
        sigma = random_density(4, stream(9))
        aligned = turned(optimal_alignment_unitary(rho, sigma), rho)
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


def _orbit_extremes(rho, sigma):
    """(min, max) of S(U rho U†||sigma) over every unitary U, from the two spectra alone:
    descending p paired with descending s, and with ascending s."""
    p = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
    ln_s = np.log(np.sort(np.linalg.eigvalsh(sigma.matrix))[::-1])
    entropy_term = float(p @ np.log(p))
    return entropy_term - float(p @ ln_s), entropy_term - float(p @ ln_s[::-1])


class TestUnitaryOrbit:
    """S(U rho U†||sigma) = -S(rho) - sum_ij |<s_j|U|v_i>|^2 p_i ln s_j is linear in a
    doubly stochastic matrix, so its extremes over every U sit at permutation unitaries
    (Birkhoff; von Neumann's trace inequality)."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_permutation_unitaries_reach_both_extremes(self, dim):
        rho = random_density(dim, stream(70, dim))
        sigma = random_density(dim, stream(71, dim))
        v, s = np.linalg.eigh(rho.matrix)[1], np.linalg.eigh(sigma.matrix)[1]
        values = [  # every unitary sending the eigenvectors of rho onto those of sigma
            quantum_relative_entropy(DensityMatrix(u @ rho.matrix @ u.conj().T), sigma)
            for u in (s[:, list(perm)] @ v.conj().T for perm in itertools.permutations(range(dim)))
        ]
        low, high = _orbit_extremes(rho, sigma)
        assert low == pytest.approx(spectral_relative_entropy(rho, sigma), abs=1e-12)
        assert min(values) == pytest.approx(low, abs=1e-12)
        assert max(values) == pytest.approx(high, abs=1e-12)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_haar_unitaries_stay_inside_the_extremes(self, dim):
        rho = random_density(dim, stream(72, dim))
        sigma = random_density(dim, stream(73, dim))
        units = haar_unitaries(dim, 10_000, stream(74, dim))
        w, s = np.linalg.eigh(sigma.matrix)
        p = np.linalg.eigvalsh(rho.matrix)
        # tr(rho ln rho) - tr(U rho U† ln sigma), one trace per sample
        rotated = units @ rho.matrix @ units.conj().swapaxes(1, 2)
        values = float(p @ np.log(p)) - np.einsum(
            "kij,ji->k", rotated, (s * np.log(w)) @ s.conj().T).real
        for u, value in zip(units[:32], values):
            rotated_state = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert value == pytest.approx(quantum_relative_entropy(rotated_state, sigma), abs=1e-12)
        low, high = _orbit_extremes(rho, sigma)
        assert low - 1e-9 <= values.min() and values.max() <= high + 1e-9


class TestAlignedGap:
    @pytest.mark.parametrize("dim", [2, 8, 28])
    @pytest.mark.parametrize("rank", [None, 2, 1], ids=["full-rank-rho", "rank-2-rho", "pure-rho"])
    def test_the_aligning_unitary_closes_the_gap(self, dim, rank):
        rho = random_density(dim, stream(75, dim), rank=rank)
        h = random_hermitian(dim, stream(76, dim))
        c = spectral_context(rho, h, 0.8)
        assert abs(_aligned_gaps(c)[0]) <= 1e-12
        # the same gap through the density-matrix routes
        sigma = gibbs_state(h, 0.8).rho
        aligned = turned(optimal_alignment_unitary(rho, sigma), rho)
        gap = quantum_relative_entropy(aligned, sigma) - spectral_relative_entropy(rho, sigma)
        assert abs(gap) <= 1e-12

    @pytest.mark.parametrize(
        "energies, weights",
        [([0.0, 1.0, 1.0, 2.0], None), ([0.0, 0.5, 1.3, 2.0], [0.4, 0.2, 0.2, 0.2]),
         ([0.0, 1.0, 1.0, 1.0], [0.5, 0.5, 0.0, 0.0])],
        ids=["degenerate-H", "degenerate-rho", "both-rank-2-rho"],
    )
    def test_degenerate_spectra_close_the_gap(self, energies, weights):
        # A repeated eigenvalue leaves the aligning unitary free inside its eigenspace;
        # whichever basis the spectra carry, the gap must still close.
        u, v = haar_unitaries(4, 2, stream(80))
        h = HermitianOperator(u @ np.diag(energies) @ u.conj().T)
        rho = (random_density(4, stream(81)) if weights is None
               else DensityMatrix(v @ np.diag(weights) @ v.conj().T))
        assert abs(_aligned_gaps(spectral_context(rho, h, 1.3))[0]) <= 1e-12

    def test_gibbs_levels_below_the_support_floor_count_as_support(self):
        # Gibbs populations down to ~1e-22: a rebuilt density matrix would drop
        # them from its support; the analytic log-populations keep every level.
        h = HermitianOperator(np.diag([0.0, 10.0, 50.0]))
        c = spectral_context(DensityMatrix(np.eye(3) / 3), h, 1.0)
        assert gibbs_state(h, 1.0).populations.min() < 1e-12
        assert abs(_aligned_gaps(c)[0]) <= 1e-12
        assert c.spectral_divergence[0] == pytest.approx(
            -math.log(3.0) - float(np.mean(c.log_populations)), abs=1e-12
        )


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

    @pytest.mark.parametrize("dim, rank", [(2, None), (5, 2), (8, 1), (16, None)])
    def test_geometric_route_is_ergotropy_geometric(self, dim, rank):
        rho = random_density(dim, stream(62, dim), rank=rank)
        h = random_hermitian(dim, stream(63, dim))
        assert ergotropy_report(rho, h, 0.9).via_geometric == ergotropy_geometric(rho, h, 0.9)

    def test_a_report_needs_two_levels(self):
        # The geometric route lives on the manifold CP^(d-1): the CLI's line for --dim 1.
        with pytest.raises(OutOfScope) as raised:
            ergotropy_report(DensityMatrix([[1.0]]), HermitianOperator([[0.5]]), 1.0)
        assert str(raised.value) == "dim must be >= 2 for the manifold CP^(dim-1), got 1"

    def test_route_gate_names_the_worst_row(self):
        # Rows 1 and 2 fail; the line prints row 2's deviation 2^-21 against its own gate.
        total = np.array([1.0, 2.0, 3.0])
        with pytest.raises(InvariantViolation) as raised:
            via = total + np.array([0.0, 2.0**-23, 2.0**-21])
            require(_route_checks(total, {"entropies": via}))
        assert str(raised.value) == ("invariant failed: route_entropies_agrees: "
                                     "value=4.76837158203e-07, tolerance=4e-08")
        with pytest.raises(InvariantViolation) as raised:
            total = np.array([0.0, -1e-6, -1e-3])
            require(_route_checks(total, {"entropies": total}))
        assert str(raised.value) == ("invariant failed: ergotropy_nonnegative: value=-0.001, "
                                     "tolerance=-1e-09")

    @pytest.mark.parametrize("total, via", [(math.nan, 0.0), (0.0, math.nan)])
    def test_route_gate_fails_a_nan(self, total, via):
        with pytest.raises(InvariantViolation, match="route_entropies_agrees: value=nan"):
            require(_route_checks(total, {"entropies": via}))


class TestScaleCovariance:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(seed=st.integers(0, 15), dim=st.sampled_from([2, 4, 8, 16]),
           k=st.integers(-400, 300))
    def test_powers_of_two_scale_every_route_bit_for_bit(self, seed, dim, k):
        # (H, beta) enter only through beta H, so (2^k H, 2^-k beta) scales every energy by
        # 2^k; a power of two is exact, and the arithmetic keeps it.  Below k = -405 it
        # breaks by an ulp or two at every d (seeds 0-3, first at k = -406 to -409).
        rho, h = random_density(dim, stream(seed, 0)), random_hermitian(dim, stream(seed, 1))

        def routes(hamiltonian, beta):
            report = ergotropy_report(rho, hamiltonian, beta)
            return (report.total, report.via_entropies, report.passive_energy,
                    report.via_geometric)

        scaled = routes(HermitianOperator(math.ldexp(1.0, k) * h.matrix), math.ldexp(1.0, -k))
        assert scaled == tuple(math.ldexp(value, k) for value in routes(h, 1.0))


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
            h = HermitianOperator(0.4 * random_hermitian(dim, stream(81, trial)).matrix)
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
        u = haar_unitaries(4, 1, rng)[0]
        rho = DensityMatrix(u @ np.diag([0.4, 0.4, 0.15, 0.05]) @ u.conj().T)
        h = HermitianOperator(np.diag([0.0, 1.0, 1.0, 2.0]))
        block = np.eye(4, dtype=complex)
        block[1:3, 1:3] = haar_unitaries(2, 1, rng)[0]  # acts inside the degenerate energy pair
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
        assert eigensolver_calls == {"eigh": 1, "eigvalsh": 0, "qr": 0}

    def test_a_second_report_reuses_the_stored_spectra(self, eigensolver_calls):
        rho = random_density(6, stream(110))
        h = random_hermitian(6, stream(111))
        ergotropy_report(rho, h, 1.0)
        energies, populations = eigendecompose(h, "ascending"), eigendecompose(rho, "descending")
        eigensolver_calls.update(eigh=0, eigvalsh=0, qr=0)
        ergotropy_report(rho, h, 1.0)
        assert eigensolver_calls == {"eigh": 0, "eigvalsh": 0, "qr": 0}
        assert eigendecompose(h, "ascending") is energies
        assert eigendecompose(rho, "descending") is populations

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

    def test_invariant_failures_are_toolkit_errors(self):
        with pytest.raises(InvariantViolation, match="^invariant failed: route_entropies_agrees: "):
            ErgotropyReport(
                total=1.0, via_entropies=2.0, via_geometric=1.0, coherent_eq11=1.0,
                incoherent=0.0, dephased_ergotropy=0.0, beta_used=1.0, passive_energy=0.0,
            )
        assert issubclass(InvariantViolation, ErgokitError)

    def test_the_geometric_route_is_gated_as_ergotropy_gates_it(self):
        # The report checks the geometric route as the command line does, with its line.
        with pytest.raises(InvariantViolation) as error:
            ErgotropyReport(
                total=1.0, via_entropies=1.0, via_geometric=2.0, coherent_eq11=1.0,
                incoherent=0.0, dephased_ergotropy=0.0, beta_used=1.0, passive_energy=0.0,
            )
        assert str(error.value) == (
            "invariant failed: route_geometric_agrees: value=1, tolerance=2e-08")
