"""Grid distributions, doubly stochastic kernels, and the classical ergotropy."""

import math

import numpy as np
import pytest

from ergokit import (
    EmptyShell,
    GridDistribution,
    JointDistribution,
    NonDeterministicKernel,
    PhaseGrid,
    SupportViolation,
    TransitionKernel,
    classical_ergotropy,
    classical_relative_entropy,
    ergotropy_via_phi,
    grid_gibbs,
    inhomogeneity_phi,
    joint_from_kernel,
    joint_relative_entropy,
    microcanonical,
    permutation_min_bruteforce,
    sorted_pairing_divergence,
    stationarity_probe,
)
import ergokit.classical as classical_module
from ergokit.classical import _mixing_rows, _probe_draws
from ergokit.errors import OutOfScope
from ergokit.sampling import stream

GRID3 = PhaseGrid(energy_a=np.array([0.0, 1.0, 2.0]), energy_b=np.array([0.0, 1.0, 2.0]))


def random_doubly_stochastic(n, rng, components=6):
    out = np.zeros((n, n))
    for w in rng.dirichlet(np.ones(components)):
        image = rng.permutation(n)
        out[image, np.arange(n)] += w
    return out


def probe_draws(n, seed, count):
    """All ``count`` (weights, images) of ``_probe_draws``, its blocks joined."""
    blocks = list(_probe_draws(n, seed, count))
    return np.concatenate([w for w, _ in blocks]), np.concatenate([i for _, i in blocks])


def mixture(weights, images):
    """Dense R = sum_c weights[c] P(images[c]), P(image)[image[j], j] = 1."""
    n = images.shape[1]
    dense = np.zeros((n, n))
    for w, image in zip(weights, images):
        dense[image, np.arange(n)] += w
    return dense


class TestTypes:
    def test_distribution_must_normalize(self):
        with pytest.raises(ValueError, match="mass"):
            GridDistribution(np.array([0.5, 0.4]))

    def test_distribution_nonnegative(self):
        with pytest.raises(ValueError, match="negative"):
            GridDistribution(np.array([1.5, -0.5]))

    def test_kernel_must_be_doubly_stochastic(self):
        column_only = np.array([[0.5, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="doubly stochastic"):
            TransitionKernel(column_only)

    def test_kernel_deterministic_flag(self):
        assert TransitionKernel.identity(3).is_deterministic
        assert TransitionKernel.from_permutation(np.array([2, 0, 1])).is_deterministic
        mixed = TransitionKernel(random_doubly_stochastic(4, stream(0)))
        assert not mixed.is_deterministic

    def test_joint_mass(self):
        with pytest.raises(ValueError, match="mass"):
            JointDistribution(np.full((2, 2), 0.3))

    def test_constructors_leave_the_callers_arrays_writeable(self):
        energies, weights = np.array([0.0, 1.0]), np.array([0.25, 0.75])
        kernel = random_doubly_stochastic(2, stream(2))
        joint = np.array([[0.25, 0.25], [0.25, 0.25]])
        grid = PhaseGrid(energy_a=energies, energy_b=energies)
        distribution = GridDistribution(weights)
        transition = TransitionKernel(kernel)
        coupling = JointDistribution(joint)
        for array in (energies, weights, kernel, joint):
            assert array.flags.writeable
        held = (grid.energy_a, distribution.weights, transition.rows, transition.values,
                coupling.rows, coupling.values)
        for array in held:
            assert not array.flags.writeable
        weights[0] = 0.5
        assert distribution.weights[0] == 0.25

    def test_joint_marginals(self):
        p_a = GridDistribution(np.array([0.2, 0.3, 0.5]))
        kernel = TransitionKernel(random_doubly_stochastic(3, stream(1)))
        joint = joint_from_kernel(p_a, kernel)
        assert np.max(np.abs(joint.initial_marginal() - p_a.weights)) < 1e-12


class TestMicrocanonical:
    def test_single_cell_shell(self):
        dist = microcanonical(GRID3, "A", 1.0, 0.1)
        assert np.allclose(dist.weights, [0.0, 1.0, 0.0])

    def test_uniform_on_shell(self):
        grid = PhaseGrid(energy_a=np.array([0.0, 1.0, 1.0, 2.0]), energy_b=np.zeros(4))
        dist = microcanonical(grid, "A", 1.0, 0.1)
        assert np.allclose(dist.weights, [0.0, 0.5, 0.5, 0.0])

    def test_empty_shell(self):
        with pytest.raises(EmptyShell):
            microcanonical(GRID3, "A", 5.0, 0.1)


class TestGridGibbs:
    def test_three_levels(self):
        expected = np.exp(-GRID3.energy_b)
        expected /= expected.sum()
        assert np.allclose(grid_gibbs(GRID3, "B", 1.0).weights, expected, atol=1e-12)

    def test_low_temperature_concentrates(self):
        weights = grid_gibbs(GRID3, "B", 20.0).weights
        assert weights[0] >= 0.999

    def test_uniform_energies_give_uniform(self):
        grid = PhaseGrid(energy_a=np.zeros(4), energy_b=np.full(4, 0.7))
        assert np.allclose(grid_gibbs(grid, "B", 2.0).weights, 0.25, atol=1e-12)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            grid_gibbs(GRID3, "B", -1.0)

    def test_keeps_the_smallest_normal_weights(self):
        grid = PhaseGrid(energy_a=np.zeros(2), energy_b=np.array([0.0, 1.0]))
        weights = grid_gibbs(grid, "B", 700.0).weights
        assert weights[1] == pytest.approx(math.exp(-700.0), rel=1e-12)

    @pytest.mark.parametrize("beta", [720.0, 2000.0], ids=["subnormal", "zero"])
    def test_underflowing_weight_is_out_of_scope(self, beta):
        grid = PhaseGrid(energy_a=np.zeros(2), energy_b=np.array([0.0, 1.0]))
        with pytest.raises(OutOfScope, match="underflow"):
            grid_gibbs(grid, "B", beta)


class TestJointAndKernels:
    def test_identity_kernel_diagonal_joint(self):
        p_a = GridDistribution(np.array([0.2, 0.3, 0.5]))
        joint = joint_from_kernel(p_a, TransitionKernel.identity(3))
        assert np.allclose(np.diag(joint.matrix), p_a.weights)
        assert np.allclose(joint.matrix - np.diag(p_a.weights), 0.0)

    def test_point_mass_shift(self):
        p_a = GridDistribution(np.array([0.0, 1.0, 0.0]))
        shift = TransitionKernel.from_permutation(np.array([1, 2, 0]))
        joint = joint_from_kernel(p_a, shift)
        assert joint.matrix[2, 1] == pytest.approx(1.0)
        assert joint.matrix.sum() == pytest.approx(1.0)

    def test_column_marginal_matches(self):
        p_a = GridDistribution(stream(2).dirichlet(np.ones(5)))
        kernel = TransitionKernel(random_doubly_stochastic(5, stream(3)))
        joint = joint_from_kernel(p_a, kernel)
        assert np.max(np.abs(joint.initial_marginal() - p_a.weights)) < 1e-12

    def test_matrix_round_trip_with_uneven_columns(self):
        # Column 0 holds one entry, on row 0, where its padding also points;
        # the padding must add 0 there, not overwrite the entry.
        dense = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ])
        kernel = TransitionKernel(dense)
        assert kernel.rows[:, 0].tolist() == [0, 0] and kernel.values[:, 0].tolist() == [1.0, 0.0]
        assert np.array_equal(kernel.matrix, dense)
        p_a = GridDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
        assert np.array_equal(joint_from_kernel(p_a, kernel).matrix, dense * p_a.weights)
        # Columns of 0 to 3 entries, with an empty column and a short one on row 0.
        coupling = np.zeros((4, 4))
        coupling[0, 0] = coupling[[0, 2, 3], 1] = coupling[[1, 3], 3] = 1.0
        coupling /= coupling.sum()
        joint = JointDistribution(coupling)
        assert joint.rows.shape == (3, 4)
        assert np.array_equal(joint.matrix, coupling)
        assert np.array_equal(joint.final_marginal(), coupling.sum(axis=1))


class TestRelativeEntropies:
    def test_joint_point_mass(self):
        joint = JointDistribution(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        p_eq = grid_gibbs(GRID3, "B", 1.0)
        expected = -math.log(p_eq.weights[0])
        assert joint_relative_entropy(joint, p_eq) == pytest.approx(expected, abs=1e-12)

    def test_joint_matched_gibbs_identity_kernel(self):
        p_eq = grid_gibbs(GRID3, "B", 1.0)
        joint = joint_from_kernel(p_eq, TransitionKernel.identity(3))
        assert joint_relative_entropy(joint, p_eq) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_joint_entropy_term(self):
        p_a = GridDistribution(np.array([0.2, 0.3, 0.5]))
        perm = TransitionKernel.from_permutation(np.array([1, 2, 0]))
        joint = joint_from_kernel(p_a, perm)
        p_eq = grid_gibbs(GRID3, "B", 1.0)
        entropy_term = float((p_a.weights * np.log(p_a.weights)).sum())
        cross = float(joint.final_marginal() @ np.log(p_eq.weights))
        assert joint_relative_entropy(joint, p_eq) == pytest.approx(entropy_term - cross, abs=1e-12)

    def test_classical_identity(self):
        p = GridDistribution(np.array([0.25, 0.5, 0.25]))
        assert classical_relative_entropy(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_classical_point_mass(self):
        p = GridDistribution(np.array([0.0, 1.0, 0.0]))
        q = grid_gibbs(GRID3, "B", 1.0)
        assert classical_relative_entropy(p, q) == pytest.approx(-math.log(q.weights[1]), abs=1e-12)

    def test_classical_two_terms(self):
        p = GridDistribution(np.array([0.5, 0.5, 0.0]))
        q = grid_gibbs(GRID3, "B", 1.0)
        expected = 0.5 * math.log(0.5 / q.weights[0]) + 0.5 * math.log(0.5 / q.weights[1])
        assert classical_relative_entropy(p, q) == pytest.approx(expected, abs=1e-12)

    def test_tiny_reference_weight_is_support(self):
        # A reference weight far below WEIGHT_FLOOR is exact input, not rounding.
        p = GridDistribution(np.array([0.5, 0.5]))
        q = GridDistribution(np.array([1.0, 1e-20]))
        expected = 0.5 * math.log(0.5) + 0.5 * math.log(0.5 / 1e-20)
        joint = joint_from_kernel(p, TransitionKernel.identity(2))
        close = pytest.approx(expected, rel=1e-14, abs=0)
        assert classical_relative_entropy(p, q) == close
        assert joint_relative_entropy(joint, q) == close
        assert sorted_pairing_divergence(p.weights, q.weights) == close
        assert permutation_min_bruteforce(p, q)[0] == close

    def test_support_violation(self):
        p = GridDistribution(np.array([0.5, 0.5]))
        q = GridDistribution(np.array([1.0, 0.0]))
        with pytest.raises(SupportViolation):
            classical_relative_entropy(p, q)

    def test_zero_iff_equal(self):
        rng = stream(8)
        q = GridDistribution(rng.dirichlet(np.ones(6)))
        assert classical_relative_entropy(q, q) == pytest.approx(0.0, abs=1e-12)
        p = GridDistribution(rng.dirichlet(np.ones(6)))
        if np.max(np.abs(p.weights - q.weights)) > 1e-10:
            assert classical_relative_entropy(p, q) > 0.0


class TestClassicalErgotropy:
    def test_identity_kernel_zero(self):
        p_a = GridDistribution(np.array([0.2, 0.3, 0.5]))
        joint = joint_from_kernel(p_a, TransitionKernel.identity(3))
        p_eq = grid_gibbs(GRID3, "B", 1.0)
        assert classical_ergotropy(joint, p_a, p_eq, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_shift_up(self):
        # Moving the point mass from cell 1 to cell 2 stores E_B(2) - E_B(1) = 1.
        p_a = GridDistribution(np.array([0.0, 1.0, 0.0]))
        shift = TransitionKernel.from_permutation(np.array([1, 2, 0]))
        joint = joint_from_kernel(p_a, shift)
        p_eq = grid_gibbs(GRID3, "B", 1.0)
        assert classical_ergotropy(joint, p_a, p_eq, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_shift_down_goes_negative(self):
        p_a = GridDistribution(np.array([0.0, 1.0, 0.0]))
        shift = TransitionKernel.from_permutation(np.array([2, 0, 1]))
        joint = joint_from_kernel(p_a, shift)
        p_eq = grid_gibbs(GRID3, "B", 1.0)
        assert classical_ergotropy(joint, p_a, p_eq, 1.0) == pytest.approx(-1.0, abs=1e-12)


class TestInhomogeneity:
    def test_identity_kernel_zero_vector(self):
        p_a = GridDistribution(np.array([0.2, 0.3, 0.5]))
        joint = joint_from_kernel(p_a, TransitionKernel.identity(3))
        assert np.allclose(inhomogeneity_phi(joint, p_a), 0.0)

    def test_point_mass_move(self):
        p_a = GridDistribution(np.array([0.0, 1.0, 0.0]))
        shift = TransitionKernel.from_permutation(np.array([2, 0, 1]))
        joint = joint_from_kernel(p_a, shift)
        assert np.allclose(inhomogeneity_phi(joint, p_a), [1.0, -1.0, 0.0])

    def test_sums_to_zero(self):
        for trial in range(50):
            rng = stream(9, trial)
            n = 3 + trial % 6
            p_a = GridDistribution(rng.dirichlet(np.ones(n)))
            kernel = TransitionKernel.from_permutation(rng.permutation(n))
            joint = joint_from_kernel(p_a, kernel)
            assert abs(inhomogeneity_phi(joint, p_a).sum()) < 1e-10


class TestErgotropyViaPhi:
    def test_identity_zero(self):
        p_a = GridDistribution(np.array([0.2, 0.3, 0.5]))
        joint = joint_from_kernel(p_a, TransitionKernel.identity(3))
        assert ergotropy_via_phi(joint, p_a, GRID3) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_shift(self):
        p_a = GridDistribution(np.array([0.0, 1.0, 0.0]))
        shift = TransitionKernel.from_permutation(np.array([1, 2, 0]))
        joint = joint_from_kernel(p_a, shift)
        assert ergotropy_via_phi(joint, p_a, GRID3) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_mixing_kernels(self):
        p_a = GridDistribution(np.array([0.2, 0.3, 0.5]))
        mixed = TransitionKernel(random_doubly_stochastic(3, stream(10)))
        joint = joint_from_kernel(p_a, mixed)
        with pytest.raises(NonDeterministicKernel):
            ergotropy_via_phi(joint, p_a, GRID3)

    def test_matches_relative_entropy_route(self):
        for trial in range(500):
            rng = stream(11, trial)
            n = 3 + trial % 98
            grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
            beta = (0.5, 1.0, 2.0)[trial % 3]
            shell = np.zeros(n)
            members = rng.choice(n, size=max(1, n // 4), replace=False)
            shell[members] = 1.0 / members.size
            p_a = GridDistribution(shell)
            kernel = TransitionKernel.from_permutation(rng.permutation(n))
            joint = joint_from_kernel(p_a, kernel)
            p_eq = grid_gibbs(grid, "B", beta)
            via_entropy = classical_ergotropy(joint, p_a, p_eq, beta)
            via_phi = ergotropy_via_phi(joint, p_a, grid)
            assert abs(via_entropy - via_phi) <= 1e-9
            assert abs(inhomogeneity_phi(joint, p_a).sum()) <= 1e-10


class TestPermutationBruteForce:
    def test_three_cells(self):
        p = GridDistribution(np.array([0.2, 0.5, 0.3]))
        q = GridDistribution(np.array([0.6, 0.3, 0.1]))
        value, perm = permutation_min_bruteforce(p, q)
        expected = 0.5 * math.log(0.5 / 0.6) + 0.3 * math.log(0.3 / 0.3) + 0.2 * math.log(0.2 / 0.1)
        assert value == pytest.approx(expected, abs=1e-12)
        assert sorted(perm) == [0, 1, 2]
        paired = sum(p.weights[perm[i]] * math.log(p.weights[perm[i]] / q.weights[i]) for i in range(3))
        assert paired == pytest.approx(value, abs=1e-12)

    def test_identity_optimal_for_matching(self):
        p = GridDistribution(np.array([0.6, 0.3, 0.1]))
        value, _ = permutation_min_bruteforce(p, p)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_matches_sorted_pairing(self):
        for trial in range(100):
            rng = stream(12, trial)
            n = 2 + trial % 5
            p = GridDistribution(rng.dirichlet(np.ones(n)))
            q = GridDistribution(rng.dirichlet(np.ones(n)))
            brute, _ = permutation_min_bruteforce(p, q)
            assert abs(brute - sorted_pairing_divergence(p.weights, q.weights)) <= 1e-12

    def test_size_guard(self):
        big = GridDistribution(np.full(9, 1.0 / 9))
        with pytest.raises(ValueError, match="n <= 8"):
            permutation_min_bruteforce(big, big)


class TestStationarityProbe:
    def test_zero_epsilon_is_exactly_flat(self):
        p_a = GridDistribution(np.full(4, 0.25))
        grid = PhaseGrid(energy_a=np.arange(4.0), energy_b=np.arange(4.0))
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(np.array([1, 0, 3, 2])))
        probe = stationarity_probe(joint, p_a, grid, 1.0, 8, 0.0, 0)
        assert np.all(probe.delta_total == 0.0)
        assert np.all(probe.delta_first_order == 0.0)

    def test_uniform_first_order_vanishes(self):
        n = 6
        p_a = GridDistribution(np.full(n, 1.0 / n))
        grid = PhaseGrid(energy_a=np.arange(float(n)), energy_b=np.linspace(0.0, 2.0, n))
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(stream(13).permutation(n)))
        probe = stationarity_probe(joint, p_a, grid, 1.0, 32, 1e-3, 5)
        assert probe.pa_uniform
        assert np.max(np.abs(probe.delta_first_order)) <= 10.0 * 1e-3**2

    def test_point_mass_finds_negative_probes(self):
        n = 6
        weights = np.zeros(n)
        weights[n - 1] = 1.0  # mass parked on the highest-energy cell
        p_a = GridDistribution(weights)
        grid = PhaseGrid(energy_a=np.arange(float(n)), energy_b=np.linspace(0.0, 2.0, n))
        joint = joint_from_kernel(p_a, TransitionKernel.identity(n))
        probe = stationarity_probe(joint, p_a, grid, 1.0, 64, 0.1, 7)
        assert not probe.pa_uniform
        assert probe.n_negative_first_order > 0
        assert probe.n_negative_total > 0

    def test_infeasible_epsilon(self):
        p_a = GridDistribution(np.full(3, 1.0 / 3))
        joint = joint_from_kernel(p_a, TransitionKernel.identity(3))
        with pytest.raises(ValueError, match="epsilon"):
            stationarity_probe(joint, p_a, GRID3, 1.0, 4, 1.5, 0)

    def test_same_seed_same_perturbations_across_epsilon(self):
        # The probe index, not epsilon, selects the random perturbation, so the
        # first-order change scales exactly linearly between epsilon levels.
        n = 5
        weights = np.zeros(n)
        weights[2] = 1.0
        p_a = GridDistribution(weights)
        grid = PhaseGrid(energy_a=np.arange(float(n)), energy_b=np.arange(float(n)))
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(stream(14).permutation(n)))
        coarse = stationarity_probe(joint, p_a, grid, 1.0, 8, 1e-2, 3)
        fine = stationarity_probe(joint, p_a, grid, 1.0, 8, 5e-3, 3)
        np.testing.assert_allclose(
            coarse.delta_first_order / 1e-2, fine.delta_first_order / 5e-3, rtol=0, atol=1e-14
        )

    def test_probe_rows_draw_the_dense_mixture(self):
        # The helper's (weights, images) are the dense R of one Dirichlet draw
        # per perturbation from stream 0 and four permutation draws from stream
        # 1, and the layered rows apply xi = (1 - eps) I + eps R.
        for n in (1, 2, 3, 7):
            weights, images = probe_draws(n, 21, 6)
            assert weights.shape == (6, 4) and images.shape == (6, 4, n)
            simplex, shuffles = stream(21, 0), stream(21, 1)
            for k in range(6):
                dense = np.zeros((n, n))
                for w in simplex.dirichlet(np.ones(4)):
                    dense[shuffles.permutation(n), np.arange(n)] += w
                assert np.array_equal(mixture(weights[k], images[k]), dense)
                x = stream(22, k).uniform(size=n)
                sources, coefficients = _mixing_rows(weights[k], images[k], 0.3)
                xi = 0.7 * np.eye(n) + 0.3 * dense
                np.testing.assert_allclose(
                    (coefficients * x[sources]).sum(axis=0), xi @ x, rtol=0, atol=1e-15
                )

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    @pytest.mark.parametrize("point_mass", [False, True])
    def test_first_order_matches_each_dense_perturbation(self, n, point_mass):
        # Against -((xi m - m) . ln p_eq), with xi formed densely from the
        # helper's draws for one perturbation at a time.
        rng = stream(51, n)
        grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
        weights = np.full(n, 1.0 / n)
        if point_mass:
            weights = np.zeros(n)
            weights[n - 1] = 1.0
        p_a = GridDistribution(weights)
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(rng.permutation(n)))
        epsilon, seed, count = 0.05, 12, 24
        probe = stationarity_probe(joint, p_a, grid, 1.0, count, epsilon, seed)
        log_eq = np.log(grid_gibbs(grid, "B", 1.0).weights)
        m = joint.final_marginal()
        expected = []
        for w, image_set in zip(*probe_draws(n, seed, count)):
            xi = (1.0 - epsilon) * np.eye(n) + epsilon * mixture(w, image_set)
            expected.append(-float((xi @ m - m) @ log_eq))
        np.testing.assert_allclose(probe.delta_first_order, expected, rtol=0, atol=1e-14)

    def test_draws_are_prefix_stable(self):
        # Perturbation k does not depend on how many perturbations are drawn.
        n = 9
        rng = stream(52)
        grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
        p_a = GridDistribution(rng.dirichlet(np.ones(n)))
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(rng.permutation(n)))
        short = stationarity_probe(joint, p_a, grid, 1.0, 8, 1e-2, 4)
        long = stationarity_probe(joint, p_a, grid, 1.0, 16, 1e-2, 4)
        assert np.array_equal(short.delta_first_order, long.delta_first_order[:8])
        assert np.array_equal(short.delta_total, long.delta_total[:8])

    @pytest.mark.parametrize("n", [7, 40, 416])
    def test_block_size_changes_no_bit(self, n, monkeypatch):
        # One perturbation per block against the default blocks; at n = 416
        # the default splits 64 perturbations into two blocks.
        rng = stream(53, n)
        grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
        p_a = GridDistribution(rng.dirichlet(np.ones(n)))
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(rng.permutation(n)))
        count = 64
        blocked = stationarity_probe(joint, p_a, grid, 1.0, count, 1e-3, 6)
        blocks = list(_probe_draws(n, 6, count))
        assert len(blocks) == (2 if n == 416 else 1)
        monkeypatch.setattr(classical_module, "PROBE_CHUNK", 1)
        assert [len(w) for w, _ in _probe_draws(n, 6, count)] == [1] * count
        single = stationarity_probe(joint, p_a, grid, 1.0, count, 1e-3, 6)
        assert np.array_equal(blocked.delta_first_order, single.delta_first_order)
        assert np.array_equal(blocked.delta_total, single.delta_total)

    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_image_and_dense_joints_give_the_same_probe(self, n, uniform):
        # On n = 2 and 3 the perturbation's permutations collide with each
        # other and with the base image, so repeated entries must be summed
        # before x ln x.  A dense permutation joint reads back as the same
        # single layer, so the probes agree bit for bit.
        rng = stream(23, n)
        grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
        p_a = GridDistribution(np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n)))
        image_joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(rng.permutation(n)))
        dense_joint = JointDistribution(image_joint.matrix)
        assert image_joint.image is not None
        assert np.array_equal(dense_joint.rows, image_joint.rows)
        assert np.array_equal(dense_joint.values, image_joint.values)
        for epsilon in (0.3, 1e-3):
            by_image = stationarity_probe(image_joint, p_a, grid, 1.0, 24, epsilon, 5)
            by_dense = stationarity_probe(dense_joint, p_a, grid, 1.0, 24, epsilon, 5)
            assert by_image.baseline == by_dense.baseline
            assert np.array_equal(by_image.delta_total, by_dense.delta_total)
            assert np.array_equal(by_image.delta_first_order, by_dense.delta_first_order)

    @pytest.mark.parametrize("n", [12, 40])
    @pytest.mark.parametrize("components", [1, 3])
    def test_total_change_matches_the_dense_perturbed_joint(self, n, components):
        # Above numpy's 8-element pairwise-sum block, against xi J formed
        # densely from the same draws: ((1 - eps) I + eps R) J.
        rng = stream(41 + components, n)
        grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
        p_a = GridDistribution(rng.dirichlet(np.ones(n)))
        kernel = TransitionKernel(random_doubly_stochastic(n, rng, components))
        assert kernel.is_deterministic is (components == 1)
        joint = joint_from_kernel(p_a, kernel)
        epsilon, seed = 0.05, 11
        probe = stationarity_probe(joint, p_a, grid, 1.0, 8, epsilon, seed)
        log_eq = np.log(grid_gibbs(grid, "B", 1.0).weights)

        def relative_entropy(m):
            live = m[m > 1e-15]
            return float((live * np.log(live)).sum()) - float(m.sum(axis=1) @ log_eq)

        for total, w, image_set in zip(probe.delta_total, *probe_draws(n, seed, 8)):
            xi = (1.0 - epsilon) * np.eye(n) + epsilon * mixture(w, image_set)
            expected = relative_entropy(xi @ joint.matrix) - relative_entropy(joint.matrix)
            assert abs(total - expected) <= 1e-12

    def test_total_change_is_unchanged_and_computed_on_read(self, monkeypatch):
        # Pinned at the two-stream draw (within 5e-16 of xi J formed densely);
        # the lazy value draws once, from the probe's two streams, on first read.
        pinned = {
            True: ["-0x1.80832bdbc1be0p-3", "-0x1.f33378bb4cfd0p-3", "-0x1.359319f54c9f0p-3",
                   "-0x1.bc1fec62bc8c8p-3", "-0x1.bf1620c8283e8p-3", "-0x1.8b8066eb15e60p-3"],
            False: ["-0x1.42ef414cd2c70p-3", "-0x1.9057313b52060p-3", "-0x1.fee54c3b54960p-4",
                    "-0x1.8462938fb85a0p-3", "-0x1.304337ff4f120p-3", "-0x1.ef3f9ce396ec0p-4"],
        }
        n = 7
        rng = stream(31, n)
        grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
        p_a = GridDistribution(rng.dirichlet(np.ones(n)))
        image = TransitionKernel.from_permutation(rng.permutation(n))
        dense = np.zeros((n, n))
        for w in rng.dirichlet(np.ones(3)):
            dense[rng.permutation(n), np.arange(n)] += w
        for kernel in (image, TransitionKernel(dense)):
            assert kernel.is_deterministic is (kernel is image)
            draws = []
            monkeypatch.setattr(classical_module, "stream",
                                lambda *key: draws.append(key) or stream(*key))
            probe = stationarity_probe(joint_from_kernel(p_a, kernel), p_a, grid, 1.0, 6, 0.05, 9)
            assert len(draws) == 2
            expected = np.array([float.fromhex(h) for h in pinned[kernel.is_deterministic]])
            assert np.array_equal(probe.delta_total, expected)
            assert probe.n_negative_total == int((expected < 0.0).sum())
            assert len(draws) == 4
            assert probe.delta_total is probe.delta_total
            assert len(draws) == 4
