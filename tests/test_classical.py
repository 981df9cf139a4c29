"""Grid distributions, doubly stochastic kernels, and the classical ergotropy."""

import math
from itertools import permutations

import numpy as np
import pytest

from ergokit import (
    DensityMatrix,
    EmptyShell,
    GeometricState,
    GridDistribution,
    JointDistribution,
    PhaseGrid,
    SupportViolation,
    TransitionKernel,
    classical_ergotropy,
    classical_relative_entropy,
    ergotropy_via_phi,
    geometric_relative_entropy,
    grid_gibbs,
    inhomogeneity_phi,
    joint_from_kernel,
    joint_relative_entropy,
    microcanonical,
    permutation_min_bruteforce,
    sorted_pairing_divergence,
    spectral_relative_entropy,
    stationarity_probe,
)
from ergokit.classical import _column_layers, _conditional_entropy
from ergokit.errors import OutOfScope
from ergokit.sampling import stream

GRID3 = PhaseGrid(energy_a=np.array([0.0, 1.0, 2.0]), energy_b=np.array([0.0, 1.0, 2.0]))


def random_doubly_stochastic(n, rng, components=6):
    out = np.zeros((n, n))
    for w in rng.dirichlet(np.ones(components)):
        image = rng.permutation(n)
        out[image, np.arange(n)] += w
    return out


class TestTypes:
    def test_distribution_must_normalize(self):
        with pytest.raises(ValueError, match="mass"):
            GridDistribution(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("weights, match", [
        ([1.5, -0.5], "negative"), ([np.nan, 0.5, 0.5], "negative"), ([0.5, 0.5, np.inf], "mass"),
    ], ids=["negative", "nan", "inf"])
    def test_distribution_nonnegative(self, weights, match):
        with pytest.raises(ValueError, match=match):
            GridDistribution(np.array(weights))

    def test_kernel_refuses_a_nan_entry(self):
        matrix = np.array([[np.nan, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="negative kernel entry nan"):
            TransitionKernel(matrix)

    def test_kernel_must_be_doubly_stochastic(self):
        column_only = np.array([[0.5, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="doubly stochastic"):
            TransitionKernel(column_only)

    def test_kernel_deterministic_flag(self):
        assert TransitionKernel.from_permutation(np.arange(3)).is_deterministic
        assert TransitionKernel.from_permutation(np.array([2, 0, 1])).is_deterministic
        mixed = TransitionKernel(random_doubly_stochastic(4, stream(0)))
        assert not mixed.is_deterministic

    def test_constructors_leave_the_callers_arrays_writeable(self):
        energies, weights = np.array([0.0, 1.0]), np.array([0.25, 0.75])
        kernel = random_doubly_stochastic(2, stream(2))
        grid = PhaseGrid(energy_a=energies, energy_b=energies)
        distribution = GridDistribution(weights)
        transition = TransitionKernel(kernel)
        coupling = joint_from_kernel(distribution, transition)
        for array in (energies, weights, kernel):
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
        assert np.max(np.abs(joint.values.sum(axis=0) - p_a.weights)) < 1e-12


class TestMicrocanonical:
    def test_single_cell_shell(self):
        dist = microcanonical(GRID3, 1.0, 0.1)
        assert np.allclose(dist.weights, [0.0, 1.0, 0.0])

    def test_uniform_on_shell(self):
        grid = PhaseGrid(energy_a=np.array([0.0, 1.0, 1.0, 2.0]), energy_b=np.zeros(4))
        dist = microcanonical(grid, 1.0, 0.1)
        assert np.allclose(dist.weights, [0.0, 0.5, 0.5, 0.0])

    def test_empty_shell(self):
        with pytest.raises(EmptyShell):
            microcanonical(GRID3, 5.0, 0.1)


class TestGridGibbs:
    def test_three_levels(self):
        expected = np.exp(-GRID3.energy_b)
        expected /= expected.sum()
        assert np.allclose(grid_gibbs(GRID3, 1.0).weights, expected, atol=1e-12)

    def test_low_temperature_concentrates(self):
        weights = grid_gibbs(GRID3, 20.0).weights
        assert weights[0] >= 0.999

    def test_uniform_energies_give_uniform(self):
        grid = PhaseGrid(energy_a=np.zeros(4), energy_b=np.full(4, 0.7))
        assert np.allclose(grid_gibbs(grid, 2.0).weights, 0.25, atol=1e-12)

    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf],
                             ids=["nonpositive", "nan", "inf"])
    def test_rejects_nonpositive_beta(self, beta):
        p = GridDistribution(np.full(3, 1 / 3))
        joint = joint_from_kernel(p, TransitionKernel.from_permutation(np.arange(3)))
        with pytest.raises(ValueError, match="beta"):
            grid_gibbs(GRID3, beta)
        with pytest.raises(ValueError, match="beta"):
            classical_ergotropy(joint, p, grid_gibbs(GRID3, 1.0), beta)

    def test_keeps_the_smallest_normal_weights(self):
        grid = PhaseGrid(energy_a=np.zeros(2), energy_b=np.array([0.0, 1.0]))
        weights = grid_gibbs(grid, 700.0).weights
        assert weights[1] == pytest.approx(math.exp(-700.0), rel=1e-12)

    @pytest.mark.parametrize("beta", [720.0, 2000.0], ids=["subnormal", "zero"])
    def test_underflowing_weight_is_out_of_scope(self, beta):
        grid = PhaseGrid(energy_a=np.zeros(2), energy_b=np.array([0.0, 1.0]))
        with pytest.raises(OutOfScope, match="underflow"):
            grid_gibbs(grid, beta)


class TestJointAndKernels:
    def test_identity_kernel_diagonal_joint(self):
        p_a = GridDistribution(np.array([0.2, 0.3, 0.5]))
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(np.arange(3)))
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
        assert np.max(np.abs(joint.values.sum(axis=0) - p_a.weights)) < 1e-12

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
        joint = JointDistribution._of(*_column_layers(coupling))
        assert joint.rows.shape == (3, 4)
        assert np.array_equal(joint.matrix, coupling)
        assert np.array_equal(joint.final_marginal(), coupling.sum(axis=1))


class TestRelativeEntropies:
    def test_joint_point_mass(self):
        # All mass on initial cell 1, which the kernel sends to final cell 0.
        joint = joint_from_kernel(GridDistribution(np.array([0.0, 1.0, 0.0])),
                                  TransitionKernel.from_permutation(np.array([1, 0, 2])))
        assert np.array_equal(joint.matrix, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        p_eq = grid_gibbs(GRID3, 1.0)
        expected = -math.log(p_eq.weights[0])
        assert joint_relative_entropy(joint, p_eq) == pytest.approx(expected, abs=1e-12)

    def test_joint_matched_gibbs_identity_kernel(self):
        p_eq = grid_gibbs(GRID3, 1.0)
        joint = joint_from_kernel(p_eq, TransitionKernel.from_permutation(np.arange(3)))
        assert joint_relative_entropy(joint, p_eq) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_joint_entropy_term(self):
        p_a = GridDistribution(np.array([0.2, 0.3, 0.5]))
        perm = TransitionKernel.from_permutation(np.array([1, 2, 0]))
        joint = joint_from_kernel(p_a, perm)
        p_eq = grid_gibbs(GRID3, 1.0)
        entropy_term = float((p_a.weights * np.log(p_a.weights)).sum())
        cross = float(joint.final_marginal() @ np.log(p_eq.weights))
        assert joint_relative_entropy(joint, p_eq) == pytest.approx(entropy_term - cross, abs=1e-12)

    def test_classical_identity(self):
        p = GridDistribution(np.array([0.25, 0.5, 0.25]))
        assert classical_relative_entropy(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_classical_point_mass(self):
        p = GridDistribution(np.array([0.0, 1.0, 0.0]))
        q = grid_gibbs(GRID3, 1.0)
        assert classical_relative_entropy(p, q) == pytest.approx(-math.log(q.weights[1]), abs=1e-12)

    def test_classical_two_terms(self):
        p = GridDistribution(np.array([0.5, 0.5, 0.0]))
        q = grid_gibbs(GRID3, 1.0)
        expected = 0.5 * math.log(0.5 / q.weights[0]) + 0.5 * math.log(0.5 / q.weights[1])
        assert classical_relative_entropy(p, q) == pytest.approx(expected, abs=1e-12)

    def test_tiny_reference_weight_is_support(self):
        # A reference weight far below WEIGHT_FLOOR is exact input, not rounding.
        p = GridDistribution(np.array([0.5, 0.5]))
        q = GridDistribution(np.array([1.0, 1e-20]))
        expected = 0.5 * math.log(0.5) + 0.5 * math.log(0.5 / 1e-20)
        joint = joint_from_kernel(p, TransitionKernel.from_permutation(np.arange(2)))
        close = pytest.approx(expected, rel=1e-14, abs=0)
        assert classical_relative_entropy(p, q) == close
        assert joint_relative_entropy(joint, q) == close
        assert sorted_pairing_divergence(p.weights, q.weights) == close
        assert permutation_min_bruteforce(p, q)[0] == close

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("divergence", [
        lambda p, q: classical_relative_entropy(GridDistribution(p), GridDistribution(q)),
        lambda p, q: joint_relative_entropy(
            joint_from_kernel(GridDistribution(p),
                              TransitionKernel.from_permutation(np.arange(p.size))),
            GridDistribution(q)),
        sorted_pairing_divergence,
        lambda p, q: permutation_min_bruteforce(GridDistribution(p), GridDistribution(q))[0],
        lambda p, q: spectral_relative_entropy(DensityMatrix(np.diag(p)),
                                               DensityMatrix(np.diag(q))),
        lambda p, q: geometric_relative_entropy(GeometricState(np.eye(p.size), p),
                                                GeometricState(np.eye(q.size), q)),
    ], ids=["classical", "joint", "sorted_pairing", "bruteforce", "spectral", "geometric"])
    def test_zero_reference_on_an_empty_cell_is_left_out(self, divergence):
        # p and q are both exactly 0 on cell 2: the sum runs over the support of p, and
        # no ln 0 is evaluated there (a RuntimeWarning fails the test).
        p, q = np.array([0.5, 0.5, 0.0]), np.array([0.25, 0.75, 0.0])
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert divergence(p, q) == pytest.approx(expected, rel=1e-14, abs=0)

    @pytest.mark.parametrize("divergence", [
        lambda p, q: spectral_relative_entropy(DensityMatrix(np.diag(p)),
                                               DensityMatrix(np.diag(q))),
        sorted_pairing_divergence,
        lambda p, q: classical_relative_entropy(GridDistribution(p), GridDistribution(q)),
        lambda p, q: geometric_relative_entropy(GeometricState(np.eye(p.size), p),
                                                GeometricState(np.eye(q.size), q)),
        lambda p, q: joint_relative_entropy(
            joint_from_kernel(GridDistribution(p),
                              TransitionKernel.from_permutation(np.arange(p.size))),
            GridDistribution(q)),
        lambda p, q: permutation_min_bruteforce(GridDistribution(p), GridDistribution(q)),
    ], ids=["spectral", "sorted_pairing", "classical", "geometric", "joint", "bruteforce"])
    def test_a_reference_that_vanishes_on_a_populated_entry_raises(self, divergence):
        # The reference is 0 on cell 1, which p populates: the matched geometric point
        # and the joint's populated final cell carry no reference weight.
        with pytest.raises(SupportViolation, match="vanishes"):
            divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_sorted_pairing_of_unequal_lengths_is_a_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch: 3 vs 2"):
            sorted_pairing_divergence([0.5, 0.5, 0.0], [1.0, 0.0])

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
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(np.arange(3)))
        p_eq = grid_gibbs(GRID3, 1.0)
        assert classical_ergotropy(joint, p_a, p_eq, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_shift_up(self):
        # Moving the point mass from cell 1 to cell 2 stores E_B(2) - E_B(1) = 1.
        p_a = GridDistribution(np.array([0.0, 1.0, 0.0]))
        shift = TransitionKernel.from_permutation(np.array([1, 2, 0]))
        joint = joint_from_kernel(p_a, shift)
        p_eq = grid_gibbs(GRID3, 1.0)
        assert classical_ergotropy(joint, p_a, p_eq, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_shift_down_goes_negative(self):
        p_a = GridDistribution(np.array([0.0, 1.0, 0.0]))
        shift = TransitionKernel.from_permutation(np.array([2, 0, 1]))
        joint = joint_from_kernel(p_a, shift)
        p_eq = grid_gibbs(GRID3, 1.0)
        assert classical_ergotropy(joint, p_a, p_eq, 1.0) == pytest.approx(-1.0, abs=1e-12)


    @pytest.mark.parametrize("beta", [0.05, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 7, 96, 1000])
    def test_a_permutation_fixing_every_populated_cell_reads_exactly_zero(self, n, beta):
        # Such a joint holds p_A's entries at their own rows, so D(J || p_eq) and
        # D(p_A || p_eq) sum the same live entries in the same order and cancel exactly,
        # whatever the empty cells do: a shell (odd trials) or scattered empty cells.
        for trial in range(6):
            rng = stream(58, 16 * n + trial)
            grid = PhaseGrid(energy_a=np.sort(rng.uniform(0.0, 2.0, n)),
                             energy_b=rng.uniform(0.0, 2.0, n))
            if trial % 2:
                p_a = microcanonical(grid, float(grid.energy_a[n // 2]), 2.0 / n)
            else:
                weights = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.5 + 0.1 * trial)
                weights[rng.integers(n)] += 0.5
                p_a = GridDistribution(weights / weights.sum())
            empty = np.flatnonzero(p_a.weights == 0.0)
            image = np.arange(n)
            image[empty] = rng.permutation(empty)
            joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(image))
            assert classical_ergotropy(joint, p_a, grid_gibbs(grid, beta), beta) == 0.0


class TestInhomogeneity:
    def test_identity_kernel_zero_vector(self):
        p_a = GridDistribution(np.array([0.2, 0.3, 0.5]))
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(np.arange(3)))
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
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(np.arange(3)))
        assert ergotropy_via_phi(joint, p_a, GRID3) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_shift(self):
        p_a = GridDistribution(np.array([0.0, 1.0, 0.0]))
        shift = TransitionKernel.from_permutation(np.array([1, 2, 0]))
        joint = joint_from_kernel(p_a, shift)
        assert ergotropy_via_phi(joint, p_a, GRID3) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.05, 1.0, 2.0])
    def test_mixing_kernel_adds_the_conditional_entropy(self, beta):
        # Chain rule: phi . E_B = classical_ergotropy + H(F|I) / beta for any doubly
        # stochastic kernel; a mixing one has H(F|I) > 0.
        p_a = GridDistribution(np.array([0.2, 0.3, 0.5]))
        mixed = TransitionKernel(random_doubly_stochastic(3, stream(10)))
        joint = joint_from_kernel(p_a, mixed)
        dense = mixed.matrix * p_a.weights
        live = dense[dense > 0.0]
        expected = float(-(live * np.log(live)).sum() + (p_a.weights * np.log(p_a.weights)).sum())
        conditional = _conditional_entropy(joint, p_a)
        assert conditional > 0.1
        assert conditional == pytest.approx(expected, abs=1e-15)
        via_entropy = classical_ergotropy(joint, p_a, grid_gibbs(GRID3, beta), beta)
        assert abs(ergotropy_via_phi(joint, p_a, GRID3) - (via_entropy + conditional / beta)) <= 1e-13

    @pytest.mark.parametrize("beta", [0.05, 1.0, 2.0])
    def test_identity_at_ten_thousand_cells_from_column_layers(self, beta):
        # Three layers: layer l sends cell j to sigma[(tau[j] + l) % n], so no column
        # repeats a row and every row and column sums to the weights' total.
        n, rng = 10_000, stream(12)
        sigma, tau, weights = rng.permutation(n), rng.permutation(n), rng.dirichlet(np.ones(3))
        rows = sigma[(tau[None, :] + np.arange(3)[:, None]) % n]
        kernel = TransitionKernel._of(rows, np.repeat(weights[:, None], n, axis=1))
        grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
        p_a = GridDistribution(rng.dirichlet(np.ones(n)))
        joint = joint_from_kernel(p_a, kernel)
        conditional = _conditional_entropy(joint, p_a)
        # Each column mixes with the same weights, so H(F|I) is their entropy.
        assert conditional == pytest.approx(-float(weights @ np.log(weights)), abs=1e-12)
        via_entropy = classical_ergotropy(joint, p_a, grid_gibbs(grid, beta), beta)
        via_phi = ergotropy_via_phi(joint, p_a, grid)
        assert abs(via_entropy - (via_phi - conditional / beta)) <= 1e-12

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
            p_eq = grid_gibbs(grid, beta)
            via_entropy = classical_ergotropy(joint, p_a, p_eq, beta)
            via_phi = ergotropy_via_phi(joint, p_a, grid)
            assert abs(via_entropy - via_phi) <= 1e-9
            assert _conditional_entropy(joint, p_a) == 0.0
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_pairing_avoids_an_empty_reference_cell(self):
        # Pairings that put the unit mass on q's empty cell 0 cost +inf; the others ln 2.
        p = GridDistribution(np.array([1.0, 0.0, 0.0]))
        q = GridDistribution(np.array([0.0, 0.5, 0.5]))
        value, perm = permutation_min_bruteforce(p, q)
        assert value == pytest.approx(math.log(2.0), rel=1e-15, abs=0)
        assert p.weights[perm[0]] == 0.0

    def test_size_guard(self):
        big = GridDistribution(np.full(9, 1.0 / 9))
        with pytest.raises(ValueError, match="n <= 8"):
            permutation_min_bruteforce(big, big)


def first_order_change(marginal, log_eq, epsilon, dense):
    """-eps (R m - m) . ln p_eq for a dense doubly stochastic R."""
    return -epsilon * float((dense @ marginal - marginal) @ log_eq)


def permutation_matrix(image):
    dense = np.zeros((image.size, image.size))
    dense[image, np.arange(image.size)] = 1.0
    return dense


class TestStationarityProbe:
    def test_zero_epsilon_is_exactly_flat(self):
        p_a = GridDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
        grid = PhaseGrid(energy_a=np.arange(4.0), energy_b=np.arange(4.0))
        p_eq = grid_gibbs(grid, 1.0)
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(np.array([1, 0, 3, 2])))
        probe = stationarity_probe(joint.final_marginal(), np.log(p_eq.weights), 0.0)
        assert probe.min_first_order == 0.0 and probe.max_first_order == 0.0
        assert probe.delta_total(joint, p_eq) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 6, 100, 416, 10_000])
    def test_uniform_first_order_vanishes(self, n):
        # Exactly 0 for a permutation kernel: its uniform marginal is uniform
        # to the bit, and the subtraction comes before the dot product.
        rng = stream(13, n)
        p_a = GridDistribution(np.full(n, 1.0 / n))
        grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(rng.permutation(n)))
        log_eq = np.log(grid_gibbs(grid, 3.0).weights)
        probe = stationarity_probe(joint.final_marginal(), log_eq, 1e-3)
        assert probe.min_first_order == 0.0 and probe.max_first_order == 0.0

    def test_point_mass_finds_negative_probes(self):
        n = 6
        weights = np.zeros(n)
        weights[n - 1] = 1.0  # mass parked on the highest-energy cell
        p_a = GridDistribution(weights)
        grid = PhaseGrid(energy_a=np.arange(float(n)), energy_b=np.linspace(0.0, 2.0, n))
        p_eq = grid_gibbs(grid, 1.0)
        joint = joint_from_kernel(p_a, TransitionKernel.from_permutation(np.arange(n)))
        probe = stationarity_probe(joint.final_marginal(), np.log(p_eq.weights), 0.1)
        # The extremal permutation moves the mass to the lowest-energy cell.
        assert probe.image[n - 1] == 0
        assert probe.min_first_order == pytest.approx(-0.1 * 2.0, rel=1e-14, abs=0)
        assert probe.max_first_order == 0.0
        assert probe.delta_total(joint, p_eq) < 0.0

    def test_infeasible_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            stationarity_probe(np.full(3, 1.0 / 3), np.log(np.full(3, 1.0 / 3)), 1.5)

    def test_mismatched_sizes_are_rejected(self):
        with pytest.raises(ValueError, match="size mismatch: 3 vs 4"):
            stationarity_probe(np.full(3, 1.0 / 3), np.zeros(4), 1e-3)
        p_a = GridDistribution(np.full(3, 1.0 / 3))
        probe = stationarity_probe(p_a.weights, np.log(grid_gibbs(GRID3, 1.0).weights), 1e-3)
        four = GridDistribution(np.full(4, 0.25))
        with pytest.raises(ValueError, match="size mismatch: 4 vs 3"):
            probe.delta_total(
                joint_from_kernel(four, TransitionKernel.from_permutation(np.arange(4))), four)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_extremes_equal_the_bruteforce_over_every_permutation(self, n):
        for trial in range(4):
            rng = stream(55, 8 * n + trial)
            marginal = rng.dirichlet(np.ones(n))
            if trial == 3:
                marginal = np.round(marginal, 1)  # ties
                marginal /= marginal.sum()
            log_eq = np.log(rng.dirichlet(np.ones(n)))
            probe = stationarity_probe(marginal, log_eq, 0.05)
            changes = [first_order_change(marginal, log_eq, 0.05, permutation_matrix(np.array(p)))
                       for p in permutations(range(n))]
            assert abs(probe.min_first_order - min(changes)) <= 1e-15
            assert abs(probe.max_first_order - max(changes)) <= 1e-15
            attained = first_order_change(marginal, log_eq, 0.05, permutation_matrix(probe.image))
            assert abs(attained - probe.min_first_order) <= 1e-15

    def test_no_random_mixture_leaves_the_extremes(self):
        # 10^4 Dirichlet mixtures of four random permutations at n = 50.
        n, count, epsilon = 50, 10_000, 1e-3
        rng = stream(56)
        marginal = rng.dirichlet(np.ones(n))
        log_eq = np.log(rng.dirichlet(np.ones(n)))
        probe = stationarity_probe(marginal, log_eq, epsilon)
        images = np.tile(np.arange(n), (4 * count, 1))
        rng.permuted(images, axis=1, out=images)
        moved = np.empty(images.shape)
        moved[np.arange(4 * count)[:, None], images] = marginal
        weights = rng.dirichlet(np.ones(4), size=count)
        mixed = np.einsum("kc,kcn->kn", weights, moved.reshape(count, 4, n))
        changes = -epsilon * ((mixed - marginal) @ log_eq)
        assert probe.min_first_order < 0.0 < probe.max_first_order
        assert changes.min() >= probe.min_first_order
        assert changes.max() <= probe.max_first_order

    @pytest.mark.parametrize("n", range(1, 8))
    def test_tied_energies_leave_a_passive_marginal_exactly_flat(self, n):
        # Degenerate energy levels: cells of equal ln p_eq in any order of m.
        # A marginal non-increasing in energy is passive, so its minimum is
        # exactly 0, and no permutation goes below it.
        rng = stream(57, n)
        levels = rng.integers(0, max(1, n // 2), n).astype(float)
        log_eq = np.log(grid_gibbs(PhaseGrid(energy_a=levels, energy_b=levels), 1.0).weights)
        marginal = rng.dirichlet(np.ones(n))
        # Populations falling with energy, and within a level with the index.
        marginal[np.argsort(-log_eq, kind="stable")] = np.sort(marginal)[::-1]
        probe = stationarity_probe(marginal, log_eq, 0.05)
        assert probe.min_first_order == 0.0
        changes = [first_order_change(marginal, log_eq, 0.05, permutation_matrix(np.array(p)))
                   for p in permutations(range(n))]
        assert min(changes) >= -1e-15
        assert abs(probe.max_first_order - max(changes)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_image_and_dense_joints_give_the_same_probe(self, n, uniform):
        # A dense permutation kernel reads back as the image kernel's single
        # layer, so the joints, the probe and its total change agree bit for bit.
        rng = stream(23, n)
        grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
        p_a = GridDistribution(np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n)))
        p_eq = grid_gibbs(grid, 1.0)
        image_kernel = TransitionKernel.from_permutation(rng.permutation(n))
        image_joint = joint_from_kernel(p_a, image_kernel)
        dense_joint = joint_from_kernel(p_a, TransitionKernel(image_kernel.matrix))
        assert image_joint.image is not None
        assert np.array_equal(dense_joint.rows, image_joint.rows)
        assert np.array_equal(dense_joint.values, image_joint.values)
        for epsilon in (0.3, 1e-3):
            by_image = stationarity_probe(image_joint.final_marginal(), np.log(p_eq.weights), epsilon)
            by_dense = stationarity_probe(dense_joint.final_marginal(), np.log(p_eq.weights), epsilon)
            assert by_image.min_first_order == by_dense.min_first_order
            assert by_image.max_first_order == by_dense.max_first_order
            assert np.array_equal(by_image.image, by_dense.image)
            assert by_image.delta_total(image_joint, p_eq) == by_dense.delta_total(dense_joint, p_eq)

    @pytest.mark.parametrize("n", [2, 3, 12, 40])
    @pytest.mark.parametrize("components", [1, 3])
    def test_total_change_matches_the_dense_perturbed_joint(self, n, components):
        # Against xi J formed densely, xi = (1 - eps) I + eps P(image).  At
        # n = 2 and 3 the extremal permutation fixes cells, so its layer lands
        # on entries of the joint's own and repeated entries must be summed
        # before x ln x; n = 40 is above numpy's 8-element pairwise-sum block.
        rng = stream(41 + components, n)
        grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
        p_a = GridDistribution(rng.dirichlet(np.ones(n)))
        kernel = TransitionKernel(random_doubly_stochastic(n, rng, components))
        if n >= 12:  # at n = 2 and 3 the three drawn permutations may coincide
            assert kernel.is_deterministic is (components == 1)
        joint = joint_from_kernel(p_a, kernel)
        p_eq = grid_gibbs(grid, 1.0)
        epsilon = 0.05
        probe = stationarity_probe(joint.final_marginal(), np.log(p_eq.weights), epsilon)
        log_eq = np.log(p_eq.weights)

        def relative_entropy(m):
            live = m[m > 1e-15]
            return float((live * np.log(live)).sum()) - float(m.sum(axis=1) @ log_eq)

        xi = (1.0 - epsilon) * np.eye(n) + epsilon * permutation_matrix(probe.image)
        expected = relative_entropy(xi @ joint.matrix) - relative_entropy(joint.matrix)
        assert abs(probe.delta_total(joint, p_eq) - expected) <= 1e-12
