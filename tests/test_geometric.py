"""Geometric states, the geometric relative entropy, and the manifold ensemble."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from ergokit import (
    DensityMatrix,
    GeometricState,
    HermitianOperator,
    SupportViolation,
    aligned_geometric_state,
    ergotropy_direct,
    ergotropy_geometric,
    ergotropy_via_entropies,
    geometric_partition_closed_form,
    geometric_partition_function,
    geometric_relative_entropy,
    geometric_state_of,
    gibbs_state,
    manifold_volume,
    spectral_relative_entropy,
)
from ergokit import _threads, geometric
from ergokit.ergotropy import optimal_alignment_unitary
from ergokit.errors import OutOfScope
from ergokit.geometric import _sample_energies
from ergokit.sampling import random_density, random_hermitian, stream
from haar import haar_unitaries

H01 = HermitianOperator(np.diag([0.0, 1.0]))
PLUS = DensityMatrix(np.full((2, 2), 0.5))


def _draw(energies, count, rng):
    """``_sample_energies`` at ``count`` points, into buffers of exactly that many rows."""
    buffers = np.empty((count, energies.size)), np.empty((count, 2)), np.empty(count)
    return _sample_energies(energies, rng, *buffers)


class TestPoints:
    """Row i of ``GeometricState.points`` is the unit vector that carries weight i."""

    def test_unit_rows_kept_as_given(self):
        points = np.array([[1j / math.sqrt(2), -1j / math.sqrt(2)], [0.6j, -0.8]])
        state = GeometricState(points=points, weights=np.array([0.5, 0.5]))
        assert np.allclose(state.points, points, rtol=0.0, atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            GeometricState(points=np.array([[1.0, 0.0], [1.0, 1.0]]), weights=np.array([0.5, 0.5]))

    def test_accepts_k_by_d_array(self):
        z = np.eye(3, dtype=complex)[:2]
        state = GeometricState(points=z, weights=np.array([0.3, 0.7]))
        assert state.points.shape == (2, 3) and state.dim == 3
        assert np.array_equal(state.points, z)
        assert np.array_equal(state.weights, [0.3, 0.7])
        assert not state.points.flags.writeable

    @pytest.mark.parametrize(
        "points, weights",
        [
            (np.array([0.6, 0.8]), np.array([0.5, 0.5])),  # one vector, not a (k, d) array
            (np.array([[1.0]]), np.array([1.0])),  # d < 2
            (np.eye(2), np.array([1.0])),  # two rows, one weight
            (np.eye(2)[:0], np.array([])),  # no rows
            (np.array([[np.nan, 0.0]]), np.array([1.0])),  # a NaN norm
            (np.eye(2), np.array([np.nan, 1.0])),  # a NaN weight
        ],
    )
    def test_rejects_malformed_arrays(self, points, weights):
        with pytest.raises(ValueError):
            GeometricState(points=points, weights=weights)

    def test_coincident_rows_merge_into_one(self):
        # [-1j, 0] is [1, 0] up to a global phase, so it merges into the first row.
        z = np.array([[1.0, 0.0], [0.0, 1.0], [-1j, 0.0]])
        state = GeometricState(points=z, weights=np.array([0.2, 0.5, 0.3]))
        assert np.array_equal(state.points, np.eye(2))
        assert np.allclose(state.weights, [0.5, 0.5])


class TestGeometricStateOf:
    def test_pure_state_single_point(self):
        state = geometric_state_of(DensityMatrix(np.diag([1.0, 0.0])))
        assert len(state.points) == 1
        assert state.weights[0] == pytest.approx(1.0)

    def test_maximally_mixed_two_antipodal_points(self):
        state = geometric_state_of(DensityMatrix(np.eye(2) / 2))
        assert len(state.points) == 2
        assert np.allclose(state.weights, [0.5, 0.5])
        overlap = abs(np.vdot(state.points[0], state.points[1]))
        assert overlap < 1e-10

    def test_reconstruction(self):
        rho = random_density(3, stream(0))
        state = geometric_state_of(rho)
        assert np.max(np.abs(state.density().matrix - rho.matrix)) < 1e-10

    def test_merge_duplicate_points(self):
        point = np.array([1.0, 0.0])
        state = GeometricState(points=np.array([point, point]), weights=np.array([0.4, 0.6]))
        assert len(state.points) == 1
        assert state.weights[0] == pytest.approx(1.0)


class TestAlignedState:
    def test_self_alignment(self):
        rho = random_density(3, stream(1))
        own = geometric_state_of(rho)
        aligned = aligned_geometric_state(rho, rho)
        assert geometric_relative_entropy(aligned, own) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_lands_on_ground(self):
        g = gibbs_state(H01, 1.0)
        aligned = aligned_geometric_state(PLUS, g.rho)
        assert len(aligned.points) == 1
        assert abs(abs(aligned.points[0, 0]) - 1.0) < 1e-10

    def test_density_matches_alignment_unitary(self):
        rho = random_density(4, stream(2))
        sigma = random_density(4, stream(3))
        aligned = aligned_geometric_state(rho, sigma)
        u = optimal_alignment_unitary(rho, sigma)
        assert np.max(np.abs(aligned.density().matrix - u @ rho.matrix @ u.conj().T)) < 1e-10


class TestGeometricRelativeEntropy:
    def test_identical_states_zero(self):
        state = geometric_state_of(random_density(3, stream(4)))
        assert geometric_relative_entropy(state, state) == pytest.approx(0.0, abs=1e-12)

    def test_aligned_plus_vs_gibbs(self):
        g = gibbs_state(H01, 1.0)
        aligned = aligned_geometric_state(PLUS, g.rho)
        reference = geometric_state_of(g.rho)
        assert geometric_relative_entropy(aligned, reference) == pytest.approx(g.log_z, abs=1e-10)

    def test_orthogonal_points_mismatch(self):
        a = GeometricState(points=np.array([[1.0, 0.0]]), weights=np.array([1.0]))
        b = GeometricState(points=np.array([[0.0, 1.0]]), weights=np.array([1.0]))
        with pytest.raises(SupportViolation):
            geometric_relative_entropy(a, b)

    def test_ambiguous_pairing_mismatch(self):
        # p's second point lies within the match deficit of both reference points.
        def state(angles, weights):
            points = np.array([[math.cos(t), math.sin(t)] for t in angles])
            return GeometricState(points=points, weights=np.array(weights))

        p = state((0.0, 2e-6), (0.6, 0.4))
        s = state((1e-6, 2.5e-6), (0.5, 0.5))
        assert (len(p.points), len(s.points)) == (2, 2)
        with pytest.raises(SupportViolation):
            geometric_relative_entropy(p, s)

    def test_more_points_than_reference_mismatch(self):
        mixed = geometric_state_of(DensityMatrix(np.eye(2) / 2))
        pure = geometric_state_of(DensityMatrix(np.diag([1.0, 0.0])))
        with pytest.raises(SupportViolation):
            geometric_relative_entropy(mixed, pure)

    def test_equals_spectral_divergence(self):
        for trial in range(100):
            dim = 2 + trial % 5
            rho = random_density(dim, stream(5, 2 * trial))
            sigma = random_density(dim, stream(5, 2 * trial + 1))
            value = geometric_relative_entropy(
                aligned_geometric_state(rho, sigma), geometric_state_of(sigma)
            )
            assert abs(value - spectral_relative_entropy(rho, sigma)) <= 1e-9

    @pytest.mark.parametrize(
        "dim, rank, expected",
        [
            (2, None, "0x1.7bce91d1c36bfp-2"),
            (5, 2, "0x1.494b1d7441403p-2"),
            (8, None, "0x1.24678e0e3d840p-8"),
            (16, 8, "0x1.29001b9bc17cep-3"),
        ],
    )
    def test_pinned_bits(self, dim, rank, expected):
        # Bit pins: a change to how points are normalized, phase-fixed or merged that
        # moves the matching or the weights by one ulp fails here.
        rho = random_density(dim, stream(40, dim), rank=rank)
        sigma = random_density(dim, stream(41, dim))
        value = geometric_relative_entropy(
            aligned_geometric_state(rho, sigma), geometric_state_of(sigma)
        )
        assert value.hex() == expected

    def test_degenerate_weights_paired_geometrically(self):
        # Equal weights on distinct points must match by geometry, not order.
        u = haar_unitaries(3, 1, stream(6))[0]
        rho = DensityMatrix(u @ np.diag([0.4, 0.4, 0.2]) @ u.conj().T)
        state = geometric_state_of(rho)
        order = [1, 0, 2]
        reordered = GeometricState(points=state.points[order], weights=state.weights[order])
        assert geometric_relative_entropy(state, reordered) == pytest.approx(0.0, abs=1e-12)


class TestGeometricErgotropy:
    def test_gibbs_zero(self):
        from ergokit.sampling import random_hermitian

        h = random_hermitian(3, stream(7))
        g = gibbs_state(h, 1.0)
        assert ergotropy_geometric(g.rho, h, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_plus_state_half(self):
        assert ergotropy_geometric(PLUS, H01, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_builds_no_points_and_no_matching(self, monkeypatch):
        from ergokit.sampling import random_hermitian

        def refuse(*args, **kwargs):
            raise AssertionError("geometric matching used")

        for name in ("GeometricState", "_weights_on", "_overlap_deficits"):
            monkeypatch.setattr(geometric, name, refuse)
        rho = random_density(6, stream(10))
        h = random_hermitian(6, stream(11))
        assert ergotropy_geometric(rho, h, 1.0) == pytest.approx(
            ergotropy_direct(rho, h), abs=1e-12
        )

    def test_triple_route_agreement(self):
        from ergokit.sampling import random_hermitian

        for trial in range(500):
            dim = 2 + trial % 5
            rho = random_density(dim, stream(8, 2 * trial))
            h = random_hermitian(dim, stream(9, trial))
            direct = ergotropy_direct(rho, h)
            via = ergotropy_via_entropies(rho, h, 1.0)
            geom = ergotropy_geometric(rho, h, 1.0)
            scale = 1.0 + abs(direct)
            assert abs(direct - via) <= 1e-8 * scale
            assert abs(direct - geom) <= 1e-8 * scale


class TestUniformSampler:
    def test_qubit_component_moment(self):
        population = _draw(np.array([1.0, 0.0]), 100_000, stream(0))
        assert abs(float(population.mean()) - 0.5) < 0.005

    def test_component_moment_general_dim(self):
        for dim in (3, 5):
            # Unit energies pick out each population |z_k|^2 of the same draw.
            moments = np.array(
                [_draw(e_k, 50_000, stream(1)).mean() for e_k in np.eye(dim)]
            )
            # Var(|z_a|^2) = (d-1)/(d^2 (d+1)); stay within 4 sigma of 1/d.
            sigma = math.sqrt((dim - 1) / (dim**2 * (dim + 1)) / 50_000)
            assert np.max(np.abs(moments - 1.0 / dim)) < 4.0 * sigma

    def test_bit_identical_for_fixed_seed(self):
        energies = np.array([0.0, 0.4, 1.0])
        a = _draw(energies, 50, stream(42))
        b = _draw(energies, 50, stream(42))
        assert np.array_equal(a, b)
        h = random_hermitian(3, stream(6))
        assert geometric_partition_function(h, 1.0, 1_000, 42) == geometric_partition_function(
            h, 1.0, 1_000, 42
        )

    def test_fused_sums_match_separate_reductions(self):
        # One product gives the energy sum and the plain sum.  On the same stream they match
        # x @ E over x.sum(axis=1) up to the rounding of d-term sums, measured against the
        # energy scale sum_k |E_k| w_k, since signed energies may cancel.
        for dim in (2, 3, 16, 64):
            energies = np.linalg.eigvalsh(random_hermitian(dim, stream(30, dim)).matrix)
            fused = _draw(energies, 20_000, stream(31, dim))
            x = stream(31, dim).standard_exponential((20_000, dim))
            separate = (x @ energies) / x.sum(axis=1)
            scale = (x @ np.abs(energies)) / x.sum(axis=1)
            deviation = np.max(np.abs(fused - separate) / scale)
            assert deviation <= 4.0 * np.finfo(float).eps * math.sqrt(dim)

    def test_simplex_energies_match_uniform_points(self):
        # <z|H|z> over normalized complex Gaussians z, against sum_k E_k w_k
        # over the simplex draw with H's eigenvalues: the same distribution.
        h = random_hermitian(3, stream(2))
        g = stream(3)
        z = g.standard_normal((200_000, 3)) + 1j * g.standard_normal((200_000, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        direct = np.einsum("ni,ij,nj->n", z.conj(), h.matrix, z).real
        simplex = _draw(np.linalg.eigvalsh(h.matrix), 200_000, stream(4))
        assert ks_2samp(direct, simplex).statistic <= 0.01

    def test_fills_the_leading_rows_of_the_callers_buffers(self):
        # One set of buffers serves a full block and then a short one: each call returns a
        # view of the caller's out, with the bits of a fresh draw and product on its stream.
        energies = np.array([0.0, 0.4, 1.0])
        x, sums, out = np.empty((1000, 3)), np.empty((1000, 2)), np.empty(1000)
        coef = np.stack([energies, np.ones(3)], axis=1)
        for index, count in ((0, 1000), (1, 347)):
            drawn = _sample_energies(energies, stream(7, index), x, sums, out[:count])
            fresh = stream(7, index).standard_exponential((count, 3)) @ coef
            assert np.shares_memory(drawn, out) and drawn.shape == (count,)
            assert drawn.tobytes() == (fresh[:, 0] / fresh[:, 1]).tobytes()


class TestPartitionFunction:
    def test_qubit_estimate_matches_closed_form(self):
        estimate, stderr = geometric_partition_function(H01, 1.0, 400_000, seed=0)
        closed = geometric_partition_closed_form(H01, 1.0)
        assert abs(estimate - closed) <= 4.0 * stderr

    def test_closed_form_against_quadrature(self):
        # Independent oracle: 1-D quadrature over the Bloch polar angle with
        # volume element (1/4) sin(theta) dtheta dphi.
        beta, e0, e1 = 1.3, 0.2, 1.7
        h = HermitianOperator(np.diag([e0, e1]))

        def integrand(theta):
            energy = e0 * math.cos(theta / 2) ** 2 + e1 * math.sin(theta / 2) ** 2
            return 0.5 * math.pi * math.sin(theta) * math.exp(-beta * energy)

        numeric, _ = quad(integrand, 0.0, math.pi, epsabs=1e-12)
        assert geometric_partition_closed_form(h, beta) == pytest.approx(numeric, abs=1e-10)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="positive and finite"):
            geometric_partition_function(H01, beta, 1_000, seed=0)

    def test_high_temperature_limit_is_volume(self):
        estimate, _ = geometric_partition_function(H01, 1e-9, 10_000, seed=1)
        assert estimate == pytest.approx(manifold_volume(2), rel=1e-6)

    def test_degenerate_spectrum_zero_variance(self):
        h = HermitianOperator(np.diag([0.7, 0.7]))
        estimate, stderr = geometric_partition_function(h, 2.0, 1_000, seed=2)
        assert estimate == pytest.approx(math.pi * math.exp(-1.4), rel=1e-12)
        assert stderr <= 1e-12

    def test_volume_normalization(self):
        assert manifold_volume(2) == pytest.approx(math.pi)
        assert manifold_volume(4) == pytest.approx(math.pi**3 / 6.0)

    def test_output_bits_do_not_depend_on_the_worker_count(self, monkeypatch):
        # Blocks of 1000 samples at d = 5: 50 blocks, in the calling thread on one usable CPU,
        # and on two claimed one at a time by two halves, which finish out of block order.
        # Each half draws through its own generator, so the spy sees the thread of each half.
        h = random_hermitian(5, stream(9))
        monkeypatch.setattr(geometric, "MC_BLOCK_DRAWS", 5000)
        halves = []
        streams = geometric._streams

        def spy(seed, indices):
            halves.append(threading.get_ident())
            return streams(seed, indices)

        monkeypatch.setattr(geometric, "_streams", spy)
        monkeypatch.setattr(_threads, "_usable_cpus", lambda: 1)
        serial = geometric_partition_function(h, 1.0, 50_000, seed=3)
        assert halves == [threading.get_ident()]
        monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
        assert geometric_partition_function(h, 1.0, 50_000, seed=3) == serial
        assert len(halves) == 3 and len(set(halves[1:])) == 2  # the helper thread drew

    def test_every_block_is_drawn_once_under_fast_thread_switches(self, monkeypatch):
        # 200 blocks of 10 samples, drawn on one usable CPU, then on two by both halves popping
        # from one list while the interpreter switches threads every microsecond: a block
        # drawn twice or lost changes the bits or raises KeyError in the merge.
        h = random_hermitian(5, stream(10))
        monkeypatch.setattr(geometric, "MC_BLOCK_DRAWS", 50)
        monkeypatch.setattr(_threads, "_usable_cpus", lambda: 1)
        serial = geometric_partition_function(h, 1.0, 2000, seed=4)
        monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert geometric_partition_function(h, 1.0, 2000, seed=4) == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("dim, samples, blocks", [
        (2, 20_000, 1), (2, 40_000, 2), (2, 100_000, 4), (12, 20_000, 4), (64, 4_096, 4)])
    def test_runs_of_two_blocks_split_at_the_default_block_size(self, monkeypatch, dim,
                                                                 samples, blocks):
        # On two usable CPUs a run of two or more blocks draws in two halves and a one-block
        # run stays in the calling thread; the floats equal those of one CPU.  Split, a
        # calling thread that draws the first block then waits (at most 30 s) until the
        # helper has drawn one, so the helper's block shows however the threads are scheduled.
        h = random_hermitian(dim, stream(11, dim))
        caller, drawn, helper_drew = threading.get_ident(), [], threading.Event()
        sample = geometric._sample_energies

        def spy(*args):
            out = sample(*args)
            drawn.append(threading.get_ident())
            if drawn[-1] != caller:
                helper_drew.set()
            elif wait and len(drawn) == 1:
                helper_drew.wait(30)
            return out

        monkeypatch.setattr(geometric, "_sample_energies", spy)
        monkeypatch.setattr(_threads, "_usable_cpus", lambda: 1)
        wait = False
        one = geometric_partition_function(h, 0.7, samples, seed=2)
        assert drawn == [caller] * blocks
        monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
        drawn.clear()
        wait = blocks > 1
        assert geometric_partition_function(h, 0.7, samples, seed=2) == one
        helper_blocks = sum(ident != caller for ident in drawn)
        assert len(drawn) == blocks
        assert helper_blocks >= 1 if blocks > 1 else helper_blocks == 0

    def test_blocks_are_the_seeds_streams_merged(self):
        # d = 4 draws 16384 samples per block: 20 000 samples are block 0 from
        # stream(seed, 0) and 3616 samples of block 1 from stream(seed, 1), merged by
        # the pairwise update of Chan, Golub and LeVeque.
        energies = np.array([0.0, 0.3, 1.1, 2.0])
        h = HermitianOperator(np.diag(energies))
        sizes = (geometric.MC_BLOCK_DRAWS // 4, 20_000 - geometric.MC_BLOCK_DRAWS // 4)
        assert sizes == (16384, 3616)
        w = [np.exp(-0.7 * _draw(energies, m, stream(5, b)))
             for b, m in enumerate(sizes)]
        means = [float(x.mean()) for x in w]
        m2 = sum(float(((x - mu) ** 2).sum()) for x, mu in zip(w, means))
        m2 += (means[1] - means[0]) ** 2 * sizes[0] * sizes[1] / 20_000
        mean = (sizes[0] * means[0] + sizes[1] * means[1]) / 20_000
        volume = manifold_volume(4)
        estimate, stderr = geometric_partition_function(h, 0.7, 20_000, seed=5)
        assert estimate == pytest.approx(volume * mean, rel=1e-14, abs=0)
        assert stderr == pytest.approx(volume * math.sqrt(m2 / 19_999 / 20_000), rel=1e-12, abs=0)

    def test_estimates_pinned_bit_for_bit(self, two_cpus):
        # (energies, beta, samples, seed): d = 2 draws three full blocks and one of 1 696
        # samples, d = 4 a full block and a short one, and d = 16 245 blocks, each in two
        # halves.  The hex digits fix every output bit of the estimator.
        pinned = [
            ([0.0, 1.0], 1.0, 100_000, 3, "0x1.fcbf06e24466ap+0", "0x1.d7e0c53eaf9e3p-10"),
            ([0.0, 0.3, 1.1, 2.0], 0.7, 20_000, 5, "0x1.780d76f28b93ep+1", "0x1.42428ee67efd2p-8"),
            (list(range(16)), 1.0, 1_000_000, 3, "0x1.82f1cb3e9c90bp-26", "0x1.28a5ebf994901p-35"),
        ]
        for energies, beta, n, seed, estimate, stderr in pinned:
            h = HermitianOperator(np.diag(np.array(energies, dtype=float)))
            result = geometric_partition_function(h, beta, n, seed)
            assert tuple(x.hex() for x in result) == (estimate, stderr)

    def test_working_set_is_one_block(self):
        # Drawn whole, 10^5 samples at d = 64 hold 51.2 MB of exponentials; each of the two
        # threads holds one block of MC_BLOCK_DRAWS exponentials, 0.5 MB.
        h = HermitianOperator(np.diag(np.arange(64.0)))
        tracemalloc.start()
        try:
            geometric_partition_function(h, 0.05, 100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_seed_sweep_within_four_sigma(self):
        closed = geometric_partition_closed_form(H01, 1.0)
        for seed in range(5):
            estimate, stderr = geometric_partition_function(H01, 1.0, 100_000, seed=seed)
            assert abs(estimate - closed) <= 4.0 * stderr

    def test_non_diagonal_hamiltonian_matches_hermite_genocchi(self):
        # The CLI and the benchmark pass diagonal H only; a kernel that read
        # H's diagonal instead of its spectrum would fail here.
        h = random_hermitian(4, stream(8))
        assert np.max(np.abs(h.matrix - np.diag(np.diag(h.matrix)))) > 0.1
        exact = geometric_partition_closed_form(h, 1.0)
        for seed in range(5):
            estimate, stderr = geometric_partition_function(h, 1.0, 400_000, seed=seed)
            assert abs(estimate - exact) <= 4.0 * stderr

    def test_hermite_genocchi_reference_is_the_qubit_closed_form(self):
        h = HermitianOperator(np.diag([0.2, 1.7]))
        qubit = math.pi * (math.exp(-1.3 * 0.2) - math.exp(-1.3 * 1.7)) / (1.3 * 1.5)
        assert geometric_partition_closed_form(h, 1.3) == pytest.approx(qubit, rel=1e-13, abs=0)


# name: (energies, or d for random_hermitian(d, stream(d)); beta; mpmath value).
PINNED_PARTITION_FUNCTIONS = {
    "random-2": (2, 1.3, "8.8297976319011256929"),
    "random-16": (16, 2.0, "0.000079609385701851190401"),
    "random-32": (32, 3.0, "2.3207516382488369378e-17"),
    "random-64": (64, 5.0, "1.4277891899832106897e-51"),
    "degenerate-4": ([0.3, 0.3, 1.0, 1.0], 2.0, "1.4785946589359643881"),
    "degenerate-6": ([0.0, 0.0, 0.0, 1.0, 2.0, 2.0], 1.5, "0.82666617365951507758"),
    # beta (E_max - E_min) = 735 and 740, next to the Gibbs edge near 745; e^(min y)
    # is subnormal, and at d = 2 the sum passes 1e300 and is rescaled.
    "edge-16": (list(range(16)), 49.0, "9.7231565632292614231e-31"),
    "edge-2": ([0.0, 1.0], 740.0, "0.0042453954778240449168"),
}


class TestClosedForm:
    @pytest.mark.parametrize("name", sorted(PINNED_PARTITION_FUNCTIONS))
    def test_matches_pinned_mpmath_values(self, name):
        """pi^(d-1) exp[-beta E_1, ..., -beta E_d] from the float eigenvalues at
        600 digits (distinct points) or 60 digits (repeated points, through the
        bidiagonal expm of Opitz).  CI installs no mpmath, so the values are
        pasted; they came from::

            import mpmath as mp
            def reference(energies, beta):
                distinct = len(set(energies)) == len(energies)
                mp.mp.dps = 600 if distinct else 60
                y = [-mp.mpf(float(beta)) * mp.mpf(float(e)) for e in energies]
                if distinct:
                    dd = mp.fsum(mp.exp(a) / mp.fprod(a - b for b in y if b is not a)
                                 for a in y)
                else:
                    d = len(y)
                    j = mp.diag(y) + mp.matrix([[int(c == r + 1) for c in range(d)]
                                                for r in range(d)])
                    dd = mp.expm(j)[0, d - 1]
                return mp.nstr(mp.pi ** (len(y) - 1) * dd, 20)

        with energies = np.linalg.eigvalsh(random_hermitian(d, stream(d)).matrix)
        for the random cases.
        """
        spectrum, beta, value = PINNED_PARTITION_FUNCTIONS[name]
        if isinstance(spectrum, int):
            h = random_hermitian(spectrum, stream(spectrum))
        else:
            h = HermitianOperator(np.diag(np.asarray(spectrum, dtype=float)))
        closed = geometric_partition_closed_form(h, beta)
        assert closed == pytest.approx(float(value), rel=1e-12, abs=0)

    def test_fully_degenerate_spectrum_is_volume_times_boltzmann_weight(self):
        h = HermitianOperator(np.diag([0.7] * 5))
        expected = manifold_volume(5) * math.exp(-1.4)
        assert geometric_partition_closed_form(h, 2.0) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_out_of_scope_past_the_gibbs_edge(self):
        with pytest.raises(OutOfScope):
            geometric_partition_closed_form(HermitianOperator(np.diag(np.arange(16.0))), 50.0)

    def test_monte_carlo_agrees_above_the_qubit(self):
        for dim in (3, 6, 16):
            h = random_hermitian(dim, stream(20, dim))
            estimate, stderr = geometric_partition_function(h, 1.5, 200_000, seed=dim)
            assert abs(estimate - geometric_partition_closed_form(h, 1.5)) <= 4.0 * stderr
