"""Core linear algebra, spectra, Gibbs states, entropies, and coherence."""

import math
import os
import signal
import threading
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from ergokit import (
    DensityMatrix,
    DrivingProtocol,
    GeometricState,
    GridDistribution,
    HermitianOperator,
    PhaseGrid,
    SupportViolation,
    TransitionKernel,
    aligned_geometric_state,
    classical_relative_entropy,
    coherence_relative_entropy,
    conditional_thermal_state,
    dephase,
    eigendecompose,
    ergotropy_via_phi,
    expectation,
    geometric_relative_entropy,
    gibbs_state,
    inhomogeneity_phi,
    joint_from_kernel,
    joint_relative_entropy,
    passive_energy,
    permutation_min_bruteforce,
    quantum_relative_entropy,
    spectral_relative_entropy,
    step_product,
    von_neumann_entropy,
)
from ergokit import _threads
from ergokit.classical import WEIGHT_FLOOR
from ergokit.ergotropy import optimal_alignment_unitary
from ergokit.errors import OutOfScope
from ergokit.quantum import (
    SUPPORT_FLOOR, _density_stack, _divergences, _eigh_stack, _hermitian_stack, _logsumexp,
    _spectra, _states, spectral_context,
)
from ergokit.sampling import _streams, random_density, random_hermitian, stream
from ergokit.serialize import grid_from_csv, matrix_to_json
from haar import haar_unitaries

PLUS = DensityMatrix(np.full((2, 2), 0.5))
H01 = HermitianOperator(np.diag([0.0, 1.0]))


def gibbs_populations(energies, beta):
    w = np.exp(-beta * np.asarray(energies, dtype=float))
    return w / w.sum()


class TestConstruction:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_clamps_tiny_negative_eigenvalue(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
        w = np.linalg.eigvalsh(rho.matrix)
        assert w.min() >= 0.0
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-14

    def test_matrices_are_read_only(self):
        with pytest.raises(ValueError):
            H01.matrix[0, 0] = 5.0


class TestEigendecompose:
    def test_diagonal_ascending(self):
        spec = eigendecompose(H01, "ascending")
        assert np.allclose(spec.values, [0.0, 1.0])
        assert np.allclose(np.abs(spec.vectors), np.eye(2))

    def test_projector_descending(self):
        spec = eigendecompose(DensityMatrix(np.full((2, 2), 0.5)), "descending")
        assert np.allclose(spec.values, [1.0, 0.0], atol=1e-12)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(spec.vectors[:, 0], [s, s], atol=1e-12)
        assert np.allclose(np.abs(spec.vectors[:, 1]), [s, s], atol=1e-12)

    def test_reconstruction_random(self):
        rng = stream(5)
        op = random_hermitian(5, rng)
        spec = eigendecompose(op, "descending")
        assert np.max(np.abs(spec.reconstruct() - op.matrix)) < 1e-10
        residual = np.linalg.norm(op.matrix @ spec.vectors - spec.vectors * spec.values, axis=0)
        assert residual.max() <= 1e-9 * np.abs(spec.values).max()

    def test_orthonormal_columns(self):
        spec = eigendecompose(random_density(6, stream(8)), "descending")
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_degenerate_spectra_and_clusters_are_reproducible(self):
        # Two-fold degenerate subspace reached through different roundings.
        rng = stream(13)
        u = haar_unitaries(3, 1, rng)[0]
        m = u @ np.diag([0.5, 0.25, 0.25]) @ u.conj().T
        a = eigendecompose(DensityMatrix(m), "descending")
        b = eigendecompose(DensityMatrix(m.conj().T.conj().T + 0.0), "descending")
        assert np.allclose(a.vectors, b.vectors, atol=1e-12)
        assert a.clusters == ((0,), (1, 2))

    @pytest.mark.parametrize("seed", range(3))
    def test_near_degenerate_pair_on_a_small_spectrum_decomposes(self, seed):
        # Eigenvalues 7 and 8 lie 1e-10 apart, inside the degeneracy tolerance: a basis that
        # mixed their vectors would miss the residual gate, which is 1e-9 * 0.07 here.  The
        # spectrum keeps the eigensolver's own pairs, so this decomposes.
        u = haar_unitaries(16, 1, stream(seed))[0]
        p = 1.0 / 16 + 1e-3 * (np.arange(16) - 7.5)
        p[7:9] = p[7:9].mean() + np.array([0.5e-10, -0.5e-10])
        assert p.max() <= 0.2
        spec = eigendecompose(DensityMatrix((u * p) @ u.conj().T), "descending")
        assert (7, 8) in spec.clusters
        assert np.max(np.abs(spec.values - np.sort(p)[::-1])) <= 1e-15
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.max(np.abs(gram - np.eye(16))) < 1e-12

    def test_residual_gate_rejects_a_bad_eigensolver_pair(self, monkeypatch):
        eigh = np.linalg.eigh

        def skewed_eigh(matrices):
            w, v = eigh(matrices)
            return w, v + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
        with pytest.raises(ValueError, match="eigensolver residual"):
            eigendecompose(random_density(4, stream(3)), "descending")

    def test_vectors_are_the_eigensolver_columns_in_the_requested_order(self):
        rho = random_density(4, stream(21))
        w, v = np.linalg.eigh(rho.matrix)
        for order, step in (("descending", -1), ("ascending", 1)):
            spec = eigendecompose(rho, order)
            assert np.array_equal(spec.values, w[::step])
            assert np.array_equal(spec.vectors, v[:, ::step])


class TestStoredSpectrum:
    def test_one_eigh_per_object_in_either_order(self, eigensolver_calls):
        for first, second in (("ascending", "descending"), ("descending", "ascending")):
            op = random_hermitian(5, stream(30))
            eigensolver_calls.update(eigh=0, eigvalsh=0)
            a = eigendecompose(op, first)
            b = eigendecompose(op, second)
            assert eigendecompose(op, first) is a
            assert eigendecompose(op, second) is b
            assert eigensolver_calls == {"eigh": 1, "eigvalsh": 0, "qr": 0}
            assert np.array_equal(a.values, b.values[::-1])

    def test_equal_matrices_in_distinct_objects_are_diagonalized_apart(self, eigensolver_calls):
        m = random_hermitian(4, stream(31)).matrix
        first, second = HermitianOperator(m), HermitianOperator(m)
        eigensolver_calls.update(eigh=0, eigvalsh=0)
        eigendecompose(first, "ascending")
        eigendecompose(second, "ascending")
        assert eigensolver_calls["eigh"] == 2

    def test_density_matrix_keeps_its_validating_eigh(self, eigensolver_calls):
        rho = random_density(5, stream(32))
        eigensolver_calls.update(eigh=0, eigvalsh=0)
        spec = eigendecompose(rho, "descending")
        von_neumann_entropy(rho)
        assert eigensolver_calls == {"eigh": 0, "eigvalsh": 0, "qr": 0}
        assert np.max(np.abs(spec.reconstruct() - rho.matrix)) < 1e-12

    def test_trace_rounded_state_keeps_its_validating_eigh(self, eigensolver_calls):
        m = random_density(5, stream(35)).matrix * (1.0 + 3e-13)
        rho = DensityMatrix(m)
        eigensolver_calls.update(eigh=0, eigvalsh=0)
        spec = eigendecompose(rho, "descending")
        von_neumann_entropy(rho)
        assert eigensolver_calls == {"eigh": 0, "eigvalsh": 0, "qr": 0}
        assert abs(rho.matrix.trace().real - 1.0) <= 1e-15
        assert np.max(np.abs(spec.reconstruct() - rho.matrix)) < 1e-12

    def test_clamped_state_gets_the_spectrum_of_its_stored_matrix(self):
        u = haar_unitaries(3, 1, stream(33))[0]
        m = u @ np.diag([0.7 + 4e-11, 0.3, -4e-11]) @ u.conj().T
        rho = DensityMatrix(m)
        spec = eigendecompose(rho, "descending")
        assert np.array_equal(spec.values, np.linalg.eigh(rho.matrix)[0][::-1])
        assert spec.values.min() >= -1e-15
        assert np.max(np.abs(spec.reconstruct() - rho.matrix)) < 1e-12

    def test_stored_arrays_are_read_only(self):
        spec = eigendecompose(random_hermitian(3, stream(34)), "ascending")
        with pytest.raises(ValueError):
            spec.values[0] = 0.0
        with pytest.raises(ValueError):
            spec.vectors[0, 0] = 0.0


def _stack(length: int, dim: int, seed: int) -> np.ndarray:
    """A stack of Hermitian matrices; where dim >= 3, row 0 has a twice degenerate level."""
    m = np.array([random_hermitian(dim, stream(seed, k)).matrix for k in range(length)])
    if dim >= 3:
        u = haar_unitaries(dim, 1, stream(seed, length))[0]
        levels = np.linspace(-1.0, 1.0, dim)
        levels[1] = levels[0]
        m[0] = (u * levels) @ u.conj().T
    return m


class TestSplitEigh:
    """A stacked eigh in two halves, the first on the helper thread, keeps every bit of
    the whole-stack call: LAPACK solves each matrix of a stack on its own."""

    @pytest.mark.parametrize("length, dim", [(2, 1), (5, 1), (4, 3), (7, 3), (2, 16), (9, 16)])
    def test_halves_equal_the_whole_stack(self, monkeypatch, two_cpus, eigensolver_calls,
                                          length, dim):
        m = _stack(length, dim, seed=40 + dim)
        w, v = np.linalg.eigh(m)
        monkeypatch.setattr(_threads, "EIGH_SPLIT_ENTRIES", 0)
        threads = []
        counted = np.linalg.eigh

        def spy(a):
            threads.append((threading.get_ident(), len(a)))
            return counted(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        halves_w, halves_v = _eigh_stack(m)
        assert sorted(n for _, n in threads) == sorted([length // 2, length - length // 2])
        assert len({ident for ident, _ in threads}) == 2
        # The whole stack and its two halves: the same matrices are solved twice.
        assert eigensolver_calls["eigh"] == 3
        assert eigensolver_calls.matrices["eigh"] == 2 * length
        assert halves_w.shape == w.shape and halves_v.shape == v.shape
        assert halves_w.tobytes() == w.tobytes()
        assert halves_v.tobytes() == v.tobytes()

    def test_claimed_parts_go_out_once_in_turn(self, monkeypatch):
        # On one usable CPU, one call takes every part in order; on two, the two calls claim
        # parts in turn, each once, whichever thread is faster.
        monkeypatch.setattr(_threads, "_usable_cpus", lambda: 1)
        assert _threads.claimed(lambda claims: {"order": list(claims)}, 5) == {
            "order": [0, 1, 2, 3, 4]}
        monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
        threads = _threads.claimed(lambda claims: {k: threading.get_ident() for k in claims},
                                   200)
        assert sorted(threads) == list(range(200))
        assert threading.get_ident() in threads.values()

    def test_an_error_in_either_half_is_raised_once_both_halves_end(self, two_cpus):
        # The helper's half raises in the calling thread; when the calling thread's half
        # raises, the helper's half has ended first.  The helper serves the next job.
        def fail_first(part):
            if part.start == 0:
                raise ZeroDivisionError("first half")
            return part

        with pytest.raises(ZeroDivisionError, match="first half"):
            _threads.in_halves(fail_first, 2, 1, 0)
        ended = threading.Event()

        def fail_second(part):
            if part.start == 0:
                time.sleep(0.2)  # still running when the calling thread's half raises
                ended.set()
                return part
            raise KeyError("second half")

        with pytest.raises(KeyError, match="second half"):
            _threads.in_halves(fail_second, 2, 1, 0)
        assert ended.is_set()
        assert _threads.in_halves(lambda part: part, 2, 1, 0) == [slice(0, 1), slice(1, 2)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_a_helper_of_its_own(self, two_cpus):
        # The parent's helper thread does not exist in a child: a split job there must
        # start a new one, not wait forever on the copy.
        assert _threads.in_halves(lambda part: part, 2, 1, 0) == [slice(0, 1), slice(1, 2)]
        pid = os.fork()
        if pid == 0:
            signal.alarm(20)
            halves = _threads.in_halves(lambda part: (part.start, part.stop), 4, 1, 0)
            os._exit(0 if halves == [(0, 2), (2, 4)] else 1)
        assert os.waitpid(pid, 0)[1] == 0

    @pytest.mark.parametrize("dim", [3, 16])
    def test_blocks_keep_their_bits_split_or_whole(self, monkeypatch, two_cpus, dim):
        # Density matrices with a clamped row and a rounded trace, then Hermitian operators
        # through their spectra, with the split forced on and then disabled.
        states = np.array([random_density(dim, stream(50, k)).matrix for k in range(7)])
        states[2] *= 1.0 + 3e-13
        u = haar_unitaries(dim, 1, stream(51))[0]
        levels = np.linspace(0.0, 1.0, dim)
        states[4] = (u * np.r_[-4e-11, levels[1:] / levels[1:].sum()]) @ u.conj().T
        operators = _stack(9, dim, seed=52)
        runs = []
        for entries in (0, 2**62):
            monkeypatch.setattr(_threads, "EIGH_SPLIT_ENTRIES", entries)
            m, w, v = validated = _density_stack(states.copy())
            # Row 4 is clamped: its matrix is rebuilt with the eigenvalue -4e-11 clipped, and
            # its (w, v) are the rebuilt matrix's own.
            assert list(np.flatnonzero(np.abs(w[:, 0]) < 1e-15)) == [4]
            assert [a.tobytes() for a in _eigh_stack(m[4:5])] == [w[4:5].tobytes(),
                                                                  v[4:5].tobytes()]
            runs.append(
                [a.tobytes() for a in validated]
                + [a.tobytes() for a in _states(states.copy())[:3]]
                + [a.tobytes()
                   for a in _spectra(_hermitian_stack(operators.copy()), "ascending")[:3]]
            )
        assert runs[0] == runs[1]


class TestGibbs:
    def test_two_level_populations(self):
        g = gibbs_state(H01, 1.0)
        expected = gibbs_populations([0.0, 1.0], 1.0)
        assert np.allclose(g.populations, expected, atol=1e-12)
        assert g.log_z == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)

    def test_three_level_populations(self):
        g = gibbs_state(HermitianOperator(np.diag([0.0, 1.0, 2.0])), 1.0)
        assert np.allclose(g.populations, gibbs_populations([0, 1, 2], 1.0), atol=1e-12)

    def test_trace_one_any_beta(self):
        op = random_hermitian(5, stream(2))
        for beta in (0.25, 1.0, 4.0):
            assert np.trace(gibbs_state(op, beta).rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_reconstructs_from_spectrum(self):
        op = random_hermitian(4, stream(3))
        g = gibbs_state(op, 0.7)
        rebuilt = (g.basis * g.populations) @ g.basis.conj().T
        assert np.max(np.abs(rebuilt - g.rho.matrix)) < 1e-10
        assert g.populations.min() > 0.0

    # NaN and inf used to return NaN populations.
    @pytest.mark.parametrize("beta", [0.0, math.nan, math.inf], ids=["nonpositive", "nan", "inf"])
    def test_rejects_nonpositive_beta(self, beta):
        with pytest.raises(ValueError, match="beta"):
            gibbs_state(H01, beta)

    def test_underflow_is_out_of_scope(self):
        with pytest.raises(OutOfScope, match="underflow"):
            gibbs_state(HermitianOperator(np.diag([0.0, 4.0])), 200.0)
        assert issubclass(OutOfScope, ValueError)

    def test_log_populations_stay_exact_below_the_support_floor(self):
        g = gibbs_state(HermitianOperator(np.diag([0.0, 30.0, 60.0])), 1.0)
        assert g.populations[-1] < 1e-12
        assert np.allclose(g.log_populations, -np.array([0.0, 30.0, 60.0]) - g.log_z, atol=1e-14)
        assert np.allclose(np.exp(g.log_populations), g.populations, rtol=1e-14, atol=0.0)


class TestLogSumExp:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(11)
        yield np.array([0.3])
        yield np.array([-700.0])
        yield np.array([2.0, 2.0])
        yield np.array([1.0, 5.0, 5.0, -3.0, 5.0])
        yield np.zeros(7)
        for _ in range(300):
            d = int(rng.integers(1, 65))
            x = rng.uniform(-1.0, 1.0, d) * rng.choice([1e-9, 1.0, 30.0, 350.0, 700.0])
            if d > 1 and rng.random() < 0.4:
                x[rng.choice(d, int(rng.integers(2, d + 1)), replace=False)] = x.max()
            yield x

    def test_bit_identical_to_scipy(self):
        for x in self.inputs():
            assert _logsumexp(x).hex() == float(logsumexp(x)).hex(), x

    def test_gibbs_log_z_is_the_helpers(self):
        op = random_hermitian(6, stream(4))
        g = gibbs_state(op, 1.3)
        assert g.log_z.hex() == float(logsumexp(-1.3 * g.energies)).hex()


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(DensityMatrix(np.diag([1.0, 0.0]))) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_thermal_qubit_entropy(self):
        p = gibbs_populations([0.0, 1.0], 1.0)
        expected = float(-(p * np.log(p)).sum())
        assert von_neumann_entropy(DensityMatrix(np.diag(p))) == pytest.approx(expected, abs=1e-12)

    def test_relative_entropy_self_is_zero(self):
        rho = random_density(3, stream(4))
        assert quantum_relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_relative_entropy_plus_vs_gibbs(self):
        # Pure state: S(rho||rho_eq) = beta <H> + ln Z.
        g = gibbs_state(H01, 1.0)
        expected = 0.5 + g.log_z
        assert quantum_relative_entropy(PLUS, g.rho) == pytest.approx(expected, abs=1e-12)

    def test_relative_entropy_disjoint_supports(self):
        with pytest.raises(SupportViolation):
            quantum_relative_entropy(
                DensityMatrix(np.diag([0.0, 1.0])), DensityMatrix(np.diag([1.0, 0.0]))
            )

    def test_spectral_self_is_zero(self):
        rho = random_density(4, stream(6))
        assert spectral_relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_spectral_two_level(self):
        p = np.array([0.7, 0.3])
        s = gibbs_populations([0.0, 1.0], 1.0)
        expected = float((p * np.log(p / s)).sum())
        value = spectral_relative_entropy(DensityMatrix(np.diag(p)), DensityMatrix(np.diag(s)))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_spectral_pure_vs_gibbs(self):
        g = gibbs_state(H01, 1.0)
        assert spectral_relative_entropy(PLUS, g.rho) == pytest.approx(g.log_z, abs=1e-12)


def _divergences_of_every_entry(p, ln_q, floor):
    """The reference form of ``_divergences``: ln p of every entry, a dead one's p read as 1."""
    live = p > floor
    p = np.where(live, p, 1.0)
    return np.where(live, p * (np.log(p) - ln_q), 0.0).sum(axis=-1)


class TestDivergences:
    @pytest.mark.parametrize("shape", [(1, 4), (1, 28), (16, 8), (256,)])
    def test_bits_equal_the_log_of_every_entry(self, shape):
        # Each row has the dead entries 0, 1e-300 and -1e-17, with ln q = -inf on the first,
        # as permutation_min_bruteforce passes for a vanishing q; the 256 cells have 3 live
        # entries.  No floating-point flag may rise.
        rng = stream(70, shape[-1])
        p = rng.random(shape)
        if len(shape) == 1:
            p[:] = 0.0
            p[[17, 100, 255]] = [0.25, 0.5, 0.25]
        p[..., :3] = [0.0, 1e-300, -1e-17]
        ln_q = np.log(rng.random(shape))
        ln_q[..., 0] = -np.inf
        with np.errstate(all="raise"):
            for floor in (SUPPORT_FLOOR, WEIGHT_FLOOR):
                for q in (0.0, ln_q):
                    expected = _divergences_of_every_entry(p, q, floor)
                    assert _divergences(p, q, floor).tobytes() == expected.tobytes()


class TestMismatchedArguments:
    """Every two-argument function compares the sizes or dimensions of its arguments
    before it computes anything, and raises ``ValueError`` on a mismatch."""

    TWO, THREE = GridDistribution(np.full(2, 0.5)), GridDistribution(np.full(3, 1 / 3))
    JOINT3 = joint_from_kernel(THREE, TransitionKernel.from_permutation(np.arange(3)))
    RHO2, RHO3 = DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3)
    H2, H3 = HermitianOperator(np.diag([0.0, 1.0])), HermitianOperator(np.diag([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize("call", [
        lambda t: joint_from_kernel(t.TWO, TransitionKernel.from_permutation(np.arange(3))),
        lambda t: joint_relative_entropy(t.JOINT3, t.TWO),
        lambda t: classical_relative_entropy(t.TWO, t.THREE),
        lambda t: inhomogeneity_phi(t.JOINT3, t.TWO),
        lambda t: ergotropy_via_phi(t.JOINT3, t.THREE, PhaseGrid([0.0, 1.0], [0.0, 1.0])),
        lambda t: permutation_min_bruteforce(t.TWO, t.THREE),
        lambda t: passive_energy(t.RHO2, t.H3),
        lambda t: optimal_alignment_unitary(t.RHO2, t.RHO3),
        lambda t: aligned_geometric_state(t.RHO2, t.RHO3),
        lambda t: geometric_relative_entropy(GeometricState(np.eye(2), [0.5, 0.5]),
                                             GeometricState(np.eye(3), [1 / 3] * 3)),
        lambda t: quantum_relative_entropy(t.RHO2, t.RHO3),
        lambda t: spectral_relative_entropy(t.RHO2, t.RHO3),
        lambda t: dephase(t.RHO2, t.H3),
        lambda t: spectral_context(t.RHO2, t.H3, 1.0),
        lambda t: conditional_thermal_state(t.H2, t.H3, np.eye(2), 1.0),
    ], ids=["joint_from_kernel", "joint_relative_entropy", "classical_relative_entropy",
            "inhomogeneity_phi", "ergotropy_via_phi", "permutation_min_bruteforce",
            "passive_energy", "optimal_alignment_unitary", "aligned_geometric_state",
            "geometric_relative_entropy", "quantum_relative_entropy",
            "spectral_relative_entropy", "dephase", "spectral_context",
            "conditional_thermal_state"])
    def test_a_size_or_dimension_mismatch_raises_value_error(self, call):
        with pytest.raises(ValueError, match="mismatch|must match"):
            call(self)


class TestMalformedArguments:
    """Each constructor and reader refuses a malformed argument with ``ValueError``
    and a message that names what is wrong."""

    @pytest.mark.parametrize("call, message", [
        (lambda: PhaseGrid([0.0, 1.0], [0.0]),
         "energy_a and energy_b must be 1-D vectors of equal length"),
        (lambda: GridDistribution(np.full((2, 2), 0.25)), "weights must be a 1-D vector"),
        (lambda: TransitionKernel.from_permutation(np.array([1.0, 0.0])),
         "a permutation image must be a nonempty 1-D integer array"),
        (lambda: TransitionKernel(np.full((2, 3), 0.5)), "expected a square matrix, got shape (2, 3)"),
        (lambda: GeometricState(np.eye(2), [0.5, 0.4]),
         "weights deviate from unit mass by 1.000e-01"),
        (lambda: eigendecompose(H01, "sideways"), "unknown order 'sideways'"),
        (lambda: random_density(3, stream(0), rank=0), "rank must be in [1, 3], got 0"),
        (lambda: matrix_to_json(np.zeros((2, 3))), "expected a square matrix, got shape (2, 3)"),
        (lambda: grid_from_csv("index,energy_a,energy_b,weight\n"), "grid CSV has no rows"),
        (lambda: step_product(DrivingProtocol.linear_ramp(H01, H01, 1.0), 0),
         "n_steps must be >= 1 for non-sudden protocols"),
    ], ids=["PhaseGrid-unequal-energies", "GridDistribution-2d", "float-permutation-image",
            "non-square-kernel", "GeometricState-mass", "eigendecompose-order",
            "random_density-rank-0", "matrix_to_json-non-square", "grid_from_csv-no-rows",
            "ramp-zero-steps"])
    def test_raises_value_error_with_its_message(self, call, message):
        with pytest.raises(ValueError) as error:
            call()
        assert str(error.value) == message


class TestDephase:
    def test_diagonal_fixed_point(self):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        out = dephase(rho, HermitianOperator(np.diag([0.0, 1.0, 2.0])))
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14

    def test_plus_state_dephases_to_mixed(self):
        out = dephase(PLUS, H01)
        assert np.max(np.abs(out.matrix - np.eye(2) / 2)) < 1e-14

    def test_populations_preserved(self):
        rho = random_density(3, stream(7))
        h = random_hermitian(3, stream(9))
        basis = eigendecompose(h, "ascending").vectors
        before = np.diag(basis.conj().T @ rho.matrix @ basis).real
        after = np.diag(basis.conj().T @ dephase(rho, h).matrix @ basis).real
        assert np.max(np.abs(before - after)) < 1e-12

    def test_energy_preserved(self):
        rho = random_density(4, stream(10))
        h = random_hermitian(4, stream(11))
        assert expectation(dephase(rho, h), h) == pytest.approx(expectation(rho, h), abs=1e-10)

    def test_degenerate_blocks_survive(self):
        # H = diag(0, 0, 1): coherence inside the degenerate pair must remain.
        h = HermitianOperator(np.diag([0.0, 0.0, 1.0]))
        m = np.array([
            [0.4, 0.2, 0.1],
            [0.2, 0.4, 0.1],
            [0.1, 0.1, 0.2],
        ], dtype=complex)
        out = dephase(DensityMatrix(m), h).matrix
        assert abs(out[0, 1] - 0.2) < 1e-12
        assert abs(out[0, 2]) < 1e-12 and abs(out[1, 2]) < 1e-12


class TestCoherence:
    def test_diagonal_state_zero(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        assert coherence_relative_entropy(rho, H01) == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_ln2(self):
        assert coherence_relative_entropy(PLUS, H01) == pytest.approx(math.log(2), abs=1e-12)

    def test_chain_identity_single(self):
        rho = random_density(3, stream(12))
        h = random_hermitian(3, stream(14))
        eq = gibbs_state(h, 1.0).rho
        lhs = quantum_relative_entropy(rho, eq) - quantum_relative_entropy(dephase(rho, h), eq)
        assert coherence_relative_entropy(rho, h) == pytest.approx(lhs, abs=1e-9)


class TestRandomSweeps:
    def test_nonnegativity_sweep(self):
        worst_c = worst_s = worst_d = 0.0
        trial = 0
        for _ in range(200):
            dim = 2 + trial % 7
            rho = random_density(dim, stream(100, 2 * trial))
            sigma = random_density(dim, stream(100, 2 * trial + 1))
            h = random_hermitian(dim, stream(101, trial))
            worst_c = min(worst_c, coherence_relative_entropy(rho, h))
            worst_s = min(worst_s, quantum_relative_entropy(rho, sigma))
            worst_d = min(worst_d, spectral_relative_entropy(rho, sigma))
            trial += 1
        assert worst_c >= -1e-9
        assert worst_s >= -1e-9
        assert worst_d >= -1e-9

    def test_chain_identity_sweep(self):
        for trial in range(60):
            dim = 2 + trial % 5
            rho = random_density(dim, stream(200, 2 * trial))
            h = random_hermitian(dim, stream(201, trial))
            for beta in (0.5, 1.0, 2.0):
                eq = gibbs_state(h, beta).rho
                gap = (
                    quantum_relative_entropy(rho, eq)
                    - coherence_relative_entropy(rho, h)
                    - quantum_relative_entropy(dephase(rho, h), eq)
                )
                assert abs(gap) <= 1e-9

    def test_sorted_pairing_lower_bound(self):
        rho = random_density(3, stream(300))
        sigma = random_density(3, stream(301))
        bound = spectral_relative_entropy(rho, sigma)
        rng = stream(302)
        for _ in range(500):
            u = haar_unitaries(3, 1, rng)[0]
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert quantum_relative_entropy(rotated, sigma) >= bound - 1e-9

    def test_unitary_invariance(self):
        rho = random_density(4, stream(400))
        u = haar_unitaries(4, 1, stream(401))[0]
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(rho), abs=1e-10)
        assert np.allclose(
            np.linalg.eigvalsh(rotated.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-10
        )


class TestStreams:
    @pytest.mark.parametrize(
        "seed, index",
        [(0, 0), (0, 1), (7, 5), (2**64 - 1, 3), (12345, 2**53 + 1), (3, 2**63),
         (3, 2**63 + 1), (2**128 - 1, 2**64 - 1)],
    )
    def test_stream_starts_where_the_jumped_key_does(self, seed, index):
        jumped = np.random.Philox(key=seed).jumped(index)
        state = stream(seed, index).bit_generator.state["state"]
        for name in ("counter", "key"):
            np.testing.assert_array_equal(state[name], jumped.state["state"][name])
        np.testing.assert_array_equal(stream(seed, index).random(9),
                                      np.random.Generator(jumped).random(9))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_repositioned_generator_draws_as_each_stream(self, seed):
        # An odd count of 32-bit draws leaves a half-used word behind; repositioning drops it.
        indices = [0, 3, 2**63 + 5]
        for index, rng in zip(indices, _streams(seed, indices)):
            fresh = stream(seed, index)
            for draw in (lambda g: g.standard_normal(7),
                         lambda g: g.integers(0, 2**32, 3, dtype=np.uint32)):
                np.testing.assert_array_equal(draw(rng), draw(fresh))
