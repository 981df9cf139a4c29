"""Dense Hermitian linear algebra: canonical spectra, Gibbs states, entropies,
and energy-basis coherence primitives.

All entropies use the natural logarithm (nats).  Every function is pure; the
matrix-carrying types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from . import _threads
from .errors import OutOfScope, SupportViolation

# Construction tolerances.
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
NEGATIVE_EIG_ATOL = 1e-10
# Eigenvalues at or below this floor are treated as exact zeros (0 ln 0 := 0).
SUPPORT_FLOOR = 1e-12
# Relative gap below which two eigenvalues count as degenerate.
DEGENERACY_RTOL = 1e-10
# Residual gate for the eigensolver, relative to the spectral norm.
EIGEN_RESIDUAL_RTOL = 1e-9

Order = Literal["ascending", "descending"]


class HermitianOperator:
    """A dense Hermitian matrix (an observable; energy units for Hamiltonians).

    Construction rejects matrices whose anti-Hermitian part exceeds
    ``HERMITICITY_ATOL`` entrywise; the stored matrix is the exactly
    symmetrized (M + M†)/2 and is read-only.  The object also keeps its one
    ``eigh`` and the canonical spectra ``eigendecompose`` derives from it.
    One matrix is validated as a block of one: ``_block`` validates a stack
    of them together, row for row as one at a time.
    """

    __slots__ = ("_matrix", "_eigh", "_spectra")

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        (m,), (eigh,) = self._validate(m[None])
        self._store(m, eigh)

    @classmethod
    def _block(cls, matrices: np.ndarray) -> list:
        """One operator per matrix of a stack (B, d, d), validated together; a
        failing stack raises the error of its first failing row."""
        operators = []
        for m, eigh in zip(*cls._validate(matrices)):
            operator = cls.__new__(cls)
            operator._store(m, eigh)
            operators.append(operator)
        return operators

    @staticmethod
    def _validate(m: np.ndarray) -> tuple[np.ndarray, list]:
        """The matrices to store for a stack (B, d, d), and the ``eigh`` each keeps
        (None: not yet computed)."""
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        adjoint = m.conj().swapaxes(1, 2)
        for defect in np.abs(m - adjoint).max(axis=(1, 2)).tolist():
            if defect > HERMITICITY_ATOL:
                raise ValueError(
                    f"matrix is not Hermitian: max |M - M.conj().T| = {defect:.3e} "
                    f"> {HERMITICITY_ATOL:.0e}"
                )
        return (m + adjoint) / 2.0, [None] * len(m)

    def _store(self, m: np.ndarray, eigh: tuple | None = None) -> None:
        m.setflags(write=False)
        self._matrix = m
        self._eigh = eigh  # np.linalg.eigh(m), once computed
        self._spectra = {}  # order -> SortedSpectrum

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class DensityMatrix(HermitianOperator):
    """A quantum state: Hermitian, unit trace, positive semidefinite.

    Eigenvalues in [-NEGATIVE_EIG_ATOL, 0) are clamped to zero and the state
    renormalized; anything more negative is rejected.  Otherwise a rounded trace
    is divided out of the matrix and its validating ``eigh``, which is kept.
    """

    __slots__ = ()

    @staticmethod
    def _validate(m: np.ndarray) -> tuple[np.ndarray, list]:
        """One stacked ``eigh`` (``_eigh_rows``) validates every state; the clamp and
        the division by the trace run on the rows that need them, one at a time."""
        m = HermitianOperator._validate(m)[0]
        traces = np.trace(m, axis1=1, axis2=2).real.tolist()
        for trace in traces:
            if abs(trace - 1.0) > TRACE_ATOL:
                raise ValueError(f"trace deviates from 1 by {abs(trace - 1.0):.3e}")
        eighs = _eigh_rows(m)
        for r, (trace, (w, v)) in enumerate(zip(traces, eighs)):
            if w[0] < -NEGATIVE_EIG_ATOL:
                raise ValueError(f"minimum eigenvalue {w[0]:.3e} below -{NEGATIVE_EIG_ATOL:.0e}")
            if w[0] < 0.0:
                clamped = (v * np.clip(w, 0.0, None)) @ v.conj().T
                clamped = (clamped + clamped.conj().T) / 2.0
                m[r] = clamped / clamped.trace().real
                eighs[r] = None
            elif abs(trace - 1.0) > 1e-15:
                m[r] /= trace
                w /= trace
        return m, eighs


def _eigh_rows(m: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``np.linalg.eigh`` of a stack (B, d, d) as (w, v) per matrix, a large stack in two
    halves (``_threads.in_halves``): each matrix is solved on its own, so no bit moves."""
    parts = _threads.in_halves(lambda part: np.linalg.eigh(m[part]), len(m), m.size,
                               _threads.EIGH_SPLIT_ENTRIES)
    return [pair for w, v in parts for pair in zip(w, v)]


def _fix_phase(z: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each column of ``z`` (..., n, k) so that its
    largest-magnitude component is real positive."""
    cols = z.reshape((-1,) + z.shape[-2:])
    a = cols[np.arange(len(cols))[:, None], np.abs(cols).argmax(axis=1), np.arange(cols.shape[2])]
    mag = np.hypot(a.real, a.imag)
    mag[mag == 0.0] = 1.0  # an all-zero column stays zero
    return (cols * (a.conj() / mag)[:, None, :]).reshape(z.shape)


def _canonical_columns(block: np.ndarray) -> np.ndarray:
    """Deterministic basis for a degenerate eigenspace: re-orthonormalize,
    phase-fix, then order columns lexicographically by |component|."""
    q = _fix_phase(np.linalg.qr(block)[0])
    keys = [tuple(np.round(np.abs(q[:, j]), 12)) for j in range(q.shape[1])]
    order = sorted(range(q.shape[1]), key=keys.__getitem__)
    return q[:, order]


@dataclass(frozen=True)
class SortedSpectrum:
    """Eigenvalues and orthonormal eigenvectors in a canonical order.

    ``values[i]`` belongs to column ``vectors[:, i]``.  ``clusters`` lists the
    index runs of (numerically) degenerate eigenvalues; inside each cluster the
    basis is fixed by a deterministic tie-break so repeated runs agree.
    """

    values: np.ndarray
    vectors: np.ndarray
    order: str
    clusters: tuple[tuple[int, ...], ...]

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def eigendecompose(operator: HermitianOperator, order: Order) -> SortedSpectrum:
    """Eigendecomposition with deterministic degenerate-subspace tie-breaking.

    Use ``"descending"`` for states (largest population first) and
    ``"ascending"`` for Hamiltonians (ground energy first).  Each operator
    object is diagonalized at most once; the read-only spectrum of each order
    is kept on it and returned by later calls.
    """
    if order not in operator._spectra:
        _canonicalize([operator], order)
    return operator._spectra[order]


def _eigendecompose_all(
    operators: list[HermitianOperator], order: Order
) -> tuple[np.ndarray, np.ndarray, list]:
    """``eigendecompose`` of a block of operators of one dimension, stacked: the
    values (B, d), vectors (B, d, d) and each row's clusters.  An operator that
    holds the spectrum of ``order`` keeps it; the others get one stacked ``eigh``
    (for those not yet diagonalized), the canonicalization over their stack, and
    the degenerate-cluster tie-break only on the rows that need it."""
    missing = [op for op in operators if order not in op._spectra]
    if missing:
        _canonicalize(missing, order)
    spectra = [op._spectra[order] for op in operators]
    return (np.array([s.values for s in spectra]), np.array([s.vectors for s in spectra]),
            [s.clusters for s in spectra])


def _canonicalize(operators: list[HermitianOperator], order: Order) -> None:
    """Store the canonical spectrum of ``order`` on each operator of a block, under
    the eigensolver's residual gate."""
    if order not in ("ascending", "descending"):
        raise ValueError(f"unknown order {order!r}")
    todo = [op for op in operators if op._eigh is None]
    if todo:
        for op, eigh in zip(todo, _eigh_rows(np.array([op.matrix for op in todo]))):
            op._eigh = eigh
    step = -1 if order == "descending" else 1
    w = np.array([op._eigh[0][::step] for op in operators])
    v = np.array([op._eigh[1][:, ::step] for op in operators])

    dim, magnitude = w.shape[1], np.abs(w)
    # The gate reads the eigensolver's own pairs, before the tie-break below mixes each
    # cluster's vectors: a cluster's eigenvalues may differ by DEGENERACY_RTOL (1 + |w|), about
    # 1e-10 for a state, which is more than the gate allows once max |w| is below 0.1.
    matrices = np.array([op.matrix for op in operators])
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(matrices @ v - v * w[:, None, :], axis=1).max(axis=1)
    if not np.all(np.isfinite(residual)):
        raise OutOfScope(f"eigensolver residual overflows at |eigenvalue| {magnitude.max():.3e}")
    gate = EIGEN_RESIDUAL_RTOL * np.maximum(magnitude.max(axis=1), np.finfo(float).tiny)
    if np.any(residual > gate):
        raise ValueError(f"eigensolver residual {residual.max():.3e} exceeds gate")
    scale = 1.0 + np.maximum(magnitude[:, 1:], magnitude[:, :-1])
    gaps = np.abs(w[:, 1:] - w[:, :-1]) > DEGENERACY_RTOL * scale
    clusters = [tuple((i,) for i in range(dim))] * len(operators)
    fixed = _fix_phase(v)
    degenerate = () if gaps.all() else np.flatnonzero(~gaps.all(axis=1))  # rows with a cluster
    for r in degenerate:
        breaks = (np.flatnonzero(gaps[r]) + 1).tolist()
        clusters[r] = tuple(tuple(range(a, b)) for a, b in zip([0] + breaks, breaks + [dim]))
        for members in clusters[r]:
            if len(members) > 1:
                sl = slice(members[0], members[-1] + 1)
                fixed[r, :, sl] = _canonical_columns(v[r, :, sl])

    for a in (w, fixed):
        a.setflags(write=False)
    for op, values, vectors, runs in zip(operators, w, fixed, clusters):
        op._spectra[order] = SortedSpectrum(values, vectors, order, runs)


@dataclass(frozen=True)
class GibbsState:
    """Thermal equilibrium state exp(-beta H)/Z on the canonical ascending
    ``spectrum`` of H, with ln Z and ``log_populations`` = -beta E - ln Z (exact
    to rounding however small the populations).  The dense ``rho`` is built on
    first use; relative entropies to a Gibbs state never diagonalize it.
    """

    beta: float
    log_z: float
    spectrum: SortedSpectrum
    populations: np.ndarray
    log_populations: np.ndarray

    @property
    def energies(self) -> np.ndarray:
        return self.spectrum.values

    @property
    def basis(self) -> np.ndarray:
        return self.spectrum.vectors

    @cached_property
    def rho(self) -> DensityMatrix:
        return DensityMatrix((self.basis * self.populations) @ self.basis.conj().T)


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """ln sum exp(x) along the last axis of a finite array, bit for bit as scipy
    1.17's ``logsumexp``: the entries tied at the maximum are counted apart from
    the others' sum."""
    top = x.max(axis=-1)
    tied = x == top[..., None]
    count = tied.sum(axis=-1)
    others = np.where(tied, 0.0, np.exp(x - top[..., None])).sum(axis=-1)
    return np.log1p(others / count) + np.log(count) + top


def _gauge(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of a stack (..., d) minus its lowest entry, and those lowest entries: the one
    zero of energy or log-population.  ``OutOfScope`` when a span is past the doubles."""
    low = values.min(axis=-1)
    with np.errstate(over="ignore"):
        gauged = values - low[..., None]
    if not np.isfinite(gauged).all():
        raise OutOfScope(f"energy span [{values.min():g}, {values.max():g}] overflows")
    return gauged, low


def _gibbs_logs(energies: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln Z, ln p, p) of the Gibbs populations on each row of a stack (B, d) of spectra, with
    ``OutOfScope`` when a beta E overflows or a population underflows to zero."""
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    with np.errstate(over="ignore"):
        logits = -beta * energies
        if not np.isfinite(logits).all():
            raise OutOfScope(f"beta * energy overflows at beta = {beta:g}")
        log_z = _logsumexp(logits)
        log_populations = logits - log_z[:, None]
        populations = np.exp(log_populations)
    if not populations.min() > 0.0:
        raise OutOfScope(f"Gibbs populations underflow to zero at beta = {beta:g}; "
                         "beta too large for this spectrum")
    return log_z, log_populations, populations


def gibbs_state(hamiltonian: HermitianOperator, beta: float) -> GibbsState:
    """Gibbs state of ``hamiltonian`` at inverse temperature ``beta`` (k_B = 1): the
    ``_gibbs_logs`` of its ascending spectrum, every population positive (``OutOfScope``)."""
    spectrum = eigendecompose(hamiltonian, "ascending")
    log_z, log_populations, populations = _gibbs_logs(spectrum.values[None], beta)
    return GibbsState(float(beta), float(log_z[0]), spectrum, populations[0], log_populations[0])


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A B) over stacks (..., d, d) of matrices."""
    return np.einsum("...ij,...ji->...", a, b).real


def expectation(state: DensityMatrix, observable: HermitianOperator) -> float:
    """Re tr(rho O)."""
    return float(_traces(state.matrix, observable.matrix))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of stacks (B, d): matrix products of (1, d) by (d, 1),
    which give each row the bits of the 1-D ``a[r] @ b[r]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _support_sums(term, p: np.ndarray, *others: np.ndarray) -> np.ndarray:
    """sum_i term(p_i, *others_i) over the entries p_i > ``SUPPORT_FLOOR`` of each
    row of a stack (B, d): ``term`` sees 1.0 in place of each dead p_i, and its
    result there enters the row's sum as an exact zero (0 ln 0 := 0)."""
    live = p > SUPPORT_FLOOR
    return np.where(live, term(np.where(live, p, 1.0), *others), 0.0).sum(axis=1)


def _entropies(values: np.ndarray) -> np.ndarray:
    """-sum w ln w over the entries above ``SUPPORT_FLOOR`` of each row of a stack
    (B, d) of eigenvalues (0 ln 0 := 0)."""
    return -_support_sums(lambda w: w * np.log(w), values)


def _entropy(values: np.ndarray) -> float:
    """``_entropies`` of one list of eigenvalues."""
    return float(_entropies(values[None])[0])


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho ln rho) with 0 ln 0 := 0."""
    return _entropy(eigendecompose(rho, "descending").values)


def quantum_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) = tr(rho ln rho) - tr(rho ln sigma), computed spectrally.

    Raises ``SupportViolation`` when any populated eigenvector of ``rho``
    carries weight outside the support of ``sigma``.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    p = eigendecompose(rho, "descending")
    s = eigendecompose(sigma, "descending")
    support = s.values > SUPPORT_FLOOR
    live = p.values > SUPPORT_FLOOR
    # [j, i] = |<s_j|p_i>|^2 for the populated eigenvectors of both states
    overlap = np.abs(s.vectors[:, support].conj().T @ p.vectors[:, live]) ** 2
    deviation = float(np.max(np.abs(overlap.sum(axis=0) - 1.0)))
    if deviation > SUPPORT_FLOOR:
        raise SupportViolation(f"rho leaks {deviation:.3e} probability outside support(sigma)")
    cross = np.einsum("i,ji,j->", p.values[live], overlap, np.log(s.values[support]))
    return -_entropy(p.values) - float(cross)


def spectral_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Kullback-Leibler divergence of the descending-sorted eigenvalue lists."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    p = eigendecompose(rho, "descending").values
    s = eigendecompose(sigma, "descending").values
    live = p > SUPPORT_FLOOR
    if np.any(s[live] <= SUPPORT_FLOOR):
        raise SupportViolation("sorted sigma spectrum vanishes where rho is populated")
    return float((p[live] * (np.log(p[live]) - np.log(s[live]))).sum())


def _rotate(matrices: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """V† M V over stacks (..., d, d): each matrix in its energy eigenbasis."""
    return basis.conj().swapaxes(-1, -2) @ matrices @ basis


def _pinch(rotated: np.ndarray, clusters: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """A matrix in the energy eigenbasis with the blocks between distinct levels
    zeroed; intra-cluster blocks of a degenerate spectrum are kept."""
    ids = np.repeat(np.arange(len(clusters)), [len(c) for c in clusters])
    return rotated * (ids[:, None] == ids[None, :])


def dephase(rho: DensityMatrix, hamiltonian: HermitianOperator) -> DensityMatrix:
    """Remove coherences between distinct energy levels of ``hamiltonian``.

    Under degeneracy only inter-cluster blocks are zeroed; intra-cluster blocks
    are kept, which makes the map independent of the basis choice inside each
    degenerate subspace.
    """
    if rho.dim != hamiltonian.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {hamiltonian.dim}")
    spectrum = eigendecompose(hamiltonian, "ascending")
    pinched = _pinch(_rotate(rho.matrix, spectrum.vectors), spectrum.clusters)
    return DensityMatrix(spectrum.vectors @ pinched @ spectrum.vectors.conj().T)


def coherence_relative_entropy(rho: DensityMatrix, hamiltonian: HermitianOperator) -> float:
    """Relative entropy of coherence in the energy basis: H(dephased) - H(rho)."""
    return von_neumann_entropy(dephase(rho, hamiltonian)) - von_neumann_entropy(rho)


@dataclass(frozen=True)
class _SpectralBlock:
    """The spectra of a block of (rho, H) pairs of one dimension at one beta,
    stacked so that row b of every array belongs to pair b: rho's ``matrices``,
    eigenvectors ``vectors`` and eigenvalues ``populations`` (descending), H's
    eigenbasis ``basis``, ``energies`` (ascending) and ``clusters``, the Gibbs
    ``log_z`` and ``log_populations`` (ln rho_eq = -beta E - ln Z), and
    ``energy`` = tr(rho H).  Every relative entropy to rho_eq is then a closed
    form, and nothing diagonalizes exp(-beta H)/Z.  Each quantity is evaluated
    once for the whole block, each row with the bits a block of one gives it:
    every row is summed over all d levels, a level at or below ``SUPPORT_FLOOR``
    as an exact zero (``_support_sums``), and only a degenerate H needs a solver
    for its row's dephased spectrum.  One triple is a block of one row
    (``spectral_context``).
    """

    beta: float
    matrices: np.ndarray
    vectors: np.ndarray
    populations: np.ndarray
    basis: np.ndarray
    energies: np.ndarray
    clusters: list
    log_z: np.ndarray
    log_populations: np.ndarray
    energy: np.ndarray

    @classmethod
    def of(cls, rhos: list[DensityMatrix], hamiltonians: list[HermitianOperator],
           beta: float) -> _SpectralBlock:
        """The block of the pairs (rhos[b], hamiltonians[b]): one stacked
        ``eigendecompose`` of each list, then the Gibbs logs of every row."""
        energies, basis, clusters = _eigendecompose_all(hamiltonians, "ascending")
        populations, vectors, _ = _eigendecompose_all(rhos, "descending")
        log_z, log_populations, _ = _gibbs_logs(energies, beta)
        matrices = np.array([rho.matrix for rho in rhos])
        energy = _traces(matrices, np.array([h.matrix for h in hamiltonians]))
        return cls(float(beta), matrices, vectors, populations, basis, energies, clusters,
                   log_z, log_populations, energy)

    @cached_property
    def _rotated(self) -> np.ndarray:
        return _rotate(self.matrices, self.basis)

    @cached_property
    def dephased_populations(self) -> np.ndarray:
        """Eigenvalues of the dephased states, descending: the sorted energy-basis
        diagonal, or those of the pinched state where H is degenerate."""
        rotated = self._rotated
        values = np.sort(np.diagonal(rotated, axis1=1, axis2=2).real, axis=1)[:, ::-1]
        degenerate = [r for r, runs in enumerate(self.clusters) if len(runs) < rotated.shape[1]]
        if degenerate:
            pinched = np.array([_pinch(rotated[r], self.clusters[r]) for r in degenerate])
            values[degenerate] = np.linalg.eigvalsh(pinched)[:, ::-1]
        return values

    @cached_property
    def dephased_energy(self) -> np.ndarray:
        """tr(dephased H), summed on the energy basis."""
        return _dots(np.diagonal(self._rotated, axis1=1, axis2=2).real, self.energies)

    @cached_property
    def passive_energy(self) -> np.ndarray:
        """sum p_desc E_asc."""
        return _dots(self.populations, self.energies)

    # H(rho) and H(dephased)
    entropy = cached_property(lambda self: _entropies(self.populations))
    dephased_entropy = cached_property(lambda self: _entropies(self.dephased_populations))

    @cached_property
    def relative_entropy(self) -> np.ndarray:
        """S(rho||rho_eq) = sum p ln p + beta tr(rho H) + ln Z."""
        return -self.entropy + self.beta * self.energy + self.log_z

    @cached_property
    def spectral_divergence(self) -> np.ndarray:
        """D(rho||rho_eq) = sum p_desc (ln p_desc + beta E_asc + ln Z)."""
        return _support_sums(lambda p, ln_s: p * (np.log(p) - ln_s),
                             self.populations, self.log_populations)

    @cached_property
    def coherence(self) -> np.ndarray:
        """Relative entropy of coherence, H(dephased) - H(rho)."""
        return self.dephased_entropy - self.entropy

    @cached_property
    def population_divergence(self) -> np.ndarray:
        """S(dephased||rho_eq) = -H(dephased) + beta tr(dephased H) + ln Z."""
        return -self.dephased_entropy + self.beta * self.dephased_energy + self.log_z


def spectral_context(
    rho: DensityMatrix, hamiltonian: HermitianOperator, beta: float
) -> _SpectralBlock:
    """The (rho, H, beta) triple as a ``_SpectralBlock`` of one row, for every route
    that compares rho with the Gibbs state of H."""
    if rho.dim != hamiltonian.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {hamiltonian.dim}")
    return _SpectralBlock.of([rho], [hamiltonian], beta)
