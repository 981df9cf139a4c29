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
    """

    __slots__ = ("_matrix", "_eigh", "_spectra")

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        defect = float(np.max(np.abs(m - m.conj().T)))
        if defect > HERMITICITY_ATOL:
            raise ValueError(
                f"matrix is not Hermitian: max |M - M.conj().T| = {defect:.3e} "
                f"> {HERMITICITY_ATOL:.0e}"
            )
        self._store((m + m.conj().T) / 2.0)

    def _store(self, m: np.ndarray) -> None:
        m.setflags(write=False)
        self._matrix = m
        self._eigh = None  # np.linalg.eigh(m), once computed
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

    def __init__(self, matrix: np.ndarray):
        super().__init__(matrix)
        trace = float(self._matrix.trace().real)
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace deviates from 1 by {abs(trace - 1.0):.3e}")
        w, v = np.linalg.eigh(self._matrix)
        if w[0] < -NEGATIVE_EIG_ATOL:
            raise ValueError(f"minimum eigenvalue {w[0]:.3e} below -{NEGATIVE_EIG_ATOL:.0e}")
        if w[0] < 0.0:
            m = (v * np.clip(w, 0.0, None)) @ v.conj().T
            m = (m + m.conj().T) / 2.0
            self._store(m / m.trace().real)
            return
        if abs(trace - 1.0) > 1e-15:
            self._store(self._matrix / trace)
            w = w / trace
        self._eigh = (w, v)


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
        _eigendecompose_all([operator], order)
    return operator._spectra[order]


def _eigendecompose_all(operators: list[HermitianOperator], order: Order) -> None:
    """``eigendecompose`` of a block of operators of one dimension: one stacked
    ``eigh`` for those not yet diagonalized, the canonicalization over the stack,
    and the degenerate-cluster tie-break only on the rows that need it."""
    if order not in ("ascending", "descending"):
        raise ValueError(f"unknown order {order!r}")
    todo = [op for op in operators if op._eigh is None]
    if todo:
        for op, *eigh in zip(todo, *np.linalg.eigh(np.array([op.matrix for op in todo]))):
            op._eigh = tuple(eigh)
    step = -1 if order == "descending" else 1
    w = np.array([op._eigh[0][::step] for op in operators])
    v = np.array([op._eigh[1][:, ::step] for op in operators])

    dim, magnitude = w.shape[1], np.abs(w)
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

    matrices = np.array([op.matrix for op in operators])
    residual = np.linalg.norm(matrices @ fixed - fixed * w[:, None, :], axis=1).max(axis=1)
    if np.any(residual > EIGEN_RESIDUAL_RTOL * np.maximum(magnitude.max(axis=1), np.finfo(float).tiny)):
        raise ValueError(f"eigensolver residual {residual.max():.3e} exceeds gate")
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


def _logsumexp(x: np.ndarray) -> float:
    """ln sum exp(x) of a finite vector, bit for bit as scipy 1.17's ``logsumexp``:
    the entries tied at the maximum are counted apart from the others' sum."""
    top = x.max()
    tied = x == top
    count = np.count_nonzero(tied)
    return float(np.log1p(np.where(tied, 0.0, np.exp(x - top)).sum() / count) + np.log(count) + top)


def gibbs_state(hamiltonian: HermitianOperator, beta: float) -> GibbsState:
    """Gibbs state of ``hamiltonian`` at inverse temperature ``beta`` (k_B = 1).

    Populations are computed with a max-shift so the partition sum never
    overflows; they must remain strictly positive at double precision
    (``OutOfScope`` otherwise).
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    spectrum = eigendecompose(hamiltonian, "ascending")
    logits = -beta * spectrum.values
    log_z = _logsumexp(logits)
    log_populations = logits - log_z
    populations = np.exp(log_populations)
    if populations.min() <= 0.0:
        raise OutOfScope(
            f"Gibbs populations underflow to zero at beta = {beta:g}; "
            "beta too large for this spectrum"
        )
    return GibbsState(
        beta=float(beta),
        log_z=log_z,
        spectrum=spectrum,
        populations=populations,
        log_populations=log_populations,
    )


def expectation(state: DensityMatrix, observable: HermitianOperator) -> float:
    """Re tr(rho O)."""
    return float(np.einsum("ij,ji->", state.matrix, observable.matrix).real)


def _entropy(values: np.ndarray) -> float:
    """-sum w ln w over the eigenvalues above ``SUPPORT_FLOOR`` (0 ln 0 := 0)."""
    live = values[values > SUPPORT_FLOOR]
    return float(-(live * np.log(live)).sum())


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


def _pinch(rho: DensityMatrix, spectrum: SortedSpectrum) -> np.ndarray:
    """``rho`` in the energy eigenbasis with the blocks between distinct levels
    zeroed; intra-cluster blocks of a degenerate spectrum are kept."""
    ids = np.repeat(np.arange(len(spectrum.clusters)), [len(c) for c in spectrum.clusters])
    a = spectrum.vectors.conj().T @ rho.matrix @ spectrum.vectors
    return a * (ids[:, None] == ids[None, :])


def dephase(rho: DensityMatrix, hamiltonian: HermitianOperator) -> DensityMatrix:
    """Remove coherences between distinct energy levels of ``hamiltonian``.

    Under degeneracy only inter-cluster blocks are zeroed; intra-cluster blocks
    are kept, which makes the map independent of the basis choice inside each
    degenerate subspace.
    """
    if rho.dim != hamiltonian.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {hamiltonian.dim}")
    spectrum = eigendecompose(hamiltonian, "ascending")
    return DensityMatrix(spectrum.vectors @ _pinch(rho, spectrum) @ spectrum.vectors.conj().T)


def coherence_relative_entropy(rho: DensityMatrix, hamiltonian: HermitianOperator) -> float:
    """Relative entropy of coherence in the energy basis: H(dephased) - H(rho)."""
    return von_neumann_entropy(dephase(rho, hamiltonian)) - von_neumann_entropy(rho)


@dataclass(frozen=True)
class SpectralContext:
    """The spectra of one (rho, H, beta) triple, read from the operators:
    ``gibbs`` (the ascending spectrum of H with ln rho_eq = -beta E - ln Z),
    the eigenvalues of rho in ``populations`` (descending) and ``energy`` =
    tr(rho H).  Every relative entropy to rho_eq is then a closed form, and
    nothing diagonalizes exp(-beta H)/Z.  The dephased state is pinched on
    first use; its eigenvalues need a solver only under a degenerate spectrum.
    """

    rho: DensityMatrix
    gibbs: GibbsState
    populations: np.ndarray
    energy: float

    @cached_property
    def _pinched(self) -> np.ndarray:
        return _pinch(self.rho, self.gibbs.spectrum)

    @cached_property
    def dephased_populations(self) -> np.ndarray:
        """Eigenvalues of the dephased state, descending."""
        if len(self.gibbs.spectrum.clusters) == len(self.populations):
            return np.sort(np.diagonal(self._pinched).real)[::-1]
        return np.linalg.eigvalsh(self._pinched)[::-1]

    @cached_property
    def dephased_energy(self) -> float:
        """tr(dephased H), summed on the energy basis."""
        return float(np.diagonal(self._pinched).real @ self.gibbs.energies)

    # H(rho) and H(dephased), each computed once
    entropy = cached_property(lambda self: _entropy(self.populations))
    dephased_entropy = cached_property(lambda self: _entropy(self.dephased_populations))

    def relative_entropy(self) -> float:
        """S(rho||rho_eq) = sum p ln p + beta tr(rho H) + ln Z."""
        return -self.entropy + self.gibbs.beta * self.energy + self.gibbs.log_z

    def spectral_divergence(self) -> float:
        """D(rho||rho_eq) = sum p_desc (ln p_desc + beta E_asc + ln Z)."""
        live = self.populations > SUPPORT_FLOOR
        p = self.populations[live]
        return float((p * (np.log(p) - self.gibbs.log_populations[live])).sum())

    def coherence(self) -> float:
        """Relative entropy of coherence, H(dephased) - H(rho)."""
        return self.dephased_entropy - self.entropy

    def population_divergence(self) -> float:
        """S(dephased||rho_eq) = -H(dephased) + beta tr(dephased H) + ln Z."""
        gibbs = self.gibbs
        return -self.dephased_entropy + gibbs.beta * self.dephased_energy + gibbs.log_z


def spectral_context(
    rho: DensityMatrix, hamiltonian: HermitianOperator, beta: float
) -> SpectralContext:
    """The spectra of H (with the Gibbs log-populations) and of rho, for every
    route that compares rho with the Gibbs state of H."""
    if rho.dim != hamiltonian.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {hamiltonian.dim}")
    return SpectralContext(
        rho=rho,
        gibbs=gibbs_state(hamiltonian, beta),
        populations=eigendecompose(rho, "descending").values,
        energy=expectation(rho, hamiltonian),
    )
