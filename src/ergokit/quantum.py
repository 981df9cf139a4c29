"""Dense Hermitian linear algebra: spectra, Gibbs states, entropies, and
energy-basis coherence primitives.

All entropies use the natural logarithm (nats).  Every function is pure; the matrix-carrying
types are immutable after construction, every array field read-only (``_freeze``).  Blocks of
matrices run as stacks (B, d, d) with one stacked ``eigh``; the operator types are built at
the public API, one matrix as a stack of one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, NamedTuple

import numpy as np

from .errors import OutOfScope, SupportViolation

# Construction tolerances.
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
MASS_ATOL = 1e-10  # of a probability vector (``_probabilities``)
NEGATIVE_EIG_ATOL = 1e-10
# Eigenvalues at or below this floor are exact zeros of ``_divergences`` (0 ln 0 := 0).
SUPPORT_FLOOR = 1e-12
# Relative gap below which two eigenvalues count as degenerate.
DEGENERACY_RTOL = 1e-10
# Residual gate for the eigensolver, relative to the spectral norm.
EIGEN_RESIDUAL_RTOL = 1e-9

Order = Literal["ascending", "descending"]


def _same(kind: str, a, b) -> None:
    """The one mismatch rule: ``ValueError`` ("<kind> mismatch: a vs b") unless ``a == b``."""
    if a != b:
        raise ValueError(f"{kind} mismatch: {a} vs {b}")


def _positive_beta(beta: float) -> None:
    """The one inverse-temperature rule: ``ValueError`` unless 0 < beta < inf."""
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")


def _freeze(obj, **fields: np.ndarray):
    """``obj`` with each array of ``fields`` set read-only and assigned to its field of that
    name through ``object.__setattr__``, as a frozen dataclass or a slot takes it."""
    for name, array in fields.items():
        array.setflags(write=False)
        object.__setattr__(obj, name, array)
    return obj


def _probabilities(w: np.ndarray) -> np.ndarray:
    """``w``, checked to be 1-D and nonempty, nonnegative, and of unit mass to ``MASS_ATOL``."""
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a 1-D vector")
    if not w.min() >= 0.0:
        raise ValueError(f"negative weight {w.min():.3e}")
    if abs(w.sum() - 1.0) > MASS_ATOL:
        raise ValueError(f"total mass deviates from 1 by {abs(w.sum() - 1.0):.3e}")
    return w


class HermitianOperator:
    """A dense Hermitian matrix (an observable; energy units for Hamiltonians).

    Construction rejects matrices whose anti-Hermitian part exceeds
    ``HERMITICITY_ATOL`` entrywise; the stored matrix is the exactly
    symmetrized (M + M†)/2 and is read-only.  The object also keeps its one
    ``eigh`` and the spectra ``eigendecompose`` derives from it.  It is
    validated as a stack of one row (``_hermitian_stack``).
    """

    __slots__ = ("_matrix", "_eigh", "_spectra")

    def __init__(self, matrix: np.ndarray):
        self._keep(_hermitian_stack(np.asarray(matrix, dtype=complex)[None]))

    def _keep(self, matrices: np.ndarray, eigh: tuple | None = None) -> None:
        """Keep the matrix of a validated stack of one row, read-only, and the stack's
        ``eigh`` (None: not yet computed)."""
        _freeze(self, _matrix=matrices[0])
        self._eigh, self._spectra = eigh, {}  # order -> (_Stack, SortedSpectrum)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class DensityMatrix(HermitianOperator):
    """A quantum state: Hermitian, unit trace, positive semidefinite, validated as a
    stack of one row (``_density_stack``), whose ``eigh`` it keeps."""

    __slots__ = ()

    def __init__(self, matrix: np.ndarray):
        m, w, v = _density_stack(np.asarray(matrix, dtype=complex)[None])
        self._keep(m, (w, v))


def _hermitian_stack(m: np.ndarray) -> np.ndarray:
    """The exactly symmetrized (M + M†)/2 of each matrix of a stack (B, d, d), every
    entry finite and every anti-Hermitian part within ``HERMITICITY_ATOL``; a failing
    stack raises the error of its first failing row."""
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape[1:]}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    adjoint = m.conj().swapaxes(1, 2)
    for defect in np.abs(m - adjoint).max(axis=(1, 2)).tolist():
        if defect > HERMITICITY_ATOL:
            raise ValueError(
                f"matrix is not Hermitian: max |M - M.conj().T| = {defect:.3e} "
                f"> {HERMITICITY_ATOL:.0e}"
            )
    return (m + adjoint) / 2.0


def _density_stack(m: np.ndarray) -> tuple:
    """A stack (B, d, d) of states validated together, as (matrices, w, v): one stacked
    ``eigh`` (w, v) checks every spectrum.  A row with eigenvalues in [-NEGATIVE_EIG_ATOL, 0)
    is clamped to zero and renormalized, and the clamped rows are diagonalized again in one
    stacked call; anything more negative is rejected.  Otherwise a rounded trace is divided
    out of the row and its eigenvalues.  A failing stack raises its first failing row's error."""
    m = _hermitian_stack(m)
    traces = np.trace(m, axis1=1, axis2=2).real
    for trace in traces.tolist():
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace deviates from 1 by {abs(trace - 1.0):.3e}")
    w, v = np.linalg.eigh(m)
    for low in w[:, 0].tolist():
        if low < -NEGATIVE_EIG_ATOL:
            raise ValueError(f"minimum eigenvalue {low:.3e} below -{NEGATIVE_EIG_ATOL:.0e}")
    clamped = w[:, 0] < 0.0
    if clamped.any():
        for r in np.flatnonzero(clamped):
            row = (v[r] * np.clip(w[r], 0.0, None)) @ v[r].conj().T
            row = (row + row.conj().T) / 2.0
            m[r] = row / row.trace().real
        w[clamped], v[clamped] = np.linalg.eigh(m[clamped])
    rounded = ~clamped & (np.abs(traces - 1.0) > 1e-15)
    if rounded.any():
        m[rounded] /= traces[rounded, None, None]
        w[rounded] /= traces[rounded, None]
    return m, w, v


class _Stack(NamedTuple):
    """A stack (B, d, d) of validated matrices with its spectra, as ``_spectra`` returns
    it: the eigenvalues ``values`` (B, d) in one order, the eigenvector columns ``vectors``
    (B, d, d) in the same order, and in ``levels`` (B, d) the index of each eigenvalue's
    distinct level, neighbours within ``DEGENERACY_RTOL`` sharing one."""

    matrices: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    levels: np.ndarray


def _states(m: np.ndarray) -> _Stack:
    """The descending ``_spectra`` of a stack of states validated together
    (``_density_stack``)."""
    m, w, v = _density_stack(m)
    return _spectra(m, "descending", (w, v))


def _spectra(m: np.ndarray, order: Order, eigh: tuple | None = None) -> _Stack:
    """The ``_Stack`` of a stack (B, d, d) of validated matrices in ``order``, from the
    stack's ascending ``eigh`` (one stacked call if not given), reordered and under the
    eigensolver's residual gate."""
    w, v = np.linalg.eigh(m) if eigh is None else eigh
    if order == "descending":
        w, v = w[:, ::-1].copy(), v[:, :, ::-1].copy()
    magnitude = np.abs(w)
    top = magnitude.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        r = m @ v - v * w[:, None, :]
        residual = np.sqrt((r.conj() * r).real.sum(axis=1)).max(axis=1)  # the columns' 2-norms
    if not (residual <= EIGEN_RESIDUAL_RTOL * np.maximum(top, np.finfo(float).tiny)).all():
        if not np.isfinite(residual).all():
            raise OutOfScope(f"eigensolver residual overflows at |eigenvalue| {top.max():.3e}")
        raise ValueError(f"eigensolver residual {residual.max():.3e} exceeds gate")
    levels = np.zeros(w.shape, dtype=int)
    levels[:, 1:] = np.abs(w[:, 1:] - w[:, :-1]) > DEGENERACY_RTOL * (
        1.0 + np.maximum(magnitude[:, 1:], magnitude[:, :-1]))
    levels = levels.cumsum(axis=1)
    for a in (w, v, levels):
        a.setflags(write=False)
    return _Stack(m, w, v, levels)


@dataclass(frozen=True, eq=False)
class SortedSpectrum:
    """Eigenvalues and orthonormal eigenvectors in the order asked for.

    ``values[i]`` belongs to column ``vectors[:, i]``, as ``eigh`` returns the pair:
    no phase is fixed, and inside a degenerate cluster the basis is the eigensolver's
    own.  ``levels[i]`` numbers the distinct level of ``values[i]`` (``_Stack``), and
    ``clusters`` lists the index runs of (numerically) degenerate eigenvalues.
    """

    values: np.ndarray
    vectors: np.ndarray
    order: str
    levels: np.ndarray

    @property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(np.flatnonzero(self.levels == k).tolist())
                     for k in range(self.levels[-1] + 1))

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def eigendecompose(operator: HermitianOperator, order: Order) -> SortedSpectrum:
    """The eigenvalues in ``order`` and the eigenvector columns that ``eigh`` returns
    with them: row 0 of the operator's ``_stack_of``.

    Use ``"descending"`` for states (largest population first) and
    ``"ascending"`` for Hamiltonians (ground energy first).  No result depends on a
    vector's phase; the basis inside a degenerate cluster reaches only
    ``conditional_thermal_state``, which flags it.  The read-only spectrum of each
    order is kept on the operator and returned by later calls.
    """
    _stack_of(operator, order)
    return operator._spectra[order][1]


def _stack_of(operator: HermitianOperator, order: Order) -> _Stack:
    """The ``_spectra`` of one operator as a stack of one row.  Each operator object is
    diagonalized at most once, and the stack of each order is kept on it with its
    ``SortedSpectrum``."""
    if order not in operator._spectra:
        if order not in ("ascending", "descending"):
            raise ValueError(f"unknown order {order!r}")
        if operator._eigh is None:
            operator._eigh = np.linalg.eigh(operator.matrix[None])
        s = _spectra(operator.matrix[None], order, operator._eigh)
        operator._spectra[order] = s, SortedSpectrum(s.values[0], s.vectors[0], order,
                                                     s.levels[0])
    return operator._spectra[order][0]


@dataclass(frozen=True, eq=False)
class GibbsState:
    """Thermal equilibrium state exp(-beta H)/Z on the ascending ``energies`` of H and
    their eigenvector columns ``basis``, with ln Z and ``log_populations`` = -beta E - ln Z
    (exact to rounding however small the populations).  The dense ``rho`` is built on
    first use; relative entropies to a Gibbs state never diagonalize it.
    """

    beta: float
    log_z: float
    energies: np.ndarray
    basis: np.ndarray
    populations: np.ndarray
    log_populations: np.ndarray

    def __post_init__(self):
        _freeze(self, populations=self.populations, log_populations=self.log_populations)

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
    _positive_beta(beta)
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
    return GibbsState(float(beta), float(log_z[0]), spectrum.values, spectrum.vectors,
                      populations[0], log_populations[0])


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A B) over stacks (..., d, d) of matrices."""
    return np.einsum("...ij,...ji->...", a, b).real


def expectation(state: DensityMatrix, observable: HermitianOperator) -> float:
    """Re tr(rho O)."""
    _same("dimension", state.dim, observable.dim)
    return float(_traces(state.matrix, observable.matrix))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of stacks (B, d): matrix products of (1, d) by (d, 1),
    which give each row the bits of the 1-D ``a[r] @ b[r]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _divergences(p: np.ndarray, ln_q=0.0, floor: float = SUPPORT_FLOOR) -> np.ndarray:
    """sum p (ln p - ln q) over the entries p > ``floor`` of each row of a stack (..., d),
    with 0 ln 0 := 0 (Cover and Thomas, Elements of Information Theory, ch. 2): a dead
    entry is an exact zero whatever ``ln_q`` holds there, and its ln p is never taken.
    ln q = 0 gives sum p ln p.  The floor is ``SUPPORT_FLOOR`` for eigenvalues, which carry
    the rounding of ``eigh``, and ``classical.WEIGHT_FLOOR`` for grid weights, which are
    exact inputs."""
    live = p > floor
    terms = np.log(p, out=np.zeros(p.shape), where=live)
    terms -= ln_q
    return np.multiply(p, terms, out=np.zeros(p.shape), where=live).sum(axis=-1)


def _relative_entropy(p: np.ndarray, q: np.ndarray, floor: float, vanishes: float) -> float:
    """sum p ln(p/q) of two equal-length vectors over their live entries p > ``floor`` only,
    in order, in ``_divergences``; q <= ``vanishes`` on a live entry raises
    ``SupportViolation``, the support rule of every relative entropy."""
    _same("size", p.size, q.size)
    live = p > floor
    if np.any(q[live] <= vanishes):
        raise SupportViolation("the reference vanishes where the argument is populated")
    return float(_divergences(p[live], np.log(q[live]), floor))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho ln rho) with 0 ln 0 := 0."""
    return -float(_divergences(eigendecompose(rho, "descending").values))


def quantum_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) = tr(rho ln rho) - tr(rho ln sigma), computed spectrally.

    Raises ``SupportViolation`` when any populated eigenvector of ``rho``
    carries weight outside the support of ``sigma``.
    """
    _same("dimension", rho.dim, sigma.dim)
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
    return float(_divergences(p.values)) - float(cross)


def spectral_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Kullback-Leibler divergence of the descending-sorted eigenvalue lists."""
    _same("dimension", rho.dim, sigma.dim)
    p, s = (eigendecompose(state, "descending").values for state in (rho, sigma))
    return _relative_entropy(p, s, SUPPORT_FLOOR, SUPPORT_FLOOR)


def _rotate(matrices: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """V† M V over stacks (..., d, d): each matrix in its energy eigenbasis."""
    return basis.conj().swapaxes(-1, -2) @ matrices @ basis


def _pinch(rotated: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Matrices (..., d, d) in the energy eigenbasis with the blocks between distinct
    ``levels`` (..., d) zeroed; intra-cluster blocks of a degenerate spectrum are kept."""
    return rotated * (levels[..., :, None] == levels[..., None, :])


def dephase(rho: DensityMatrix, hamiltonian: HermitianOperator) -> DensityMatrix:
    """Remove coherences between distinct energy levels of ``hamiltonian``.

    Under degeneracy only inter-cluster blocks are zeroed; intra-cluster blocks
    are kept, which makes the map independent of the basis choice inside each
    degenerate subspace.
    """
    _same("dimension", rho.dim, hamiltonian.dim)
    energies = eigendecompose(hamiltonian, "ascending")
    basis = energies.vectors
    pinched = _pinch(_rotate(rho.matrix, basis), energies.levels)
    return DensityMatrix(basis @ pinched @ basis.conj().T)


def coherence_relative_entropy(rho: DensityMatrix, hamiltonian: HermitianOperator) -> float:
    """Relative entropy of coherence in the energy basis: H(dephased) - H(rho)."""
    return von_neumann_entropy(dephase(rho, hamiltonian)) - von_neumann_entropy(rho)


@dataclass(frozen=True, eq=False)
class _SpectralBlock:
    """The spectra of a block of (rho, H) pairs of one dimension at one beta,
    stacked so that row b of every array belongs to pair b: rho's ``matrices``,
    eigenvectors ``vectors`` and eigenvalues ``populations`` (descending), H's
    eigenbasis ``basis``, ``energies`` (ascending) and ``levels`` (``_Stack``),
    the Gibbs ``log_z`` and ``log_populations`` (ln rho_eq = -beta E - ln Z), and
    ``energy`` = tr(rho H).  Every relative entropy to rho_eq is then a closed
    form, and nothing diagonalizes exp(-beta H)/Z.  Each quantity is evaluated
    once for the whole block, each row with the bits a block of one gives it:
    every entropy and divergence sums all d levels of a row in ``_divergences``, a
    level at or below ``SUPPORT_FLOOR`` as an exact zero, and only a degenerate H
    needs a solver for its row's dephased spectrum.  A block is built from stacks and
    their stacked ``eigh``; one triple is a block of one row (``spectral_context``).
    """

    beta: float
    matrices: np.ndarray
    vectors: np.ndarray
    populations: np.ndarray
    basis: np.ndarray
    energies: np.ndarray
    levels: np.ndarray
    log_z: np.ndarray
    log_populations: np.ndarray
    energy: np.ndarray

    @classmethod
    def of(cls, states: _Stack, hamiltonians: _Stack, beta: float) -> _SpectralBlock:
        """The block of the pairs of rows b of two ``_Stack``s, the states descending and
        the Hamiltonians ascending, with the Gibbs logs of every row."""
        log_z, log_populations, _ = _gibbs_logs(hamiltonians.values, beta)
        return cls(float(beta), states.matrices, states.vectors, states.values,
                   hamiltonians.vectors, hamiltonians.values, hamiltonians.levels, log_z,
                   log_populations, _traces(states.matrices, hamiltonians.matrices))

    @cached_property
    def _rotated(self) -> np.ndarray:
        return _rotate(self.matrices, self.basis)

    @cached_property
    def dephased_populations(self) -> np.ndarray:
        """Eigenvalues of the dephased states, descending: the sorted energy-basis
        diagonal, or those of the pinched state where H is degenerate."""
        rotated = self._rotated
        values = np.sort(np.diagonal(rotated, axis1=1, axis2=2).real, axis=1)[:, ::-1]
        degenerate = self.levels[:, -1] < rotated.shape[1] - 1
        if degenerate.any():
            pinched = _pinch(rotated[degenerate], self.levels[degenerate])
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
    entropy = cached_property(lambda self: -_divergences(self.populations))
    dephased_entropy = cached_property(lambda self: -_divergences(self.dephased_populations))

    @cached_property
    def relative_entropy(self) -> np.ndarray:
        """S(rho||rho_eq) = sum p ln p + beta tr(rho H) + ln Z."""
        return -self.entropy + self.beta * self.energy + self.log_z

    @cached_property
    def spectral_divergence(self) -> np.ndarray:
        """D(rho||rho_eq) = sum p_desc (ln p_desc + beta E_asc + ln Z)."""
        return _divergences(self.populations, self.log_populations)

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
    _same("dimension", rho.dim, hamiltonian.dim)
    return _SpectralBlock.of(_stack_of(rho, "descending"), _stack_of(hamiltonian, "ascending"),
                             beta)
