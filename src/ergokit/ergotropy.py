"""Passive states and the ergotropy identities.

Two of the three independent routes to the same number live here (the third
is ``geometric.ergotropy_geometric``):

* ``ergotropy_direct`` - energy above the passive state (sorted rearrangement);
* ``ergotropy_via_entropies`` - difference of quantum and spectral relative
  entropies with respect to the Gibbs state, divided by beta.

The coherent/incoherent split of the same number is implemented verbatim in
its printed three-term form in ``coherent_ergotropy_eq11``, with the
dephasing-based alternative in ``dephased_ergotropy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, SupportViolation
from .quantum import (
    SUPPORT_FLOOR,
    DensityMatrix,
    GibbsState,
    HermitianOperator,
    SpectralContext,
    dephase,
    eigendecompose,
    expectation,
    spectral_context,
)
from .sampling import haar_unitaries, stream

UNITARITY_ATOL = 1e-10


@dataclass(frozen=True)
class AlignmentUnitary:
    """Unitary built by pairing two sorted eigenbases column by column."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        defect = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
        if defect > UNITARITY_ATOL:
            raise ValueError(f"matrix is not unitary: defect {defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return DensityMatrix(self.matrix @ rho.matrix @ self.matrix.conj().T)


@dataclass(frozen=True)
class ErgotropyReport:
    """All ergotropy routes for one (state, Hamiltonian, beta) triple.

    ``incoherent`` is total - coherent_eq11; with the printed three-term
    coherent form this is ~0 for every state (see ``dephased_ergotropy`` for
    the alternative split).  ``context`` holds the spectra every route used.
    """

    total: float
    via_entropies: float
    coherent_eq11: float
    incoherent: float
    dephased_ergotropy: float
    beta_used: float
    passive_energy: float
    context: SpectralContext | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        dev = abs(self.total - self.via_entropies)
        if dev > 1e-8 * (1.0 + abs(self.total)):
            raise InvariantViolation(f"route disagreement |direct - entropies| = {dev:.3e}")
        if abs(self.incoherent - (self.total - self.coherent_eq11)) > 1e-12:
            raise InvariantViolation("incoherent must equal total - coherent_eq11")
        if self.total < -1e-9:
            raise InvariantViolation(f"negative ergotropy {self.total:.3e}")


def passive_state(
    rho: DensityMatrix, hamiltonian: HermitianOperator
) -> tuple[DensityMatrix, AlignmentUnitary]:
    """Passive state of ``rho`` and the unitary that reaches it.

    Populations sorted descending are placed on energy eigenstates sorted
    ascending; the returned unitary maps the i-th population eigenvector onto
    the i-th energy eigenvector.
    """
    if rho.dim != hamiltonian.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {hamiltonian.dim}")
    populations = eigendecompose(rho, "descending")
    energies = eigendecompose(hamiltonian, "ascending")
    passive = DensityMatrix(
        (energies.vectors * populations.values) @ energies.vectors.conj().T
    )
    unitary = AlignmentUnitary(energies.vectors @ populations.vectors.conj().T)
    return passive, unitary


def passive_energy(rho: DensityMatrix, hamiltonian: HermitianOperator) -> float:
    """Minimal mean energy over the unitary orbit: sum of p_sorted_desc * E_sorted_asc."""
    if rho.dim != hamiltonian.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {hamiltonian.dim}")
    p = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
    e = np.sort(np.linalg.eigvalsh(hamiltonian.matrix))
    return float(p @ e)


def ergotropy_direct(rho: DensityMatrix, hamiltonian: HermitianOperator) -> float:
    """tr(rho H) minus the passive energy."""
    return expectation(rho, hamiltonian) - passive_energy(rho, hamiltonian)


def optimal_alignment_unitary(rho: DensityMatrix, sigma: DensityMatrix) -> AlignmentUnitary:
    """The unitary minimizing S(U rho U†||sigma): sends sorted rho-basis to sorted sigma-basis."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    p = eigendecompose(rho, "descending")
    s = eigendecompose(sigma, "descending")
    return AlignmentUnitary(s.vectors @ p.vectors.conj().T)


def _via_entropies(context: SpectralContext) -> float:
    return (context.relative_entropy() - context.spectral_divergence()) / context.gibbs.beta


def _coherent_eq11(context: SpectralContext) -> float:
    return (
        context.coherence() + context.population_divergence() - context.spectral_divergence()
    ) / context.gibbs.beta


def ergotropy_via_entropies(
    rho: DensityMatrix, hamiltonian: HermitianOperator, beta: float
) -> float:
    """(S(rho||rho_eq) - D(rho||rho_eq)) / beta; beta-independent by construction."""
    return _via_entropies(spectral_context(rho, hamiltonian, beta))


def coherent_ergotropy_eq11(
    rho: DensityMatrix, hamiltonian: HermitianOperator, beta: float
) -> float:
    """Three-term coherent ergotropy, implemented exactly as printed:
    (C(rho) + S(dephased||rho_eq) - D(rho||rho_eq)) / beta."""
    return _coherent_eq11(spectral_context(rho, hamiltonian, beta))


def dephased_ergotropy(rho: DensityMatrix, hamiltonian: HermitianOperator) -> float:
    """Ergotropy left after removing energy-basis coherences; the alternative
    incoherent contribution in the split E(rho) = [E(rho)-E(dephased)] + E(dephased)."""
    return ergotropy_direct(dephase(rho, hamiltonian), hamiltonian)


def ergotropy_report(
    rho: DensityMatrix, hamiltonian: HermitianOperator, beta: float
) -> ErgotropyReport:
    """Every route from one spectral context, with the consistency invariants."""
    context = spectral_context(rho, hamiltonian, beta)
    energies = context.gibbs.energies
    passive = float(context.populations @ energies)
    total = context.energy - passive
    coherent = _coherent_eq11(context)
    return ErgotropyReport(
        total=total,
        via_entropies=_via_entropies(context),
        coherent_eq11=coherent,
        incoherent=total - coherent,
        dephased_ergotropy=context.dephased_energy - float(context.dephased_populations @ energies),
        beta_used=float(beta),
        passive_energy=passive,
        context=context,
    )


@dataclass(frozen=True)
class UnitaryProbeResult:
    """Sampled minimum of S(U rho U†||sigma) against its spectral lower bound."""

    n_samples: int
    seed: int
    spectral_bound: float
    min_entropy: float
    mean_entropy: float
    min_gap: float
    optimal_entropy: float | None
    optimal_gap: float | None


def unitary_min_probe(
    rho: DensityMatrix,
    sigma: DensityMatrix | GibbsState,
    n_samples: int,
    seed: int,
    include_optimal: bool = False,
    chunk: int = 4096,
) -> UnitaryProbeResult:
    """Haar-sample unitaries and track min/mean of S(U rho U†||sigma).

    A ``GibbsState`` ``sigma`` brings its basis and analytic log-populations
    (every level is support); a density matrix is diagonalized here.  The
    minimum can never undercut the sorted-spectrum divergence D(rho||sigma);
    with ``include_optimal`` the aligning unitary is evaluated by the same
    formula as the samples and closes the gap to rounding error.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if isinstance(sigma, GibbsState):
        s_vectors, ln_s = sigma.basis, sigma.log_populations
    else:
        s_spec = eigendecompose(sigma, "descending")
        s_vectors = s_spec.vectors
        ln_s = np.log(s_spec.values[s_spec.values > SUPPORT_FLOOR])
    if rho.dim != len(s_vectors):
        raise ValueError(f"dimension mismatch: {rho.dim} vs {len(s_vectors)}")

    p_spec = eigendecompose(rho, "descending")
    live = p_spec.values > SUPPORT_FLOOR
    p_live = p_spec.values[live]
    v_live = p_spec.vectors[:, live]
    s_support = s_vectors[:, : len(ln_s)]
    entropy_term = float((p_live * np.log(p_live)).sum())
    if len(p_live) > len(ln_s):
        raise SupportViolation("sorted sigma spectrum vanishes where rho is populated")
    bound = entropy_term - float(p_live @ ln_s[: len(p_live)])

    def entropies(units: np.ndarray) -> np.ndarray:
        rotated = units @ v_live  # (m, d, n_live)
        overlap = np.abs(np.einsum("dj,kdi->kji", s_support.conj(), rotated)) ** 2
        deviation = float(np.max(np.abs(overlap.sum(axis=1) - 1.0)))
        if deviation > SUPPORT_FLOOR:
            raise SupportViolation(
                f"a rotated state leaks {deviation:.3e} outside support(sigma)"
            )
        return entropy_term - np.einsum("kji,j,i->k", overlap, ln_s, p_live)

    rng = stream(seed)
    total = 0.0
    best = np.inf
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        values = entropies(haar_unitaries(rho.dim, m, rng))
        total += float(values.sum())
        best = min(best, float(values.min()))
        done += m

    optimal_entropy = None
    optimal_gap = None
    if include_optimal:
        optimal_entropy = float(entropies((s_vectors @ p_spec.vectors.conj().T)[None])[0])
        optimal_gap = optimal_entropy - bound
        best = min(best, optimal_entropy)
    return UnitaryProbeResult(
        n_samples=n_samples,
        seed=seed,
        spectral_bound=bound,
        min_entropy=best,
        mean_entropy=total / n_samples,
        min_gap=best - bound,
        optimal_entropy=optimal_entropy,
        optimal_gap=optimal_gap,
    )
