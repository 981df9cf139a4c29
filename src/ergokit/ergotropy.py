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

from .errors import InvariantViolation
from .quantum import (
    SUPPORT_FLOOR,
    DensityMatrix,
    HermitianOperator,
    SpectralContext,
    dephase,
    eigendecompose,
    spectral_context,
)

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
    return float(_direct(rho.matrix, hamiltonian.matrix)[1])


def ergotropy_direct(rho: DensityMatrix, hamiltonian: HermitianOperator) -> float:
    """tr(rho H) minus the passive energy."""
    return float(_direct(rho.matrix, hamiltonian.matrix)[0])


def _direct(rho: np.ndarray, hamiltonian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``ergotropy_direct``, ``passive_energy``) over stacks (..., d, d) of matrices."""
    p = np.sort(np.linalg.eigvalsh(rho))[..., None, ::-1]
    passive = (p @ np.sort(np.linalg.eigvalsh(hamiltonian))[..., None])[..., 0, 0]
    return np.einsum("...ij,...ji->...", rho, hamiltonian).real - passive, passive


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


def _aligned_gap(context: SpectralContext) -> float:
    """S(U rho U†||rho_eq) - D(rho||rho_eq) at the aligning unitary U = S P†.  U attains
    the minimum over the unitary orbit (von Neumann's trace inequality), so the gap is
    zero up to rounding; it is evaluated through the overlaps |<s_j|U|v_i>|^2, not the
    sorted spectra the bound is made of."""
    p_spec = eigendecompose(context.rho, "descending")
    n_live = int(np.count_nonzero(p_spec.values > SUPPORT_FLOOR))  # a descending prefix
    p_live, v_live = p_spec.values[:n_live], p_spec.vectors[:, :n_live]
    basis, ln_s = context.gibbs.basis, context.gibbs.log_populations  # every level is support
    entropy_term = -context.entropy
    amplitudes = basis.conj().T @ ((basis @ p_spec.vectors.conj().T) @ v_live)
    overlap = amplitudes.real**2 + amplitudes.imag**2
    cross = float(ln_s @ overlap @ p_live)
    divergence = entropy_term - float(p_live @ ln_s[:n_live])  # D: the sorted pairing
    return entropy_term - cross - divergence
