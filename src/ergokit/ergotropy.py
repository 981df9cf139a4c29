"""Passive states and the ergotropy identities.

Three independent routes to the same number, which ``ergotropy_report`` reads
from one spectral block:

* ``ergotropy_direct`` - energy above the passive state (sorted rearrangement);
* ``ergotropy_via_entropies`` - difference of quantum and spectral relative
  entropies with respect to the Gibbs state, divided by beta;
* ``geometric.ergotropy_geometric`` - the same with the geometric relative entropy.

The coherent/incoherent split of the same number is implemented verbatim in
its printed three-term form in ``coherent_ergotropy_eq11``, with the
dephasing-based alternative in ``dephased_ergotropy``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometric
from .errors import check, require
from .quantum import (
    SUPPORT_FLOOR,
    DensityMatrix,
    HermitianOperator,
    _dots,
    _SpectralBlock,
    _traces,
    dephase,
    eigendecompose,
    spectral_context,
)

@dataclass(frozen=True)
class ErgotropyReport:
    """All ergotropy routes for one (state, Hamiltonian, beta) triple: ``total`` (the
    direct route), ``via_entropies`` and ``via_geometric``.

    ``incoherent`` is total - coherent_eq11 by construction (``_routes``); with the printed
    three-term coherent form this is ~0 for every state (see ``dephased_ergotropy`` for the
    alternative split).  Building a report raises the failed ``_route_checks`` of the entropy
    route (``require``), which ``ergotropy`` prints instead, with the geometric route's.
    """

    total: float
    via_entropies: float
    via_geometric: float
    coherent_eq11: float
    incoherent: float
    dephased_ergotropy: float
    beta_used: float
    passive_energy: float

    def __post_init__(self):
        require(_route_checks(self.total, {"entropies": self.via_entropies}))


def _route_checks(total, routes: dict, tolerance: float = 1e-8) -> dict:
    """The ``ErgotropyReport`` invariants, on floats or on arrays of a block's rows: the
    direct route and each of ``routes`` (name -> value, checked as ``route_<name>_agrees``)
    agree within min(``tolerance``, 1e-8) (1 + |total|), so a tolerance only tightens the
    gate, and the total is at least -1e-9."""
    gate = min(tolerance, 1e-8) * (1.0 + abs(total))
    return {**{f"route_{name}_agrees": check(abs(total - value), gate)
               for name, value in routes.items()},
            "ergotropy_nonnegative": check(total, -1e-9, at_most=False)}


def passive_state(
    rho: DensityMatrix, hamiltonian: HermitianOperator
) -> tuple[DensityMatrix, np.ndarray]:
    """Passive state of ``rho`` and the unitary U, an array, with U rho U† passive.

    Populations sorted descending are placed on energy eigenstates sorted
    ascending; U maps the i-th population eigenvector onto the i-th energy
    eigenvector, so it is unitary to rounding.
    """
    if rho.dim != hamiltonian.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {hamiltonian.dim}")
    populations = eigendecompose(rho, "descending")
    energies = eigendecompose(hamiltonian, "ascending")
    passive = DensityMatrix(
        (energies.vectors * populations.values) @ energies.vectors.conj().T
    )
    return passive, energies.vectors @ populations.vectors.conj().T


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
    p = np.linalg.eigvalsh(rho)[..., None, ::-1]
    passive = (p @ np.linalg.eigvalsh(hamiltonian)[..., None])[..., 0, 0]
    return _traces(rho, hamiltonian) - passive, passive


def optimal_alignment_unitary(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    """The unitary minimizing S(U rho U†||sigma), as an array: sends sorted rho-basis to
    sorted sigma-basis."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    p = eigendecompose(rho, "descending")
    s = eigendecompose(sigma, "descending")
    return s.vectors @ p.vectors.conj().T


def _via_entropies(block: _SpectralBlock) -> np.ndarray:
    return (block.relative_entropy - block.spectral_divergence) / block.beta


def _coherent_eq11(block: _SpectralBlock) -> np.ndarray:
    return (block.coherence + block.population_divergence - block.spectral_divergence) / block.beta


def ergotropy_via_entropies(
    rho: DensityMatrix, hamiltonian: HermitianOperator, beta: float
) -> float:
    """(S(rho||rho_eq) - D(rho||rho_eq)) / beta; beta-independent by construction."""
    return float(_via_entropies(spectral_context(rho, hamiltonian, beta))[0])


def coherent_ergotropy_eq11(
    rho: DensityMatrix, hamiltonian: HermitianOperator, beta: float
) -> float:
    """Three-term coherent ergotropy, implemented exactly as printed:
    (C(rho) + S(dephased||rho_eq) - D(rho||rho_eq)) / beta."""
    return float(_coherent_eq11(spectral_context(rho, hamiltonian, beta))[0])


def dephased_ergotropy(rho: DensityMatrix, hamiltonian: HermitianOperator) -> float:
    """Ergotropy left after removing energy-basis coherences; the alternative
    incoherent contribution in the split E(rho) = [E(rho)-E(dephased)] + E(dephased)."""
    return ergotropy_direct(dephase(rho, hamiltonian), hamiltonian)


def _routes(block: _SpectralBlock) -> dict[str, np.ndarray]:
    """The ``ErgotropyReport`` routes of every row of a block, ungated: the caller
    checks them (``_route_checks``)."""
    total = block.energy - block.passive_energy
    coherent = _coherent_eq11(block)
    return {"total": total, "via_entropies": _via_entropies(block), "coherent_eq11": coherent,
            "incoherent": total - coherent, "passive_energy": block.passive_energy,
            "dephased_ergotropy":
                block.dephased_energy - _dots(block.dephased_populations, block.energies)}


def _ergotropy_fields(rho: DensityMatrix, hamiltonian: HermitianOperator, beta: float) -> dict:
    """The ``ErgotropyReport`` fields, unchecked, from row 0 of one spectral block, which the
    operators' kept spectra rebuild with no ``eigh``; the geometric route needs d >= 2."""
    block = spectral_context(rho, hamiltonian, beta)
    return {**{name: float(values[0]) for name, values in _routes(block).items()},
            "via_geometric": float(geometric._geometric_route(block)[0]), "beta_used": float(beta)}


def ergotropy_report(rho: DensityMatrix, hamiltonian: HermitianOperator,
                     beta: float) -> ErgotropyReport:
    """The ``_ergotropy_fields`` as a report, which raises the failed ``_route_checks``."""
    return ErgotropyReport(**_ergotropy_fields(rho, hamiltonian, beta))


def _aligned_gaps(block: _SpectralBlock) -> np.ndarray:
    """S(U rho U†||rho_eq) - D(rho||rho_eq) at the aligning unitary U = S P† of each
    row.  U attains the minimum over the unitary orbit (von Neumann's trace
    inequality), so the gap is zero up to rounding.  S(U rho U†||rho_eq) is
    evaluated through the overlaps |<s_j|U|v_i>|^2, not the sorted pairing, and D
    is the block's ``spectral_divergence``, the one the entropy route reads.  Every
    eigenvector v_i enters, weighted by its population, a population at or below
    ``SUPPORT_FLOOR`` as an exact zero."""
    basis, vectors = block.basis, block.vectors
    weights = np.where(block.populations > SUPPORT_FLOOR, block.populations, 0.0)
    amplitudes = basis.conj().swapaxes(1, 2) @ ((basis @ vectors.conj().swapaxes(1, 2)) @ vectors)
    overlap = amplitudes.real**2 + amplitudes.imag**2
    cross = (block.log_populations[:, None, :] @ overlap @ weights[:, :, None])[:, 0, 0]
    return -block.entropy - cross - block.spectral_divergence
