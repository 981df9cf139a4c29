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
    spectral_context,
)
from .sampling import _haar_blocks, stream

UNITARITY_ATOL = 1e-10
# Haar unitaries drawn per block; it fixes how the seeded stream is split, so
# changing it changes the probe's bits.
PROBE_CHUNK = 4096


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
) -> UnitaryProbeResult:
    """Haar-sample unitaries and track min/mean of S(U rho U†||sigma).

    A ``GibbsState`` ``sigma`` brings its basis and analytic log-populations
    (every level is support); a density matrix is diagonalized here.  The
    minimum can never undercut the sorted-spectrum divergence D(rho||sigma);
    with ``include_optimal`` the aligning unitary is evaluated by the same
    formula as the samples and closes the gap to rounding error.
    """
    return _unitary_min_probes([rho], [sigma], n_samples, [seed], include_optimal)[0]


def _unitary_min_probes(rhos: list[DensityMatrix], sigmas: list[DensityMatrix | GibbsState],
                        n_samples: int, seeds: list[int], include_optimal: bool
                        ) -> list[UnitaryProbeResult]:
    """``unitary_min_probe`` of each row of a block of one dimension: each row draws from
    its own stream, and one QR per chunk and one set of contractions serve the block."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rows, bounds = [], []
    for rho, sigma in zip(rhos, sigmas):
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
        entropy_term = float((p_live * np.log(p_live)).sum())
        if len(p_live) > len(ln_s):
            raise SupportViolation("sorted sigma spectrum vanishes where rho is populated")
        bounds.append(entropy_term - float(p_live @ ln_s[: len(p_live)]))
        rows.append((s_vectors[:, : len(ln_s)].conj(), p_spec.vectors[:, live], ln_s, p_live,
                     entropy_term, s_vectors @ p_spec.vectors.conj().T))
    if len({(len(row[2]), len(row[3])) for row in rows}) > 1:  # mixed support sizes: row by row
        return [_unitary_min_probes([rho], [sigma], n_samples, [seed], include_optimal)[0]
                for rho, sigma, seed in zip(rhos, sigmas, seeds)]
    s_conj, v_live, ln_s, p_live, entropy_term, aligned = (np.array(c) for c in zip(*rows))

    def entropies(units: np.ndarray) -> np.ndarray:
        # <s_j|U|v_i>: (rows, m, n_support, n_live); S† keeps a single row's transposed layout
        amplitudes = s_conj.swapaxes(1, 2)[:, None] @ (units @ v_live[:, None])
        overlap = amplitudes.real**2 + amplitudes.imag**2
        deviation = float(np.max(np.abs(overlap.sum(axis=-2) - 1.0)))
        if deviation > SUPPORT_FLOOR:
            raise SupportViolation(f"a rotated state leaks {deviation:.3e} outside support(sigma)")
        cross = (ln_s[:, None, None] @ overlap)[..., 0, :] @ p_live[..., None]
        return entropy_term[:, None] - cross[..., 0]

    rngs = [stream(seed) for seed in seeds]
    total, best = np.zeros(len(rows)), np.full(len(rows), np.inf)
    for done in range(0, n_samples, PROBE_CHUNK):
        values = entropies(_haar_blocks(rhos[0].dim, min(PROBE_CHUNK, n_samples - done), rngs))
        total += values.sum(axis=-1)
        best = np.minimum(best, values.min(axis=-1))
    optimal = np.full(len(rows), np.nan)
    if include_optimal:
        optimal = entropies(aligned[:, None])[:, 0]
        best = np.minimum(best, optimal)
    return [
        UnitaryProbeResult(
            n_samples=n_samples, seed=seed, spectral_bound=bound, min_entropy=low,
            mean_entropy=mean, min_gap=low - bound,
            optimal_entropy=found if include_optimal else None,
            optimal_gap=found - bound if include_optimal else None,
        )
        for seed, bound, low, mean, found in zip(
            seeds, bounds, best.tolist(), (total / n_samples).tolist(), optimal.tolist())
    ]
