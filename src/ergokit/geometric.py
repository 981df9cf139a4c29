"""Geometric quantum states: weighted point masses on the pure-state manifold,
the geometric relative entropy, and the geometric canonical ensemble.

The manifold is CP^(d-1) with the unitarily invariant (Fubini-Study) measure,
normalized so the total volume is pi^(d-1)/(d-1)!.  The partition integral, in
closed form at every d, checks the Monte Carlo estimator, which samples
<z|H|z> = sum_k E_k |<e_k|z>|^2 on the simplex of eigenbasis populations.

``geometric_relative_entropy`` pairs support points with scipy's assignment
solver, imported when it is called; ``ergotropy_geometric`` knows its pairing
is the identity and needs no scipy, so neither does the command line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import exp, factorial, log, pi

import numpy as np

from .errors import OutOfScope, SupportMismatch
from .quantum import (
    SUPPORT_FLOOR,
    DensityMatrix,
    HermitianOperator,
    _fix_phase,
    eigendecompose,
    gibbs_state,
    spectral_context,
)
from .sampling import stream

# Support matching and merging use the overlap deficit 1 - |<a|b>| rather than
# the arccos distance: the deficit carries ~1e-15 absolute rounding error,
# whereas arccos amplifies the same error to ~1e-8 radians, which would break
# matching of bitwise-identical eigenvectors.  The thresholds correspond to
# angular separations of ~1.4e-6 (match) and ~1.4e-7 (merge).
MATCH_OVERLAP_DEFICIT = 1e-12
MERGE_OVERLAP_DEFICIT = 1e-14
NORM_ATOL = 1e-12
# Monte Carlo samples drawn per block; it fixes how the seeded stream is split,
# so changing it changes the estimate's bits.
MC_CHUNK = 1 << 18


@dataclass(frozen=True)
class GeometricPoint:
    """A pure state as a point on CP^(d-1): unit amplitudes, phase-fixed so the
    largest-magnitude component is real positive."""

    amplitudes: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.amplitudes, dtype=complex)
        if z.ndim != 1 or z.size < 2:
            raise ValueError("amplitudes must be a vector of length >= 2")
        norm = float(np.linalg.norm(z))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"amplitudes norm deviates from 1 by {abs(norm - 1.0):.3e}")
        z = _fix_phase(z / norm)
        z.setflags(write=False)
        object.__setattr__(self, "amplitudes", z)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def _overlap_deficits(a: tuple[GeometricPoint, ...], b: tuple[GeometricPoint, ...]) -> np.ndarray:
    """[i, j] = 1 - |<a_i|b_j>|, clipped at 0, from one Gram product."""
    rows = np.array([p.amplitudes for p in a])
    cols = np.array([p.amplitudes for p in b])
    return np.maximum(0.0, 1.0 - np.abs(rows.conj() @ cols.T))


@dataclass(frozen=True)
class GeometricState:
    """Probability distribution on the manifold given as weighted point masses.
    Coincident points (overlap deficit below ``MERGE_OVERLAP_DEFICIT``) are
    merged at construction."""

    points: tuple[GeometricPoint, ...]
    weights: np.ndarray

    def __post_init__(self):
        pts = tuple(self.points)
        w = np.asarray(self.weights, dtype=float)
        if len(pts) == 0 or w.shape != (len(pts),):
            raise ValueError("points and weights must be nonempty and equal length")
        if w.min() < 0.0:
            raise ValueError(f"negative weight {w.min():.3e}")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"weights deviate from unit mass by {abs(w.sum() - 1.0):.3e}")
        # Greedy merge in input order: a point joins the first earlier point
        # that still stands for itself and lies within the merge deficit.
        close = np.triu(_overlap_deficits(pts, pts) <= MERGE_OVERLAP_DEFICIT, 1)
        owner = np.arange(len(pts))
        for i in np.flatnonzero(close.any(axis=0)):
            owner[i] = next((j for j in np.flatnonzero(close[:i, i]) if owner[j] == j), i)
        heads = np.flatnonzero(owner == np.arange(len(pts)))
        wm = np.bincount(owner, weights=w, minlength=len(pts))[heads]
        object.__setattr__(self, "points", tuple(pts[i] for i in heads))
        wm.setflags(write=False)
        object.__setattr__(self, "weights", wm)

    @property
    def dim(self) -> int:
        return self.points[0].dim

    @property
    def n_points(self) -> int:
        return len(self.points)

    def density(self) -> DensityMatrix:
        amplitudes = np.array([p.amplitudes for p in self.points]).T
        return DensityMatrix((amplitudes * self.weights) @ amplitudes.conj().T)


def _weights_on(values: np.ndarray, vectors: np.ndarray) -> GeometricState:
    """Descending ``values`` above ``SUPPORT_FLOOR``, renormalized, as weights
    on the matching columns of ``vectors``."""
    keep = values > SUPPORT_FLOOR
    points = tuple(GeometricPoint(vectors[:, i]) for i in np.flatnonzero(keep))
    return GeometricState(points=points, weights=values[keep] / values[keep].sum())


def geometric_state_of(rho: DensityMatrix) -> GeometricState:
    """Point-mass representation from the eigendecomposition of ``rho``
    (descending weights; zero-weight eigenvectors dropped)."""
    spectrum = eigendecompose(rho, "descending")
    return _weights_on(spectrum.values, spectrum.vectors)


def aligned_geometric_state(rho: DensityMatrix, sigma: DensityMatrix) -> GeometricState:
    """Weights of ``rho`` (descending) placed on sigma's eigenvector points;
    the geometric counterpart of conjugating rho with the aligning unitary."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    p = eigendecompose(rho, "descending")
    return _weights_on(p.values, eigendecompose(sigma, "descending").vectors)


def geometric_relative_entropy(p_state: GeometricState, s_state: GeometricState) -> float:
    """sum_j p_j ln(p_j / s_j) over bijectively matched support points.

    Points are paired by proximity on the manifold (every point of ``p_state``
    must find its own partner with overlap deficit below
    ``MATCH_OVERLAP_DEFICIT``); weight-degenerate groups are therefore paired
    geometrically, never by index order.
    """
    if p_state.dim != s_state.dim:
        raise ValueError(f"dimension mismatch: {p_state.dim} vs {s_state.dim}")
    if p_state.n_points > s_state.n_points:
        raise SupportMismatch(
            f"{p_state.n_points} support points cannot inject into "
            f"{s_state.n_points} reference points"
        )
    # Imported here, its one use: loading scipy.optimize costs every process ~0.6 s.
    from scipy.optimize import linear_sum_assignment

    deficit = _overlap_deficits(p_state.points, s_state.points)
    rows, cols = linear_sum_assignment(np.where(deficit <= MATCH_OVERLAP_DEFICIT, deficit, 1e6))
    if np.any(deficit[rows, cols] > MATCH_OVERLAP_DEFICIT):
        raise SupportMismatch("no bijection pairs the support points within tolerance")
    p_w = p_state.weights[rows]
    s_w = s_state.weights[cols]
    live = p_w > SUPPORT_FLOOR
    if np.any(s_w[live] <= SUPPORT_FLOOR):
        raise SupportMismatch("matched reference point carries no weight")
    return float((p_w[live] * (np.log(p_w[live]) - np.log(s_w[live]))).sum())


def ergotropy_geometric(rho: DensityMatrix, hamiltonian: HermitianOperator, beta: float) -> float:
    """Third route to the ergotropy: (S(rho||rho_eq) - D_geom(aligned||rho_eq)) / beta.

    The aligned state puts rho's populations above ``SUPPORT_FLOOR``, renormalized
    and descending, on the first k of the d orthonormal Gibbs eigenvector points
    that carry rho_eq.  So no point merges, the matching of ``geometric_relative_entropy``
    is the identity, and D_geom = sum_{i<k} w_i (ln w_i - ln rho_eq,i), with the
    analytic ln rho_eq."""
    _require_manifold(rho.dim)
    context = spectral_context(rho, hamiltonian, beta)
    weights = context.populations[context.populations > SUPPORT_FLOOR]
    w = weights / weights.sum()
    divergence = float((w * (np.log(w) - context.gibbs.log_populations[: len(w)])).sum())
    return (context.relative_entropy() - divergence) / beta


def _require_manifold(dim: int) -> None:
    if dim < 2:
        raise OutOfScope(f"dim must be >= 2 for the manifold CP^(dim-1), got {dim}")


def manifold_volume(dim: int) -> float:
    """Total Fubini-Study volume of CP^(dim-1): pi^(dim-1) / (dim-1)!."""
    _require_manifold(dim)
    return pi ** (dim - 1) / factorial(dim - 1)


def _sample_energies(energies: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """<z|H|z> = sum_k E_k w_k at ``count`` uniform points z, from H's eigenvalues: the
    populations w_k = |<e_k|z>|^2 are Dirichlet(1, ..., 1), exponentials over their sum."""
    x = rng.standard_exponential((count, energies.size))
    return (x @ energies) / x.sum(axis=1)


def geometric_partition_function(
    hamiltonian: HermitianOperator,
    beta: float,
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo ``(estimate, standard_error)`` of the geometric partition integral
    over CP^(d-1): Vol(CP^(d-1)) * mean(exp(-beta h(z))) over uniform samples."""
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if n_samples < 100:
        raise ValueError(f"n_samples must be >= 100, got {n_samples}")
    _require_manifold(hamiltonian.dim)
    rng = stream(seed)
    energies = eigendecompose(hamiltonian, "ascending").values
    # Chunk-merged Welford accumulation: the naive E[X^2] - E[X]^2 form loses
    # all significance for near-constant integrands.
    count = 0
    mean = 0.0
    m2 = 0.0
    while count < n_samples:
        m = min(MC_CHUNK, n_samples - count)
        w = np.exp(-beta * _sample_energies(energies, m, rng))
        chunk_mean = float(w.mean())
        chunk_m2 = float(((w - chunk_mean) ** 2).sum())
        delta = chunk_mean - mean
        count += m
        mean += delta * m / count
        m2 += chunk_m2 + delta * delta * m * (count - m) / count
    variance = m2 / max(1, n_samples - 1)
    volume = manifold_volume(hamiltonian.dim)
    return volume * mean, volume * float(np.sqrt(variance / n_samples))


def geometric_partition_closed_form(hamiltonian: HermitianOperator, beta: float) -> float:
    """Exact geometric partition integral: pi^(d-1) times the divided difference of exp at
    y = -beta E = ln Z + ln p (Hermite-Genocchi), pi (e^{-beta E0} - e^{-beta E1}) / (beta
    (E1 - E0)) at d = 2.  With z = y - min y >= 0 it is pi^(d-1) e^(min y) sum_m g^(m)[-1],
    g^(0) = 1/(d-1)!, g^(m) = cumsum(z g^(m-1))/(m+d-1): positive terms, summed in log scale
    past m = max z to 1e-17 (McCurdy, Ng and Parlett, Math. Comp. 43, 501 (1984))."""
    gibbs = gibbs_state(hamiltonian, beta)
    z = gibbs.log_populations - gibbs.log_populations.min()
    log_scale = gibbs.log_z + float(gibbs.log_populations.min())
    g = np.full(z.size, 1.0 / factorial(z.size - 1))
    total = float(g[-1])
    for m in itertools.count(1):
        g = np.cumsum(z * g) / (m + z.size - 1)
        total += float(g[-1])
        if g[-1] < 1e-17 * total and m > z.max():
            return pi ** (z.size - 1) * exp(log_scale + log(total))
        if total > 1e300:
            log_scale += log(total)
            g /= total
            total = 1.0


# perfbench/selftest.py::test_closed_form_oracle_equals_qubit_closed_form reads this
# name until the benchmark revision (ROADMAP item 1); it is not in __all__.
qubit_partition_closed_form = geometric_partition_closed_form
