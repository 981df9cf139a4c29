"""Geometric quantum states: weighted point masses on the pure-state manifold,
the geometric relative entropy, and the geometric canonical ensemble.

The manifold is CP^(d-1) with the unitarily invariant (Fubini-Study) measure,
normalized so the total volume is pi^(d-1)/(d-1)!.  The partition integral, in
closed form at every d, checks the Monte Carlo estimator, which samples
<z|H|z> = sum_k E_k |<e_k|z>|^2 on the simplex of eigenbasis populations.

``geometric_relative_entropy`` pairs each support point with its one neighbour
within ``MATCH_OVERLAP_DEFICIT``; ``ergotropy_geometric`` knows its pairing is
the identity.  Nothing here needs more than numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import exp, factorial, log, pi

import numpy as np

from . import _threads
from .errors import OutOfScope, SupportMismatch
from .quantum import (
    SUPPORT_FLOOR,
    DensityMatrix,
    HermitianOperator,
    _divergences,
    _gauge,
    _SpectralBlock,
    eigendecompose,
    gibbs_state,
    spectral_context,
)
from .sampling import _streams

# Support matching and merging use the overlap deficit 1 - |<a|b>| rather than
# the arccos distance: the deficit carries ~1e-15 absolute rounding error,
# whereas arccos amplifies the same error to ~1e-8 radians, which would break
# matching of bitwise-identical eigenvectors.  The thresholds correspond to
# angular separations of ~1.4e-6 (match) and ~1.4e-7 (merge).
MATCH_OVERLAP_DEFICIT = 1e-12
MERGE_OVERLAP_DEFICIT = 1e-14
NORM_ATOL = 1e-12
# Monte Carlo exponentials drawn per block: 2^16 (512 KiB), floor(2^16 / d) samples of d each.
# Block b draws from stream(seed, b), so the block size decides which stream draws which
# sample; blocks may run in any order on any thread, and their moments merge in block order.
# A run of at least 8 blocks' worth draws on two threads (``_threads.claimed``); a smaller
# one loses more to the hand-off than it gains.  Each half (a smaller run is one) draws its
# blocks into one set of buffers, allocated once per call.
MC_BLOCK_DRAWS = 1 << 16
MC_PARALLEL_DRAWS = 8 * MC_BLOCK_DRAWS


def _overlap_deficits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j] = 1 - |<a_i|b_j>| over the rows of ``a`` and ``b``, clipped at 0."""
    return np.maximum(0.0, 1.0 - np.abs(a.conj() @ b.T))


@dataclass(frozen=True)
class GeometricState:
    """Probability distribution on CP^(d-1) as weighted point masses: row i of the
    (k, d) array ``points`` is the unit vector that carries ``weights[i]``, normalized
    but with its phase as given, since a point of CP^(d-1) is a ray and matching and
    merging read |<a|b>|.  Coincident rows (overlap deficit below
    ``MERGE_OVERLAP_DEFICIT``) are merged at construction."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.points, dtype=complex)
        w = np.asarray(self.weights, dtype=float)
        if z.ndim != 2 or z.shape[1] < 2:
            raise ValueError("points must be a (k, d) array with d >= 2")
        if len(z) == 0 or w.shape != (len(z),):
            raise ValueError("points and weights must be nonempty and equal length")
        norms = np.linalg.norm(z, axis=1)
        if not np.all(np.abs(norms - 1.0) <= NORM_ATOL):
            raise ValueError(f"point norm deviates from 1 by {np.abs(norms - 1.0).max():.3e}")
        if not w.min() >= 0.0:
            raise ValueError(f"negative weight {w.min():.3e}")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"weights deviate from unit mass by {abs(w.sum() - 1.0):.3e}")
        z = z / norms[:, None]
        # Greedy merge in input order: a point joins the first earlier point
        # that still stands for itself and lies within the merge deficit.
        close = np.triu(_overlap_deficits(z, z) <= MERGE_OVERLAP_DEFICIT, 1)
        owner = np.arange(len(z))
        for i in np.flatnonzero(close.any(axis=0)):
            owner[i] = next((j for j in np.flatnonzero(close[:i, i]) if owner[j] == j), i)
        heads = np.flatnonzero(owner == np.arange(len(z)))
        wm = np.bincount(owner, weights=w, minlength=len(z))[heads]
        for name, value in (("points", z[heads]), ("weights", wm)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def density(self) -> DensityMatrix:
        return DensityMatrix((self.points.T * self.weights) @ self.points.conj())


def _weights_on(values: np.ndarray, vectors: np.ndarray) -> GeometricState:
    """Descending ``values`` above ``SUPPORT_FLOOR``, renormalized, as weights
    on the matching columns of ``vectors``."""
    keep = values > SUPPORT_FLOOR
    return GeometricState(points=vectors[:, keep].T, weights=values[keep] / values[keep].sum())


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

    Each point of ``p_state`` pairs with its one neighbour in ``s_state`` within
    ``MATCH_OVERLAP_DEFICIT``, so weight-degenerate groups pair geometrically,
    never by index order.  No neighbour, or an ambiguous pairing (two candidates
    for a point, or one shared by two points), raises ``SupportMismatch``.
    """
    if p_state.dim != s_state.dim:
        raise ValueError(f"dimension mismatch: {p_state.dim} vs {s_state.dim}")
    near = _overlap_deficits(p_state.points, s_state.points) <= MATCH_OVERLAP_DEFICIT
    if np.any(near.sum(axis=1) != 1) or np.any(near.sum(axis=0) > 1):
        raise SupportMismatch("support points do not pair one to one within tolerance")
    p_w = p_state.weights
    s_w = s_state.weights[near.argmax(axis=1)]
    live = p_w > SUPPORT_FLOOR
    if np.any(s_w[live] <= SUPPORT_FLOOR):
        raise SupportMismatch("matched reference point carries no weight")
    return float(_divergences(p_w, np.log(np.where(live, s_w, 1.0))))


def ergotropy_geometric(rho: DensityMatrix, hamiltonian: HermitianOperator, beta: float) -> float:
    """Third route to the ergotropy: (S(rho||rho_eq) - D_geom(aligned||rho_eq)) / beta.

    The aligned state puts rho's populations above ``SUPPORT_FLOOR``, renormalized
    and descending, on the first k of the d orthonormal Gibbs eigenvector points
    that carry rho_eq.  So no point merges, the matching of ``geometric_relative_entropy``
    is the identity, and D_geom = sum_{i<k} w_i (ln w_i - ln rho_eq,i), with the
    analytic ln rho_eq."""
    return float(_geometric_route(spectral_context(rho, hamiltonian, beta))[0])


def _geometric_route(block: _SpectralBlock) -> np.ndarray:
    """``ergotropy_geometric`` of each row of a spectral block: the populations above
    ``SUPPORT_FLOOR``, renormalized, against the Gibbs log-populations of the same index,
    in the one kernel ``_divergences``, the dead levels as exact zeros."""
    _require_manifold(block.populations.shape[1])
    weights = np.where(block.populations > SUPPORT_FLOOR, block.populations, 0.0)
    w = weights / weights.sum(axis=1, keepdims=True)
    return (block.relative_entropy - _divergences(w, block.log_populations)) / block.beta


def _require_manifold(dim: int) -> None:
    if dim < 2:
        raise OutOfScope(f"dim must be >= 2 for the manifold CP^(dim-1), got {dim}")


def _require_normal(log_value: float, name: str, beta: float) -> None:
    """``OutOfScope`` unless exp(``log_value``) is a positive normal double."""
    if not log(np.finfo(float).tiny) <= log_value < log(np.finfo(float).max):
        raise OutOfScope(f"{name} = exp({log_value:.6g}) is not a normal double at beta = {beta:g}")


def manifold_volume(dim: int) -> float:
    """Total Fubini-Study volume of CP^(dim-1): pi^(dim-1) / (dim-1)!."""
    _require_manifold(dim)
    return pi ** (dim - 1) / factorial(dim - 1)


def _sample_energies(energies: np.ndarray, rng: np.random.Generator, x: np.ndarray,
                     sums: np.ndarray, out: np.ndarray) -> np.ndarray:
    """<z|H|z> = sum_k E_k w_k at len(``out``) uniform points z, from H's eigenvalues, into
    ``out``: the populations w_k = |<e_k|z>|^2 are Dirichlet(1, ..., 1), exponentials over
    their sum.  The exponentials fill the leading rows of the caller's ``x`` (n, d), and one
    product gives each row's energy sum and plain sum in the leading rows of ``sums`` (n, 2)."""
    x, sums = x[: len(out)], sums[: len(out)]
    rng.standard_exponential(out=x)
    np.matmul(x, np.stack([energies, np.ones_like(energies)], axis=1), out=sums)
    return np.divide(sums[:, 0], sums[:, 1], out=out)


def geometric_partition_function(
    hamiltonian: HermitianOperator,
    beta: float,
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo ``(estimate, standard_error)`` of the geometric partition integral
    over CP^(d-1): Vol(CP^(d-1)) e^(-beta E_0) * mean(exp(-beta (h(z) - E_0))) over uniform
    samples, h(z) - E_0 drawn from the spectrum above the ground energy E_0 (``_gauge``), so
    no weight exceeds 1; Vol e^(-beta E_0) must be a normal double (``OutOfScope``)."""
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if n_samples < 100:
        raise ValueError(f"n_samples must be >= 100, got {n_samples}")
    volume = manifold_volume(hamiltonian.dim)
    energies, ground = _gauge(eigendecompose(hamiltonian, "ascending").values)
    ground = float(ground)
    _require_normal(log(volume) - beta * ground, "Vol e^(-beta E_0)", beta)
    rows = max(1, MC_BLOCK_DRAWS // energies.size)
    full, rest = divmod(n_samples, rows)
    sizes = [rows] * full + [rest] * (rest > 0)

    def draw(claims) -> dict[int, tuple[float, float]]:
        # (mean, sum of squared deviations) of exp(-beta h(z)) over each block b this half
        # claims, so a half on a busier CPU draws fewer: sizes[b] samples from
        # stream(seed, b), through one repositioned generator.
        moments = {}
        x, sums = np.empty((sizes[0], energies.size)), np.empty((sizes[0], 2))
        out = np.empty(sizes[0])
        mine, positions = itertools.tee(claims)
        for b, rng in zip(mine, _streams(seed, positions)):
            w = _sample_energies(energies, rng, x, sums, out[: sizes[b]])
            w *= -beta
            np.exp(w, out=w)
            mean = float(w.mean())
            w -= mean
            np.square(w, out=w)
            moments[b] = (mean, float(w.sum()))
        return moments

    moments = _threads.claimed(draw, len(sizes), n_samples * energies.size, MC_PARALLEL_DRAWS)
    # Block-merged Welford accumulation in block order: the naive E[X^2] - E[X]^2 form
    # loses all significance for near-constant integrands.
    count, mean, m2 = 0, 0.0, 0.0
    for b, m in enumerate(sizes):
        block_mean, block_m2 = moments[b]
        delta = block_mean - mean
        count += m
        mean += delta * m / count
        m2 += block_m2 + delta * delta * m * (count - m) / count
    variance = m2 / max(1, n_samples - 1)
    scale = exp(log(volume) - beta * ground) if ground else volume  # same bits at E_0 = 0
    return scale * mean, scale * float(np.sqrt(variance / n_samples))


def geometric_partition_closed_form(hamiltonian: HermitianOperator, beta: float) -> float:
    """Exact geometric partition integral: pi^(d-1) times the divided difference of exp at
    y = -beta E = ln Z + ln p (Hermite-Genocchi), pi (e^{-beta E0} - e^{-beta E1}) / (beta
    (E1 - E0)) at d = 2.  With z = y - min y >= 0 it is pi^(d-1) e^(min y) sum_m g^(m)[-1],
    g^(0) = 1/(d-1)!, g^(m) = cumsum(z g^(m-1))/(m+d-1): positive terms, summed in log scale
    past m = max z to 1e-17 (McCurdy, Ng and Parlett, Math. Comp. 43, 501 (1984))."""
    gibbs = gibbs_state(hamiltonian, beta)
    z, low = _gauge(gibbs.log_populations)
    log_scale = gibbs.log_z + float(low)
    g = np.full(z.size, 1.0 / factorial(z.size - 1))
    total = float(g[-1])
    for m in itertools.count(1):
        g = np.cumsum(z * g) / (m + z.size - 1)
        total += float(g[-1])
        if g[-1] < 1e-17 * total and m > z.max():
            _require_normal((z.size - 1) * log(pi) + log_scale + log(total), "Z", beta)
            return pi ** (z.size - 1) * exp(log_scale + log(total))
        if total > 1e300:
            log_scale += log(total)
            g /= total
            total = 1.0


# perfbench/selftest.py::test_closed_form_oracle_equals_qubit_closed_form reads this
# name until the benchmark revision (ROADMAP item 1); it is not in __all__.
qubit_partition_closed_form = geometric_partition_closed_form
