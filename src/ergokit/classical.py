"""Discretized phase space: distributions on a cell grid, doubly stochastic
dynamics, classical relative entropies, and the classical ergotropy.

Liouville (volume-preserving) dynamics is represented by permutation kernels,
held as image arrays so that kernels, joints and stationarity probes cost O(n)
on an n-cell grid.  General doubly stochastic kernels are held densely; they
are accepted wherever the defining relative entropy makes sense but rejected
by the inhomogeneity-form routines, which require joint entropy to equal
marginal entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from typing import Literal

import numpy as np
from scipy.special import logsumexp

from .errors import EmptyShell, ErgokitError, NonDeterministicKernel, OutOfScope, SupportViolation
from .sampling import stream

MASS_ATOL = 1e-10
STOCHASTIC_ATOL = 1e-10
# Argument weights at or below the floor count as zero (0 ln 0 := 0).  Reference
# weights are exact inputs, so a reference vanishes only where it is exactly 0.
WEIGHT_FLOOR = 1e-15
# Asserted per-probe envelope on the first-order relative-entropy change when
# the initial distribution is uniform over every cell.
STATIONARITY_ENVELOPE = 10.0

Surface = Literal["A", "B"]


@dataclass(frozen=True)
class PhaseGrid:
    """Discrete phase-space cells with an energy per cell on surfaces A and B."""

    energy_a: np.ndarray
    energy_b: np.ndarray
    cell_volume: float = 1.0

    def __post_init__(self):
        ea, eb = _frozen(self.energy_a), _frozen(self.energy_b)
        if ea.ndim != 1 or eb.shape != ea.shape or ea.size < 1:
            raise ValueError("energy_a and energy_b must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(ea)) and np.all(np.isfinite(eb))):
            raise ValueError("grid energies must be finite")
        if not self.cell_volume > 0.0:
            raise ValueError("cell_volume must be positive")
        object.__setattr__(self, "energy_a", ea)
        object.__setattr__(self, "energy_b", eb)

    @property
    def n_cells(self) -> int:
        return self.energy_a.size

    def energies(self, surface: Surface) -> np.ndarray:
        if surface == "A":
            return self.energy_a
        if surface == "B":
            return self.energy_b
        raise ValueError(f"unknown surface {surface!r}")


@dataclass(frozen=True)
class GridDistribution:
    """Probability per cell; nonnegative and normalized."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen(self.weights)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a 1-D vector")
        if w.min() < 0.0:
            raise ValueError(f"negative weight {w.min():.3e}")
        if abs(w.sum() - 1.0) > MASS_ATOL:
            raise ValueError(f"total mass deviates from 1 by {abs(w.sum() - 1.0):.3e}")
        object.__setattr__(self, "weights", w)

    @property
    def n_cells(self) -> int:
        return self.weights.size


def _frozen(values) -> np.ndarray:
    """A read-only float array of ``values``; an ndarray is copied first, so
    the caller's own array stays writeable."""
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


def _permutation(image: np.ndarray) -> np.ndarray:
    """Read-only copy of ``image`` after checking it is a permutation of 0..n-1."""
    image = np.array(image)
    n = image.size
    if image.ndim != 1 or n < 1 or image.dtype.kind not in "iu":
        raise ValueError("a permutation image must be a nonempty 1-D integer array")
    inside = (image >= 0) & (image < n)
    hit = np.zeros(n, dtype=bool)
    hit[image[inside]] = True
    if not (inside.all() and hit.all()):
        raise ValueError(f"image is not a permutation of 0..{n - 1}")
    image = image.astype(np.intp, copy=False)
    image.setflags(write=False)
    return image


def _dense_permutation(image: np.ndarray, values: np.ndarray | float) -> np.ndarray:
    """n x n matrix holding values[j] at [image[j], j] and zero elsewhere."""
    n = image.size
    m = np.zeros((n, n))
    m[image, np.arange(n)] = values
    m.setflags(write=False)
    return m


@dataclass(frozen=True, init=False)
class TransitionKernel:
    """Doubly stochastic transition kernel; column j of ``matrix`` is the
    distribution of the final cell given initial cell j.

    A permutation (every column a unit vector to ``STOCHASTIC_ATOL``) is held
    as its image array, cell j -> ``image[j]``, with ``dense`` None; any other
    kernel is held as the dense matrix, with ``image`` None.  ``matrix`` is the
    dense view either way, built on demand for a permutation.
    """

    image: np.ndarray | None
    dense: np.ndarray | None

    def __init__(self, matrix: np.ndarray | None = None, *, image: np.ndarray | None = None):
        if (matrix is None) == (image is None):
            raise ValueError("give either a kernel matrix or a permutation image")
        dense = None
        if matrix is not None:
            dense = _frozen(matrix)
            if dense.ndim != 2 or dense.shape[0] != dense.shape[1] or dense.shape[0] < 1:
                raise ValueError(f"expected a square matrix, got shape {dense.shape}")
            if dense.min() < 0.0:
                raise ValueError(f"negative kernel entry {dense.min():.3e}")
            col_dev = float(np.max(np.abs(dense.sum(axis=0) - 1.0)))
            row_dev = float(np.max(np.abs(dense.sum(axis=1) - 1.0)))
            if col_dev > STOCHASTIC_ATOL or row_dev > STOCHASTIC_ATOL:
                raise ValueError(
                    f"kernel is not doubly stochastic: column dev {col_dev:.3e}, "
                    f"row dev {row_dev:.3e}"
                )
            if np.all(dense.max(axis=0) >= 1.0 - STOCHASTIC_ATOL):
                # Row sums near 1 leave room for one near-unit entry per row, so
                # the column argmaxes are distinct: a permutation.
                image, dense = dense.argmax(axis=0), None
        object.__setattr__(self, "image", None if image is None else _permutation(image))
        object.__setattr__(self, "dense", dense)

    @property
    def is_deterministic(self) -> bool:
        return self.image is not None

    @property
    def matrix(self) -> np.ndarray:
        return self.dense if self.image is None else _dense_permutation(self.image, 1.0)

    @property
    def n_cells(self) -> int:
        return self.dense.shape[0] if self.image is None else self.image.size

    @classmethod
    def identity(cls, n: int) -> "TransitionKernel":
        return cls(image=np.arange(n))

    @classmethod
    def from_permutation(cls, image: np.ndarray) -> "TransitionKernel":
        """Kernel sending cell j to cell image[j]."""
        return cls(image=image)


@dataclass(frozen=True, init=False)
class JointDistribution:
    """Joint probability of (final, initial) cells; entry [f, i] of ``matrix``
    couples final cell f with initial cell i.

    A joint generated by a permutation is held as ``(image, weights)``: initial
    cell i carries ``weights[i]`` to final cell ``image[i]``, with ``dense``
    None.  Any other joint is held as the dense matrix, with ``image`` and
    ``weights`` None.  ``from_deterministic`` is set for the former, and for a
    dense joint with at most one populated entry per initial cell.
    """

    image: np.ndarray | None
    weights: np.ndarray | None
    dense: np.ndarray | None
    from_deterministic: bool

    def __init__(
        self,
        matrix: np.ndarray | None = None,
        *,
        image: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ):
        if (matrix is None) == (image is None) or (image is None) != (weights is None):
            raise ValueError("give either a joint matrix or a permutation image with weights")
        if matrix is None:
            image = _permutation(image)
            weights = GridDistribution(weights).weights
            if weights.size != image.size:
                raise ValueError(f"size mismatch: {image.size} vs {weights.size}")
            deterministic = True
        else:
            matrix = _frozen(matrix)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] < 1:
                raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
            if matrix.min() < 0.0:
                raise ValueError(f"negative joint entry {matrix.min():.3e}")
            if abs(matrix.sum() - 1.0) > MASS_ATOL:
                raise ValueError(
                    f"total mass deviates from 1 by {abs(matrix.sum() - 1.0):.3e}"
                )
            deterministic = bool(np.all((matrix > 0.0).sum(axis=0) <= 1))
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dense", matrix)
        object.__setattr__(self, "from_deterministic", deterministic)

    @property
    def matrix(self) -> np.ndarray:
        return self.dense if self.image is None else _dense_permutation(self.image, self.weights)

    @property
    def n_cells(self) -> int:
        return self.dense.shape[0] if self.image is None else self.image.size

    def initial_marginal(self) -> np.ndarray:
        return self.dense.sum(axis=0) if self.image is None else self.weights

    def final_marginal(self) -> np.ndarray:
        if self.image is None:
            return self.dense.sum(axis=1)
        out = np.empty(self.image.size)
        out[self.image] = self.weights
        return out


def microcanonical(grid: PhaseGrid, surface: Surface, energy: float, delta: float) -> GridDistribution:
    """Uniform distribution on the cells whose energy lies in [energy, energy + delta]."""
    e = grid.energies(surface)
    shell = (e >= energy) & (e <= energy + delta)
    count = int(shell.sum())
    if count == 0:
        raise EmptyShell(
            f"no cell on surface {surface} has energy in [{energy}, {energy + delta}]"
        )
    return GridDistribution(shell.astype(float) / count)


def grid_gibbs(grid: PhaseGrid, surface: Surface, beta: float) -> GridDistribution:
    """Boltzmann weights over the cells of one energy surface; ``OutOfScope``
    when one is below the smallest normal float (beta * spread above ~708)."""
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    logits = -beta * grid.energies(surface)
    weights = np.exp(logits - logsumexp(logits))
    if weights.min() < np.finfo(float).tiny:
        raise OutOfScope(f"grid Gibbs weights underflow at beta = {beta:g}; beta too large")
    return GridDistribution(weights)


def joint_from_kernel(p_a: GridDistribution, kernel: TransitionKernel) -> JointDistribution:
    """Joint distribution kernel[f, i] * p_a[i]; held as (image, p_a) for a permutation."""
    if p_a.n_cells != kernel.n_cells:
        raise ValueError(f"size mismatch: {p_a.n_cells} vs {kernel.n_cells}")
    if kernel.image is not None:
        return JointDistribution(image=kernel.image, weights=p_a.weights)
    return JointDistribution(kernel.dense * p_a.weights[None, :])


def _xlogx(values: np.ndarray) -> float:
    live = values[values > WEIGHT_FLOOR]
    return float((live * np.log(live)).sum())


def _entropy_minus_cross(xlogx: float, final_marginal: np.ndarray, reference: np.ndarray) -> float:
    populated = final_marginal > WEIGHT_FLOOR
    if np.any(reference[populated] == 0.0):
        raise SupportViolation("reference distribution vanishes on a populated final cell")
    return xlogx - float(final_marginal[populated] @ np.log(reference[populated]))


def _joint_relative_entropy_raw(joint: np.ndarray, reference: np.ndarray) -> float:
    return _entropy_minus_cross(_xlogx(joint), joint.sum(axis=1), reference)


def joint_relative_entropy(joint: JointDistribution, p_eq: GridDistribution) -> float:
    """Relative entropy of a joint distribution against a reference on the
    final coordinate: sum J ln J - sum_f (final marginal)_f ln p_eq[f]."""
    if joint.n_cells != p_eq.n_cells:
        raise ValueError(f"size mismatch: {joint.n_cells} vs {p_eq.n_cells}")
    if joint.image is None:
        return _joint_relative_entropy_raw(joint.dense, p_eq.weights)
    # A permutation joint has one entry per final cell, so its entries in
    # final-cell (row-major) order are the final marginal.
    marginal = joint.final_marginal()
    return _entropy_minus_cross(_xlogx(marginal), marginal, p_eq.weights)


def classical_relative_entropy(p: GridDistribution, q: GridDistribution) -> float:
    """Pointwise Kullback-Leibler divergence sum p ln(p/q), no sorting."""
    if p.n_cells != q.n_cells:
        raise ValueError(f"size mismatch: {p.n_cells} vs {q.n_cells}")
    pw, qw = p.weights, q.weights
    live = pw > WEIGHT_FLOOR
    if np.any(qw[live] == 0.0):
        raise SupportViolation("q vanishes where p is populated")
    return float((pw[live] * (np.log(pw[live]) - np.log(qw[live]))).sum())


def classical_ergotropy(
    joint: JointDistribution, p_a: GridDistribution, p_eq: GridDistribution, beta: float
) -> float:
    """(D(joint||p_eq) - D(p_a||p_eq)) / beta.  Returned as computed: the value
    can be negative when the dynamics has already lowered the energy."""
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return (joint_relative_entropy(joint, p_eq) - classical_relative_entropy(p_a, p_eq)) / beta


def inhomogeneity_phi(joint: JointDistribution, p_a: GridDistribution) -> np.ndarray:
    """Inhomogeneity profile: final marginal minus the initial distribution."""
    if joint.n_cells != p_a.n_cells:
        raise ValueError(f"size mismatch: {joint.n_cells} vs {p_a.n_cells}")
    return joint.final_marginal() - p_a.weights


def ergotropy_via_phi(
    joint: JointDistribution, p_a: GridDistribution, grid: PhaseGrid
) -> float:
    """Work stored in inhomogeneities: sum_f phi[f] * E_B[f].

    Valid only for joints generated by a deterministic (permutation) kernel;
    otherwise the joint entropy no longer matches the marginal entropy and the
    identity with the relative-entropy form breaks.
    """
    if joint.n_cells != grid.n_cells:
        raise ValueError(f"size mismatch: {joint.n_cells} vs {grid.n_cells}")
    if not joint.from_deterministic:
        raise NonDeterministicKernel(
            "inhomogeneity form requires a permutation-kernel joint"
        )
    return float(inhomogeneity_phi(joint, p_a) @ grid.energy_b)


def sorted_pairing_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL of descending-sorted p against descending-sorted q (0 ln 0 := 0)."""
    ps = np.sort(np.asarray(p, dtype=float))[::-1]
    qs = np.sort(np.asarray(q, dtype=float))[::-1]
    live = ps > WEIGHT_FLOOR
    if np.any(qs[live] == 0.0):
        return float("inf")
    return float((ps[live] * (np.log(ps[live]) - np.log(qs[live]))).sum())


def permutation_min_bruteforce(
    p: GridDistribution, q: GridDistribution
) -> tuple[float, tuple[int, ...]]:
    """Exhaustive minimum over all pairings of p-cells onto q-cells of
    sum_i p[pi(i)] ln(p[pi(i)] / q[i]); returns the value and an optimal pi.

    Equals the descending-sorted pairing; limited to small grids (n <= 8).
    """
    n = p.n_cells
    if q.n_cells != n:
        raise ValueError(f"size mismatch: {n} vs {q.n_cells}")
    if n > 8:
        raise ValueError(f"factorial search limited to n <= 8 cells, got {n}")
    perms = np.array(list(permutations(range(n))), dtype=int)
    pp = p.weights[perms]  # (n!, n)
    # ln 0 = -inf makes a pairing onto an empty reference cell cost +inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(
            pp > WEIGHT_FLOOR,
            pp * (np.log(np.maximum(pp, 1e-300)) - np.log(q.weights)[None, :]),
            0.0,
        )
    totals = terms.sum(axis=1)
    best = int(np.argmin(totals))
    return float(totals[best]), tuple(int(i) for i in perms[best])


def _random_doubly_stochastic(
    n: int, rng: np.random.Generator, components: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination R = sum_c weights[c] P(images[c]) of random
    permutation matrices, P(image)[image[j], j] = 1 (exactly doubly
    stochastic), returned as (weights, images)."""
    weights = rng.dirichlet(np.ones(components))
    images = np.stack([rng.permutation(n) for _ in range(components)])
    return weights, images


def _mixing_rows(
    weights: np.ndarray, images: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of xi = (1 - eps) I + eps R for R from ``_random_doubly_stochastic``,
    as layers: (xi x)[g] = sum_l coefficients[l, g] * x[sources[l, g]].

    Layer 0 is the identity and layer c + 1 gathers through the inverse of
    images[c].  A source repeated within a row keeps the summed coefficient on
    its first layer and zero on the later ones, so each entry of xi J for a
    permutation joint J appears once.
    """
    components, n = images.shape
    sources = np.empty((components + 1, n), dtype=np.intp)
    sources[0] = np.arange(n)
    sources[np.arange(1, components + 1)[:, None], images] = np.arange(n)
    coefficients = np.empty(sources.shape)
    coefficients[0] = 1.0 - epsilon
    coefficients[1:] = (epsilon * weights)[:, None]
    for later in range(1, components + 1):
        for earlier in range(later):
            repeat = sources[later] == sources[earlier]
            coefficients[earlier] += np.where(repeat, coefficients[later], 0.0)
            coefficients[later, repeat] = 0.0
    return sources, coefficients


def _probe_mixing(n: int, seed: int, k: int, epsilon: float):
    """Probe k's draw: the mixture weights and ``_mixing_rows`` layers.  One
    stream per probe, so the same seed draws the same R at every epsilon."""
    weights, images = _random_doubly_stochastic(n, stream(seed, k))
    return (weights, *_mixing_rows(weights, images, epsilon))


@dataclass(frozen=True)
class StationarityProbeResult:
    """Response of the joint relative entropy to doubly-stochastic mixing.

    ``delta_first_order`` is the change of the reference (energy) term alone,
    i.e. the discrete variational expression whose vanishing defines
    stationarity; the entropy term is invariant under volume-preserving
    transport and is excluded from it.  ``delta_total`` is the full change
    including the entropy term that mixing (as opposed to transport) adds.  It
    needs an n x n perturbed joint per probe for a dense ``joint``, so it and
    ``n_negative_total`` are computed on first read, from the same draws and
    against the same reference ``p_eq`` as ``delta_first_order``.
    """

    epsilon: float
    n_perturbations: int
    seed: int
    baseline: float
    delta_first_order: np.ndarray
    pa_uniform: bool
    first_order_bound: float
    n_negative_first_order: int
    joint: JointDistribution = field(repr=False, compare=False)
    p_eq: GridDistribution = field(repr=False, compare=False)

    @cached_property
    def delta_total(self) -> np.ndarray:
        joint, reference = self.joint, self.p_eq.weights
        marginal = joint.final_marginal()
        out = np.empty(self.n_perturbations)
        for k in range(self.n_perturbations):
            _, sources, coefficients = _probe_mixing(joint.n_cells, self.seed, k, self.epsilon)
            if joint.image is None:
                perturbed = np.zeros_like(joint.dense)
                for source, coefficient in zip(sources, coefficients):
                    perturbed += coefficient[:, None] * joint.dense[source]
                entropy = _joint_relative_entropy_raw(perturbed, reference)
            else:
                # Row g of a permutation joint holds marginal[g] alone, so row g
                # of xi J holds coefficients[l, g] * marginal[sources[l, g]] per
                # layer; the transpose lists them in row-major order.
                entries = coefficients * marginal[sources]
                entropy = _entropy_minus_cross(_xlogx(entries.T), entries.sum(axis=0), reference)
            out[k] = entropy - self.baseline
        return out

    @cached_property
    def n_negative_total(self) -> int:
        return int((self.delta_total < 0.0).sum())


def stationarity_probe(
    joint: JointDistribution,
    p_a: GridDistribution,
    grid: PhaseGrid,
    beta: float,
    n_perturbations: int,
    epsilon: float,
    seed: int,
) -> StationarityProbeResult:
    """Perturb the dynamics after the given joint by xi = (1-eps) I + eps R with
    random doubly stochastic R, and report the relative-entropy changes.

    When ``p_a`` is uniform over every cell the first-order change must stay
    inside the quadratic envelope 10 * eps^2 (it vanishes identically on a
    uniform marginal); for non-uniform ``p_a`` negative changes are reported,
    not asserted away.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if n_perturbations < 1:
        raise ValueError("n_perturbations must be >= 1")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"infeasible epsilon {epsilon}: perturbed kernels must stay nonnegative")
    n = joint.n_cells
    if p_a.n_cells != n or grid.n_cells != n:
        raise ValueError("joint, p_a, and grid sizes must match")

    p_eq = grid_gibbs(grid, "B", beta)
    log_eq = np.log(p_eq.weights)
    baseline = joint_relative_entropy(joint, p_eq)
    marginal = joint.final_marginal()

    delta_first = np.empty(n_perturbations)
    for k in range(n_perturbations):
        weights, sources, _ = _probe_mixing(n, seed, k, epsilon)
        mixed_marginal = weights @ marginal[sources[1:]]
        delta_first[k] = -epsilon * float((mixed_marginal - marginal) @ log_eq)

    pa_uniform = bool(np.max(np.abs(p_a.weights - 1.0 / n)) <= 1e-12)
    bound = STATIONARITY_ENVELOPE * epsilon**2
    if pa_uniform and not np.max(np.abs(delta_first)) <= bound:
        raise ErgokitError(
            "first-order relative-entropy change "
            f"{np.max(np.abs(delta_first)):.3e} exceeds quadratic envelope {bound:.3e} "
            "for a uniform initial distribution"
        )
    return StationarityProbeResult(
        epsilon=float(epsilon),
        n_perturbations=n_perturbations,
        seed=seed,
        baseline=baseline,
        delta_first_order=delta_first,
        pa_uniform=pa_uniform,
        first_order_bound=bound,
        n_negative_first_order=int((delta_first < 0.0).sum()),
        joint=joint,
        p_eq=p_eq,
    )
