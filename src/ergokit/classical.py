"""Discretized phase space: distributions on a cell grid, doubly stochastic
dynamics, classical relative entropies, and the classical ergotropy.

Kernels and joints are held as column layers: column j puts ``values[l, j]``
on row ``rows[l, j]``.  Liouville (volume-preserving) dynamics is a
permutation, one layer, so kernels, joints and stationarity probes cost O(n)
on an n-cell grid; a general doubly stochastic kernel keeps the nonzero
entries of each column, at most c layers for a mixture of c permutations.  General
kernels are accepted wherever the defining relative entropy makes sense but
rejected by the inhomogeneity-form routines, which require joint entropy to
equal marginal entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, permutations
from typing import Literal

import numpy as np

from .errors import EmptyShell, ErgokitError, NonDeterministicKernel, OutOfScope, SupportViolation
from .quantum import _logsumexp
from .sampling import stream

MASS_ATOL = 1e-10
STOCHASTIC_ATOL = 1e-10
# Argument weights at or below the floor count as zero (0 ln 0 := 0).  Reference
# weights are exact inputs, so a reference vanishes only where it is exactly 0.
WEIGHT_FLOOR = 1e-15
# Asserted per-probe envelope on the first-order relative-entropy change when
# the initial distribution is uniform over every cell.
STATIONARITY_ENVELOPE = 10.0
# Permutation-image entries per stationarity-probe block; no bit depends on it.
PROBE_CHUNK = 1 << 16

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


def _permutation(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One layer (rows, values) of unit entries after checking ``image`` is a
    permutation of 0..n-1; the caller's array is copied."""
    image = np.array(image)
    n = image.size
    if image.ndim != 1 or n < 1 or image.dtype.kind not in "iu":
        raise ValueError("a permutation image must be a nonempty 1-D integer array")
    inside = (image >= 0) & (image < n)
    hit = np.zeros(n, dtype=bool)
    hit[image[inside]] = True
    if not (inside.all() and hit.all()):
        raise ValueError(f"image is not a permutation of 0..{n - 1}")
    return image.astype(np.intp, copy=False)[None, :], np.ones((1, n))


def _column_layers(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, values) of the nonzero entries of each column, in ascending row
    order, short columns padded with value 0 at row 0."""
    n = dense.shape[0]
    columns, rows = np.nonzero(dense.T)
    counts = np.bincount(columns, minlength=n)
    depth = np.arange(columns.size) - np.repeat(np.cumsum(counts) - counts, counts)
    held_rows = np.zeros((counts.max(), n), dtype=np.intp)
    held_values = np.zeros(held_rows.shape)
    held_rows[depth, columns] = rows
    held_values[depth, columns] = dense[rows, columns]
    return held_rows, held_values


@dataclass(frozen=True, init=False)
class _ColumnLayers:
    """Matrix held as column layers: column j puts ``values[l, j]`` on row
    ``rows[l, j]``, each (row, column) pair at most once.  A column with fewer
    entries than the fullest one is padded with value 0 at row 0.  A
    permutation is one layer."""

    rows: np.ndarray
    values: np.ndarray

    def _hold(self, rows: np.ndarray, values: np.ndarray) -> None:
        for name, array in (("rows", rows), ("values", values)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def _of(cls, rows: np.ndarray, values: np.ndarray):
        layers = object.__new__(cls)
        layers._hold(rows, values)
        return layers

    @property
    def n_cells(self) -> int:
        return self.rows.shape[1]

    @property
    def image(self) -> np.ndarray | None:
        """Row of each column's entry when there is one layer, else None."""
        return self.rows[0] if self.rows.shape[0] == 1 else None

    @property
    def matrix(self) -> np.ndarray:
        """The dense view; padding adds 0 to row 0, it never overwrites it."""
        m = np.zeros((self.n_cells, self.n_cells))
        np.add.at(m, (self.rows, np.arange(self.n_cells)), self.values)
        m.setflags(write=False)
        return m


def _square(matrix: np.ndarray, what: str) -> np.ndarray:
    dense = _frozen(matrix)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1] or dense.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {dense.shape}")
    if dense.min() < 0.0:
        raise ValueError(f"negative {what} entry {dense.min():.3e}")
    return dense


@dataclass(frozen=True, init=False)
class TransitionKernel(_ColumnLayers):
    """Doubly stochastic transition kernel; column j of ``matrix`` is the
    distribution of the final cell given initial cell j.

    A permutation (every column a unit vector to ``STOCHASTIC_ATOL``) is one
    layer, cell j -> ``image[j]``; any other kernel holds the nonzero entries
    of the given matrix.
    """

    def __init__(self, matrix: np.ndarray):
        dense = _square(matrix, "kernel")
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
            self._hold(*_permutation(dense.argmax(axis=0)))
        else:
            self._hold(*_column_layers(dense))

    @property
    def is_deterministic(self) -> bool:
        return self.image is not None

    @classmethod
    def identity(cls, n: int) -> "TransitionKernel":
        return cls.from_permutation(np.arange(n))

    @classmethod
    def from_permutation(cls, image: np.ndarray) -> "TransitionKernel":
        """Kernel sending cell j to cell image[j]."""
        return cls._of(*_permutation(image))


@dataclass(frozen=True, init=False)
class JointDistribution(_ColumnLayers):
    """Joint probability of (final, initial) cells; entry [f, i] of ``matrix``
    couples final cell f with initial cell i, and column i sums to the initial
    weight of cell i.  ``from_deterministic`` is set when every initial cell
    has at most one populated final cell, as for a permutation's joint.
    """

    def __init__(self, matrix: np.ndarray):
        dense = _square(matrix, "joint")
        if abs(dense.sum() - 1.0) > MASS_ATOL:
            raise ValueError(f"total mass deviates from 1 by {abs(dense.sum() - 1.0):.3e}")
        self._hold(*_column_layers(dense))

    @property
    def from_deterministic(self) -> bool:
        return bool(np.all((self.values > 0.0).sum(axis=0) <= 1))

    def initial_marginal(self) -> np.ndarray:
        return self.values.sum(axis=0)

    def final_marginal(self) -> np.ndarray:
        rows, values = self.rows.ravel(), self.values.ravel()
        return np.bincount(rows, weights=values, minlength=self.n_cells)


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
    weights = np.exp(logits - _logsumexp(logits))
    if weights.min() < np.finfo(float).tiny:
        raise OutOfScope(f"grid Gibbs weights underflow at beta = {beta:g}; beta too large")
    return GridDistribution(weights)


def joint_from_kernel(p_a: GridDistribution, kernel: TransitionKernel) -> JointDistribution:
    """Joint distribution kernel[f, i] * p_a[i], on the kernel's layers."""
    if p_a.n_cells != kernel.n_cells:
        raise ValueError(f"size mismatch: {p_a.n_cells} vs {kernel.n_cells}")
    return JointDistribution._of(kernel.rows, kernel.values * p_a.weights)


def _entropy_minus_cross(entries: np.ndarray, row_sums: np.ndarray, reference: np.ndarray) -> float:
    """sum x ln x over the joint's entries minus sum_f row_sums[f] ln reference[f]."""
    live = entries[entries > WEIGHT_FLOOR]
    populated = row_sums > WEIGHT_FLOOR
    if np.any(reference[populated] == 0.0):
        raise SupportViolation("reference distribution vanishes on a populated final cell")
    xlogx = float((live * np.log(live)).sum())
    return xlogx - float(row_sums[populated] @ np.log(reference[populated]))


def _joint_relative_entropy_raw(joint: np.ndarray, reference: np.ndarray) -> float:
    return _entropy_minus_cross(joint, joint.sum(axis=1), reference)


def _row_major(rows: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries of column layers in row-major order, with a repeated (row,
    column) pair summed in layer order, and the row sums."""
    n = rows.shape[1]
    cells, slot = np.unique((rows * n + np.arange(n)).ravel(), return_inverse=True)
    entries = np.bincount(slot, weights=values.ravel())
    return entries, np.bincount(cells // n, weights=entries, minlength=n)


def joint_relative_entropy(joint: JointDistribution, p_eq: GridDistribution) -> float:
    """Relative entropy of a joint distribution against a reference on the
    final coordinate: sum J ln J - sum_f (final marginal)_f ln p_eq[f]."""
    if joint.n_cells != p_eq.n_cells:
        raise ValueError(f"size mismatch: {joint.n_cells} vs {p_eq.n_cells}")
    return _entropy_minus_cross(*_row_major(joint.rows, joint.values), p_eq.weights)


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


def _probe_draws(n: int, seed: int, count: int):
    """Perturbations 0..count-1 of the probe keyed by ``seed``, in blocks of
    weights (B, 4) and images (B, 4, n): R_k = sum_c weights[k, c] P(images[k, c]),
    P(image)[image[j], j] = 1, is exactly doubly stochastic.  The Dirichlet weights
    come from ``stream(seed, 0)`` and the images, row by row, from ``stream(seed,
    1)``, so perturbation k is the same at every ``count`` and block size."""
    weights = stream(seed, 0).dirichlet(np.ones(4), size=count)
    rng = stream(seed, 1)
    step = max(1, PROBE_CHUNK // (4 * n))
    for start in range(0, count, step):
        block = weights[start:start + step]
        images = np.tile(np.arange(n), (block.size, 1))
        rng.permuted(images, axis=1, out=images)
        yield block, images.reshape(*block.shape, n)


def _inverse_images(images: np.ndarray) -> np.ndarray:
    """Row c holds the inverse of the permutation images[c]."""
    inverse = np.empty_like(images)
    inverse[np.arange(len(images))[:, None], images] = np.arange(images.shape[1])
    return inverse


def _mixing_rows(
    weights: np.ndarray, images: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of xi = (1 - eps) I + eps R for one R of ``_probe_draws``,
    as layers: (xi x)[g] = sum_l coefficients[l, g] * x[sources[l, g]].

    Layer 0 is the identity and layer c + 1 gathers through the inverse of
    images[c].  A source repeated within a row keeps the summed coefficient on
    its first layer and zero on the later ones, so xi J multiplies the summed
    coefficient once instead of adding two products.
    """
    components, n = images.shape
    sources = np.vstack([np.arange(n), _inverse_images(images)])
    coefficients = np.empty(sources.shape)
    coefficients[0] = 1.0 - epsilon
    coefficients[1:] = (epsilon * weights)[:, None]
    for later in range(1, components + 1):
        for earlier in range(later):
            repeat = sources[later] == sources[earlier]
            coefficients[earlier] += np.where(repeat, coefficients[later], 0.0)
            coefficients[later, repeat] = 0.0
    return sources, coefficients


@dataclass(frozen=True)
class StationarityProbeResult:
    """Response of the joint relative entropy to doubly-stochastic mixing.

    ``delta_first_order`` is the change of the reference (energy) term alone,
    i.e. the discrete variational expression whose vanishing defines
    stationarity; the entropy term is invariant under volume-preserving
    transport and is excluded from it.  ``delta_total`` is the full change
    including the entropy term that mixing (as opposed to transport) adds.  It
    forms each perturbed joint xi J as the layers of xi composed with the
    joint's, so it and ``n_negative_total`` are computed on first read, from
    the same draws and against the same reference ``p_eq`` as
    ``delta_first_order``.
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
        n = joint.n_cells
        out = []
        draws = _probe_draws(n, self.seed, self.n_perturbations)
        for weights, images in chain.from_iterable(zip(*block) for block in draws):
            sources, coefficients = _mixing_rows(weights, images, self.epsilon)
            # Layer l of xi moves row sources[l, g] to row g, so entry (r, j)
            # of the joint lands on row targets[l, r] with that row's
            # coefficient.  Listing xi J probe layer by joint layer sums a
            # repeated entry in the order of the dense product's layer loop.
            targets = _inverse_images(sources)
            rows = targets[:, joint.rows]
            values = np.take_along_axis(coefficients[:, None, :], rows, axis=2) * joint.values
            entries, row_sums = _row_major(rows.reshape(-1, n), values.reshape(-1, n))
            out.append(_entropy_minus_cross(entries, row_sums, reference) - self.baseline)
        return np.array(out)

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

    changes = []
    for weights, images in _probe_draws(n, seed, n_perturbations):
        # (P(image) m)[image[j]] = m[j], so one scatter moves m through every
        # image; the dot with log_eq goes row by row, so no bit depends on the block.
        moved = np.empty(images.shape)
        moved.reshape(-1, n)[np.arange(images.size // n)[:, None], images.reshape(-1, n)] = marginal
        mixed = (weights[:, None, :] @ moved)[:, 0]
        changes.append((mixed - marginal)[:, None, :] @ log_eq)
    delta_first = -epsilon * np.concatenate(changes)[:, 0]

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
