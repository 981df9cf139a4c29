"""Discretized phase space: distributions on a cell grid, doubly stochastic
dynamics, classical relative entropies, and the classical ergotropy.

Kernels and joints are held as column layers: column j puts ``values[l, j]``
on row ``rows[l, j]``.  Liouville (volume-preserving) dynamics is a
permutation, one layer, so kernels and joints cost O(n) on an n-cell grid and
the stationarity probe one sort; a general doubly stochastic kernel keeps the
nonzero entries of each column, at most c layers for a mixture of c permutations.  Every
kernel has both ergotropy forms: by the chain rule for entropy, beta times the
relative-entropy form is beta phi . E_B - H(F|I), and the conditional entropy H(F|I) of
the final cell given the initial one vanishes for a permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import EmptyShell, OutOfScope, SupportViolation
from .quantum import _divergences, _gauge, _gibbs_logs, _relative_entropy

MASS_ATOL = 1e-10
STOCHASTIC_ATOL = 1e-10
# Argument weights at or below the floor are exact zeros of ``_divergences`` (0 ln 0 := 0).
# Reference weights are exact inputs, so a reference vanishes only where it is exactly 0.
WEIGHT_FLOOR = 1e-15


@dataclass(frozen=True)
class PhaseGrid:
    """Discrete phase-space cells with an energy per cell on surfaces A and B: A carries
    the initial shell (``microcanonical``), B the thermal reference (``grid_gibbs``)."""

    energy_a: np.ndarray
    energy_b: np.ndarray
    cell_volume: float = 1.0

    def __post_init__(self):
        ea, eb = _frozen(self.energy_a), _frozen(self.energy_b)
        if ea.ndim != 1 or eb.shape != ea.shape or ea.size < 1:
            raise ValueError("energy_a and energy_b must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(ea)) and np.all(np.isfinite(eb))):
            raise ValueError("grid energies must be finite")
        if not 0.0 < self.cell_volume < np.inf:
            raise ValueError(f"cell_volume must be positive and finite, got {self.cell_volume}")
        object.__setattr__(self, "energy_a", ea)
        object.__setattr__(self, "energy_b", eb)

    @property
    def n_cells(self) -> int:
        return self.energy_a.size


@dataclass(frozen=True)
class GridDistribution:
    """Probability per cell; nonnegative and normalized."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen(self.weights)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a 1-D vector")
        if not w.min() >= 0.0:
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


@dataclass(frozen=True, init=False)
class TransitionKernel(_ColumnLayers):
    """Doubly stochastic transition kernel; column j of ``matrix`` is the
    distribution of the final cell given initial cell j.

    A permutation (every column a unit vector to ``STOCHASTIC_ATOL``) is one
    layer, cell j -> ``image[j]``; any other kernel holds the nonzero entries
    of the given matrix.
    """

    def __init__(self, matrix: np.ndarray):
        dense = _frozen(matrix)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1] or dense.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {dense.shape}")
        if not dense.min() >= 0.0:
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
            self._hold(*_permutation(dense.argmax(axis=0)))
        else:
            self._hold(*_column_layers(dense))

    @property
    def is_deterministic(self) -> bool:
        return self.image is not None

    @classmethod
    def from_permutation(cls, image: np.ndarray) -> "TransitionKernel":
        """Kernel sending cell j to cell image[j]."""
        return cls._of(*_permutation(image))


@dataclass(frozen=True, init=False)
class JointDistribution(_ColumnLayers):
    """Joint probability of (final, initial) cells: p_A pushed through a kernel by
    ``joint_from_kernel``, its one constructor.  Entry [f, i] of ``matrix`` couples
    final cell f with initial cell i, and column i sums to p_A[i].  The joint holds
    its kernel's layers, so a permutation's joint is one layer of the initial weights.
    """

    def final_marginal(self) -> np.ndarray:
        rows, values = self.rows.ravel(), self.values.ravel()
        return np.bincount(rows, weights=values, minlength=self.n_cells)


def microcanonical(grid: PhaseGrid, energy: float, delta: float) -> GridDistribution:
    """Uniform distribution on the cells whose surface-A energy lies in [energy, energy + delta]."""
    e = grid.energy_a
    shell = (e >= energy) & (e <= energy + delta)
    count = int(shell.sum())
    if count == 0:
        raise EmptyShell(f"no cell on surface A has energy in [{energy}, {energy + delta}]")
    return GridDistribution(shell.astype(float) / count)


def grid_gibbs(grid: PhaseGrid, beta: float) -> GridDistribution:
    """Boltzmann weights over the cells of energy surface B: ``_gibbs_logs`` of the
    energies above the lowest one (``_gauge``), so an offset costs no precision.
    ``OutOfScope`` when the span is past the largest float, or a weight is below the
    smallest normal float (beta * span above ~708)."""
    energies, _ = _gauge(grid.energy_b)
    _, _, weights = _gibbs_logs(energies[None], beta)
    if weights.min() < np.finfo(float).tiny:
        raise OutOfScope(f"grid Gibbs weights underflow at beta = {beta:g}; beta too large")
    return GridDistribution(weights[0])


def joint_from_kernel(p_a: GridDistribution, kernel: TransitionKernel) -> JointDistribution:
    """Joint distribution kernel[f, i] * p_a[i], on the kernel's layers."""
    if p_a.n_cells != kernel.n_cells:
        raise ValueError(f"size mismatch: {p_a.n_cells} vs {kernel.n_cells}")
    return JointDistribution._of(kernel.rows, kernel.values * p_a.weights)


def _entropy_minus_cross(entries: np.ndarray, row_sums: np.ndarray, reference: np.ndarray) -> float:
    """sum x ln x over the joint's entries minus sum_f row_sums[f] ln reference[f]."""
    populated = row_sums > WEIGHT_FLOOR
    if np.any(reference[populated] == 0.0):
        raise SupportViolation("reference distribution vanishes on a populated final cell")
    return float(_divergences(entries.ravel(), floor=WEIGHT_FLOOR)
                 - row_sums[populated] @ np.log(reference[populated]))


def _row_major(rows: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries of column layers in row-major order, with a repeated (row,
    column) pair summed in layer order, and the row sums: the relative-entropy route's own
    final marginal, apart from the ``final_marginal`` that the inhomogeneity route reads,
    so that ``inhomogeneity_route_agrees`` catches a wrong marginal in either."""
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
    return _relative_entropy(p.weights, q.weights, WEIGHT_FLOOR, 0.0)


def classical_ergotropy(
    joint: JointDistribution, p_a: GridDistribution, p_eq: GridDistribution, beta: float
) -> float:
    """(D(joint||p_eq) - D(p_a||p_eq)) / beta.  Returned as computed: the value
    can be negative when the dynamics has already lowered the energy."""
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return (joint_relative_entropy(joint, p_eq) - classical_relative_entropy(p_a, p_eq)) / beta


def inhomogeneity_phi(joint: JointDistribution, p_a: GridDistribution) -> np.ndarray:
    """Inhomogeneity profile: final marginal minus the initial distribution."""
    if joint.n_cells != p_a.n_cells:
        raise ValueError(f"size mismatch: {joint.n_cells} vs {p_a.n_cells}")
    return joint.final_marginal() - p_a.weights


def _conditional_entropy(joint: JointDistribution, p_a: GridDistribution) -> float:
    """H(F|I) = H(J) - H(p_A) from the joint's layer values; 0.0 for a permutation."""
    return float(_divergences(p_a.weights, floor=WEIGHT_FLOOR)
                 - _divergences(joint.values.ravel(), floor=WEIGHT_FLOOR))


def ergotropy_via_phi(
    joint: JointDistribution, p_a: GridDistribution, grid: PhaseGrid
) -> float:
    """Work stored in inhomogeneities: sum_f phi[f] * E_B[f].  By the chain rule for
    entropy it equals ``classical_ergotropy`` + H(F|I)/beta for any doubly stochastic
    kernel, H(F|I) the conditional entropy of the final cell given the initial one, so
    it is the ergotropy only for a permutation joint (H(F|I) = 0).  Since sum phi = 0,
    the energies are taken above the lowest one (``_gauge``): a common offset costs no
    precision."""
    if joint.n_cells != grid.n_cells:
        raise ValueError(f"size mismatch: {joint.n_cells} vs {grid.n_cells}")
    return float(inhomogeneity_phi(joint, p_a) @ _gauge(grid.energy_b)[0])


def sorted_pairing_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL of descending-sorted p against descending-sorted q (``_relative_entropy``)."""
    return _relative_entropy(np.sort(np.asarray(p, dtype=float))[::-1],
                             np.sort(np.asarray(q, dtype=float))[::-1], WEIGHT_FLOOR, 0.0)


def permutation_min_bruteforce(
    p: GridDistribution, q: GridDistribution
) -> tuple[float, tuple[int, ...]]:
    """Exhaustive minimum over all pairings of p-cells onto q-cells of
    sum_i p[pi(i)] ln(p[pi(i)] / q[i]); returns the value and an optimal pi.
    Equals the descending-sorted pairing; limited to small grids (n <= 8).
    A pairing onto an empty reference cell costs +inf; ``SupportViolation`` if all do.
    """
    n = p.n_cells
    if q.n_cells != n:
        raise ValueError(f"size mismatch: {n} vs {q.n_cells}")
    if n > 8:
        raise ValueError(f"factorial search limited to n <= 8 cells, got {n}")
    perms = np.array(list(permutations(range(n))), dtype=int)
    # ln 0 = -inf makes a pairing onto an empty reference cell cost +inf.
    with np.errstate(divide="ignore"):
        totals = _divergences(p.weights[perms], np.log(q.weights), WEIGHT_FLOOR)  # (n!,)
    best = int(np.argmin(totals))
    if totals[best] == np.inf:
        raise SupportViolation("the reference vanishes where the argument is populated")
    return float(totals[best]), tuple(int(i) for i in perms[best])


@dataclass(frozen=True)
class StationarityProbeResult:
    """Extremes of the first-order change of the joint relative entropy when
    the dynamics is followed by xi = (1 - eps) I + eps R, over every doubly
    stochastic R.

    The change of the reference (energy) term, -eps (R m - m) . ln p_eq for the
    final marginal m, is the variation whose vanishing defines stationarity (the
    entropy term is invariant under transport).  It is linear in R, so its
    extremes over the Birkhoff polytope sit at permutations, and the
    rearrangement inequality names them: the minimum pairs m and ln p_eq sorted
    alike, the maximum sorted oppositely.  A uniform m gives exactly 0 for both,
    and an accepted kernel (row sums within ``STOCHASTIC_ATOL``) keeps a uniform
    marginal within 1e-10 / n of uniform, so no report probes it.  The minimum
    is negative unless m is passive (populations non-increasing in energy).
    ``image`` is the permutation attaining the minimum, cell j -> image[j].
    """

    epsilon: float
    min_first_order: float
    max_first_order: float
    image: np.ndarray = field(repr=False, compare=False)

    def delta_total(self, joint: JointDistribution, p_eq: GridDistribution) -> float:
        """Finite-eps change of D(xi J || p_eq) along the extremal permutation,
        xi = (1 - eps) I + eps P(image), for the joint J whose final marginal
        the probe read.  It includes the entropy term that mixing adds.  xi J is
        the joint's layers scaled by 1 - eps followed by the same layers moved
        through ``image`` and scaled by eps.  No report prints it; the paper check that
        reads it is acceptance criterion 10 in ``tests/test_acceptance.py``."""
        if joint.n_cells != self.image.size or p_eq.n_cells != self.image.size:
            raise ValueError("joint, p_eq and probe sizes must match")
        rows = np.vstack([joint.rows, self.image[joint.rows]])
        values = np.vstack([(1.0 - self.epsilon) * joint.values, self.epsilon * joint.values])
        mixed = _entropy_minus_cross(*_row_major(rows, values), p_eq.weights)
        return mixed - joint_relative_entropy(joint, p_eq)


def stationarity_probe(
    marginal: np.ndarray, log_eq: np.ndarray, epsilon: float
) -> StationarityProbeResult:
    """Exact minimum and maximum over doubly stochastic R of the first-order
    change -eps (R m - m) . ln p_eq of the joint relative entropy, for the final
    marginal m and the reference log-weights ``log_eq``, from one sort of each:
    min = -eps (sort(m) - m[order]) . ln p_eq[order], order = argsort(ln p_eq)
    with ties in ln p_eq broken by m, and the max with sort(m) reversed.

    The subtraction comes before the dot product, so a uniform marginal gives
    exactly 0; negative values are reported, not asserted away.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"infeasible epsilon {epsilon}: perturbed kernels must stay nonnegative")
    marginal, log_eq = np.asarray(marginal, dtype=float), np.asarray(log_eq, dtype=float)
    if marginal.ndim != 1 or log_eq.shape != marginal.shape:
        raise ValueError("marginal and log_eq must be 1-D vectors of equal length")
    # Cells with equal ln p_eq are ordered by m, so a passive m reads
    # m[order] == sort(m) to the bit and its minimum is exactly 0.
    rank, order = np.argsort(marginal, kind="stable"), np.lexsort((marginal, log_eq))
    ascending, present, weights = marginal[rank], marginal[order], log_eq[order]
    image = np.empty(rank.size, dtype=np.intp)
    image[rank] = order
    return StationarityProbeResult(
        epsilon=float(epsilon),
        min_first_order=epsilon * float((present - ascending) @ weights),
        max_first_order=epsilon * float((present - ascending[::-1]) @ weights),
        image=image,
    )
