"""Seeded, splittable random streams and the random states and Hamiltonians drawn from them.

Streams are counter-based (Philox), so ``stream(seed, i)`` for distinct ``i``
gives statistically independent generators that can run in parallel while
staying bit-reproducible.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .quantum import DensityMatrix, HermitianOperator


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator number ``index`` (0 <= index < 2**64) of the stream
    keyed by ``seed`` (0 <= seed < 2**128).

    It is the one generator of ``_streams(seed, (index,))``, and starts where
    ``Philox(key=seed).jumped(index)`` does, with the jump written into the
    counter's third word.
    """
    return next(_streams(seed, (index,)))


def _streams(seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """``stream(seed, i)`` for each i of ``indices`` in turn, from one generator
    whose Philox bit generator is repositioned through its ``state`` for each:
    the key is the seed's two 64-bit words, the counter [0, 0, i, 0] (built as uint64,
    since numpy would route a list entry above 2**63 through float64), the output
    buffer empty.  Each generator is valid only until the next is taken.  The bit generator
    is built from a fixed seed, which draws no OS entropy, since its state is replaced."""
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    key = np.array([int(seed) & (2**64 - 1), int(seed) >> 64], dtype=np.uint64)
    empty = np.zeros(4, dtype=np.uint64)
    for index in indices:
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([0, 0, index, 0], dtype=np.uint64), "key": key},
            "buffer": empty, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        yield rng


def _ginibre(rngs: Iterable[np.random.Generator], count: int,
             shape: tuple[int, int]) -> np.ndarray:
    """``count`` complex Ginibre matrices of ``shape``, stacked, one from each of
    the generators, which draws the real part and then the imaginary part."""
    parts = np.empty((count, 2) + shape)
    for part, rng in zip(parts, rngs):
        rng.standard_normal(out=part[0])
        rng.standard_normal(out=part[1])
    return parts[:, 0] + 1j * parts[:, 1]


def _hermitians(a: np.ndarray) -> np.ndarray:
    """(A + A†)/2 over a stack (B, d, d)."""
    return (a + a.conj().swapaxes(1, 2)) / 2.0


def _densities(g: np.ndarray) -> np.ndarray:
    """G G†/tr over a stack (B, d, r) of Ginibre matrices."""
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    """GUE-style random Hermitian operator with entries of order 1."""
    return HermitianOperator(_hermitians(_ginibre([rng], 1, (dim, dim)))[0])


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random full-rank (or rank-limited) density matrix, G G†/tr from a Ginibre G."""
    r = dim if rank is None else rank
    if not 1 <= r <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {r}")
    return DensityMatrix(_densities(_ginibre([rng], 1, (dim, r)))[0])
