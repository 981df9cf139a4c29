"""Seeded, splittable random streams and Haar-distributed test objects.

Streams are counter-based (Philox), so ``stream(seed, i)`` for distinct ``i``
gives statistically independent generators that can run in parallel while
staying bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .quantum import DensityMatrix, HermitianOperator


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator number ``index`` (0 <= index < 2**64) of the stream
    keyed by ``seed`` (0 <= seed < 2**128).

    It starts where ``Philox(key=seed).jumped(index)`` does, with the jump
    written into the counter's third word; the counter is built as uint64,
    since numpy would route a list entry above 2**63 through float64.
    """
    counter = np.array([0, 0, index, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed unitaries, shape (count, dim, dim): phase-fixed QR
    of complex Ginibre matrices (Mezzadri, Notices AMS 54, 592 (2007))."""
    z = np.empty((count, dim, dim), dtype=complex)
    z.real, z.imag = rng.standard_normal(z.shape), rng.standard_normal(z.shape)
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    return q * (diag / np.abs(diag))[..., None, :]


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianOperator:
    """GUE-style random Hermitian operator with entries of order ``scale``."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(scale * (a + a.conj().T) / 2.0)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random full-rank (or rank-limited) density matrix, G G†/tr from a Ginibre G."""
    r = dim if rank is None else rank
    if not 1 <= r <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {r}")
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)
