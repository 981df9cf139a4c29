"""Haar-distributed unitaries for the tests, and for CI's input files, which import this
module with the tests directory on the path."""

import numpy as np


def haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed unitaries, shape (count, dim, dim): phase-fixed QR
    of complex Ginibre matrices (Mezzadri, Notices AMS 54, 592 (2007))."""
    z = np.empty((count, dim, dim), dtype=complex)
    z.real, z.imag = rng.standard_normal(z.shape), rng.standard_normal(z.shape)
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    return q * (diag / np.abs(diag))[..., None, :]
