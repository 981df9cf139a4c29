"""JSON/CSV wire formats for matrices, grids, kernels, and reports.

Matrices travel as ``{"dim": d, "entries": [[re, im], ...]}`` with the entries
flattened row-major.  Grid tables are CSV rows ``index,energy_a,energy_b,weight``
(or the equivalent JSON object).  A permutation kernel travels as its image,
``{"n": n, "image": [...]}`` with cell j sent to cell image[j]; any other kernel
as the dense ``{"n": n, "matrix": [[...], ...]}``, column j holding the
distribution of the final cell given initial cell j.  ``kernel_from_json``
reads both.  Matrix, grid and kernel dicts hold ndarrays, which
``round_floats`` turns into lists; floats in emitted reports are rounded there
to 12 significant digits so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
from typing import Any

import numpy as np

from .classical import GridDistribution, PhaseGrid, TransitionKernel
from .quantum import DensityMatrix, HermitianOperator


def matrix_to_json(matrix: np.ndarray) -> dict:
    """``{"dim", "entries"}`` with the entries as a (d^2, 2) array of (re, im)
    rows, row-major (an ndarray until ``round_floats``)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return {"dim": int(m.shape[0]), "entries": m.reshape(-1, 1).view(float)}


def matrix_from_json(obj: dict) -> np.ndarray:
    dim = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(dim, dim)


def hermitian_from_json(obj: dict) -> HermitianOperator:
    return HermitianOperator(matrix_from_json(obj))


def density_from_json(obj: dict) -> DensityMatrix:
    return DensityMatrix(matrix_from_json(obj))


def kernel_to_json(kernel: TransitionKernel) -> dict:
    """``{"n", "image"}`` for a permutation, else ``{"n", "matrix"}`` (an ndarray
    until ``round_floats``)."""
    if kernel.is_deterministic:
        return {"n": kernel.n_cells, "image": kernel.image}
    return {"n": kernel.n_cells, "matrix": kernel.dense}


def kernel_from_json(obj: dict) -> TransitionKernel:
    """Read either kernel form; ``"n"`` must match the cells it holds."""
    if "image" in obj:
        kernel = TransitionKernel.from_permutation(obj["image"])
    else:
        kernel = TransitionKernel(obj["matrix"])
    if kernel.n_cells != int(obj["n"]):
        raise ValueError(f"kernel declares n = {obj['n']} but holds {kernel.n_cells} cells")
    return kernel


def grid_to_json(grid: PhaseGrid, weights: GridDistribution) -> dict:
    return {
        "cell_volume": float(grid.cell_volume),
        "energy_a": grid.energy_a,
        "energy_b": grid.energy_b,
        "weights": weights.weights,
    }


def grid_from_json(obj: dict) -> tuple[PhaseGrid, GridDistribution]:
    grid = PhaseGrid(
        energy_a=obj["energy_a"],
        energy_b=obj["energy_b"],
        cell_volume=float(obj.get("cell_volume", 1.0)),
    )
    return grid, GridDistribution(obj["weights"])


GRID_CSV_COLUMNS = ("index", "energy_a", "energy_b", "weight")


def grid_to_csv(grid: PhaseGrid, weights: GridDistribution) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GRID_CSV_COLUMNS)
    for i in range(grid.n_cells):
        writer.writerow(
            [i, format_float(grid.energy_a[i]), format_float(grid.energy_b[i]),
             format_float(weights.weights[i])]
        )
    return buf.getvalue()


def grid_from_csv(text: str) -> tuple[PhaseGrid, GridDistribution]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(h.strip() for h in header) != GRID_CSV_COLUMNS:
        raise ValueError(f"expected header {GRID_CSV_COLUMNS}, got {header}")
    rows = sorted((int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in reader if r)
    if not rows:
        raise ValueError("grid CSV has no rows")
    grid = PhaseGrid(
        energy_a=[r[1] for r in rows], energy_b=[r[2] for r in rows]
    )
    return grid, GridDistribution([r[3] for r in rows])


def format_float(x: float) -> str:
    """12-significant-digit decimal form used in all emitted tables."""
    return f"{float(x):.12g}"


# Most float-array values ``round_floats`` formats at once: 4096 '<U18' strings
# are 0.3 MB, and a d <= 45 matrix is one call.
ROUND_BLOCK = 1 << 12


def round_floats(obj: Any) -> Any:
    """Recursively round floats to 12 significant digits for stable JSON bytes.

    Float ndarrays are rounded in blocks of whole rows, about ``ROUND_BLOCK``
    values each at most, with the same ``%.12g`` format as
    ``format_float``, so a dense matrix never becomes one Python call per entry."""
    if isinstance(obj, (float, np.floating)):
        return float(format_float(float(obj)))
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu":
            return obj.tolist()
        step = max(1, ROUND_BLOCK * len(obj) // max(1, obj.size))
        blocks = (obj[i : i + step] for i in range(0, len(obj), step))
        return [v for b in blocks for v in np.char.mod("%.12g", b).astype(float).tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj
