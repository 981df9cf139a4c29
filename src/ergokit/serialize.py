"""JSON/CSV wire formats for matrices, grids, kernels, and reports.

Matrices travel as ``{"dim": d, "entries": [[re, im], ...]}`` with the entries
flattened row-major.  Grid tables are CSV rows ``index,energy_a,energy_b,weight``
(or the equivalent JSON object).  A permutation kernel travels as its image,
``{"n": n, "image": [...]}`` with cell j sent to cell image[j]; any other kernel
as the dense ``{"n": n, "matrix": [[...], ...]}``, column j holding the
distribution of the final cell given initial cell j.  ``kernel_from_json``
reads both.  Matrix, grid and kernel dicts hold ndarrays, which the command
line's report encoder writes as they are, in one pass: a mostly-zero array as
runs of zeros, any other as one ``%`` format of all its entries, and every
float is rounded to 12 significant digits (``format_float``) as it is written,
so identical runs produce identical bytes.  ``round_floats`` is the reference
for that encoder: a report reads ``json.dumps(round_floats(payload),
sort_keys=True, indent=2)`` byte for byte.
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
    rows, row-major; the report encoder writes the ndarray itself."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return {"dim": int(m.shape[0]), "entries": m.reshape(-1, 1).view(float)}


def _size(obj: dict, key: str) -> int:
    """``obj[key]``, which must be a JSON integer: not a fraction, nor a bool."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


# The types a JSON number is read as, and the entries of a float ndarray: a
# string or a bool is refused, not read as its number.
_NUMBER_TYPES = {int, float, np.float64}


def _numbers(values: list, key: str) -> list:
    """``values``, read for ``key``, which must all be JSON numbers."""
    if not set(map(type, values)) <= _NUMBER_TYPES:
        bad = next(v for v in values if type(v) not in _NUMBER_TYPES)
        raise ValueError(f"{key}: expected a number, got {bad!r}")
    return values


def matrix_from_json(obj: dict) -> np.ndarray:
    dim = _size(obj, "dim")
    entries = obj["entries"]
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    _numbers([x for pair in entries for x in pair], "entries")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(dim, dim)


def hermitian_from_json(obj: dict) -> HermitianOperator:
    return HermitianOperator(matrix_from_json(obj))


def density_from_json(obj: dict) -> DensityMatrix:
    return DensityMatrix(matrix_from_json(obj))


def kernel_to_json(kernel: TransitionKernel) -> dict:
    """``{"n", "image"}`` for a permutation, else ``{"n", "matrix"}``, each an
    ndarray that the report encoder writes itself."""
    if kernel.is_deterministic:
        return {"n": kernel.n_cells, "image": kernel.image}
    return {"n": kernel.n_cells, "matrix": kernel.matrix}


def kernel_from_json(obj: dict) -> TransitionKernel:
    """Read either kernel form; ``"n"`` must match the cells it holds.  The dense
    ``"matrix"`` is read in one type-inferring pass and refused unless that finds
    numbers: a string, a null or an all-bool matrix is not read as its number."""
    if "image" in obj:
        kernel = TransitionKernel.from_permutation(obj["image"])
    else:
        matrix = np.array(obj["matrix"])
        if matrix.dtype.kind not in "iuf":
            raise ValueError(f"matrix: expected numbers, got {matrix.dtype} entries")
        kernel = TransitionKernel(matrix)
    if kernel.n_cells != _size(obj, "n"):
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
        energy_a=_numbers(obj["energy_a"], "energy_a"),
        energy_b=_numbers(obj["energy_b"], "energy_b"),
        cell_volume=float(_numbers([obj.get("cell_volume", 1.0)], "cell_volume")[0]),
    )
    return grid, GridDistribution(_numbers(obj["weights"], "weights"))


GRID_CSV_COLUMNS = ("index", "energy_a", "energy_b", "weight")


def grid_from_csv(text: str) -> tuple[PhaseGrid, GridDistribution]:
    """The grid and weights of a table with the ``GRID_CSV_COLUMNS``, optionally followed
    by the ``phi`` column that ``classical --output F.csv`` writes, which is not read."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(h.strip() for h in header) not in (GRID_CSV_COLUMNS, (*GRID_CSV_COLUMNS, "phi")):
        raise ValueError(f"expected header {GRID_CSV_COLUMNS}, then phi or nothing, got {header}")
    rows = sorted((int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in reader if r)
    if not rows:
        raise ValueError("grid CSV has no rows")
    for position, row in enumerate(rows):
        if row[0] != position:
            raise ValueError(f"grid CSV index {row[0]} is repeated or out of range: "
                             f"the indices must be 0..{len(rows) - 1}, each once")
    grid = PhaseGrid(
        energy_a=[r[1] for r in rows], energy_b=[r[2] for r in rows]
    )
    return grid, GridDistribution([r[3] for r in rows])


def format_float(x: float) -> str:
    """12-significant-digit decimal form used in all emitted tables."""
    return f"{float(x):.12g}"


def round_floats(obj: Any) -> Any:
    """Recursively round floats to 12 significant digits, turning ndarrays
    into lists: the reference that reports are checked against.

    The command line never calls it; its encoder rounds each float as it
    writes it, and the tests compare that encoder with
    ``json.dumps(round_floats(payload), sort_keys=True, indent=2)``.  Float
    ndarrays round only their nonzero entries, each through
    ``format_float``; a zero of either sign already is its own rounding."""
    if isinstance(obj, (float, np.floating)):
        return float(format_float(float(obj)))
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu":
            return obj.tolist()
        flat = obj.astype(float).reshape(-1)
        live = np.flatnonzero(flat)
        flat[live] = [float(format_float(v)) for v in flat[live].tolist()]
        return flat.reshape(obj.shape).tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj
