"""Wire-format round trips."""

import json

import numpy as np
import pytest

from ergokit import DensityMatrix, GridDistribution, HermitianOperator, PhaseGrid, TransitionKernel
from ergokit.sampling import random_density, random_hermitian, stream
from ergokit.serialize import (
    format_float,
    grid_from_csv,
    grid_from_json,
    grid_to_json,
    kernel_from_json,
    kernel_to_json,
    matrix_from_json,
    matrix_to_json,
    round_floats,
)


def test_matrix_round_trip():
    m = random_hermitian(4, stream(0)).matrix
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_density_round_trip():
    rho = random_density(3, stream(1))
    rebuilt = DensityMatrix(matrix_from_json(matrix_to_json(rho.matrix)))
    assert np.max(np.abs(rebuilt.matrix - rho.matrix)) < 1e-12


def test_hermitian_round_trip():
    op = random_hermitian(3, stream(2))
    rebuilt = HermitianOperator(matrix_from_json(matrix_to_json(op.matrix)))
    assert np.array_equal(rebuilt.matrix, op.matrix)


def test_matrix_entries_read_as_the_complex_of_each_pair():
    # Bit for bit, with signed zeros and integer entries, from JSON lists and from
    # matrix_to_json's own ndarray.
    entries = [[-0.0, 0.0], [1, -2], [0.1, -0.0], [3, 0]]
    expected = np.array([complex(re, im) for re, im in entries]).reshape(2, 2)
    for given in (entries, matrix_to_json(expected)["entries"]):
        read = matrix_from_json({"dim": 2, "entries": given})
        assert read.dtype == complex and read.flags.writeable
        assert read.view(float).tobytes() == expected.view(float).tobytes()


@pytest.mark.parametrize("pair", [[1.0], [1.0, 0.0, 0.0], 1.0, None, "10"])
def test_a_malformed_entry_pair_is_named(pair):
    with pytest.raises(ValueError, match=r"^entries: expected a \[re, im\] pair, got "):
        matrix_from_json({"dim": 2, "entries": [[0.0, 0.0], pair, [0.0, 0.0], [1.0, 0.0]]})


def test_matrix_entry_count_checked():
    with pytest.raises(ValueError, match="entries"):
        matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]]})


def test_kernel_round_trip():
    kernel = TransitionKernel.from_permutation(np.array([1, 2, 0]))
    wire = round_floats(kernel_to_json(kernel))
    assert wire == {"n": 3, "image": [1, 2, 0]}
    rebuilt = kernel_from_json(wire)
    assert np.array_equal(rebuilt.matrix, kernel.matrix)
    assert rebuilt.is_deterministic


def test_dense_kernel_round_trip():
    mixture = np.array([[0.25, 0.75, 0.0], [0.75, 0.25, 0.0], [0.0, 0.0, 1.0]])
    wire = round_floats(kernel_to_json(TransitionKernel(mixture)))
    assert wire == {"n": 3, "matrix": mixture.tolist()}
    rebuilt = kernel_from_json(wire)
    assert np.array_equal(rebuilt.matrix, mixture)
    assert not rebuilt.is_deterministic
    # A dense permutation matrix reads back in the image form.
    assert kernel_from_json({"n": 2, "matrix": [[0, 1], [1, 0]]}).image.tolist() == [1, 0]


def test_grid_json_round_trip():
    grid = PhaseGrid(energy_a=np.array([0.0, 1.0]), energy_b=np.array([0.5, 1.5]))
    dist = GridDistribution(np.array([0.25, 0.75]))
    grid2, dist2 = grid_from_json(grid_to_json(grid, dist))
    assert np.array_equal(grid2.energy_a, grid.energy_a)
    assert np.array_equal(grid2.energy_b, grid.energy_b)
    assert np.array_equal(dist2.weights, dist.weights)


def test_grid_csv_round_trip():
    grid = PhaseGrid(energy_a=np.array([0.0, 1.0, 2.0]), energy_b=np.array([0.5, 1.5, 2.5]))
    dist = GridDistribution(np.array([0.2, 0.3, 0.5]))
    text = "index,energy_a,energy_b,weight\n0,0,0.5,0.2\n1,1,1.5,0.3\n2,2,2.5,0.5\n"
    assert text.splitlines()[0] == "index,energy_a,energy_b,weight"
    grid2, dist2 = grid_from_csv(text)
    assert np.allclose(grid2.energy_a, grid.energy_a)
    assert np.allclose(dist2.weights, dist.weights)


def test_grid_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        grid_from_csv("a,b,c\n1,2,3\n")


@pytest.mark.parametrize(
    "indices, bad", [((0, 0), 0), ((0, 7), 7)], ids=["duplicate", "gap"]
)
def test_grid_csv_rejects_an_index_column_other_than_0_to_n(indices, bad):
    text = "index,energy_a,energy_b,weight\n" + "".join(
        f"{i},0,0,0.5\n" for i in indices
    )
    with pytest.raises(ValueError, match=f"index {bad} is repeated or out of range"):
        grid_from_csv(text)


def test_float_formatting():
    assert format_float(0.1234567890123456) == "0.123456789012"
    assert format_float(1.0) == "1"


def test_round_floats_handles_containers():
    payload = {"a": np.float64(0.12345678901234567), "b": [np.int64(3), (1.0,)], "flag": np.bool_(True)}
    out = round_floats(payload)
    assert out["a"] == float("0.123456789012")
    assert out["b"] == [3, [1.0]]
    assert out["flag"] is True


def test_round_floats_array_matches_per_element_form():
    values = [0.0, -0.0, 5e-324, -5e-324, 1e300, 1.0 / 3.0, float("nan"), -2.5e-7,
              1e12, 1e15, 1e16, float("inf"), float("-inf")]
    per_element = [round_floats(v) for v in values]
    assert json.dumps(round_floats(np.array(values))) == json.dumps(per_element)
    table = np.array([values, values[::-1]])
    assert json.dumps(round_floats(table)) == json.dumps([per_element, per_element[::-1]])


def test_matrix_entries_print_as_the_per_element_pairs():
    m = random_density(5, stream(21)).matrix
    per_element = {"dim": 5, "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}
    assert json.dumps(round_floats(matrix_to_json(m)), indent=2) == json.dumps(
        round_floats(per_element), indent=2
    )


def test_round_floats_blocks_match_the_per_element_form():
    rng = np.random.default_rng(3)
    table = rng.standard_normal((37, 2)) * 10.0 ** rng.integers(-20, 20, (37, 2))
    per_element = [[round_floats(float(x)) for x in row] for row in table]
    expected = json.dumps(per_element)
    assert json.dumps(round_floats(table)) == expected
    assert json.dumps(round_floats(np.asfortranarray(table))) == expected
    vector = table[:, 0]
    assert json.dumps(round_floats(vector)) == json.dumps([row[0] for row in per_element])
