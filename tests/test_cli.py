"""End-to-end checks of the command-line front end."""

import argparse
import contextlib
import dataclasses
import functools
import inspect
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ergokit import (
    DrivingProtocol, classical, cli, conditional_thermal_state, ergotropy, evolve_unitary,
    geometric, quantum, sharpened_bound_report, workbench,
)
from ergokit.cli import COMMANDS, _dumps, _float_tokens, _identity_columns, main
from ergokit.errors import NotConverged, OutOfScope
from ergokit.ergotropy import _aligned_gaps, ergotropy_direct, ergotropy_report
from ergokit.geometric import _geometric_route
from ergokit.quantum import (
    DensityMatrix, HermitianOperator, _density_stack, _hermitian_stack, _SpectralBlock, _spectra,
    _stack_of, _states, eigendecompose, spectral_context,
)
from ergokit.sampling import random_density, random_hermitian, stream
from ergokit.serialize import format_float, kernel_to_json, matrix_to_json, round_floats
from haar import haar_unitaries


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyIdentities:
    def test_passes_and_reports_max_deviation(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-identities", "--dim", "4", "--trials", "40", "--seed", "7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 5
        assert payload["passed"] is True
        assert payload["results"]["max_ergotropy_identity_dev"] <= 1e-8

    def test_impossible_tolerance_fails_with_named_invariant(self, capsys):
        code, _, err = run_cli(
            capsys, "verify-identities", "--dim", "3", "--trials", "5", "--seed", "1",
            "--tolerance", "1e-18",
        )
        assert code == 1
        assert "invariant failed" in err
        assert "ergotropy_identity" in err

    def test_two_failed_checks_share_one_stderr_line(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-identities", "--dim", "3", "--trials", "4", "--tolerance", "1e-18"
        )
        assert code == 1
        assert json.loads(out)["passed"] is False
        (line,) = err.splitlines()
        first, second = line.split("; ")
        assert first.startswith("invariant failed: ergotropy_identity: value=")
        assert second.startswith("invariant failed: chain_identity: value=")


def _rows(table):
    """The per-trial dicts of a column table, each entry a Python number."""
    columns = (np.asarray(column).tolist() for column in table.values())
    return [dict(zip(table, row)) for row in zip(*columns)]


def _single_state_row(rho, hamiltonian, beta):
    """A verify-identities row from the single-state routes, one trial at a time:
    the reference the blocked sweep must match bit for bit."""
    direct = ergotropy_direct(rho, hamiltonian)
    report = ergotropy_report(rho, hamiltonian, beta)
    c = spectral_context(rho, hamiltonian, beta)
    return {
        "ergotropy_identity_dev": abs(direct - report.via_entropies) / (1.0 + abs(direct)),
        "chain_identity_dev": abs(c.relative_entropy[0] - c.coherence[0] - c.population_divergence[0]),
        "optimal_unitary_gap": abs(_aligned_gaps(c)[0]),
    }


class TestVerifyBlocks:
    # d = 64 runs 16 trials per block, so trial 16 opens a second block; the others
    # run every trial in one block.
    @pytest.mark.parametrize("dim, many, few", [(2, 16, 5), (3, 16, 5), (8, 16, 5), (64, 17, 16)])
    def test_rows_equal_single_state_trials(self, capsys, tmp_path, dim, many, few):
        lines = {}
        for trials in (many, few):
            path = tmp_path / f"{trials}.csv"
            code, _, _ = run_cli(
                capsys, "verify-identities", "--dim", str(dim), "--trials", str(trials),
                "--seed", "9", "--output", str(path),
            )
            assert code == 0
            lines[trials] = path.read_text().splitlines()
        assert lines[many][: few + 1] == lines[few]
        config = argparse.Namespace(dim=dim, trials=many, seed=9, beta=1.0, tolerance=1e-8)
        rows = _rows(COMMANDS["verify-identities"].run(config)[2])
        assert len(rows) == many
        for i, row in enumerate(rows):
            rho = random_density(dim, stream(9, 3 * i))
            hamiltonian = random_hermitian(dim, stream(9, 3 * i + 1))
            assert row == {"trial": i, **_single_state_row(rho, hamiltonian, 1.0)}

    def test_degenerate_and_rank_deficient_rows_in_one_block(self):
        def block():
            rhos = [random_density(4, stream(5, k)) for k in range(3)]
            rhos[2] = random_density(4, stream(5, 2), rank=2)
            hamiltonians = [random_hermitian(4, stream(6, k)) for k in range(3)]
            u = haar_unitaries(4, 1, stream(7))[0]
            hamiltonians[1] = HermitianOperator(u @ np.diag([0.0, 1.0, 1.0, 2.0]) @ u.conj().T)
            return rhos, hamiltonians

        rhos, hamiltonians = block()
        rows = _rows(_identity_columns(_states(np.array([r.matrix for r in rhos])),
                                       _spectra(np.array([h.matrix for h in hamiltonians]),
                                                "ascending"), 1.0))
        assert [len(eigendecompose(h, "ascending").clusters) for h in hamiltonians] == [4, 3, 4]
        assert [int(np.sum(eigendecompose(r, "descending").values > 1e-12)) for r in rhos] == [4, 4, 2]
        for row, rho, hamiltonian in zip(rows, *block()):
            assert row == _single_state_row(rho, hamiltonian, 1.0)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(st.sampled_from(["plain", "degenerate", "rank", "clamp"]), max_size=4),
           beta=st.sampled_from([0.3, 1.0, 4.0]))
    def test_block_rows_equal_blocks_of_one(self, dim, seed, extra, beta):
        # Each block mixes a degenerate H, a rank-deficient state and a state that
        # validation clamps (where d allows them) with plain trials.
        def trial(k, kind):
            rng = stream(seed, k)
            h = random_hermitian(dim, rng).matrix
            if kind == "degenerate" and dim > 1:
                levels = rng.standard_normal(dim)
                levels[1] = levels[0]
                u = haar_unitaries(dim, 1, rng)[0]
                h = u @ np.diag(levels) @ u.conj().T
            rho = random_density(dim, rng, rank=dim - 1 if kind == "rank" and dim > 1 else None)
            if kind == "clamp" and dim > 1:
                p = np.append(np.full(dim - 1, (1 + 1e-12) / (dim - 1)), -1e-12)
                u = haar_unitaries(dim, 1, rng)[0]
                assert np.linalg.eigvalsh((u * p) @ u.conj().T)[0] < 0.0
                return (u * p) @ u.conj().T, h
            return rho.matrix, h

        kinds = ["plain", "degenerate", "rank", "clamp"] + extra
        pairs = [trial(k, kind) for k, kind in enumerate(kinds)]
        states = np.array([m for m, _ in pairs])
        # The clamp rebuilt the state: its eigenvalue -1e-12 is clipped to zero.
        assert (abs(_density_stack(states.copy())[1][3, 0]) < 1e-13) == (dim > 1)
        rhos = _states(states)
        hamiltonians = _spectra(_hermitian_stack(np.array([h for _, h in pairs])), "ascending")

        def one(m, h):  # the trial as the objects of the public API, a block of one row
            return _stack_of(DensityMatrix(m), "descending"), _stack_of(HermitianOperator(h),
                                                                        "ascending")

        rows = _rows(_identity_columns(rhos, hamiltonians, beta))
        assert len(rows) == len(pairs)
        for row, (m, h) in zip(rows, pairs):
            assert row == _rows(_identity_columns(*one(m, h), beta))[0]
        if dim > 1:  # the geometric route needs the manifold CP^(d-1)
            routes = _geometric_route(_SpectralBlock.of(rhos, hamiltonians, beta)).tolist()
            for route, (m, h) in zip(routes, pairs):
                assert route == _geometric_route(_SpectralBlock.of(*one(m, h), beta))[0]

    def test_a_failing_block_reports_its_first_failing_trial(self, capsys, monkeypatch):
        # The twin of otm's case: an error that stops a trial stops the block as a whole
        # first on a later trial; run alone, trial 1 is the first that fails.  A trial is
        # known by its state.
        states = [random_density(2, stream(0, 3 * i)).matrix for i in range(3)]

        def columns(rhos, hamiltonians, beta):
            if len(rhos.matrices) > 1:
                raise NotConverged("the block's error")
            (trial,) = [i for i, m in enumerate(states) if np.allclose(m, rhos.matrices[0])]
            if trial >= 1:
                raise NotConverged(f"trial {trial}")
            return {}

        monkeypatch.setattr(cli, "_identity_columns", columns)
        code, out, err = run_cli(capsys, "verify-identities", "--trials", "3")
        assert (code, out, err) == (1, "", "invariant failed: trial 1\n")


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        args = ("verify-identities", "--dim", "3", "--trials", "10", "--seed", "11")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_classical_byte_identical(self, capsys):
        args = ("classical", "--dim", "6", "--seed", "5", "--trials", "8")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


    def test_no_subcommand_draws_os_entropy(self, capsys, monkeypatch):
        # Every random stream is keyed by the seed alone: no op asks the OS for entropy.
        def refuse(*args):
            raise AssertionError("OS entropy drawn")

        monkeypatch.setattr("numpy.random.bit_generator.randbits", refuse)
        for args in (("ergotropy", "--dim", "3"), ("verify-identities", "--trials", "2"),
                     ("classical", "--dim", "6", "--trials", "2"), ("otm", "--trials", "1"),
                     ("geometric-z", "--dim", "2", "--samples", "1000")):
            code, _, err = run_cli(capsys, *args)
            assert code == 0, (args, err)


class TestEigensolverCalls:
    @pytest.mark.parametrize(
        "argv, most",
        [
            (("ergotropy", "--dim", "16", "--seed", "0"), 2),
            (("verify-identities", "--dim", "8", "--trials", "1"), 4),
            # One block: one stacked eigh validates the states, one diagonalizes the
            # Hamiltonians, and one stacked eigvalsh each gives the direct route.
            (("verify-identities", "--dim", "8", "--trials", "20"), 4),
        ],
    )
    def test_one_diagonalization_per_operator(self, capsys, eigensolver_calls, argv, most):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert eigensolver_calls["eigh"] + eigensolver_calls["eigvalsh"] <= most
        assert eigensolver_calls["qr"] == 0  # no Haar draw, no degenerate cluster

    def test_otm_block_and_its_quench_case_once_per_process(self, capsys, eigensolver_calls,
                                                             two_cpus):
        cli._sudden_quench.cache_clear()
        _, first, _ = run_cli(capsys, "otm", "--dim", "8", "--trials", "20")
        # The quench case: one eigh each of its H_A, H_B and conditional state, and the
        # oracle's eigvalsh.
        block = 3 * 20 + 17 * (64 + 32) + 128
        assert eigensolver_calls == {"eigh": 3 + 2 + 2 + 3, "eigvalsh": 1, "qr": 0}
        assert eigensolver_calls.matrices == {"eigh": block + 3, "eigvalsh": 1, "qr": 0}
        eigensolver_calls.update(eigh=0, eigvalsh=0)
        _, second, _ = run_cli(capsys, "otm", "--dim", "8", "--trials", "20")
        # One block: one eigh each of the H_A's, the conditional states and the H_B's; the
        # 17 ramps' 64- and 32-step generators, 1 632 matrices of 64 entries in one stack,
        # in two chunks of 816 that the two threads claim; and trial 0's (tau = 1.45) 128
        # steps, the one ramp to miss the gate at (32, 64), in two chunks of 64.
        assert eigensolver_calls == {"eigh": 3 + 2 + 2, "eigvalsh": 0, "qr": 0}
        assert eigensolver_calls.matrices["eigh"] == block + 3 + block
        assert second == first

    @pytest.mark.parametrize(
        "argv",
        [
            ("geometric-z", "--dim", "2", "--samples", "1000"),
            ("geometric-z", "--dim", "16", "--samples", "1000"),
        ],
    )
    def test_geometric_z_diagonalizes_its_hamiltonian_once(self, capsys, eigensolver_calls, argv):
        # The sampler and the closed form read the spectrum stored on H.
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert eigensolver_calls == {"eigh": 1, "eigvalsh": 0, "qr": 0}


# Counts every HermitianOperator and DensityMatrix that comes into being, through the
# constructor or not, while cli.main runs each argv twice in one process.  It patches the
# class for good, so it runs in a process of its own.
_OBJECT_COUNT_SCRIPT = """
import contextlib, io, json, sys
from ergokit import HermitianOperator, cli

built = []

def counted(cls, *args, **kwargs):
    built.append(cls.__name__)
    return object.__new__(cls)

HermitianOperator.__new__ = staticmethod(counted)
runs = []
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
    runs.append([code, built[:]])
    built.clear()
print(json.dumps(runs))
"""


class TestNoPerTrialObjects:
    PAIR = ["DensityMatrix", "HermitianOperator"]

    @pytest.mark.parametrize("argv, built_first, built_again", [
        # The public ergotropy_report's one (state, Hamiltonian) pair, on every run.
        ("ergotropy --dim 4", PAIR, PAIR),
        ("verify-identities --dim 4 --trials 16", [], []),
        # The sudden quench's literal H_A and H_B, once per process.
        ("otm --dim 4 --trials 2", ["HermitianOperator", "HermitianOperator"], []),
    ])
    def test_generated_runs_build_no_per_trial_objects(self, argv, built_first, built_again):
        proc = subprocess.run([sys.executable, "-c", _OBJECT_COUNT_SCRIPT, *argv.split()],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, built_first], [0, built_again]]


class TestDegenerateHamiltonian:
    """H = diag(0, 0, 1, 1, 1, 2, 3, 3) with a random state at d = 8, as given and turned by
    a Haar unitary.  The basis inside each cluster is the eigensolver's own; the routes read
    whole clusters, so they keep the pinned values, which were computed with a phase-fixed,
    lexicographically ordered basis inside each cluster."""

    LEVELS = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0])

    @classmethod
    def hamiltonian(cls, rotated):
        u = haar_unitaries(8, 1, stream(2, 0))[0]
        return (u * cls.LEVELS) @ u.conj().T if rotated else np.diag(cls.LEVELS)

    @pytest.mark.parametrize("rotated, pinned", [
        (False, (0.9361033747327222, 0.9361033747327228, 0.9361033747327228, 0.5089952540012589)),
        (True, (1.1101096322589057, 1.1101096322589061, 1.110109632258906, 0.6682348878149913)),
    ], ids=["diagonal", "rotated"])
    def test_input_routes_match_the_pinned_values(self, capsys, tmp_path, rotated, pinned):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(_matrix_file(rho=random_density(8, stream(1, 0)).matrix,
                                                hamiltonian=self.hamiltonian(rotated))))
        assert run_cli(capsys, "ergotropy", "--input", str(path))[0] == 0
        config = argparse.Namespace(input_path=str(path), beta=1.0, tolerance=1e-8)
        results = COMMANDS["ergotropy"].run(config)[0]
        names = ("total", "via_entropies", "coherent_eq11", "dephased_ergotropy")
        for name, value in zip(names, pinned):
            assert abs(results[name] - value) <= 1e-12, name

    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
    def test_conditional_state_flags_the_degenerate_initial_hamiltonian(self, rotated):
        h_a = HermitianOperator(self.hamiltonian(rotated))
        u = haar_unitaries(8, 1, stream(2, 1))[0]
        state = conditional_thermal_state(h_a, random_hermitian(8, stream(1, 1)), u, 1.0)
        assert state.degenerate_initial
        assert eigendecompose(h_a, "ascending").clusters == ((0, 1), (2, 3, 4), (5,), (6, 7))


class TestErgotropyCommand:
    def test_random_state_report(self, capsys):
        code, out, _ = run_cli(capsys, "ergotropy", "--dim", "3", "--seed", "2", "--beta", "2")
        assert code == 0
        payload = json.loads(out)
        results = payload["results"]
        assert abs(results["total"] - results["via_entropies"]) <= 1e-8 * (1 + abs(results["total"]))
        assert abs(results["total"] - results["via_geometric"]) <= 1e-8 * (1 + abs(results["total"]))

    def test_input_file(self, capsys, tmp_path):
        rho = random_density(3, stream(4))
        hamiltonian = random_hermitian(3, stream(5))
        path = tmp_path / "state.json"
        path.write_text(json.dumps(round_floats({
            "rho": matrix_to_json(rho.matrix),
            "hamiltonian": matrix_to_json(hamiltonian.matrix),
        })))
        code, out, _ = run_cli(capsys, "ergotropy", "--input", str(path))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "ergotropy", "--input", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command, payload, kind", [
        ("ergotropy", {"rho": {"dim": 2, "entries": [[1, 0]]}}, "state"),
        ("ergotropy", {"rho": {"dim": 2.5, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]},
                       "hamiltonian": {"dim": 2, "entries": [[0, 0], [0, 0], [0, 0], [1, 0]]}},
         "state"),
        ("geometric-z", {"hamiltonian": {"dim": 2.5, "entries": [[0, 0], [0, 0], [0, 0], [1, 0]]}},
         "Hamiltonian"),
        ("geometric-z", {"hamiltonian": {"dim": True, "entries": [[1, 0]]}}, "Hamiltonian"),
        ("ergotropy", {"rho": {"dim": 2, "entries": [[True, False], [0, 0], [0, 0], [0, 0]]},
                       "hamiltonian": {"dim": 2, "entries": [[0, 0], [0, 0], [0, 0], [1, 0]]}},
         "state"),
    ], ids=["entry-count", "fractional-dim", "geometric-fractional-dim", "geometric-bool-dim",
            "bool-entry"])
    def test_bad_matrix_payload_exits_2(self, capsys, tmp_path, command, payload, kind):
        # A size must be a JSON integer: 2.5 is not read as 2, nor true as 1; an entry
        # must be a JSON number, so true is not read as 1.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad {kind} file ") and err.count("\n") == 1

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "ergotropy", "--input", "/nonexistent/state.json")
        assert code == 2

    @pytest.mark.parametrize("command, data, start", [
        ("ergotropy", b"\xff{", "error: cannot read "),
        ("geometric-z", b'{"hamiltonian": {"dim": 1, "entries": [[1' + b"0" * 400 + b', 0]]}}',
         "error: bad Hamiltonian file "),
        ("ergotropy", b"[" * 100_000 + b"]" * 100_000, "error: bad state file "),
    ], ids=["not-utf-8", "past-the-doubles", "nested-too-deep"])
    def test_reader_errors_that_are_no_value_error_exit_2(self, capsys, tmp_path, command,
                                                           data, start):
        # A UnicodeDecodeError when read, an OverflowError when a 401-digit integer becomes
        # a float, and a RecursionError from json.loads.
        path = tmp_path / "input.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"{start}{path}: ") and err.count("\n") == 1

    def test_state_and_hamiltonian_of_different_dimension_exit_2(self, capsys, tmp_path):
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(round_floats({
            "rho": matrix_to_json(random_density(2, stream(4)).matrix),
            "hamiltonian": matrix_to_json(random_hermitian(3, stream(5)).matrix),
        })))
        code, out, err = run_cli(capsys, "ergotropy", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: bad state file {path}: rho has dimension 2, the Hamiltonian 3"
        ]


class TestClassicalCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "classical", "--dim", "7", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"]["inhomogeneity_route_agrees"]["passed"] is True
        assert payload["checks"]["phi_sums_to_zero"]["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [("--dim", "400", "--beta", "20"), ("--dim", "400", "--beta", "340"),
         ("--dim", "8", "--beta", "30")],
        ids=["n400-beta20", "n400-beta340", "n8-beta30"],
    )
    def test_small_gibbs_weights_stay_in_scope(self, argv):
        # Gibbs weights far below 1e-15 are still support; the subprocess
        # also shows that no RuntimeWarning reaches stderr.
        proc = run_module("classical", *argv, "--trials", "16")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        results = json.loads(proc.stdout)["results"]
        assert (
            results["ergotropy_relative_entropy_route"]
            == results["ergotropy_inhomogeneity_route"]
        )

    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "cells.csv"
        code, _, _ = run_cli(
            capsys, "classical", "--dim", "5", "--seed", "1", "--output", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "index,energy_a,energy_b,weight,phi"
        assert len(lines) == 6

    @pytest.mark.parametrize("fifth", ["phi", "psi"])
    def test_the_csv_table_reads_back_as_input(self, capsys, tmp_path, fifth):
        # --input reads the four grid columns of the table --output writes and skips its
        # phi column; any other fifth column is a bad header.
        path = tmp_path / "grid.csv"
        assert run_cli(capsys, "classical", "--dim", "8", "--seed", "3",
                       "--output", str(path))[0] == 0
        header, rows = path.read_text().split("\n", 1)
        path.write_text(f"{header.replace(',phi', ',' + fifth)}\n{rows}")
        code, out, err = run_cli(capsys, "classical", "--input", str(path), "--seed", "3")
        if fifth == "phi":
            assert (code, err) == (0, "")
            assert json.loads(out)["results"]["n_cells"] == 8
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: bad grid CSV") and err.count("\n") == 1


GRID3 = {"energy_a": [0.0, 1.0, 2.0], "energy_b": [0.5, 1.0, 1.5], "weights": [0.2, 0.3, 0.5]}
GRID2 = {"energy_a": [0.0, 1.0], "energy_b": [0.5, 1.0], "weights": [0.4, 0.6]}
GRID1 = {"energy_a": [0.0], "energy_b": [0.5], "weights": [1.0]}


class TestClassicalInput:
    @pytest.mark.parametrize("payload", [
        {"grid": GRID3, "kernel": {"n": 2, "image": [1, 0]}},
        {"grid": GRID3, "kernel": {"n": 2, "matrix": [[0.5, 0.5], [0.5, 0.5]]}},
        {"grid": dict(GRID3, weights=[0.5, 0.5])},
        {"grid": GRID3, "kernel": {"n": 3, "image": [0, 0, 1]}},
        {"grid": GRID3, "kernel": {"n": 3, "image": [0, 1, 3]}},
        {"grid": GRID3, "kernel": {"n": 4, "image": [2, 0, 1]}},
        {"grid": GRID2, "kernel": {"n": 2.9, "image": [1, 0]}},
        {"grid": GRID1, "kernel": {"n": True, "image": [0]}},
        # 1e400 overflows to inf when read, as json.dumps's Infinity does.
        {"grid": dict(GRID3, cell_volume=float("inf"))},
        # A number must be a JSON number: "2" is not read as 2.0, nor true as 1.0.
        {"grid": dict(GRID3, cell_volume="2")},
        {"grid": dict(GRID3, cell_volume=True)},
        {"grid": dict(GRID3, energy_a=["0", "1", "2"])},
        {"grid": dict(GRID3, energy_b=[0.5, False, 1.5])},
        {"grid": dict(GRID3, weights=[True, False, False])},
        # The dense matrix is refused unless it reads as numbers; mixed with numbers a
        # bool is upcast, as the README says.
        {"grid": GRID3, "kernel": {"n": 3, "matrix": [
            ["0.5", 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, "0.5"]]}},
        {"grid": GRID3, "kernel": {"n": 3, "matrix": [
            [0.5, 0.5, None], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]]}},
        {"grid": GRID3, "kernel": {"n": 3, "matrix": [
            [True, False, False], [False, True, False], [False, False, True]]}},
        # json.dumps writes NaN and Infinity tokens, which json.loads reads as floats.
        {"grid": dict(GRID3, weights=[math.nan, 0.5, 0.5])},
        {"grid": GRID3, "kernel": {"n": 3, "matrix": [
            [math.nan, 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]]}},
        {"grid": dict(GRID3, weights=[math.inf, 0.5, 0.5])},
        {"grid": dict(GRID3, energy_b=[0.5, math.nan, 1.5])},
        # A kernel holds one form: a valid image does not excuse a malformed matrix.
        {"grid": GRID3, "kernel": {"n": 3, "image": [1, 0, 2],
                                   "matrix": [[9, 9, 9], ["x", 0, 0], [0, 0, 1]]}},
    ], ids=["image-size", "matrix-size", "weights-size", "repeated-image", "image-range",
            "declared-n", "fractional-n", "bool-n", "infinite-cell-volume",
            "string-cell-volume", "bool-cell-volume", "string-energy-a", "bool-energy-b",
            "bool-weights", "string-matrix", "null-matrix", "bool-matrix", "nan-weight",
            "nan-kernel-entry", "infinite-weight", "nan-energy", "image-and-matrix"])
    def test_inconsistent_input_exits_2(self, capsys, tmp_path, payload):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "classical", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad grid file ") and err.count("\n") == 1

    def test_nan_csv_weight_exits_2(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("index,energy_a,energy_b,weight\n0,0,0.5,nan\n1,1,1,0.5\n2,2,1.5,0.5\n")
        code, out, err = run_cli(capsys, "classical", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: bad grid CSV {path}: negative weight nan\n"

    @pytest.mark.parametrize("name", ["grid.csv", "grid.json"])
    def test_unreadable_input_exits_2(self, capsys, tmp_path, name):
        path = tmp_path / "missing" / name
        code, out, err = run_cli(capsys, "classical", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_inhomogeneity_route_on_an_offset_grid(self, capsys, tmp_path, seed):
        # 400 sorted cells over 20 energy units, offset by 1e8: phi @ E_B with the raw
        # energies read 1.1e-9 to 1.7e-9 against the 1e-9 gate for seeds 1 to 4.
        rng = np.random.default_rng(seed)
        grid = {"energy_a": (np.sort(rng.uniform(0.0, 20.0, 400)) + 1e8).tolist(),
                "energy_b": (np.sort(rng.uniform(0.0, 20.0, 400)) + 1e8).tolist(),
                "weights": rng.dirichlet(np.ones(400)).tolist()}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": grid}))
        code, out, err = run_cli(capsys, "classical", "--input", str(path), "--beta", "0.1")
        assert (code, err) == (0, "")
        assert json.loads(out)["checks"]["inhomogeneity_route_agrees"]["value"] < 1e-13

    @pytest.mark.parametrize("offset", [1e6, -1e8])
    def test_energies_with_a_large_common_offset(self, capsys, tmp_path, offset):
        # At beta = 30 the logits -beta E reach 3e9; taken from the energies themselves,
        # their rounding broke the 1e-10 mass check of the Gibbs weights.
        reports = []
        for shift in (0.0, offset):
            grid = {"energy_a": [shift, shift + 0.5, shift + 1.0],
                    "energy_b": [shift, shift + 0.25, shift + 1.0], "weights": [0.5, 0.3, 0.2]}
            path = tmp_path / "grid.json"
            path.write_text(json.dumps({"grid": grid}))
            code, out, err = run_cli(capsys, "classical", "--input", str(path), "--beta", "30")
            assert (code, err) == (0, "")
            reports.append(json.loads(out)["results"])
        plain, shifted = reports
        route = "ergotropy_relative_entropy_route"
        assert shifted[route] == plain[route]
        assert shifted["stationarity"] == plain["stationarity"]
        assert shifted["ergotropy_inhomogeneity_route"] == plain["ergotropy_inhomogeneity_route"]

    def test_dense_kernel_input(self, capsys, tmp_path):
        mixture = [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": GRID3, "kernel": {"n": 3, "matrix": mixture}}))
        code, out, _ = run_cli(capsys, "classical", "--input", str(path), "--trials", "8")
        assert code == 0
        payload = json.loads(out)
        results = payload["results"]
        assert results["kernel_deterministic"] is False
        assert results["kernel"] == {"n": 3, "matrix": mixture}
        assert results["conditional_entropy"] > 0.0
        assert payload["checks"]["inhomogeneity_route_agrees"]["passed"] is True

    @pytest.mark.parametrize("beta", ["0.05", "1", "2"])
    @pytest.mark.parametrize("n", [6, 200])
    def test_dense_kernel_routes_differ_by_the_conditional_entropy(self, capsys, tmp_path,
                                                                    n, beta):
        # Birkhoff mixtures of three permutations, ten seeds: beta e18 = beta phi . E_B
        # - H(F|I), and H(F|I) = H(J) - H(p_A) recomputed from the printed kernel and weights.
        for seed in range(10):
            path = _dense_grid_file(tmp_path, n=n, seed=seed)
            code, out, err = run_cli(capsys, "classical", "--input", str(path), "--beta", beta)
            assert (code, err) == (0, "")
            payload = json.loads(out)
            results = payload["results"]
            assert payload["checks"]["inhomogeneity_route_agrees"]["value"] <= 1e-12
            weights = np.array(results["grid"]["weights"])
            joint = np.array(results["kernel"]["matrix"]) * weights
            live = joint[joint > 0.0]
            expected = -(live * np.log(live)).sum() + (weights * np.log(weights)).sum()
            assert results["conditional_entropy"] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("energy_b, beta, line", [
        ([-1e308, 1e308], "1", "energy span [-1e+308, 1e+308] overflows"),
        ([0.0, 1e308], "10", "beta * energy overflows at beta = 10"),
    ], ids=["span-overflows", "logit-overflows"])
    def test_energies_near_the_largest_float_exit_2(self, capsys, tmp_path, energy_b, beta, line):
        # The gauge refuses a span past the doubles, and _gibbs_logs a finite span whose
        # product with beta overflows.  Neither warns.
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": dict(GRID2, energy_b=energy_b)}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "classical", "--input", str(path), "--beta", beta)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {line}"]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), m=st.integers(0, 2**30),
           kernel=st.sampled_from(["generated", "image", "mixture"]),
           beta=st.floats(-2.0, 2.0).map(lambda x: repr(10.0**x)))
    def test_a_common_energy_offset_moves_no_bit(self, seed, n, m, kernel, beta):
        # Energies on a 2^-10 grid in [0, 2), and the same plus c = m + 1/2: both exact in
        # doubles, and equal once measured from their lowest entry.  So every printed
        # number but the grid echo keeps its bits, the route check's value included.
        rng = np.random.default_rng(seed)
        energy_a, energy_b = rng.integers(0, 2048, (2, n)) / 1024.0
        weights = rng.dirichlet(np.ones(n)).tolist()
        extra = {}
        if kernel == "image":
            extra["kernel"] = {"n": n, "image": rng.permutation(n).tolist()}
        elif kernel == "mixture":
            matrix = sum(w * np.eye(n)[rng.permutation(n)] for w in rng.dirichlet(np.ones(3)))
            extra["kernel"] = {"n": n, "matrix": matrix.tolist()}
        payloads = []
        for c in (0.0, m + 0.5):
            grid = {"energy_a": (energy_a + c).tolist(), "energy_b": (energy_b + c).tolist(),
                    "weights": weights}
            out, err = io.StringIO(), io.StringIO()
            with tempfile.TemporaryDirectory() as tmp:
                path = f"{tmp}/grid.json"
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump({"grid": grid, **extra}, handle)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["classical", "--input", path, "--beta", beta])
            payload = json.loads(out.getvalue()) if out.getvalue() else None
            if payload is not None:
                del payload["results"]["grid"]
            payloads.append((code, err.getvalue(), payload))
        assert payloads[1] == payloads[0]

    def test_large_grid_prints_the_image_and_reads_it_back(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "classical", "--dim", "1000", "--trials", "8", "--seed", "2")
        assert code == 0
        assert len(out.encode()) < 200_000
        results = json.loads(out)["results"]
        assert sorted(results["kernel"]["image"]) == list(range(1000))
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": results["grid"], "kernel": results["kernel"]}))
        code, again, _ = run_cli(capsys, "classical", "--input", str(path), "--trials", "8",
                                 "--seed", "2")
        assert code == 0
        reread = json.loads(again)["results"]
        assert reread["kernel"] == results["kernel"]
        assert reread["ergotropy_relative_entropy_route"] == pytest.approx(
            results["ergotropy_relative_entropy_route"], abs=1e-9
        )


def _dense_grid_file(tmp_path, n=24, seed=4):
    rng = stream(seed)
    kernel = np.zeros((n, n))
    for w in rng.dirichlet(np.ones(3)):
        kernel[rng.permutation(n), np.arange(n)] += w
    grid = {"energy_a": rng.uniform(0, 2, n).tolist(), "energy_b": rng.uniform(0, 2, n).tolist(),
            "weights": rng.dirichlet(np.ones(n)).tolist()}
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"grid": grid, "kernel": {"n": n, "matrix": kernel.tolist()}}))
    return path


_FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=1e11, max_value=1e17),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.5e-310, float("nan"), float("inf"), float("-inf")]),
)
_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(["a, b", ", ", '"q", "r"', "\u00e9, \u00fc"]))
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)
# Shapes with a zero side, (r, 0) and (0, c), are drawn as well.
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5)
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=_FLOATS),
    hnp.arrays(np.float64, _SHAPES, elements=st.sampled_from([0.0, -0.0, 0.5, 1.0])),
    # Mostly +0.0, with sides up to 40: zero runs that span whole rows.
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=40),
               elements=_FLOATS, fill=st.just(0.0)),
    hnp.arrays(np.int64, _SHAPES),
    hnp.arrays(np.bool_, _SHAPES),
)
_PAYLOADS = st.recursive(
    st.one_of(_SCALAR, st.lists(st.one_of(_FLOATS, st.integers()), max_size=6), _ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


def _dense_kernel(n=6, seed=2):
    rng = stream(seed)
    matrix = np.zeros((n, n))
    for w in rng.dirichlet(np.ones(3)):
        matrix[rng.permutation(n), np.arange(n)] += w
    return classical.TransitionKernel(matrix)


def _token_sweep() -> list[float]:
    """Subnormals, powers of ten and their neighbours, integers, the band
    where ``%g`` and ``repr`` switch to exponents apart, and special values."""
    powers = np.array([float(f"1e{e}") for e in range(-330, 309)])
    subnormals = np.concatenate([
        np.arange(1, 200) * 5e-324,
        np.geomspace(5e-324, 2.2250738585072014e-308, 400),
        stream(0).integers(1, 2**52, 400).view(np.float64),
    ])
    band = np.geomspace(1e12, 1e16, 2001)
    values = np.concatenate([
        subnormals,
        [2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0)],
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.arange(-2000, 2001),
        band, np.round(band), band + 0.5,
        [0.0, np.nan, np.inf],
    ])
    return np.concatenate([values, -values]).tolist()


class TestReportLayout:
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(_PAYLOADS)
    @example({})
    @example([[]])
    @example({"a": [{}], "b": [[1.0, -0.0], ["x, y"], [None, True]]})
    @example({"r0": np.zeros((3, 0)), "0c": np.zeros((0, 2)), "scalar": np.array(-0.0)})
    @example({"state": matrix_to_json(random_density(3, stream(1)).matrix),
              "hamiltonian": matrix_to_json(random_hermitian(3, stream(2)).matrix)})
    @example({"kernel": kernel_to_json(_dense_kernel())})
    @example({"zeros": np.zeros((3, 4))})
    @example({"lone": np.where(np.arange(20).reshape(4, 5) == 13, -0.0, 0.0)})
    @example({"middle": np.pad([[0.5, 0.0, -1.5]], ((2, 3), (0, 0)))})
    @example({"half": np.array([[0.0, 1.5, 0.0], [2.5, -0.0, 3.0]])})
    @example({"hamiltonian": matrix_to_json(np.diag(np.arange(6.0)))})
    # Entries that the one-format text writes right and entries that send the
    # array back to _float_tokens, in one array.
    @example({"mixed": np.array([0.25, 1.0, 1.5e13, 2.5e-310, np.nan, -0.0, -3.75, 0.1, 7.5])})
    @example({"mixed": np.array([[0.25, 1.0, -0.0], [1.5e13, 0.3, 2.5e-310], [np.nan, 2.0, 0.5]])})
    # A matrix echo whose zero imaginary diagonal is written by %.1f slots.
    @example({**matrix_to_json(np.array([[1.5, 0.25 + 0.5j], [0.25 - 0.5j, 2.5]])),
              "ints": np.arange(-3, 3).reshape(2, 3), "bools": np.array([True, False, True]),
              "scalar": np.array(0.375), "int_scalar": np.array(7)})
    def test_dumps_matches_the_standard_indented_encoder(self, payload):
        assert _dumps(payload) == json.dumps(round_floats(payload), sort_keys=True, indent=2)

    def test_array_templates_are_bounded_and_reused(self):
        # The arrays of a second report of the same shapes, and the same zero
        # masks, are served from the cache; none is laid out again.
        assert cli._template.cache_info().maxsize is not None

        def report(seed):
            state = random_density(3, stream(seed)).matrix
            return {"state": matrix_to_json(state), "image": np.arange(5) ^ seed,
                    "weights": np.linspace(0.1, 0.9, 7) * (seed + 1)}

        _dumps(report(1))
        before = cli._template.cache_info()
        _dumps(report(2))
        after = cli._template.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)

    def test_a_report_still_calls_json_dumps(self, capsys, monkeypatch):
        # The benchmark's tracer times json.dumps as the report encoder: a
        # report writes its string values, at least, through it, also once
        # the dict keys are cached.
        assert main(["ergotropy", "--dim", "3"]) == 0
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
        assert main(["ergotropy", "--dim", "3"]) == 0
        capsys.readouterr()
        assert calls

    def test_float_tokens_match_the_rounded_standard_encoding_on_a_sweep(self):
        values = _token_sweep()
        assert _float_tokens(values) == [json.dumps(float(format_float(x))) for x in values]

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(st.lists(st.floats(), max_size=50))
    def test_float_tokens_match_the_rounded_standard_encoding(self, values):
        assert _float_tokens(values) == [json.dumps(float(format_float(x))) for x in values]

    @pytest.mark.parametrize("argv", [
        ("classical", "--dim", "1000", "--trials", "4"),
        ("ergotropy", "--dim", "3", "--seed", "1"),
        ("otm", "--dim", "2", "--trials", "2"),
    ])
    def test_stdout_has_the_standard_indented_layout(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_dense_input_stdout_has_the_standard_indented_layout(self, capsys, tmp_path):
        path = _dense_grid_file(tmp_path)
        code, out, _ = run_cli(capsys, "classical", "--input", str(path), "--trials", "4")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestLazyProbeTotal:
    def test_dense_op_computes_no_perturbed_joint_entropy(self, capsys, tmp_path, monkeypatch):
        # The report prints only the exact first-order extremes; no perturbed
        # joint is formed.  The route's D(J || p_eq) is the only joint relative
        # entropy, and the grid Gibbs weights are computed once.
        path = _dense_grid_file(tmp_path)
        calls = {"_row_major": 0, "grid_gibbs": 0}
        for name in calls:
            original = getattr(classical, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(classical, name, counted)
        code, out, _ = run_cli(capsys, "classical", "--input", str(path), "--trials", "16")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["kernel_deterministic"] is False
        assert calls == {"_row_major": 1, "grid_gibbs": 1}


class TestExactStationarity:
    def test_finds_the_direction_that_random_mixtures_missed(self, capsys):
        # 2 x 16 random mixtures reported a minimum of +1.38e-4 here.
        code, out, _ = run_cli(capsys, "classical", "--dim", "1000", "--trials", "16")
        assert code == 0
        stationarity = json.loads(out)["results"]["stationarity"]
        assert stationarity["experiment_min_first_order"] == pytest.approx(-2.37e-4, abs=5e-7)
        assert stationarity["experiment_max_first_order"] > 0.0
        assert stationarity["experiment_marginal_passive"] is False
        assert set(stationarity) == {
            "epsilon", "experiment_min_first_order", "experiment_max_first_order",
            "experiment_marginal_passive",
        }

    def test_trials_is_echoed_and_changes_no_result(self, capsys):
        reports = []
        for trials in ("1", "16", "64"):
            code, out, _ = run_cli(capsys, "classical", "--dim", "300", "--trials", trials)
            assert code == 0
            reports.append(json.loads(out))
        assert [r["config"]["trials"] for r in reports] == [1, 16, 64]
        assert reports[0]["results"] == reports[1]["results"] == reports[2]["results"]

    def test_sorted_pairing_is_printed_at_every_size(self, capsys):
        for dim, bruteforce in (("8", True), ("9", False)):
            code, out, _ = run_cli(capsys, "classical", "--dim", dim)
            assert code == 0
            results = json.loads(out)["results"]
            assert "sorted_pairing_divergence" in results
            assert ("bruteforce_min_divergence" in results) is bruteforce


class TestGeometricZCommand:
    def test_qubit_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "geometric-z", "--dim", "2", "--beta", "1", "--samples", "200000", "--seed", "1"
        )
        assert code == 0
        payload = json.loads(out)
        closed = float(np.pi * (1.0 - np.exp(-1.0)))
        assert payload["results"]["closed_form"] == pytest.approx(closed, abs=1e-6)
        assert payload["results"]["z_score"] <= 4.0

    def test_higher_dim_reports_estimate(self, capsys):
        code, out, _ = run_cli(
            capsys, "geometric-z", "--dim", "3", "--samples", "50000", "--seed", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["closed_form"] > 0.0
        assert payload["results"]["z_score"] <= 4.0
        assert payload["checks"]["within_four_standard_errors"]["passed"] is True
        assert payload["results"]["standard_error"] > 0.0

    def test_under_sampled_estimate_fails_the_gate(self, capsys):
        # At d = 16, beta = 40 the default 10^5 samples almost never reach the
        # ground-state corner: the estimate is 35 orders below the closed form.
        code, out, err = run_cli(capsys, "geometric-z", "--dim", "16", "--beta", "40")
        assert code == 1
        assert json.loads(out)["passed"] is False
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invariant failed: within_four_standard_errors")

    @pytest.mark.parametrize("ground, beta", [(-1000.0, 0.5), (-1000.0, 1.0), (1000.0, 0.5),
                                              (1000.0, 1.0)])
    def test_spectrum_far_from_zero_energy(self, capsys, tmp_path, ground, beta):
        # The weights are drawn above the ground energy, so none exceeds 1; Z itself must be a
        # normal double: exp(-beta E_0) is e^500 or e^-500 at beta = 0.5, e^1000 or e^-1000 at 1.
        hamiltonian = HermitianOperator(np.diag([ground, ground + 1.0]))
        path = tmp_path / "hamiltonian.json"
        path.write_text(_dumps({"hamiltonian": matrix_to_json(hamiltonian.matrix)}))
        code, out, err = run_cli(capsys, "geometric-z", "--input", str(path), "--beta", str(beta),
                                 "--samples", "1000")
        if beta == 1.0:
            assert (code, out) == (2, "")
            assert re.fullmatch(r"error: Z = exp\(-?[\d.]+\) is not a normal double at beta = 1\n",
                                err)
            with pytest.raises(OutOfScope, match="is not a normal double"):
                geometric.geometric_partition_closed_form(hamiltonian, beta)
            with pytest.raises(OutOfScope, match="is not a normal double"):
                geometric.geometric_partition_function(hamiltonian, beta, 1000, 0)
            return
        assert (code, err) == (0, "")
        results = json.loads(out, parse_constant=pytest.fail)["results"]
        assert results["z_score"] == pytest.approx(0.857, abs=1e-3)
        assert 0.0 < results["standard_error"] < 0.01 * results["estimate"]
        assert results["closed_form"] == pytest.approx(
            np.pi * math.exp(-beta * ground) * -math.expm1(-beta) / beta, rel=1e-11)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        dim=st.integers(2, 64),
        log10_beta=st.floats(-12.0, 3.0),
        samples=st.integers(100, 2000),
    )
    def test_exit_code_contract_over_the_scope(self, dim, log10_beta, samples):
        argv = ["geometric-z", "--dim", str(dim), "--beta", repr(10.0**log10_beta),
                "--samples", str(samples)]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 1.0
        assert code in (0, 1, 2)
        if code:
            assert len(err.getvalue().splitlines()) == 1
            assert "Traceback" not in err.getvalue()
        if code == 0:
            closed = json.loads(out.getvalue())["results"]["closed_form"]
            assert math.isfinite(closed) and closed > 0.0


class TestOtmBlocks:
    def test_rows_equal_the_per_trial_path_across_blocks(self, capsys, monkeypatch):
        _, whole, _ = run_cli(capsys, "otm", "--dim", "3", "--trials", "6", "--seed", "4")
        # Blocks of 4 trials at d = 3: trials 0-3, then 4-5.
        monkeypatch.setattr(cli, "BLOCK_ENTRIES", 4 * 9)
        _, split, _ = run_cli(capsys, "otm", "--dim", "3", "--trials", "6", "--seed", "4")
        assert split == whole
        rows = _rows(COMMANDS["otm"].run(argparse.Namespace(dim=3, trials=6, seed=4, beta=0.5))[2])
        assert len(rows) == 6
        for i, row in enumerate(rows):
            h_a = random_hermitian(3, stream(4, 4 * i))
            h_b = random_hermitian(3, stream(4, 4 * i + 1))
            tau = float(stream(4, 4 * i + 2).uniform(0.0, 1.5))
            protocol = (DrivingProtocol.sudden(h_a, h_b) if tau < 0.15
                        else DrivingProtocol.linear_ramp(h_a, h_b, tau))
            report = sharpened_bound_report(protocol, evolve_unitary(protocol, 32, 1e-6), 0.5)
            fields = {name: value for name, value in vars(report).items() if name != "beta"}
            assert row == {
                "trial": i, "tau": tau, **fields,
                "jensen_gap": 0.5 * report.w_irr - report.bound,
                "conditional_z_identity_dev": abs(report.bound - report.bound_closed_form),
            }

    def test_a_failing_block_reports_its_first_failing_trial(self, capsys, monkeypatch):
        # An error that stops a trial (here the propagator's refinement) stops the block as
        # a whole first on a later trial; run alone, trial 1 is the first that fails.
        def columns(seed, index, dim, beta):
            if len(index) > 1:
                raise NotConverged("the block's error")
            if index[0] >= 1:
                raise NotConverged(f"trial {index[0]}")
            return {}

        monkeypatch.setattr(cli, "_otm_columns", columns)
        code, out, err = run_cli(capsys, "otm", "--trials", "3")
        assert (code, out, err) == (1, "", "invariant failed: trial 1\n")

    def test_route_disagreement_reports_the_worst_trial(self, capsys):
        # At beta = 1e-300 the conditional routes disagree by far more than beta 1e-8: the
        # report is printed, and its decomposition check reads the worst of the trials,
        # each evaluated alone.
        code, out, err = run_cli(capsys, "otm", "--dim", "4", "--trials", "3", "--beta", "1e-300")
        checks = json.loads(out)["checks"]
        alone = [workbench._bound_checks({**cli._otm_columns(0, range(i, i + 1), 4, 1e-300),
                                          "beta": 1e-300})["bound_decomposition"]
                 for i in range(3)]
        assert code == 1 and _named_failures(err) == _failed(checks)
        assert checks["bound_decomposition"] == round_floats(max(alone, key=lambda c: c["value"]))
        assert checks["bound_decomposition"]["passed"] is False


class TestOtmCommand:
    def test_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "otm", "--dim", "2", "--trials", "8", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"]["sudden_quench_equality"]["passed"] is True
        assert payload["checks"]["sudden_quench_value"]["passed"] is True
        assert payload["results"]["min_jensen_gap"] >= -1e-9

    @pytest.mark.parametrize("seed, code, stderr", [
        (10, 0, ""),
        # Item 2's high-temperature route gap (1.1e-8), past the decomposition: terms - bound =
        # beta (total - via_entropies) misses its 1e-8 beta gate.
        (0, 1, "invariant failed: bound_decomposition: value=1.36002327124e-15, "
               "tolerance=1e-15\n"),
    ], ids=["seed-10", "seed-0"])
    def test_near_degenerate_conditional_states_decompose(self, seed, code, stderr):
        # At beta = 1e-7 the conditional states' spectra crowd near 1/16, some pairs within
        # the degeneracy tolerance (one state of each seed's block holds such a cluster); the
        # eigensolver's residual gate used to raise on them.
        proc = run_module("otm", "--dim", "16", "--trials", "4", "--seed", str(seed),
                          "--beta", "1e-7")
        assert (proc.returncode, proc.stderr) == (code, stderr)
        assert json.loads(proc.stdout)["passed"] is (code == 0)

    def test_a_propagator_that_does_not_converge_exits_1_with_one_line(self, capsys,
                                                                      monkeypatch):
        # Seed 0's three d = 8 trials include a ramp that misses the 1e-6 gate at (32, 64)
        # steps; with one doubling allowed, the run stops before printing anything.
        monkeypatch.setattr(workbench, "MAX_DOUBLINGS", 1)
        code, out, err = run_cli(capsys, "otm", "--dim", "8", "--trials", "3", "--seed", "0")
        assert (code, out) == (1, "")
        assert err.startswith("invariant failed: propagator did not converge")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_json_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "otm", "--dim", "2", "--trials", "3", "--seed", "9", "--output", str(out_path)
        )
        assert code == 0
        assert out_path.read_text() == out

    def test_csv_rows_are_the_trials_run_alone(self, capsys, tmp_path):
        # One block of 6 trials; each CSV row is its trial evaluated as a block of one.
        path = tmp_path / "otm.csv"
        code, _, _ = run_cli(capsys, "otm", "--dim", "3", "--trials", "6", "--seed", "2",
                             "--output", str(path))
        assert code == 0
        header, *lines = path.read_text().splitlines()
        columns = header.split(",")
        assert columns == COMMANDS["otm"].csv_columns.split(",")
        assert len(lines) == 6
        for i, line in enumerate(lines):
            alone = _rows(cli._otm_columns(2, range(i, i + 1), 3, 1.0))[0]
            assert line.split(",") == [str(i), *(format_float(alone[k]) for k in columns[1:])]


class TestArgumentValidation:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_subcommand_help_prints_its_csv_columns(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"CSV columns (--output NAME.csv): {COMMANDS[command].csv_columns}" in lines

    @pytest.mark.parametrize("command", ["ergotropy", "classical", "geometric-z"])
    def test_input_help_offers_csv_only_where_it_is_read(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        entry = re.search(r"^  --input INPUT_PATH(.*?)^  --output", capsys.readouterr().out,
                          re.M | re.S).group(1)
        assert "JSON" in entry
        assert ("csv" in entry.lower()) == (command == "classical")

    @pytest.mark.parametrize(
        "argv, line",
        [
            pytest.param(argv, "error: unrecognized arguments: " + " ".join(argv[1:]),
                         id="-".join(argv))
            for argv in [
                ("ergotropy", "--trials", "5"),
                ("ergotropy", "--samples", "5"),
                ("verify-identities", "--samples", "5"),
                ("verify-identities", "--input", "anything.json"),
                ("classical", "--tolerance", "1e-3"),
                ("classical", "--samples", "5"),
                ("geometric-z", "--trials", "5"),
                ("geometric-z", "--tolerance", "1e-3"),
                ("otm", "--tolerance", "1e-3"),
                ("otm", "--samples", "5"),
                ("otm", "--input", "anything.json"),
            ]
        ] + [
            pytest.param(argv, f"error: argument {flag}: not allowed with argument --input",
                         id="-".join(argv))
            for argv, flag in [
                (("ergotropy", "--input", "anything.json", "--dim", "40"), "--dim"),
                # Refused also at its default value.
                (("ergotropy", "--input", "anything.json", "--seed", "0"), "--seed"),
                (("classical", "--dim", "2", "--input", "anything.json"), "--dim"),
                (("geometric-z", "--input", "anything.json", "--dim", "5"), "--dim"),
            ]
        ],
    )
    def test_subcommand_refuses_options_it_leaves_unused(self, capsys, argv, line):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]

    @pytest.mark.parametrize(
        "argv",
        [
            ("ergotropy",),
            ("verify-identities", "--trials", "1"),
            ("classical", "--dim", "4", "--trials", "1"),
            ("geometric-z", "--samples", "1000"),
            ("otm", "--trials", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_config_echoes_the_value_options_in_the_help(self, capsys, argv):
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        flags = set(re.findall(r"^  --(\w+)", capsys.readouterr().out, re.M))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert set(json.loads(out)["config"]) == flags - {"input", "output"}

    def test_input_reports_echo_only_the_options_they_read(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "ergotropy", "--dim", "3")
        state = json.loads(out)["results"]
        _, out, _ = run_cli(capsys, "classical", "--dim", "6", "--trials", "1")
        grid = json.loads(out)["results"]
        cases = [
            ("ergotropy", {"rho": state["state"], "hamiltonian": state["hamiltonian"]}, (),
             {"beta", "tolerance"}),
            ("classical", {"grid": grid["grid"], "kernel": grid["kernel"]}, ("--trials", "1"),
             {"beta", "seed", "trials"}),
            ("geometric-z", {"hamiltonian": state["hamiltonian"]}, ("--samples", "1000"),
             {"beta", "samples", "seed"}),
        ]
        for command, payload, extra, kept in cases:
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(payload))
            code, out, _ = run_cli(capsys, command, "--input", str(path), *extra)
            assert code == 0
            assert set(json.loads(out)["config"]) == kept

    @pytest.mark.parametrize(
        "argv",
        [("classical", "--dim", "4", "--trials", "2"), ("verify-identities", "--trials", "2")],
        ids=lambda argv: argv[0],
    )
    def test_largest_seed_keys_every_derived_stream(self, capsys, argv):
        # Every derived stream is keyed by the seed itself, at the top of its range.
        code, _, err = run_cli(capsys, *argv, "--seed", str(2**64 - 1))
        assert (code, err) == (0, "")

    def test_nonpositive_beta_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["verify-identities", "--beta", "0"])
        assert info.value.code == 2

    @pytest.mark.parametrize("flag", ["--beta", "--tolerance"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_float_exits_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["ergotropy", "--dim", "2", flag, value])
        assert info.value.code == 2
        assert "must be positive and finite" in capsys.readouterr().err

    def test_output_suffix_picks_the_csv_table_or_the_report(self, capsys, tmp_path):
        argv = ["otm", "--dim", "3", "--trials", "4", "--seed", "2"]
        files = {}
        for name in ("table.csv", "report.json", "report"):
            code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / name))
            assert (code, err) == (0, "")
            files[name] = (tmp_path / name).read_bytes()
        assert files["report.json"] == files["report"] == out.encode()
        header, *rows = files["table.csv"].decode().splitlines()
        assert header == COMMANDS["otm"].csv_columns
        assert len(rows) == 4
        with pytest.raises(SystemExit) as info:
            main([*argv, "--format", "csv"])
        assert info.value.code == 2
        assert capsys.readouterr() == ("", "error: unrecognized arguments: --format csv\n")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ergokit", "verify-identities", "--dim", "2",
             "--trials", "3", "--seed", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ergokit", *argv], capture_output=True, text=True
    )


class TestErrorContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ("ergotropy", "--beta", "200", "--dim", "4"),
            ("otm", "--dim", "2", "--beta", "300"),
            ("ergotropy", "--dim", "1"),
            ("geometric-z", "--dim", "1"),
            ("geometric-z", "--dim", "2", "--beta", "800"),
            ("classical", "--dim", "8", "--beta", "2000"),
            ("classical", "--dim", "400", "--beta", "360", "--trials", "16"),
            ("geometric-z", "--samples", "1"),
            ("geometric-z", "--samples", "99"),
            ("ergotropy", "--beta", "nan"),
            ("ergotropy", "--dim", "0"),
            ("verify-identities", "--trials", "0"),
            (),
            ("classical", "--format", "csv"),
            ("ergotropy", "--seed", "-1"),
            ("verify-identities", "--seed", str(2**128)),
            ("classical", "--seed", "-1"),
            ("geometric-z", "--seed", str(2**128)),
            ("otm", "--seed", str(2**64)),
        ],
        ids=[
            "gibbs-underflow", "otm-gibbs-underflow", "ergotropy-dim-1", "geometric-z-dim-1",
            "geometric-z-gibbs-underflow", "classical-gibbs-underflow", "classical-gibbs-subnormal", "geometric-z-1-sample",
            "geometric-z-99-samples", "argparse-beta-nan", "argparse-dim-0", "argparse-trials-0",
            "argparse-no-subcommand", "argparse-format-csv",
            "argparse-ergotropy-seed-negative", "argparse-verify-identities-seed-2**128",
            "argparse-classical-seed-negative", "argparse-geometric-z-seed-2**128",
            "argparse-otm-seed-2**64",
        ],
    )
    def test_out_of_scope_exits_2_with_one_error_line(self, argv):
        proc = run_module(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("--dim", "1"), "error: dim must be >= 2 for the manifold CP^(dim-1), got 1"),
            (("--samples", "1"), "error: n_samples must be >= 100, got 1"),
        ],
        ids=["dim-1", "1-sample"],
    )
    def test_geometric_z_passes_the_library_message_through(self, argv, line):
        proc = run_module("geometric-z", *argv)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [line]

    @pytest.mark.parametrize("command", ["ergotropy", "geometric-z"])
    def test_hamiltonian_near_the_largest_float_exits_2(self, capsys, tmp_path, command):
        # The squares in the eigensolver residual's norm overflow at H = diag(1e300, -1e300).
        path = tmp_path / "big.json"
        path.write_text(json.dumps(_matrix_file(rho=np.eye(2) / 2,
                                                hamiltonian=np.diag([1e300, -1e300]))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--input", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: eigensolver residual overflows at |eigenvalue| "
                                    "1.000e+300"]

    @pytest.mark.parametrize("argv, line", [
        (argv, "beta * energy overflows at beta = 1e+308")
        for argv in ("ergotropy --dim 8", "verify-identities --dim 4 --trials 2")
    ] + [
        (argv, "Gibbs populations underflow to zero at beta = 1e+308; "
               "beta too large for this spectrum") for argv in ("otm", "geometric-z")
    ], ids=["ergotropy --dim 8", "verify-identities --dim 4 --trials 2", "otm", "geometric-z"])
    def test_beta_past_the_largest_float_over_an_energy_exits_2(self, capsys, argv, line):
        # -beta E overflows once |E| > 1.8 at beta = 1e308, and _gibbs_logs refuses it before
        # summing; otm and geometric-z at d = 2 keep finite logits whose populations underflow.
        # Neither warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv.split(), "--beta", "1e308")
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {line}"]

    def test_unwritable_output_exits_2_before_printing(self, capsys, tmp_path):
        path = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, "ergotropy", "--dim", "2", "--output", str(path))
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: cannot write output: ")

    def test_allocation_failure_exits_2_with_one_error_line(self, capsys, monkeypatch):
        def refuse(*args):
            raise MemoryError()

        monkeypatch.setattr(cli, "_random_block", refuse)
        for argv in ("ergotropy --dim 2", "verify-identities --dim 2 --trials 2"):
            assert run_cli(capsys, *argv.split()) == (2, "", "error: out of memory\n")

    def test_report_invariant_exits_1_with_invariant_line(self, capsys, monkeypatch):
        routes = ergotropy._routes

        def broken_routes(block):  # the entropy route one above the direct route
            return {**routes(block), "via_entropies": routes(block)["total"] + 1.0}

        monkeypatch.setattr(ergotropy, "_routes", broken_routes)
        code, out, err = run_cli(capsys, "ergotropy", "--dim", "2")
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert re.fullmatch(r"invariant failed: route_entropies_agrees: value=1, "
                            r"tolerance=[0-9.e-]+\n", err)

    @pytest.mark.parametrize("command", ["ergotropy", "verify-identities"])
    def test_tolerance_cannot_loosen_the_report_gate(self, capsys, command):
        # At beta = 1e-12 the entropy and geometric routes' deviations (2.6e-4, 4.8e-4) pass
        # --tolerance 1e-3, but each route check keeps its 1e-8 (1 + |total|) gate.
        code, out, err = run_cli(
            capsys, command, "--dim", "8", "--beta", "1e-12", "--tolerance", "1e-3",
            *(("--trials", "1") if command == "verify-identities" else ()),
        )
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert err.splitlines() == [{
            "ergotropy": "invariant failed: route_entropies_agrees: value=0.000261888521556, "
                         "tolerance=3.77293287022e-08; "  # 1e-8 (1 + |total|), total = 2.77
                         "invariant failed: route_geometric_agrees: value=0.000483933126481, "
                         "tolerance=3.77293287022e-08",
            "verify-identities": "invariant failed: ergotropy_identity: value=6.94124519479e-05, "
                                 "tolerance=1e-08",
        }[command]]

    def test_tolerance_tightens_both_route_gates_alike(self, capsys):
        # A passing run: --tolerance 1e-3 leaves both route gates at 1e-8 (1 + |total|),
        # total = 0.936.
        code, out, _ = run_cli(capsys, "ergotropy", "--dim", "3", "--seed", "2",
                               "--tolerance", "1e-3")
        checks = json.loads(out)["checks"]
        assert code == 0
        assert [checks[f"route_{name}_agrees"]["tolerance"]
                for name in ("entropies", "geometric")] == [1.93568568732e-08] * 2


def _matrix_file(**matrices) -> dict:
    return {name: {"dim": len(m), "entries": np.asarray(m, dtype=complex).reshape(-1, 1)
                   .view(float).tolist()} for name, m in matrices.items()}


def _float_slots(obj):
    """(container, key) of each float in a payload of dicts and lists."""
    for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        if isinstance(value, float):
            yield obj, key
        elif isinstance(value, (dict, list)):
            yield from _float_slots(value)


@st.composite
def _contract_argv(draw):
    """``_run_argv``, with a quarter of the input files holding one non-finite number, or
    one past the doubles, in place of a float (a grid weight or energy, a kernel or matrix
    entry)."""
    argv, payload = draw(_run_argv())
    if payload is not None and draw(st.integers(0, 3)) == 0:
        slots = list(_float_slots(payload))
        container, key = slots[draw(st.integers(0, len(slots) - 1))]
        container[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))
    return argv, payload


@st.composite
def _run_argv(draw):
    """A run of any subcommand over the documented scope and past its edges: d from 1 to
    64 (otm to 16), beta from 1e-300 to 1e300 and, for ergotropy and verify-identities, a
    tolerance down to 1e-18 in half the runs, or an input file: a rank-deficient state
    with a degenerate H, a grid whose energies share an offset of up to 1e8 (with no, a
    permutation or a mixed kernel), or a Hamiltonian offset by up to 1e3.  Returns the
    argv and the input file's payload (None without --input)."""
    command = draw(st.sampled_from(["ergotropy", "verify-identities", "classical", "otm",
                                    "ergotropy --input", "classical --input",
                                    "geometric-z --input"]))
    beta = repr(10.0 ** draw(st.floats(-300.0, 300.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tolerance = []
    if command.split()[0] in ("ergotropy", "verify-identities") and draw(st.booleans()):
        tolerance = ["--tolerance", repr(10.0 ** draw(st.floats(-18.0, -8.0)))]
    if not command.endswith("--input"):
        dim = draw(st.integers(1, 16 if command == "otm" else 64))
        argv = [command, "--dim", str(dim), "--beta", beta, "--seed", str(draw(st.integers(0, 9))),
                *tolerance]
        if command in ("verify-identities", "otm"):
            argv += ["--trials", str(draw(st.integers(1, 3)))]
        return argv, None
    command = command.split()[0]
    dim = draw(st.integers(1 if command == "ergotropy" else 2, 8))
    if command == "ergotropy":
        rank = draw(st.integers(1, dim))
        rho = random_density(dim, rng, rank=rank).matrix
        levels = rng.integers(0, draw(st.integers(1, dim)), dim) * 10.0 ** draw(st.floats(-3, 3))
        u = haar_unitaries(dim, 1, rng)[0]
        payload = _matrix_file(rho=rho, hamiltonian=(u * levels) @ u.conj().T)
        return [command, "--beta", beta, *tolerance], payload
    offset = draw(st.floats(-1e8, 1e8) if command == "classical" else st.floats(-1e3, 1e3))
    spread = 10.0 ** draw(st.floats(-3, 2))
    if command == "geometric-z":
        energies = offset + np.sort(rng.uniform(0.0, spread, dim))
        beta = repr(10.0 ** draw(st.floats(-3.0, 3.0)))
        samples = str(draw(st.integers(100, 2000)))
        return ([command, "--beta", beta, "--samples", samples],
                _matrix_file(hamiltonian=np.diag(energies)))
    grid = {"energy_a": (offset + rng.uniform(0.0, spread, dim)).tolist(),
            "energy_b": (offset + rng.uniform(0.0, spread, dim)).tolist(),
            "weights": rng.dirichlet(np.ones(dim)).tolist()}
    payload = {"grid": grid}
    kernel = draw(st.sampled_from(["generated", "image", "mixture"]))
    if kernel == "image":
        payload["kernel"] = {"n": dim, "image": rng.permutation(dim).tolist()}
    elif kernel == "mixture":
        matrix = sum(w * np.eye(dim)[rng.permutation(dim)] for w in rng.dirichlet(np.ones(3)))
        payload["kernel"] = {"n": dim, "matrix": matrix.tolist()}
    return [command, "--beta", beta], payload


class TestExitCodeContract:
    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(case=_contract_argv())
    def test_every_subcommand_keeps_the_contract(self, case):
        # Exit 0, 1 or 2; one stderr line on a failure, however many checks fail, and none
        # on success; no traceback (an exception out of main fails the test) and no
        # warning; no NaN or Infinity token.
        argv, payload = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if payload is not None:
                path = f"{tmp}/input.json"
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
                argv = argv + ["--input", path]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        assert len(lines) == (1 if code else 0), lines
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=pytest.fail)
        else:
            assert code


_STARTUP_SCRIPT = """
import contextlib, io, json, os, sys, tempfile
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
from ergokit import cli

with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    report, grid = os.path.join(tmp, "report.json"), os.path.join(tmp, "grid.json")
    runs = [
        ["ergotropy", "--dim", "3"],
        ["verify-identities", "--dim", "3", "--trials", "2"],
        ["classical", "--dim", "6", "--trials", "2", "--output", report],
        ["classical", "--input", grid, "--trials", "2"],
        ["otm", "--dim", "2", "--trials", "1"],
        ["geometric-z", "--dim", "3", "--samples", "1000"],
        ["ergotropy", "--dim", "2", "--output", os.path.join(tmp, "e.csv")],
    ]
    for argv in runs:
        if "--input" in argv:
            with open(report) as src, open(grid, "w") as dst:
                json.dump(json.load(src)["results"], dst)
        assert cli.main(argv) == 0, argv

from ergokit import GeometricState, geometric_relative_entropy
from ergokit.sampling import random_density, stream

points = np.linalg.eigh(random_density(4, stream(5)).matrix)[1].T
weights = np.array([0.1, 0.2, 0.3, 0.4])
order = [2, 0, 3, 1]
state = GeometricState(points, weights)
reordered_state = GeometricState(points[order], weights[order])
assert abs(geometric_relative_entropy(state, reordered_state)) <= 1e-12
assert sys.modules["scipy"] is None
"""


# The sweeps and single-state ops of the small-d benchmark start no helper thread: a stacked
# eigh runs whole, and their largest generator stack, that of otm --dim 4 --trials 2 (2 x 192 x
# 16 = 6 144 entries), is below the propagator's split.  Nor does an identity sweep of 8 192
# entries, two states at d = 64.  The Monte Carlo op, geometric-z --dim 2 --samples 100000, is
# four blocks and splits on two CPUs.
_SERIAL_SWEEP_SCRIPT = """
import contextlib, io, threading
from ergokit import cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify-identities", "--trials", "3"]) == 0
    assert cli.main(["otm", "--trials", "2"]) == 0
    assert cli.main(["ergotropy", "--dim", "8"]) == 0
    assert cli.main(["verify-identities", "--dim", "8", "--trials", "16"]) == 0
    assert cli.main(["otm", "--dim", "4", "--trials", "2"]) == 0
    assert cli.main(["verify-identities", "--dim", "64", "--trials", "2", "--seed", "1"]) == 0
assert threading.active_count() == 1
"""


class TestStartup:
    def test_runs_with_scipy_blocked(self):
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_trial_sweeps_start_no_thread_pool(self):
        proc = subprocess.run(
            [sys.executable, "-c", _SERIAL_SWEEP_SCRIPT], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestLargeDimensions:
    @pytest.mark.parametrize("dim", [48, 64])
    def test_ergotropy_routes_agree(self, capsys, dim):
        code, out, err = run_cli(capsys, "ergotropy", "--dim", str(dim), "--seed", "2")
        assert code == 0, err
        results = json.loads(out)["results"]
        scale = 1.0 + abs(results["total"])
        assert abs(results["total"] - results["via_entropies"]) <= 1e-8 * scale
        assert abs(results["total"] - results["via_geometric"]) <= 1e-8 * scale

    def test_verify_identities_at_dim_40_meets_its_gates(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-identities", "--dim", "40", "--seed", "1", "--trials", "4"
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["checks"]["chain_identity"]["tolerance"] == 1e-9
        assert all(check["passed"] for check in payload["checks"].values())


def _known_failure(argv, measured):
    return pytest.param(argv, id=argv, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"exits 1: {measured}"))


class TestKnownFailures:
    """Configs inside the documented scope that exit 1 today, or print a value that is not
    scale covariant, each with its measured deviation.  A fix turns its case into a
    failure (strict xfail): the fixing change removes the case, and the README line that
    names it, together."""

    @pytest.mark.parametrize("argv", [
        # High temperature (ROADMAP item 2): the routes disagree by more than 1e-8.
        _known_failure("verify-identities --dim 8 --beta 1e-8",
                       "ergotropy_identity 3.332e-08, chain_identity 2.22e-16"),
        _known_failure("otm --dim 4 --beta 1e-7", "bound_decomposition 1.887e-15"),
        _known_failure("otm --dim 16 --trials 4 --seed 0 --beta 1e-7",
                       "bound_decomposition 1.360e-15"),
        _known_failure("classical --dim 50 --beta 1e-8", "inhomogeneity routes 5.686e-08"),
        _known_failure("ergotropy --dim 8 --beta 1e-12", "route gap 2.619e-04"),
        _known_failure("ergotropy --dim 64 --beta 1e-300", "route gap 9.437e+284"),
        _known_failure("classical --dim 50 --beta 1e-300", "inhomogeneity routes 0.220"),
        # The uniform geometric sampler (item 7) misses the low-energy corner: z > 4.
        _known_failure("geometric-z --dim 16 --beta 40", "z = 1.68e+33"),
        _known_failure("geometric-z --dim 8 --beta 10 --seed 1", "z = 4.35"),
        _known_failure("geometric-z --dim 32 --beta 3 --seed 2", "z = 8.88"),
        _known_failure("geometric-z --dim 8 --beta 15 --seed 1", "z = 19.4"),
        _known_failure("geometric-z --dim 64 --beta 3 --seed 0", "z = 79.2"),
        _known_failure("geometric-z --dim 64 --beta 3 --seed 1", "z = 32.8"),
        _known_failure("geometric-z --dim 64 --beta 3 --seed 2", "z = 36.6"),
    ])
    def test_exits_0(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv.split())
        assert code == 0, err

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="exits 1: inhomogeneity routes 6.878e-09")
    def test_kernel_sums_off_by_9e_11_exit_0_at_beta_0_05(self, capsys, tmp_path):
        # Every row and column sums to 1 + 9e-11, inside the 1e-10 acceptance gate, and
        # sum phi = 9e-11 passes phi_sums_to_zero.  The relative-entropy route keeps the
        # term (sum phi) ln Z / beta of the Gibbs normalization, which the inhomogeneity
        # form drops with sum phi = 0: 6.9e-9 here, 1.23e-8 at n = 1000.
        path = _dense_grid_file(tmp_path, n=48)
        payload = json.loads(path.read_text())
        payload["kernel"]["matrix"] = (np.array(payload["kernel"]["matrix"]) * (1 + 9e-11)).tolist()
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "classical", "--input", str(path), "--beta", "0.05")
        assert code == 0, err

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="exits 1: route gap 5.149e-08")
    def test_hamiltonian_offset_by_1e8_exits_0(self, capsys, tmp_path):
        # A spectrum keeps its offset c (ROADMAP item 2): in the entropy route beta tr(rho H)
        # and ln Z each carry beta c, and cancel only to eps |c|.
        rho, h = random_density(8, stream(1, 0)), random_hermitian(8, stream(1, 1))
        path = tmp_path / "offset.json"
        path.write_text(json.dumps(_matrix_file(rho=rho.matrix,
                                                hamiltonian=h.matrix + 1e8 * np.eye(8))))
        code, _, err = run_cli(capsys, "ergotropy", "--input", str(path))
        assert code == 0, err

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="reads 2.69858618566, not 1.09640809884")
    def test_dephased_ergotropy_scales_with_h_at_2_to_the_minus_34(self):
        # DEGENERACY_RTOL (1 + |w|) is an absolute 1e-10 once |w| < 1: every gap of 2^-34 H
        # is below it, so H is one cluster and dephasing keeps every coherence.
        rho, h = random_density(8, stream(1, 0)), random_hermitian(8, stream(1, 1))
        s = 2.0**-34
        plain = ergotropy_report(rho, h, 1.0).dephased_ergotropy
        scaled = ergotropy_report(rho, HermitianOperator(s * h.matrix), 1.0 / s).dephased_ergotropy
        assert scaled / s == pytest.approx(plain, rel=1e-12)


def _scaled(owner, name, factor, part=None):
    """A patch that scales by ``factor`` what ``owner.name`` returns (a function, a method,
    a classmethod or a cached property), or only its item or field ``part``, in each
    element of a returned list."""
    def scale(value):
        if isinstance(value, list):
            return [scale(v) for v in value]
        if part is None:
            return value * factor
        if isinstance(part, int):
            return (*value[:part], value[part] * factor, *value[part + 1:])
        return dataclasses.replace(value, **{part: getattr(value, part) * factor})

    def patch(monkeypatch):
        original = inspect.getattr_static(owner, name)
        if isinstance(original, functools.cached_property):
            scaled = property(lambda self: scale(original.func(self)))
        elif isinstance(original, classmethod):
            scaled = classmethod(lambda cls, *args: scale(original.__func__(cls, *args)))
        else:
            def scaled(*args):
                return scale(original(*args))
        monkeypatch.setattr(owner, name, scaled)
    return patch


def _moved(owner, name, amount):
    """A patch that moves ``amount`` from the largest to the second largest entry of the
    vector that the method ``owner.name`` returns, keeping its total."""
    def patch(monkeypatch):
        original = getattr(owner, name)

        def moved(*args):
            value = original(*args).copy()
            second, first = np.argsort(value)[-2:]
            value[first] -= amount
            value[second] += amount
            return value
        monkeypatch.setattr(owner, name, moved)
    return patch


# One case per printed check: a run at the default --tolerance that prints it false, by a
# patch that perturbs one intermediate of the run.
_FAILING_CHECKS = {
    ("ergotropy", "route_entropies_agrees"):
        ("ergotropy --dim 3", _scaled(ergotropy, "_via_entropies", 1 + 1e-6)),
    ("ergotropy", "route_geometric_agrees"):
        ("ergotropy --dim 3", _scaled(geometric, "_geometric_route", 1 + 1e-6)),
    # tr(rho H) = 0.166 negated moves every route alike, and the total from 0.253 to -0.079.
    ("ergotropy", "ergotropy_nonnegative"): ("ergotropy --dim 3", _scaled(quantum, "_traces", -1.0)),
    ("verify-identities", "ergotropy_identity"):
        ("verify-identities --dim 3 --trials 4", _scaled(cli, "_via_entropies", 1 + 1e-6)),
    ("verify-identities", "chain_identity"):
        ("verify-identities --dim 3 --trials 4", _scaled(_SpectralBlock, "coherence", 1 + 1e-6)),
    ("verify-identities", "optimal_unitary_equality"):
        ("verify-identities --dim 3 --trials 4", _scaled(_SpectralBlock, "of", 1 + 1e-6, "vectors")),
    ("classical", "phi_sums_to_zero"):
        ("classical --dim 6", _scaled(classical.JointDistribution, "final_marginal", 1 + 1e-9)),
    # A fixed-total move between two populated cells: phi . E_B moves, sum phi does not.
    ("classical", "inhomogeneity_route_agrees"):
        ("classical --dim 6", _moved(classical.JointDistribution, "final_marginal", 1e-6)),
    ("classical", "bruteforce_matches_sorted_pairing"):
        ("classical --dim 6", _scaled(classical, "sorted_pairing_divergence", 1 + 1e-9)),
    ("geometric-z", "within_four_standard_errors"):
        ("geometric-z --dim 2", _scaled(geometric, "geometric_partition_closed_form", 1 + 1e-2)),
    ("otm", "conditional_z_identity"): ("otm --dim 2 --trials 2", _scaled(
        workbench, "_conditional_states", 1 + 1e-6, 3)),  # ln Z(B|A)
    # <W> is near -0.46 on both trials: scaled, it drops by 5e-5 and W_irr below zero, while
    # beta W_irr stays inside the 1e-9 slack of the bound that WorkReport asserts.
    ("otm", "irreversible_work_nonnegative"):
        ("otm --dim 2 --trials 2 --beta 1e-5", _scaled(workbench, "_dots", 1 + 1e-4)),
    # ln Z_A, the first of the Gibbs logs, and the oracle, the second half of the quench.
    ("otm", "sudden_quench_equality"):
        ("otm --dim 2 --trials 2", _scaled(workbench, "_gibbs_logs", 1 - 1e-6, 0)),
    ("otm", "sudden_quench_value"):
        ("otm --dim 2 --trials 2", _scaled(cli, "_sudden_quench", 1 + 1e-5, 1)),
    # Trial 1's Jensen gap is 3.1e-7: <W> = -0.457 scaled drops beta W_irr by 4.6e-7.
    ("otm", "maximum_work_bound"): ("otm --dim 2 --trials 2", _scaled(workbench, "_dots", 1 + 1e-6)),
    # The conditional totals move with the passive energies, -0.26 and -0.95, and the three
    # terms with them; the bound does not.
    ("otm", "bound_decomposition"):
        ("otm --dim 2 --trials 2", _scaled(_SpectralBlock, "passive_energy", 1 + 1e-6)),
    # Trial 1's conditional state has tr(rho H_B) = -0.881 and a passive energy of -0.955:
    # scaled by 1.2, the energy puts its total at -0.102.
    ("otm", "conditional_ergotropy_nonnegative"):
        ("otm --dim 2 --trials 2", _scaled(quantum, "_traces", 1.2)),
    # The quench's own WorkReport checks.  ln Z_A = 0.313 raised by 1e-6 drops its beta W_irr
    # 3.1e-7 below the bound that it equals.
    ("otm", "sudden_quench_maximum_work_bound"):
        ("otm --dim 2 --trials 2", _scaled(workbench, "_gibbs_logs", 1 + 1e-6, 0)),
    # Its conditional total moves with its passive energy, 0.173; the bound does not.
    ("otm", "sudden_quench_bound_decomposition"):
        ("otm --dim 2 --trials 2", _scaled(_SpectralBlock, "passive_energy", 1 + 1e-6)),
    # Its conditional state has tr(rho H_B) = 0.269 and a passive energy of 0.173: halved,
    # the energy puts its total at -0.039.
    ("otm", "sudden_quench_conditional_ergotropy_nonnegative"):
        ("otm --dim 2 --trials 2", _scaled(quantum, "_traces", 0.5)),
}


def _named_failures(err: str) -> list[str]:
    """The checks that the one stderr line of a failed run names, sorted."""
    (line,) = err.splitlines()
    parts = line.split("; ")
    assert all(part.startswith("invariant failed: ") for part in parts)
    return sorted(part.split(": ")[1] for part in parts)


def _failed(checks: dict) -> list[str]:
    """The checks that a report marks false, sorted."""
    return sorted(name for name, c in checks.items() if not c["passed"])


@pytest.fixture
def fresh_quench():
    """The cached sudden quench built afresh, so that no patched copy outlives a test."""
    quench = cli._sudden_quench
    quench.cache_clear()
    yield
    quench.cache_clear()


class TestEveryCheckCanFail:
    @pytest.mark.parametrize("command, key", list(_FAILING_CHECKS),
                             ids=[f"{c}-{k}" for c, k in _FAILING_CHECKS])
    def test_prints_passed_false(self, capsys, monkeypatch, fresh_quench, command, key):
        argv, patch = _FAILING_CHECKS[command, key]
        if patch is not None:
            patch(monkeypatch)
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1, err
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["checks"][key]["passed"] is False
        assert _named_failures(err) == _failed(payload["checks"])

    def test_a_nan_fails_the_bound_checks(self, capsys, monkeypatch, fresh_quench):
        # A NaN bound compares false both ways, so each check that reads it fails.
        _scaled(_SpectralBlock, "relative_entropy", math.nan)(monkeypatch)
        code, out, err = run_cli(capsys, "otm", "--dim", "2", "--trials", "2")
        checks = json.loads(out)["checks"]
        assert code == 1 and _named_failures(err) == _failed(checks)
        for key in ("maximum_work_bound", "bound_decomposition", "conditional_z_identity"):
            assert checks[key]["passed"] is False and math.isnan(checks[key]["value"])

    @pytest.mark.parametrize("argv, key, patch", [
        ("verify-identities --dim 3 --trials 4", "ergotropy_identity",
         _scaled(cli, "_via_entropies", np.array([1.0, math.nan, 1.0, 1.0]))),
        ("otm --dim 2 --trials 2", "conditional_z_identity",  # ln Z(B|A) of trial 1
         _scaled(workbench, "_conditional_states", np.array([1.0, math.nan]), 3)),
    ], ids=["verify-identities", "otm"])
    def test_a_nan_in_a_later_trial_fails_its_check(self, capsys, monkeypatch, fresh_quench,
                                                     argv, key, patch):
        # Only trial 1 is NaN: the worst over the trials must carry it, not pass over it.
        cli._sudden_quench()  # built unpatched: the patch is sized for the trials
        patch(monkeypatch)
        code, out, err = run_cli(capsys, *argv.split())
        checks = json.loads(out)["checks"]
        assert code == 1 and _named_failures(err) == _failed(checks)
        assert checks[key]["passed"] is False and math.isnan(checks[key]["value"])

    @pytest.mark.parametrize("dense", [False, True], ids=["permutation", "dense-input"])
    def test_route_check_fails_with_the_marginal_total_kept(self, capsys, monkeypatch,
                                                            tmp_path, dense):
        argv = (["classical", "--input", str(_dense_grid_file(tmp_path))] if dense
                else ["classical", "--dim", "6"])
        _moved(classical.JointDistribution, "final_marginal", 1e-6)(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, err
        checks = json.loads(out)["checks"]
        assert checks["inhomogeneity_route_agrees"]["passed"] is False
        assert checks["phi_sums_to_zero"]["passed"] is True
        assert err.startswith("invariant failed: inhomogeneity_route_agrees: ")

    def test_every_printed_check_has_a_case(self, capsys):
        printed = set()
        for argv in ("ergotropy --dim 3", "verify-identities --dim 3 --trials 2",
                     "classical --dim 6", "geometric-z --dim 2 --samples 1000",
                     "otm --dim 2 --trials 1"):
            code, out, err = run_cli(capsys, *argv.split())
            assert code == 0, err
            printed |= {(argv.split()[0], key) for key in json.loads(out)["checks"]}
        assert printed == set(_FAILING_CHECKS)


# The keys schema 5 removed: each restated an assignment, or a check no accepted input can
# fail.  ergotropy_nonnegative, maximum_work_bound and bound_decomposition were removed
# with them as repeats of build-time gates, and returned as the gates themselves.
_REMOVED_CHECKS = {"coherent_identity", "uniform_stationarity_envelope"}
_REMOVED_RESULTS = {"max_coherent_identity_dev", "max_decomposition_dev",
                    "uniform_max_first_order", "uniform_envelope"}


@pytest.mark.parametrize("argv", [
    "ergotropy --dim 3", "verify-identities --dim 3 --trials 2", "classical --dim 6",
    "geometric-z --dim 2 --samples 1000", "otm --dim 2 --trials 1",
])
def test_schema_5_drops_the_checks_no_input_can_fail(capsys, tmp_path, argv):
    path = tmp_path / "table.csv"
    code, out, err = run_cli(capsys, *argv.split(), "--output", str(path))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == 5
    assert not _REMOVED_CHECKS & set(payload["checks"])
    results = payload["results"]
    assert not _REMOVED_RESULTS & (set(results) | set(results.get("stationarity", {})))
    header = path.read_text().splitlines()[0].split(",")
    assert not {"coherent_identity_dev", "decomposition_dev"} & set(header)
