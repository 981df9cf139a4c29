"""End-to-end checks of the command-line front end."""

import contextlib
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ergokit import classical
from ergokit.cli import CSV_COLUMNS, _dumps, _float_tokens, main
from ergokit.sampling import random_density, random_hermitian, stream
from ergokit.serialize import format_float, kernel_to_json, matrix_to_json, round_floats


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
        assert payload["schema"] == 2
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

    def test_thread_count_does_not_change_output(self, capsys, monkeypatch):
        for args in (
            ("otm", "--dim", "2", "--trials", "6", "--seed", "3"),
            ("verify-identities", "--dim", "8", "--trials", "6", "--seed", "3"),
        ):
            monkeypatch.delenv("ERGOKIT_THREADS", raising=False)
            _, serial, _ = run_cli(capsys, *args)
            monkeypatch.setenv("ERGOKIT_THREADS", "4")
            _, threaded, _ = run_cli(capsys, *args)
            assert serial == threaded


class TestEigensolverCalls:
    @pytest.mark.parametrize(
        "argv, most",
        [
            (("ergotropy", "--dim", "16", "--seed", "0"), 2),
            (("verify-identities", "--dim", "8", "--trials", "1"), 4),
        ],
    )
    def test_one_diagonalization_per_operator(self, capsys, eigensolver_calls, argv, most):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert eigensolver_calls["eigh"] + eigensolver_calls["eigvalsh"] <= most

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
        assert eigensolver_calls == {"eigh": 1, "eigvalsh": 0}


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

    def test_bad_matrix_payload_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rho": {"dim": 2, "entries": [[1, 0]]}}))
        code, _, _ = run_cli(capsys, "ergotropy", "--input", str(path))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "ergotropy", "--input", "/nonexistent/state.json")
        assert code == 2


class TestClassicalCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "classical", "--dim", "7", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"]["inhomogeneity_route_agrees"]["passed"] is True
        assert payload["checks"]["uniform_stationarity_envelope"]["passed"] is True

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
            capsys, "classical", "--dim", "5", "--seed", "1",
            "--output", str(out_path), "--format", "csv",
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "index,energy_a,energy_b,weight,phi"
        assert len(lines) == 6


GRID3 = {"energy_a": [0.0, 1.0, 2.0], "energy_b": [0.5, 1.0, 1.5], "weights": [0.2, 0.3, 0.5]}


class TestClassicalInput:
    @pytest.mark.parametrize("payload", [
        {"grid": GRID3, "kernel": {"n": 2, "image": [1, 0]}},
        {"grid": GRID3, "kernel": {"n": 2, "matrix": [[0.5, 0.5], [0.5, 0.5]]}},
        {"grid": dict(GRID3, weights=[0.5, 0.5])},
        {"grid": GRID3, "kernel": {"n": 3, "image": [0, 0, 1]}},
        {"grid": GRID3, "kernel": {"n": 3, "image": [0, 1, 3]}},
        {"grid": GRID3, "kernel": {"n": 4, "image": [2, 0, 1]}},
    ], ids=["image-size", "matrix-size", "weights-size", "repeated-image", "image-range",
            "declared-n"])
    def test_inconsistent_input_exits_2(self, capsys, tmp_path, payload):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "classical", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_dense_kernel_input(self, capsys, tmp_path):
        mixture = [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": GRID3, "kernel": {"n": 3, "matrix": mixture}}))
        code, out, _ = run_cli(capsys, "classical", "--input", str(path), "--trials", "8")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["kernel_deterministic"] is False
        assert results["kernel"] == {"n": 3, "matrix": mixture}

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
    def test_dumps_matches_the_standard_indented_encoder(self, payload):
        assert _dumps(payload) == json.dumps(round_floats(payload), sort_keys=True, indent=2)

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
        # The report prints only first-order changes; the two probes' 2 x 16
        # perturbed joints are never formed.  The route and the two baselines
        # are the only joint relative entropies.
        path = _dense_grid_file(tmp_path)
        calls = []
        original = classical._row_major

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(classical, "_row_major", counted)
        code, out, _ = run_cli(capsys, "classical", "--input", str(path), "--trials", "16")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["kernel_deterministic"] is False
        assert results["stationarity"]["n_perturbations"] == 16
        assert len(calls) == 3


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


class TestOtmCommand:
    def test_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "otm", "--dim", "2", "--trials", "8", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"]["sudden_quench_equality"]["passed"] is True
        assert payload["checks"]["sudden_quench_value"]["passed"] is True
        assert payload["results"]["min_jensen_gap"] >= -1e-9

    def test_json_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "otm", "--dim", "2", "--trials", "3", "--seed", "9", "--output", str(out_path)
        )
        assert code == 0
        assert out_path.read_text() == out


class TestArgumentValidation:
    @pytest.mark.parametrize("command", sorted(CSV_COLUMNS))
    def test_subcommand_help_prints_its_csv_columns(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"CSV columns (--format csv): {CSV_COLUMNS[command]}" in lines

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

    def test_csv_without_output_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["classical", "--format", "csv"])
        assert info.value.code == 2

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
        ],
        ids=[
            "gibbs-underflow", "otm-gibbs-underflow", "ergotropy-dim-1", "geometric-z-dim-1",
            "geometric-z-gibbs-underflow", "classical-gibbs-underflow", "classical-gibbs-subnormal", "geometric-z-1-sample",
            "geometric-z-99-samples", "argparse-beta-nan", "argparse-dim-0", "argparse-trials-0",
            "argparse-no-subcommand", "argparse-csv-without-output",
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

    @pytest.mark.parametrize("threads", ["abc", "0", "-3"])
    def test_malformed_thread_count_exits_2(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("ERGOKIT_THREADS", threads)
        code, out, err = run_cli(capsys, "verify-identities", "--dim", "2", "--trials", "3")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: ERGOKIT_THREADS must be a positive integer, got {threads!r}"
        ]

    def test_report_invariant_exits_1_with_invariant_line(self, capsys, monkeypatch):
        from ergokit import ErgotropyReport, cli

        def broken_report(rho, hamiltonian, beta):
            return ErgotropyReport(
                total=1.0, via_entropies=2.0, coherent_eq11=1.0, incoherent=0.0,
                dephased_ergotropy=0.0, beta_used=beta, passive_energy=0.0,
            )

        monkeypatch.setattr(cli, "ergotropy_report", broken_report)
        code, out, err = run_cli(capsys, "ergotropy", "--dim", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("invariant failed: route disagreement")


_STARTUP_SCRIPT = """
import contextlib, io, json, os, sys, tempfile
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
        ["ergotropy", "--dim", "2", "--format", "csv", "--output", os.path.join(tmp, "e.csv")],
    ]
    for argv in runs:
        if "--input" in argv:
            with open(report) as src, open(grid, "w") as dst:
                json.dump(json.load(src)["results"], dst)
        assert cli.main(argv) == 0, argv
assert "scipy" not in sys.modules

from ergokit import GeometricPoint, GeometricState, geometric_relative_entropy
from ergokit.sampling import random_density, stream

vectors = np.linalg.eigh(random_density(4, stream(5)).matrix)[1]
points = [GeometricPoint(vectors[:, i]) for i in range(4)]
weights = np.array([0.1, 0.2, 0.3, 0.4])
order = [2, 0, 3, 1]
state = GeometricState(tuple(points), weights)
reordered_state = GeometricState(tuple(points[i] for i in order), weights[order])
assert abs(geometric_relative_entropy(state, reordered_state)) <= 1e-12
assert "scipy.optimize" in sys.modules
"""


class TestStartup:
    def test_cli_runs_without_scipy_until_points_are_matched(self):
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT], capture_output=True, text=True
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
        assert payload["checks"]["coherent_identity"]["tolerance"] == 1e-8
        assert all(check["passed"] for check in payload["checks"].values())
