"""End-to-end checks of the command-line front end."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ergokit.cli import CSV_COLUMNS, main
from ergokit.sampling import random_density, random_hermitian, stream
from ergokit.serialize import matrix_to_json, round_floats


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
        assert "closed_form" not in payload["results"]
        assert payload["results"]["standard_error"] > 0.0


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
            ("classical", "--dim", "8", "--beta", "2000"),
            ("classical", "--dim", "400", "--beta", "360", "--trials", "16"),
        ],
        ids=[
            "gibbs-underflow", "otm-gibbs-underflow", "ergotropy-dim-1", "geometric-z-dim-1",
            "classical-gibbs-underflow", "classical-gibbs-subnormal",
        ],
    )
    def test_out_of_scope_exits_2_with_one_error_line(self, argv):
        proc = run_module(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert proc.stdout == ""

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
