"""Self-tests of the benchmark itself (not of ergokit).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default pytest collection.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from ergokit import cli, geometric  # noqa: E402
from ergokit.quantum import HermitianOperator  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_op_list_is_deterministic_per_seed(name, tmp_path):
    first = workloads.build(name, 5, 2, tmp_path / "a")
    again = workloads.build(name, 5, 2, tmp_path / "b")
    other = workloads.build(name, 6, 2, tmp_path / "c")

    def contents(ops):
        # grid-dense ops name files under different work dirs; compare what they hold.
        return [[Path(a).read_text() if a.endswith(".json") else a for a in op] for op in ops]

    assert contents(first[0]) == contents(again[0])
    assert contents([first[1]]) == contents([again[1]])
    assert contents(first[0]) != contents(other[0])


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.MEASURED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _namespaces():
    modules = [sys.modules[f"ergokit.{layer}"] for layer in tracer.LAYERS]
    return [vars(m) for m in modules] + [vars(np.linalg), vars(json)]


def test_tracer_restores_functions_and_keeps_stdout_bytes():
    argv = ["ergotropy", "--dim", "3", "--seed", "4"]
    before = [dict(ns) for ns in _namespaces()]
    plain = worker.run_op(cli.main, argv)
    t = tracer.Tracer()
    t.install()
    try:
        assert isinstance(cli.geo, types.ModuleType) and cli.geo is not geometric
        traced = worker.run_op(cli.main, argv)
    finally:
        t.uninstall()
    after = _namespaces()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)
    assert plain["code"] == traced["code"] == 0
    assert plain["text"] and traced["text"] == plain["text"]
    names = {s[0] for s in t.spans}
    assert {"cli.main", "ergotropy.ergotropy_report", "linalg.eigh", "cli.json_dumps"} <= names
    assert all(s[2] >= s[1] for s in t.spans)


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.5])
def test_closed_form_oracle_equals_qubit_closed_form(beta):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    ham = HermitianOperator((a + a.conj().T) / 2)
    energies = np.linalg.eigvalsh(ham.matrix)
    expected = geometric.qubit_partition_closed_form(ham, beta)
    assert oracles.geometric_z_closed_form(energies, beta) == pytest.approx(expected, rel=1e-12)


def test_oracles_reject_a_wrong_number():
    result = worker.run_op(cli.main, ["ergotropy", "--dim", "4", "--seed", "2"])
    report = json.loads(result["text"])
    assert oracles.check(report)[0] == []
    report["results"]["total"] += 1e-6
    assert oracles.check(report)[0]


def test_oracle_accepts_an_image_form_permutation_kernel():
    result = worker.run_op(cli.main, ["classical", "--dim", "12", "--trials", "4", "--seed", "3"])
    report = json.loads(result["text"])
    dense = np.asarray(report["results"]["kernel"]["matrix"])
    report["results"]["kernel"] = {"n": 12, "image": dense.argmax(axis=0).tolist()}
    assert oracles.check(report)[0] == []
    report["results"]["kernel"]["image"] = np.roll(dense.argmax(axis=0), 1).tolist()
    assert oracles.check(report)[0]


@pytest.mark.parametrize("text", [
    "not json",
    json.dumps({"passed": True, "command": "classical", "config": {"beta": 1.0},
                "results": {"grid": {}}}),
])
def test_malformed_report_counts_as_wrong_output(text, tmp_path):
    verdicts = run.Verdicts([["classical", "--dim", "8"]], tmp_path, tmp_path / "digests.json")
    (tmp_path / "op0.json").write_text(text)
    rec = {"op": 0, "exception": None, "code": 0, "bytes": len(text), "sha256": "0",
           "stderr": ""}
    assert verdicts.judge(rec) is False
    assert verdicts.wrong_output
    [failure] = verdicts.failures.values()
    assert failure["reasons"][0].startswith("oracle failed:")
    assert not (tmp_path / "op0.json").exists()


def test_count_metrics_repeat_between_traced_runs():
    counts = []
    for _ in range(2):
        result = run.run_workload("small-d", 9, 0.2, trace=True)
        assert result["failed"] == 0 and result["correct"]
        counts.append({k: v for k, v in result["metrics"].items()
                       if run.PER_LAYER[k] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eigh.calls"] > 0
