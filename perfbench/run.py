"""ergokit benchmark client.

    python3 perfbench/run.py --workload small-d --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Runs one workload (or ``all``) against the ergokit sources in ``src/``: writes
the inputs from the workload seed, times worker set-up, runs the ops in a
closed loop with one client in one fresh worker process, checks every output,
and prints each metric by name and unit.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A results file with the environment, the per-op failures and
the metric details goes to ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS and the ergokit trial pool run single-threaded so that the worker never
# wants more threads than the machine has CPUs.  Workers inherit these.
PINS = {"ERGOKIT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
RESULTS = HERE / "results"
SETUP_PROBES = 3  # set-up-only workers, on top of the measuring worker's own set-up
WORKER_LIMIT_S = 170.0
# Reported times are scaled to a host on which worker.probe() takes this long,
# its median on a shared 2-CPU x86-64 virtual machine:
# time * PROBE_NOMINAL_S / probe time.
PROBE_NOMINAL_S = 0.35e-3

END_TO_END = {
    "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms", "peak_rss_mb": "MB",
    "setup_s": "s", "completed_share": "ratio",
}
PER_LAYER = {
    "quantum.self_s": "s", "quantum.eigendecompose.calls": "count",
    "quantum.eigendecompose.self_s": "s", "quantum.gibbs_state.calls": "count",
    "quantum.relative_entropy.calls": "count",
    "linalg.eigh.calls": "count", "linalg.eigvalsh.calls": "count", "linalg.self_s": "s",
    "linalg.eigh.calls_per_ergotropy_op": "count",
    "linalg.eigvalsh.calls_per_ergotropy_op": "count",
    "ergotropy.self_s": "s", "ergotropy.ergotropy_report.s": "s",
    "ergotropy.eigensolver_calls_per_report": "count", "ergotropy.unitary_min_probe.s": "s",
    "ergotropy.haar_samples_per_s": "1/s", "ergotropy.route_dev_max": "ratio",
    "geometric.self_s": "s", "geometric.ergotropy_geometric.s": "s",
    "geometric.partition_function.s": "s", "geometric.mc_samples_per_s": "1/s",
    "geometric.z_score_max": "sigma",
    "classical.self_s": "s", "classical.stationarity_probe.s": "s",
    "classical.kernel_bytes": "B_computed",
    "workbench.self_s": "s", "workbench.evolve_unitary.s": "s",
    "workbench.refine_steps_ratio": "ratio", "workbench.sharpened_bound_report.s": "s",
    "workbench.gibbs_calls_per_report": "count",
    "sampling.self_s": "s",
    "serialize.self_s": "s", "serialize.read_s": "s", "serialize.bytes_out": "B",
    "cli.self_s": "s", "cli.json_dumps_s": "s",
    "trace.overhead_share": "ratio",
}
READ_PATH = {"serialize.json_load", "serialize.grid_from_json", "serialize.kernel_from_json",
             "serialize.grid_from_csv", "serialize.density_from_json",
             "serialize.hermitian_from_json"}


class BenchError(Exception):
    """The benchmark cannot produce a result (exit 1, no result line)."""


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ergokit").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "pins": PINS,
    }


def spawn(spec: dict) -> tuple[float, dict | None]:
    """Start a worker; return (its set-up time, scaled by the probe it reports
    at READY, and its final JSON, or None in set-up mode)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(spec))
        proc.stdin.close()
        ready = proc.stdout.readline().split()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if len(ready) != 2 or ready[0] != "READY" or code != 0:
        raise BenchError(f"worker failed (exit {code}) in {spec['mode']} mode")
    scaled = setup_s * PROBE_NOMINAL_S / float(ready[1])
    return scaled, (json.loads(rest.splitlines()[-1]) if spec["mode"] != "setup" else None)


def scaled_latency(record: dict) -> float:
    """The op's wall latency scaled to the nominal probe speed."""
    return record["latency"] * PROBE_NOMINAL_S / record["probe"]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten completed ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Verdicts:
    """Per-op failure reasons: exit status, oracles, and digest agreement."""

    def __init__(self, ops: list[list[str]], out_dir: Path, store_path: Path):
        self.ops = ops
        self.out_dir = out_dir
        self.store_path = store_path
        self.store = json.loads(store_path.read_text()) if store_path.exists() else {}
        self.first_digest: dict[int, str] = {}
        self.oracle_problems: dict[int, list[str]] = {}
        self.figures: dict[int, dict] = {}
        self.failures: dict[tuple, dict] = {}
        self.wrong_output = False

    def oracle(self, index: int) -> list[str]:
        if index not in self.oracle_problems:
            path = self.out_dir / f"op{index}.json"
            try:
                problems, figures = oracles.check(json.loads(path.read_text()))
            except Exception as exc:  # an unreadable report is a wrong output, not a crash
                problems, figures = [f"oracle failed: {type(exc).__name__}: {exc}"], {}
            path.unlink(missing_ok=True)
            self.oracle_problems[index], self.figures[index] = problems, figures
        return self.oracle_problems[index]

    def judge(self, rec: dict) -> bool:
        """True when the op completed; otherwise records why it failed."""
        index = rec["op"]
        refused = []
        if rec["exception"]:
            refused.append(f"raised {rec['exception']}")
        elif rec["code"] != 0:
            refused.append(f"exit {rec['code']}")
        elif rec["bytes"] == 0:
            refused.append("no output")
        wrong = []
        key = " ".join(self.ops[index])
        expected = self.first_digest.setdefault(index, self.store.get(key, rec["sha256"]))
        if rec["sha256"] != expected:
            wrong.append("stdout digest differs from an earlier run of this op")
        if not refused and not wrong:
            wrong = self.oracle(index)
        if not refused and not wrong:
            self.store[key] = rec["sha256"]
            return True
        self.wrong_output |= bool(wrong)
        reasons = refused + wrong
        entry = self.failures.setdefault((index, tuple(reasons)), {
            "op": index, "argv": self.ops[index], "exit_code": rec["code"],
            "exception": rec["exception"], "stderr": rec["stderr"], "reasons": reasons,
            "count": 0,
        })
        entry["count"] += 1
        return False

    def save(self) -> None:
        self.store_path.write_text(json.dumps(self.store, sort_keys=True))


def op_kind(argv: list[str]) -> str:
    """The argv without its seed, and with the input file's stem: ops of one kind cost alike."""
    pairs = zip(argv[1::2], argv[2::2])
    return " ".join([argv[0]] + [f"{flag} {Path(value).stem if flag == '--input' else value}"
                                 for flag, value in pairs if flag != "--seed"])


def by_kind(ops, records, ok) -> dict:
    kinds = {}
    for r, good in zip(records, ok):
        if good:
            kinds.setdefault(op_kind(ops[r["op"]]), []).append(1e3 * scaled_latency(r))
    return {k: {"n": len(v), "median_ms": statistics.median(v), "max_ms": max(v),
                "total_s": sum(v) / 1e3} for k, v in sorted(kinds.items())}


def end_to_end(records: list[dict], ok: list[bool], setups: list[float], peak_kib: int) -> dict:
    done = [scaled_latency(r) for r, good in zip(records, ok) if good]
    if not done:
        raise BenchError("no op completed")
    busy = sum(scaled_latency(r) for r in records)
    tail_value, tail_pct = tail(done)
    raw = [r["latency"] for r, good in zip(records, ok) if good]
    return {
        "ops_per_s": len(done) / busy,
        "op_ms_p50": 1e3 * statistics.median(done),
        "op_ms_tail": 1e3 * tail_value,
        "peak_rss_mb": peak_kib / 1024.0,
        "setup_s": statistics.median(setups),
        "completed_share": len(done) / len(records),
    }, {"op_ms_tail_percentile": tail_pct, "op_ms_tail_samples": len(done),
        "busy_s": busy, "setup_samples_s": setups,
        "unscaled": {"ops_per_s": len(raw) / sum(r["latency"] for r in records),
                     "op_ms_p50": 1e3 * statistics.median(raw),
                     "op_ms_tail": 1e3 * tail(raw)[0]},
        "probe_ms": {"median": 1e3 * statistics.median(r["probe"] for r in records),
                     "min": 1e3 * min(r["probe"] for r in records),
                     "max": 1e3 * max(r["probe"] for r in records)}}


def per_layer(ops, spans, traced, traced_ok, again, again_ok, figures) -> dict:
    scale = {r["op"]: PROBE_NOMINAL_S / r["probe"] for r in traced}
    for span in spans:  # span times scale like their op's latency
        span[1] *= scale[span[4]]
        span[2] *= scale[span[4]]
    selfs = tracer.self_times(spans)
    layer_self = dict.fromkeys(tracer.LAYERS + ("linalg",), 0.0)
    calls, inclusive, own = {}, {}, {}
    for span, self_s in zip(spans, selfs):
        name = span[0]
        layer_self[tracer.layer_of(name)] += self_s
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + span[2] - span[1]
        own[name] = own.get(name, 0.0) + self_s

    def under(name: str, ancestor: str) -> int:
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == name and tracer.nearest_ancestor(spans, i, ancestor) >= 0)

    def notes(name: str) -> list:
        return [s[5] for s in spans if s[0] == name]

    eigensolver = ("linalg.eigh", "linalg.eigvalsh")
    reports = calls.get("ergotropy.ergotropy_report", 0)
    bound_reports = calls.get("workbench.sharpened_bound_report", 0)
    ergo_ops = {r["op"] for r, good in zip(traced, traced_ok)
                if good and ops[r["op"]][0] == "ergotropy"}
    per_ergo_op = {k: sum(1 for s in spans if s[0] == k and s[4] in ergo_ops) for k in eigensolver}
    final_steps = {}  # evolve_unitary span -> n_steps of its last step_product
    for i, s in enumerate(spans):
        if s[0] == "workbench.step_product":
            owner = tracer.nearest_ancestor(spans, i, "workbench.evolve_unitary")
            if owner >= 0:
                final_steps[owner] = s[5]
    kernel_by_op = {}
    for s in spans:
        if s[0] == "classical.joint_from_kernel":
            kernel_by_op[s[4]] = max(kernel_by_op.get(s[4], 0), s[5])
    untraced = {r["op"]: scaled_latency(r) for r, good in zip(again, again_ok) if good}
    paired = [(untraced[r["op"]], scaled_latency(r))
              for r, good in zip(traced, traced_ok) if good and r["op"] in untraced]
    route = [f["route_dev"] for f in figures.values() if "route_dev" in f]
    z_scores = [f["z_score"] for f in figures.values() if "z_score" in f]
    probe_s = inclusive.get("ergotropy.unitary_min_probe", 0.0)
    mc_s = inclusive.get("geometric.geometric_partition_function", 0.0)
    return {
        "quantum.self_s": layer_self["quantum"],
        "quantum.eigendecompose.calls": calls.get("quantum.eigendecompose", 0),
        "quantum.eigendecompose.self_s": own.get("quantum.eigendecompose", 0.0),
        "quantum.gibbs_state.calls": calls.get("quantum.gibbs_state", 0),
        "quantum.relative_entropy.calls": calls.get("quantum.quantum_relative_entropy", 0)
        + calls.get("quantum.spectral_relative_entropy", 0),
        "linalg.eigh.calls": calls.get("linalg.eigh", 0),
        "linalg.eigvalsh.calls": calls.get("linalg.eigvalsh", 0),
        "linalg.self_s": layer_self["linalg"],
        "linalg.eigh.calls_per_ergotropy_op": per_ergo_op["linalg.eigh"] / max(1, len(ergo_ops)),
        "linalg.eigvalsh.calls_per_ergotropy_op":
            per_ergo_op["linalg.eigvalsh"] / max(1, len(ergo_ops)),
        "ergotropy.self_s": layer_self["ergotropy"],
        "ergotropy.ergotropy_report.s": inclusive.get("ergotropy.ergotropy_report", 0.0),
        "ergotropy.eigensolver_calls_per_report":
            sum(under(k, "ergotropy.ergotropy_report") for k in eigensolver) / max(1, reports),
        "ergotropy.unitary_min_probe.s": probe_s,
        "ergotropy.haar_samples_per_s":
            sum(notes("ergotropy.unitary_min_probe")) / probe_s if probe_s else 0.0,
        "ergotropy.route_dev_max": max(route, default=0.0),
        "geometric.self_s": layer_self["geometric"],
        "geometric.ergotropy_geometric.s": inclusive.get("geometric.ergotropy_geometric", 0.0),
        "geometric.partition_function.s": mc_s,
        "geometric.mc_samples_per_s":
            sum(notes("geometric.geometric_partition_function")) / mc_s if mc_s else 0.0,
        "geometric.z_score_max": max(z_scores, default=0.0),
        "classical.self_s": layer_self["classical"],
        "classical.stationarity_probe.s": inclusive.get("classical.stationarity_probe", 0.0),
        "classical.kernel_bytes": statistics.mean(kernel_by_op.values()) if kernel_by_op else 0,
        "workbench.self_s": layer_self["workbench"],
        "workbench.evolve_unitary.s": inclusive.get("workbench.evolve_unitary", 0.0),
        "workbench.refine_steps_ratio":
            sum(notes("workbench.step_product")) / sum(final_steps.values())
            if final_steps else 0.0,
        "workbench.sharpened_bound_report.s":
            inclusive.get("workbench.sharpened_bound_report", 0.0),
        "workbench.gibbs_calls_per_report":
            under("quantum.gibbs_state", "workbench.sharpened_bound_report")
            / max(1, bound_reports),
        "sampling.self_s": layer_self["sampling"],
        "serialize.self_s": layer_self["serialize"],
        "serialize.read_s": sum(inclusive.get(k, 0.0) for k in READ_PATH),
        "serialize.bytes_out": statistics.mean(r["bytes"] for r in traced),
        "cli.self_s": layer_self["cli"],
        "cli.json_dumps_s": inclusive.get("cli.json_dumps", 0.0),
        "trace.overhead_share":
            1.0 - sum(u for u, _ in paired) / sum(t for _, t in paired) if paired else 0.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    reps = workloads.repetitions(name, seconds)
    ops, warmup = workloads.build(name, seed, reps, WORK)
    out_dir = WORK / f"run-{name}-{seed}-{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    spec = {"src": str(ROOT / "src"), "warmup": warmup, "ops": ops, "out_dir": str(out_dir),
            "traced_ops": workloads.template_length(name), "mode": "trace" if trace else "run"}
    setups = []
    if not trace:
        setups = [spawn({**spec, "mode": "setup"})[0] for _ in range(SETUP_PROBES)]
    setup_s, result = spawn(spec)
    setups.append(setup_s)

    verdicts = Verdicts(ops, out_dir, WORK / f"digests-{source_hash()[:16]}.json")
    records = result["records"]
    ok = [verdicts.judge(r) for r in records]
    metrics, details = end_to_end(records, ok, setups, result["peak_rss_kib"])
    details["by_op_kind"] = by_kind(ops, records, ok)
    again_ok = [verdicts.judge(r) for r in result["again"]]
    traced_ok = [verdicts.judge(r) for r in result["traced"]]
    if trace:
        spans_file = (out_dir / "spans.json").replace(RESULTS / f"{name}-seed{seed}-spans.json")
        spans = json.loads(spans_file.read_text())
        metrics = per_layer(ops, spans, result["traced"], traced_ok, result["again"], again_ok,
                            verdicts.figures)
        details["spans"] = len(spans)
    verdicts.save()
    shutil.rmtree(out_dir, ignore_errors=True)
    attempted = len(records) + len(result["again"]) + len(result["traced"])
    failed = ok.count(False) + again_ok.count(False) + traced_ok.count(False)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "repetitions": reps, "trace": trace,
        "correct": not verdicts.wrong_output, "attempted": attempted, "failed": failed,
        "fail_share": failed / attempted, "metrics": metrics, "details": details,
        "failures": sorted(verdicts.failures.values(), key=lambda f: f["op"]),
        "environment": environment(),
    }


def report(result: dict) -> None:
    units = PER_LAYER if result["trace"] else END_TO_END
    print(f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"fail_share={result['fail_share']:.4f} correct={result['correct']}")
    for key, value in result["metrics"].items():
        print(f"{result['workload']}  {key:42s} {value:.6g} {units[key]}")
    if not result["trace"]:
        d = result["details"]
        print(f"{result['workload']}  op_ms_tail is p{d['op_ms_tail_percentile']:.1f} "
              f"of {d['op_ms_tail_samples']} completed ops")
    for f in result["failures"]:
        print(f"{result['workload']}  FAILED x{f['count']}: {' '.join(f['argv'])}: "
              f"{'; '.join(f['reasons'])}: {f['stderr']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ergokit benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ergokit" / "cli.py").is_file():
        print(f"error: no ergokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(result, indent=1, sort_keys=True))
            report(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": units[k]}
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
