"""Benchmark worker: one fresh process per workload run.

Reads a JSON spec on stdin, imports ergokit, runs the warm-up op and prints
``READY <probe seconds>``, then (unless ``mode`` is ``setup``) runs the ops through
``ergokit.cli.main`` in-process with stdout and stderr captured, one after
the other (a closed loop with one client).  In ``trace`` mode it then runs the
first ``traced_ops`` ops twice more: untraced, then with the tracer installed.
The last line of its stdout is one JSON object with the per-op records.

Run it through ``run.py``, which sets the thread pins in its environment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

_EIGH = np.linalg.eigh  # the tracer wraps np.linalg.eigh; the probe must not see it
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((32, 32))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.T


def probe() -> float:
    """Seconds for a fixed piece of LAPACK and interpreter work (median of three).

    The host's single-thread speed drifts by up to 2x within a minute; the
    client divides each latency by the probe time around it.
    """
    times = []
    for _ in range(3):
        start = perf_counter()
        _EIGH(_PROBE_MATRIX)
        _EIGH(_PROBE_MATRIX)
        sum(i * i for i in range(3000))
        times.append(perf_counter() - start)
    return sorted(times)[1]


def run_op(main, argv: list[str]) -> dict:
    """Call ``main(argv)`` with captured output; never raises on op failure."""
    out, err = io.StringIO(), io.StringIO()
    exc_type = exc_text = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an op that raises is recorded and the run goes on
        code = None
        exc_type, exc_text = type(exc).__name__, str(exc)
    latency = perf_counter() - start
    text = out.getvalue()
    stderr_lines = err.getvalue().splitlines() or (exc_text or "").splitlines()
    return {
        "latency": latency,
        "code": code,
        "exception": exc_type,
        "stderr": stderr_lines[0] if stderr_lines else "",
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "bytes": len(text.encode()),
        "text": text,
    }


def _record(index: int, result: dict, before: float, after: float) -> dict:
    """The op's result without its text, with the mean probe time around it."""
    return {"op": index, "probe": (before + after) / 2,
            **{k: v for k, v in result.items() if k != "text"}}


def timed_pass(main, ops: list[list[str]], out_dir: Path | None = None) -> list[dict]:
    """Run every op once, back to back, with a probe before each op and after
    the last.  Outputs are saved to ``out_dir`` for the oracles between ops,
    outside any latency."""
    records = []
    before = probe()
    for index, argv in enumerate(ops):
        result = run_op(main, argv)
        if out_dir is not None and result["text"]:
            (out_dir / f"op{index}.json").write_text(result["text"])
        after = probe()
        records.append(_record(index, result, before, after))
        before = after
    return records


def traced_pass(cli, ops: list[list[str]], out_dir: Path) -> list[dict]:
    """Run ``ops`` again with the tracer installed and write the spans out."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        records = timed_pass(cli.main, ops)
    finally:
        tracer.uninstall()
    (out_dir / "spans.json").write_text(json.dumps(tracer.spans))
    return records


def main() -> int:
    spec = json.loads(sys.stdin.read())
    protocol = sys.stdout
    sys.path.insert(0, spec["src"])
    from ergokit import cli

    warm = run_op(cli.main, spec["warmup"])
    if warm["code"] != 0:
        print(f"warm-up op failed: {warm['exception'] or warm['code']}: {warm['stderr']}",
              file=sys.stderr)
        return 3
    print(f"READY {probe()}", file=protocol, flush=True)
    if spec["mode"] == "setup":
        return 0
    out_dir = Path(spec["out_dir"])
    records = timed_pass(cli.main, spec["ops"], out_dir)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    again, traced = [], []
    if spec["mode"] == "trace":
        # The traced pass is compared with a warm untraced pass of the same ops,
        # not with the first pass, whose early ops run cold.
        again = timed_pass(cli.main, spec["ops"][:spec["traced_ops"]])
        traced = traced_pass(cli, spec["ops"][:spec["traced_ops"]], out_dir)
    print(json.dumps({"records": records, "again": again, "traced": traced,
                      "peak_rss_kib": peak_kib}), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
