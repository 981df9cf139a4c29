"""Workload op lists, generated from the workload seed.

Each workload is a template of CLI invocations (subcommand, size, trial and
sample counts).  A run measures a fixed number of repetitions of it, sized
from ``--seconds`` with the per-repetition budget below, so every run of a
workload, on either commit of a comparison, has the same mix of ops.  The seed
only chooses the ``--seed`` passed to each op and, for ``grid-dense``, the
content of the input files.  Ops whose cost depends on the seed (``otm`` draws
its ramp time from it) are averaged over many distinct seeds per run.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import numpy as np

# Ops of the four measured workloads pass at the commit that added this
# benchmark; the d >= 40 defects are measured by "large-d-defects".
MEASURED = ("small-d", "large-d", "grid-perm", "grid-dense")
WORKLOADS = MEASURED + ("large-d-defects",)

# Seconds budgeted per template repetition.  A run measures
# round(--seconds / budget) repetitions, so both commits of a comparison run
# the same op list.  At 15 s this gives 22, 3, 7 and 7 repetitions: 10-20 busy
# seconds at the commit that added this benchmark, on a 2-CPU x86-64 virtual
# machine.  With 3 or 7 repetitions and an odd number of sizes, the median and
# the 11th slowest op (op_ms_tail) fall in the middle of a group of like ops.
REP_BUDGET_S = {"small-d": 0.67, "large-d": 5.0, "grid-perm": 2.14, "grid-dense": 2.14,
                 "large-d-defects": 1.5}

# n = 96..416, eleven sizes: enough ops per run (77) for steady percentiles.
GRID_SIZES = (96, 384, 128, 160, 352, 192, 416, 224, 320, 256, 288)
GRID_TRIALS = 16  # stationarity probes per probe call: min(trials, 64)
DENSE_COMPONENTS = 6


def _small_d(rep: int) -> list[list[str]]:
    ops = []
    for d in range(2, 9):
        ops += [["ergotropy", "--dim", str(d)]] * 2
        if d % 2 == 0:
            ops.append(["verify-identities", "--dim", str(d), "--trials", "16"])
        if d <= 4:
            ops.append(["otm", "--dim", str(d), "--trials", "2"])
        if d in (3, 7):
            ops.append(["geometric-z", "--dim", "2", "--samples", "100000"])
    return ops


def _large_d(rep: int) -> list[list[str]]:
    fast = [["ergotropy", "--dim", str(d)] for d in (16, 20, 24, 28)]
    fast += [["verify-identities", "--dim", str(d), "--trials", "2"] for d in (20, 24, 28)]
    # About 1.5-2x the slowest fast op: with three repetitions the 11th slowest
    # op (op_ms_tail) is the middle one of these nine, not a fast-op outlier.
    tail_probe = ["geometric-z", "--dim", "12", "--samples", "50000"]
    # The d = 16 Monte Carlo op sets the peak RSS.  It runs first, right after
    # the fixed-seed warm-up, so the heap it starts from does not depend on the
    # seeds: after seed-dependent ops, glibc's dynamic mmap threshold moved the
    # peak between 298 and 339 MB.
    slow = [
        ["geometric-z", "--dim", str((16, 12, 8)[rep % 3]), "--samples", "1000000"],
        tail_probe,
        ["otm", "--dim", str((16, 20, 24)[rep % 3]), "--trials", "1"],
        tail_probe,
        tail_probe,
    ]
    ops = []
    for op in slow:
        ops.append(op)
        ops.extend(fast * 2)
    return ops


def _large_d_defects(rep: int) -> list[list[str]]:
    ops = [["ergotropy", "--dim", str(d)] for d in (40, 48, 56, 64)]
    return ops + [["verify-identities", "--dim", "40", "--trials", "2"]]


def _grid_perm(rep: int) -> list[list[str]]:
    return [["classical", "--dim", str(n), "--trials", str(GRID_TRIALS)] for n in GRID_SIZES]


# (template of one repetition, warm-up op); grid-dense is built in build().
TEMPLATES = {
    "small-d": (_small_d, ["ergotropy", "--dim", "2"]),
    "large-d": (_large_d, ["ergotropy", "--dim", "24"]),
    "large-d-defects": (_large_d_defects, ["ergotropy", "--dim", "24"]),
    "grid-perm": (_grid_perm, ["classical", "--dim", "64", "--trials", "4"]),
}


def write_dense_grid(path: Path, n: int, seed: int, index: int) -> None:
    """A random grid with a general doubly stochastic kernel: a Dirichlet-weighted
    mixture of random permutation matrices, stored densely."""
    if path.exists():
        return
    rng = np.random.default_rng([seed, index, n])
    kernel = np.zeros((n, n))
    for weight in rng.dirichlet(np.ones(DENSE_COMPONENTS)):
        kernel[rng.permutation(n), np.arange(n)] += weight
    grid = {
        "cell_volume": 1.0,
        "energy_a": np.sort(rng.uniform(0.0, 2.0, n)).tolist(),
        "energy_b": np.sort(rng.uniform(0.0, 2.0, n)).tolist(),
        "weights": rng.dirichlet(np.ones(n)).tolist(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps({"grid": grid, "kernel": {"n": n, "matrix": kernel.tolist()}}))
    tmp.replace(path)


def build(name: str, seed: int, reps: int, work_dir: Path) -> tuple[list[list[str]], list[str]]:
    """(op list, warm-up op) of ``reps`` repetitions of workload ``name``'s
    template, for workload seed ``seed``.  Every op gets its own ``--seed``.

    ``grid-dense`` input files are written under ``work_dir`` and shared by the
    repetitions; paths in the returned argv are relative to the repository root.
    """
    rng = random.Random(f"{name}/{seed}")
    if name == "grid-dense":
        data = work_dir / "grid-dense" / str(seed)
        template = []
        for index, n in enumerate(GRID_SIZES):
            path = data / f"n{n}-{index}.json"
            write_dense_grid(path, n, seed, index)
            template.append(["classical", "--input", os.path.relpath(path), "--trials",
                             str(GRID_TRIALS)])
        path = data / "warmup.json"
        write_dense_grid(path, 64, seed, len(GRID_SIZES))
        warmup = ["classical", "--input", os.path.relpath(path), "--trials", "4"]
        ops = template * reps
    else:
        make, warmup = TEMPLATES[name]
        ops = [op for rep in range(reps) for op in make(rep)]
    return [op + ["--seed", str(rng.randrange(10**6))] for op in ops], warmup + ["--seed", "0"]


def repetitions(name: str, seconds: float) -> int:
    return max(1, round(seconds / REP_BUDGET_S[name]))


def template_length(name: str) -> int:
    return len(GRID_SIZES) if name == "grid-dense" else len(TEMPLATES[name][0](0))
