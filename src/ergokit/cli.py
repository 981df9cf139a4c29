"""Command-line front end: seeded experiments, identity sweeps, and JSON/CSV
reports.

Each subcommand is one ``COMMANDS`` entry and takes only the options it reads;
its report's ``config`` echoes their values.  The sweeps, ``verify-identities``
and ``otm``, run their trials in blocks of ``BLOCK_ENTRIES``: a trial only draws
its seeded inputs, the block is evaluated as stacked arrays, and a trial's row
does not depend on the block it falls in.  ``otm``'s sudden-quench equality case
has literal inputs and is built once per process.  Every subcommand prints a
machine-readable JSON report (schema 5, sorted keys, floats at 12 significant
digits, kernels in the forms of ``serialize``) to stdout, encoded in one pass
by ``_dumps``; a 1-D or 2-D float array that is at least half zeros, such as a
dense kernel echo, is written as zero runs and costs one formatted token per
nonzero entry.  ``--output`` additionally writes the report, or a plot-ready
CSV table when ``--format csv`` is chosen.  Exit status is 0 when every
asserted invariant holds at the configured tolerance, 1 on an invariant
failure, and 2 on I/O, parse, configuration, or scope (``OutOfScope``) errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import classical as cl
from . import geometric as geo
from .ergotropy import _aligned_gaps, _check_routes, _direct, _routes, ergotropy_report
from .errors import ErgokitError, OutOfScope
from .quantum import DensityMatrix, HermitianOperator, _SpectralBlock
from .sampling import _densities, _ginibre, _hermitians, _streams, stream
from .serialize import (
    density_from_json,
    format_float,
    grid_from_csv,
    grid_from_json,
    grid_to_json,
    hermitian_from_json,
    kernel_from_json,
    kernel_to_json,
    matrix_to_json,
)
from .workbench import DrivingProtocol, WorkReport, _bound_reports, _evolve_all, sharpened_bound_report

SCHEMA_VERSION = 5
# Matrix entries (trials x d^2, 1 MiB per complex array) in one block of a sweep's
# trials, so that memory does not grow with --trials.
BLOCK_ENTRIES = 2**16


class _InputError(Exception):
    """I/O, parse or configuration problem with user-supplied input (exit 2)."""


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    """The master seed, in [0, 2**64): every random stream of a run is
    ``stream(seed, i)``, keyed by the seed itself."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: ...`` line on stderr (exit 2);
    subparsers are built from the same class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


# The value options, each defined once as (type, default, help).  A subcommand
# registers those its ``Command.options`` names; its report's ``config`` echoes them.
_OPTIONS = {
    "beta": (_positive_float, 1.0, "inverse temperature (k_B = 1)"),
    "dim": (_positive_int, 2, "Hilbert-space dimension / number of grid cells"),
    "trials": (_positive_int, 100, "number of random trials"),
    "seed": (_seed, 0, "master seed for all random streams, in [0, 2**64)"),
    "tolerance": (
        _positive_float, 1e-8,
        "tolerance for the identity checks; it can tighten, not loosen, the "
        "1e-8 (1 + |total|) route gate every ergotropy report applies when built",
    ),
    "samples": (_positive_int, 100000, "Monte Carlo sample count"),
}


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc


def _check(value: float, tolerance: float, *, at_most: bool = True) -> dict:
    passed = value <= tolerance if at_most else value >= tolerance
    return {"passed": bool(passed), "value": float(value), "tolerance": float(tolerance)}


# ----------------------------------------------------------------------------
# Subcommands.  Each returns (results, checks, csv_rows): the rows map column
# names to cells, and are read once, and only for ``--format csv``.


def _load_state_pair(config: argparse.Namespace) -> tuple[DensityMatrix, HermitianOperator]:
    if config.input_path is None:
        (rho,), (hamiltonian,) = _random_block(config.seed, range(1), config.dim)
        return rho, hamiltonian
    obj = _read_json(config.input_path)
    try:
        rho, hamiltonian = density_from_json(obj["rho"]), hermitian_from_json(obj["hamiltonian"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise _InputError(f"bad state file {config.input_path}: {exc}") from exc
    if rho.dim != hamiltonian.dim:
        raise _InputError(f"bad state file {config.input_path}: rho has dimension {rho.dim}, "
                          f"the Hamiltonian {hamiltonian.dim}")
    return rho, hamiltonian


def _cmd_ergotropy(config: argparse.Namespace):
    rho, hamiltonian = _load_state_pair(config)
    report = ergotropy_report(rho, hamiltonian, config.beta)
    via_geometric = geo._geometric_route(report.context)
    scale = 1.0 + abs(report.total)
    checks = {
        "route_entropies_agrees": _check(abs(report.total - report.via_entropies), config.tolerance * scale),
        "route_geometric_agrees": _check(abs(report.total - via_geometric), config.tolerance * scale),
    }
    results = {
        "total": report.total,
        "via_entropies": report.via_entropies,
        "via_geometric": via_geometric,
        "coherent_eq11": report.coherent_eq11,
        "incoherent": report.incoherent,
        "dephased_ergotropy": report.dephased_ergotropy,
        "beta_used": report.beta_used,
        "passive_energy": report.passive_energy,
        "state": matrix_to_json(rho.matrix),
        "hamiltonian": matrix_to_json(hamiltonian.matrix),
    }
    return results, checks, [results]


def _identity_rows(rhos: list[DensityMatrix], hamiltonians: list[HermitianOperator],
                   beta: float) -> list[dict]:
    """The sweep's rows for one block of trials, every column evaluated once over
    the block: the spectral routes, the chain identity and the aligning-unitary
    gap from one ``_SpectralBlock`` (one stacked ``eigh`` of the Hamiltonians; the
    states keep their validating ``eigh``), and the direct route from one stacked
    ``eigvalsh`` each of the states and the Hamiltonians.  Each row has the bits
    the same trial gets as a block of one."""
    block = _SpectralBlock.of(rhos, hamiltonians, beta)
    routes = _routes(block)
    _check_routes(routes["total"], routes["via_entropies"])
    direct = _direct(block.matrices, np.array([h.matrix for h in hamiltonians]))[0]
    via = routes["via_entropies"]
    columns = {
        "ergotropy_identity_dev": np.abs(direct - via) / (1.0 + np.abs(direct)),
        "chain_identity_dev":
            np.abs(block.relative_entropy - block.coherence - block.population_divergence),
        "optimal_unitary_gap": np.abs(_aligned_gaps(block)),
    }
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]


def _random_block(seed: int, index: range,
                  dim: int) -> tuple[list[DensityMatrix], list[HermitianOperator]]:
    """The states and Hamiltonians of the trials i in ``index``, drawn from
    ``stream(seed, 3i)`` and ``stream(seed, 3i + 1)`` (one repositioned generator
    for the block) and then validated together."""
    streams = _streams(seed, (k for i in index for k in (3 * i, 3 * i + 1)))
    draws = _ginibre(streams, 2 * len(index), (dim, dim))
    return (DensityMatrix._block(_densities(draws[0::2])),
            HermitianOperator._block(_hermitians(draws[1::2])))


def _sweep(config: argparse.Namespace, rows: Callable[[range], list[dict]]) -> list[dict]:
    """The numbered rows of a sweep's trials, ``rows(index)`` for each block ``index`` of at
    most ``BLOCK_ENTRIES // dim**2`` trials.  A trial's row does not depend on the block it
    falls in, and a failing block runs again trial by trial: the error is its first failing
    trial's."""
    size = max(1, BLOCK_ENTRIES // config.dim**2)
    trials = []
    for start in range(0, config.trials, size):
        index = range(start, min(start + size, config.trials))
        try:
            block = rows(index)
        except (ErgokitError, ValueError):
            block = [row for i in index for row in rows(range(i, i + 1))]
        trials += [{"trial": i, **row} for i, row in zip(index, block)]
    return trials


def _cmd_verify_identities(config: argparse.Namespace):
    """Random-state sweep of the identities: ``_sweep`` over blocks whose states and
    Hamiltonians are validated together and evaluated by ``_identity_rows``."""
    trials = _sweep(config, lambda index: _identity_rows(
        *_random_block(config.seed, index, config.dim), config.beta))
    results = {
        "trials": config.trials,
        "max_ergotropy_identity_dev": max(t["ergotropy_identity_dev"] for t in trials),
        "max_chain_identity_dev": max(t["chain_identity_dev"] for t in trials),
        "max_optimal_unitary_gap": max(t["optimal_unitary_gap"] for t in trials),
    }
    checks = {
        "ergotropy_identity": _check(results["max_ergotropy_identity_dev"], config.tolerance),
        "chain_identity":
            _check(results["max_chain_identity_dev"], min(1e-9, config.beta * config.tolerance)),
        "optimal_unitary_equality": _check(results["max_optimal_unitary_gap"], 1e-9),
    }
    return results, checks, trials


def _load_grid_experiment(config: argparse.Namespace):
    def generated_kernel(n: int) -> cl.TransitionKernel:
        return cl.TransitionKernel.from_permutation(stream(config.seed, 1).permutation(n))

    if config.input_path is None:
        n = config.dim
        rng = stream(config.seed, 0)
        grid = cl.PhaseGrid(energy_a=np.sort(rng.uniform(0.0, 2.0, n)),
                            energy_b=np.sort(rng.uniform(0.0, 2.0, n)))
        # Anchor the shell at an actual cell energy so it is never empty.
        shell_floor = float(grid.energy_a[n // 2])
        shell_width = float(grid.energy_a.max() - grid.energy_a.min()) / max(1, n // 2) + 1e-9
        return grid, cl.microcanonical(grid, "A", shell_floor, shell_width), generated_kernel(n)
    if config.input_path.endswith(".csv"):
        try:
            with open(config.input_path, "r", encoding="utf-8") as handle:
                grid, p_a = grid_from_csv(handle.read())
        except (OSError, ValueError, IndexError) as exc:
            raise _InputError(f"bad grid CSV {config.input_path}: {exc}") from exc
        return grid, p_a, generated_kernel(grid.n_cells)
    obj = _read_json(config.input_path)
    try:
        grid, p_a = grid_from_json(obj["grid"])
        if "kernel" in obj:
            kernel = kernel_from_json(obj["kernel"])
        else:
            kernel = generated_kernel(grid.n_cells)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise _InputError(f"bad grid file {config.input_path}: {exc}") from exc
    if p_a.n_cells != grid.n_cells or kernel.n_cells != grid.n_cells:
        raise _InputError(
            f"bad grid file {config.input_path}: {grid.n_cells} grid cells, "
            f"{p_a.n_cells} weights and a kernel on {kernel.n_cells} cells"
        )
    return grid, p_a, kernel


def _cmd_classical(config: argparse.Namespace):
    grid, p_a, kernel = _load_grid_experiment(config)
    n = grid.n_cells
    beta = config.beta
    # The grid context, built once and read by every result below.
    p_eq = cl.grid_gibbs(grid, "B", beta)
    log_eq = np.log(p_eq.weights)
    joint = cl.joint_from_kernel(p_a, kernel)
    marginal = joint.final_marginal()
    phi = cl.inhomogeneity_phi(joint, p_a)
    e18 = cl.classical_ergotropy(joint, p_a, p_eq, beta)
    sorted_value = cl.sorted_pairing_divergence(p_a.weights, p_eq.weights)
    results: dict = {
        "n_cells": n,
        "ergotropy_relative_entropy_route": e18,
        "phi_sum": float(phi.sum()),
        "kernel_deterministic": kernel.is_deterministic,
        "sorted_pairing_divergence": sorted_value,
        "grid": grid_to_json(grid, p_a),
        "kernel": kernel_to_json(kernel),
    }
    checks = {
        "phi_sums_to_zero": _check(abs(float(phi.sum())), 1e-10),
    }
    if kernel.is_deterministic:
        e19 = cl.ergotropy_via_phi(joint, p_a, grid)
        results["ergotropy_inhomogeneity_route"] = e19
        checks["inhomogeneity_route_agrees"] = _check(abs(e18 - e19), 1e-9)
    if n <= 8:
        brute, _ = cl.permutation_min_bruteforce(p_a, p_eq)
        results["bruteforce_min_divergence"] = brute
        checks["bruteforce_matches_sorted_pairing"] = _check(abs(brute - sorted_value), 1e-12)

    epsilon = 1e-3
    experiment_probe = cl.stationarity_probe(marginal, log_eq, epsilon)
    results["stationarity"] = {
        "epsilon": epsilon,
        "experiment_min_first_order": experiment_probe.min_first_order,
        "experiment_max_first_order": experiment_probe.max_first_order,
        "experiment_marginal_passive": experiment_probe.min_first_order >= 0.0,
    }
    rows = (dict(index=i, energy_a=a, energy_b=b, weight=w, phi=f) for i, a, b, w, f in zip(
        range(n), grid.energy_a.tolist(), grid.energy_b.tolist(), p_a.weights.tolist(),
        phi.tolist()))
    return results, checks, rows


def _cmd_geometric_z(config: argparse.Namespace):
    if config.input_path is not None:
        obj = _read_json(config.input_path)
        try:
            hamiltonian = hermitian_from_json(obj["hamiltonian"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise _InputError(f"bad Hamiltonian file {config.input_path}: {exc}") from exc
    else:
        hamiltonian = HermitianOperator(np.diag(np.arange(config.dim, dtype=float)))
    try:
        closed = geo.geometric_partition_closed_form(hamiltonian, config.beta)
        estimate, stderr = geo.geometric_partition_function(
            hamiltonian, config.beta, config.samples, config.seed
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    z_score = abs(estimate - closed) / stderr if stderr > 0 else 0.0
    results = {
        "dim": hamiltonian.dim,
        "estimate": estimate,
        "standard_error": stderr,
        "samples": config.samples,
        "manifold_volume": geo.manifold_volume(hamiltonian.dim),
        "hamiltonian": matrix_to_json(hamiltonian.matrix),
        "closed_form": closed,
        "z_score": z_score,
    }
    checks = {"within_four_standard_errors": _check(z_score, 4.0)}
    return results, checks, [{**results, "beta": config.beta}]


def _otm_rows(seed: int, index: range, dim: int, beta: float) -> list[dict]:
    """The rows of the trials i in ``index``: H_A and H_B drawn from ``stream(seed, 4i)``
    and ``stream(seed, 4i + 1)`` and validated together, tau from ``stream(seed, 4i + 2)``
    (a sudden switch below 0.15), then one ``_evolve_all`` (doubling from 32 steps to the
    1e-6 gate) and one ``_bound_reports`` over the block."""
    draws = _ginibre(_streams(seed, (k for i in index for k in (4 * i, 4 * i + 1))),
                     2 * len(index), (dim, dim))
    h_a, h_b = (HermitianOperator._block(_hermitians(draws[k::2])) for k in (0, 1))
    del draws
    taus = [float(rng.uniform(0.0, 1.5)) for rng in _streams(seed, (4 * i + 2 for i in index))]
    protocols = [DrivingProtocol.sudden(a, b) if tau < 0.15
                 else DrivingProtocol.linear_ramp(a, b, tau) for a, b, tau in zip(h_a, h_b, taus)]
    reports = _bound_reports(protocols, np.array(_evolve_all(protocols, 32, 1e-6)), beta)
    return [{
        "tau": tau,
        "avg_work": report.avg_work,
        "delta_f": report.delta_f,
        "w_irr": report.w_irr,
        "bound": report.bound,
        "jensen_gap": beta * report.w_irr - report.bound,
        "conditional_z_identity_dev": abs(report.bound - report.bound_closed_form),
    } for tau, report in zip(taus, reports)]


@cache
def _sudden_quench() -> tuple[WorkReport, float]:
    """The documented equality case, a sudden quench from diag(0, 1) onto a coupled
    qubit, and its oracle ln Z_B - ln Z_A.  Its inputs are literals, so it is built
    once per process."""
    h_a = HermitianOperator(np.diag([0.0, 1.0]))
    h_b = HermitianOperator(np.array([[0.0, 0.5], [0.5, 1.0]]))
    quench = sharpened_bound_report(
        DrivingProtocol.sudden(h_a, h_b), np.eye(2, dtype=complex), 1.0
    )
    eigs = np.linalg.eigvalsh(h_b.matrix)
    return quench, float(np.log(np.exp(-eigs).sum()) - np.log(1.0 + np.exp(-1.0)))


def _cmd_otm(config: argparse.Namespace):
    """Driven-protocol sweep: ``_sweep`` over blocks evaluated by ``_otm_rows`` (the
    propagators' stacked generators are bounded apart, by ``GENERATOR_BLOCK``), then the
    sudden-quench equality case of ``_sudden_quench``."""
    trials = _sweep(config, lambda index: _otm_rows(config.seed, index, config.dim, config.beta))
    quench, oracle = _sudden_quench()

    results = {
        "trials": config.trials,
        "min_jensen_gap": min(t["jensen_gap"] for t in trials),
        "max_conditional_z_identity_dev": max(t["conditional_z_identity_dev"] for t in trials),
        "sudden_quench_bound": quench.bound,
        "sudden_quench_oracle": oracle,
        "sudden_quench_w_irr": quench.w_irr,
    }
    checks = {
        "conditional_z_identity": _check(results["max_conditional_z_identity_dev"], 1e-9),
        "irreversible_work_nonnegative":
            _check(min(t["w_irr"] for t in trials), -1e-9, at_most=False),
        "sudden_quench_equality": _check(abs(quench.beta * quench.w_irr - quench.bound), 1e-9),
        "sudden_quench_value": _check(abs(quench.bound - oracle), 1e-6),
    }
    return results, checks, trials


class Command(NamedTuple):
    """A subcommand: what it runs, the value options it reads, the file its ``--input``
    reads (None: no ``--input``) and the options that replaces, its help and CSV columns."""

    run: Callable[[argparse.Namespace], tuple[dict, dict, Iterable[dict]]]
    options: tuple[str, ...]
    input_file: str | None
    input_replaces: tuple[str, ...]
    help: str
    csv_columns: str


COMMANDS = {
    "ergotropy": Command(
        _cmd_ergotropy, ("beta", "dim", "seed", "tolerance"),
        "state file (JSON with rho and hamiltonian)", ("dim", "seed"),
        "Full ergotropy report (direct, entropy, and geometric routes) for one state.",
        "total,via_entropies,via_geometric,coherent_eq11,incoherent,dephased_ergotropy,"
        "beta_used,passive_energy"),
    "verify-identities": Command(
        _cmd_verify_identities, ("beta", "dim", "trials", "seed", "tolerance"), None, (),
        "Random-state sweep of the ergotropy and coherence identities.",
        "trial,ergotropy_identity_dev,chain_identity_dev,optimal_unitary_gap"),
    "classical": Command(
        _cmd_classical, ("beta", "dim", "trials", "seed"),
        "grid file (JSON with grid and an optional kernel, or a .csv table "
        "index,energy_a,energy_b,weight)", ("dim",),
        "Grid experiment: classical ergotropy routes, inhomogeneity, exact stationarity "
        "extremes (--trials is echoed, but no result reads it).",
        "index,energy_a,energy_b,weight,phi"),
    "geometric-z": Command(
        _cmd_geometric_z, ("beta", "dim", "seed", "samples"),
        "Hamiltonian file (JSON with hamiltonian)", ("dim",),
        "Monte Carlo geometric partition function with error bars.",
        "dim,beta,samples,estimate,standard_error,closed_form,z_score"),
    "otm": Command(
        _cmd_otm, ("beta", "dim", "trials", "seed"), None, (),
        "Driven-protocol work accounting and the sharpened maximum work bound.",
        "trial,tau,avg_work,delta_f,w_irr,bound,jensen_gap,conditional_z_identity_dev"),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged).
    A value option enters the namespace only if given; ``main`` adds defaults."""
    parser = _Parser(prog="ergokit",
                     description="Quantum/classical ergotropy experiments with reproducible seeds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help,
                           epilog=f"CSV columns (--format csv): {command.csv_columns}",
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        for option, (kind, default, text) in _OPTIONS.items():
            if option in command.options:
                p.add_argument(f"--{option}", type=kind, default=argparse.SUPPRESS,
                               help=f"{text}; default {default}")
        if command.input_file is not None:
            p.add_argument("--input", dest="input_path", default=None,
                           help=f"{command.input_file}; replaces --"
                                + " and --".join(command.input_replaces))
        p.add_argument("--output", dest="output_path", default=None,
                       help="write the report here (JSON, or CSV with --format csv)")
        p.add_argument("--format", dest="out_format", choices=("json", "csv"), default="json",
                       help="--output format; see the epilog for the CSV columns")
    return parser


def _float_tokens(values: list[float]) -> list[str]:
    """``json.dumps(float(format_float(x)))`` for each x, formatting it once.

    A ``%.12g`` text that holds a "." and no ``e+1..`` or ``e-3..`` exponent
    already is that token: it parses to a normal double whose shortest repr
    has the same digits (12 < DBL_DIG), and ``%g`` and ``repr`` choose the
    same notation outside 1e12..1e16.  The rest (integral values, zeros, nan,
    infinities, that band and subnormals) is parsed and encoded again.  The
    batch is formatted and checked as one text, token by token only if it fails.
    """
    text = ("%.12g\0" * len(values)) % tuple(values)
    texts = text.split("\0")[:-1]
    if text.count(".") == len(texts) and "e+1" not in text and "e-3" not in text:
        return texts
    return [t if "." in t and "e+1" not in t and "e-3" not in t else json.dumps(float(t))
            for t in texts]


def _array_tokens(array: np.ndarray) -> list[str]:
    """The JSON token of each entry of a nonempty ``array``, row-major, floats
    rounded.

    A zero of either sign is its own rounding, so only nonzero floats are
    formatted, in one ``_float_tokens`` batch."""
    flat = array.reshape(-1)
    if flat.dtype.kind in "biu":
        return json.dumps(flat.tolist())[1:-1].split(", ")
    values = flat.astype(float, copy=False)
    zero = values == 0
    tokens = ["0.0"] * values.size
    for i in np.flatnonzero(zero & np.signbit(values)).tolist():
        tokens[i] = "-0.0"
    live = np.flatnonzero(~zero)
    for i, token in zip(live.tolist(), _float_tokens(values[live].tolist())):
        tokens[i] = token
    return tokens


def _layout(shape: tuple[int, ...], indent: str) -> tuple[str, list[str]]:
    """The text before the first entry of an array of ``shape`` (no zero in
    it) and the text after each entry, the last one closing the array."""
    if not shape:
        return "", [""]
    inner = indent + "  "
    head, tails = _layout(shape[1:], inner)
    close = tails.pop()
    tails = (tails + [close + ",\n" + inner + head]) * shape[0]
    tails[-1] = close + "\n" + indent + "]"
    return "[\n" + inner + head, tails


def _zero_runs(array: np.ndarray, indent: str) -> list[str]:
    """The pieces of the text of a mostly-zero 1-D or 2-D float ``array``, laid
    out as ``_layout`` lays it out.

    The entries other than +0.0, and the last entry, are kept and formatted.
    The run of +0.0 entries before each kept entry is written as at most three
    repeated strings: the zeros to the end of its first row, the whole zero
    rows after it, and the zeros that open the kept entry's row.  Each
    distinct string is built once, so the work scales with the kept entries."""
    flat = array.reshape(-1)
    width = array.shape[-1]
    head, tails = _layout((2,) * array.ndim, indent)
    # Two rows of two entries show every separator.  A 1-D array is one row,
    # which only its last entry, always kept, ends: its row_sep is never used.
    sep, row_sep, close = tails[0], tails[1], tails[-1]
    kept = (flat != 0) | np.signbit(flat)
    kept[-1] = True
    at = kept.nonzero()[0]
    m = at.size
    # The row and column where the run before each kept entry starts, then
    # those of the kept entries.
    rows, cols = np.divmod(np.concatenate(([0], at[:-1] + 1, at)), width)
    span = rows[m:] - rows[:m]
    lead = (np.where(span, width - 1, cols[m:]) - cols[:m]).tolist()
    trail = (cols[m:] * (span > 0)).tolist()
    span = span.tolist()
    zero, zero_row_end = "0.0" + sep, "0.0" + row_sep
    zeros = {k: zero * k for k in {*lead, *trail}}
    spans = {r: zero_row_end + (zero * (width - 1) + zero_row_end) * (r - 1) if r else ""
             for r in set(span)}
    pieces = [head] * (5 * m + 1)
    pieces[1::5] = [zeros[k] for k in lead]
    pieces[2::5] = [spans[r] for r in span]
    pieces[3::5] = [zeros[k] for k in trail]
    # The last entry, kept even when zero, is formatted apart, so that the
    # batch of nonzero entries stays on the fast path of ``_float_tokens``.
    pieces[4::5] = _float_tokens(flat[at[:-1]].tolist()) + _float_tokens([float(flat[-1])])
    pieces[5::5] = [row_sep if c == width - 1 else sep for c in cols[m:].tolist()]
    pieces[-1] = close
    return pieces


def _dumps(obj) -> str:
    """``json.dumps(round_floats(obj), sort_keys=True, indent=2)`` for
    string-keyed payloads, in one pass.

    With ``indent`` set, the standard library always runs its pure-Python
    encoder and writes each float's shortest repr.  This copies that layout,
    rounds each float as it writes it (``_float_tokens``), and takes float,
    int and bool ndarrays whole, with no list of rounded floats in between.
    An array has one of two writers, chosen by its zero count: a 1-D or 2-D
    float array with at least as many zeros as nonzero entries goes to
    ``_zero_runs``, which formats only its nonzero entries and writes each
    run of zeros as a few repeated strings; any other array interleaves every
    entry's token with the text ``_layout`` puts after it.  Every piece goes
    to one list, joined once, so no level copies the text below it.
    """
    out: list[str] = []
    _encode(obj, "", out)
    return "".join(out)


def _encode(obj, indent: str, out: list[str]) -> None:
    """Append the pieces of ``obj``'s text, its first line at ``indent``, to ``out``."""
    if isinstance(obj, (float, np.floating)):
        out.append(_float_tokens([float(obj)])[0])
    elif isinstance(obj, np.ndarray) and obj.size:
        if obj.dtype.kind == "f" and obj.ndim in (1, 2) and 2 * np.count_nonzero(obj) <= obj.size:
            out += _zero_runs(obj, indent)
            return
        head, tails = _layout(obj.shape, indent)
        pieces = [head] * (2 * obj.size + 1)
        pieces[1::2] = _array_tokens(obj)
        pieces[2::2] = tails
        out += pieces
    elif isinstance(obj, np.ndarray):  # a zero side, (r, 0) or (0, c): nested empty lists
        _encode(obj.tolist(), indent, out)
    elif isinstance(obj, (dict, list, tuple)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        items = ([(json.dumps(k) + ": ", v) for k, v in sorted(obj.items())] if brackets == "{}"
                 else [("", v) for v in obj])
        inner, sep = indent + "  ", brackets[0]
        for key, value in items:
            out.append(f"{sep}\n{inner}{key}")
            _encode(value, inner, out)
            sep = ","
        out.append(f"\n{indent}{brackets[1]}" if items else brackets)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    else:
        out.append(json.dumps(obj))


def _emit(config: argparse.Namespace, results: dict, checks: dict,
          rows: Iterable[dict]) -> None:
    payload = {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "config": {name: value for name, value in vars(config).items() if name in _OPTIONS},
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks.values()),
    }
    text = _dumps(payload)
    print(text)
    if config.output_path is None:
        return
    with open(config.output_path, "w", encoding="utf-8") as handle:
        if config.out_format == "json":
            print(text, file=handle)
            return
        columns = COMMANDS[config.command].csv_columns.split(",")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            cells = [row[k] for k in columns]
            writer.writerow([format_float(x) if isinstance(x, float) else x for x in cells])


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    config = parser.parse_args(argv)
    if config.out_format == "csv" and config.output_path is None:
        parser.error("--format csv requires --output")
    command = COMMANDS[config.command]
    replaced = () if getattr(config, "input_path", None) is None else command.input_replaces
    for name in command.options:
        if name not in replaced:
            vars(config).setdefault(name, _OPTIONS[name][1])
        elif hasattr(config, name):
            parser.error(f"argument --{name}: not allowed with argument --input")
    try:
        results, checks, rows = command.run(config)
    except (_InputError, OutOfScope) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ErgokitError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(config, results, checks, rows)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    failed = {name: c for name, c in checks.items() if not c["passed"]}
    for name, c in failed.items():
        print(
            f"invariant failed: {name}: value={format_float(c['value'])}, "
            f"tolerance={format_float(c['tolerance'])}",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
