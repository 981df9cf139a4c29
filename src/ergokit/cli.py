"""Command-line front end: seeded experiments, identity sweeps, and JSON/CSV
reports.

Each subcommand is one ``COMMANDS`` entry and takes only the options it reads;
its report's ``config`` echoes their values.  The sweeps, ``verify-identities``
and ``otm``, run their trials in blocks of ``BLOCK_ENTRIES``: a trial only draws
its seeded inputs, the block is evaluated as stacked arrays, one column per quantity,
and a trial's entries do not depend on the block it falls in.  ``otm``'s sudden-quench
equality case has literal inputs and is built once per process.  Every subcommand prints
a machine-readable JSON report (schema 5, sorted keys, floats at 12 significant digits,
kernels in the forms of ``serialize``) to stdout, encoded in one pass by ``_dumps``; a
1-D or 2-D float array that is at least half zeros, such as a dense kernel echo, is
written as zero runs and costs one formatted token per nonzero entry, and any other array
is one ``%`` format against a cached layout template.  ``--output`` also writes a file,
before anything is printed: for a name ending in ``.csv`` the ``csv_columns`` of the
subcommand's column table (name to equal-length sequence) zipped into rows, else the
report.  The printed checks, which the library raises through ``errors.require``, are the
only gate, so a failing run still writes its report.  Exit status is 0 if every check
holds, 1 if one fails or an error stops a trial, and 2 on I/O, parse, configuration, scope
(``OutOfScope``) or allocation errors, with one stderr line and no report.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache, lru_cache
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import classical as cl
from . import geometric as geo
from .ergotropy import _aligned_gaps, _direct, _ergotropy_fields, _route_checks, _via_entropies
from .errors import ErgokitError, OutOfScope, check, failure_line
from .quantum import (
    DensityMatrix, HermitianOperator, _hermitian_stack, _SpectralBlock, _spectra, _Stack, _states,
)
from .sampling import _densities, _ginibre, _hermitians, _streams, stream
from .serialize import (
    GRID_CSV_COLUMNS,
    format_float,
    grid_from_csv,
    grid_from_json,
    grid_to_json,
    kernel_from_json,
    kernel_to_json,
    matrix_from_json,
    matrix_to_json,
)
from .workbench import DrivingProtocol, _bound_checks, _bound_reports, _evolve_all, _work_fields

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
        "1e-8 (1 + |total|) route gate every ergotropy report applies",
    ),
    "samples": (_positive_int, 100000, "Monte Carlo sample count"),
}


def _read_input(path: str, what: str, parse: Callable[[str], Any]) -> Any:
    """``parse`` of the text of the ``--input`` file ``path``.  A file that cannot be
    read, bad JSON, and a payload that ``parse`` rejects each raise one ``_InputError``
    (``what`` names the file in the last)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:  # a ValueError, so caught first
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, RecursionError) as exc:
        raise _InputError(f"bad {what} {path}: {exc}") from exc


# ----------------------------------------------------------------------------
# Subcommands.  Each returns (results, checks, table): the table maps column names
# to equal-length sequences, and is read only for an ``--output`` name ending in ``.csv``.


def _load_state_pair(config: argparse.Namespace) -> tuple[DensityMatrix, HermitianOperator]:
    if config.input_path is None:
        states, hamiltonians = _random_block(config.seed, range(1), config.dim)
        return DensityMatrix(states[0]), HermitianOperator(hamiltonians[0])

    def parse(text: str) -> tuple[DensityMatrix, HermitianOperator]:
        obj = json.loads(text)
        rho = DensityMatrix(matrix_from_json(obj["rho"]))
        hamiltonian = HermitianOperator(matrix_from_json(obj["hamiltonian"]))
        if rho.dim != hamiltonian.dim:
            raise ValueError(f"rho has dimension {rho.dim}, the Hamiltonian {hamiltonian.dim}")
        return rho, hamiltonian

    return _read_input(config.input_path, "state file", parse)


def _cmd_ergotropy(config: argparse.Namespace):
    rho, hamiltonian = _load_state_pair(config)
    results = _ergotropy_fields(rho, hamiltonian, config.beta)  # the checks print what fails
    routes = {"entropies": results["via_entropies"], "geometric": results["via_geometric"]}
    checks = _route_checks(results["total"], routes, config.tolerance)
    results.update(state=matrix_to_json(rho.matrix), hamiltonian=matrix_to_json(hamiltonian.matrix))
    return results, checks, {name: [value] for name, value in results.items()}


def _identity_columns(states: _Stack, hamiltonians: _Stack, beta: float) -> dict:
    """The sweep's columns for one block of trials, from the ``_Stack``s of its states and
    Hamiltonians, each evaluated once over the block: the spectral routes, the chain
    identity and the aligning-unitary gap from one ``_SpectralBlock``, and the direct route
    from one stacked ``eigvalsh`` each of the states and the Hamiltonians.  Each trial's
    entries have the bits the same trial gets as a block of one."""
    block = _SpectralBlock.of(states, hamiltonians, beta)
    via = _via_entropies(block)
    direct = _direct(block.matrices, hamiltonians.matrices)[0]
    return {
        "ergotropy_identity_dev": np.abs(direct - via) / (1.0 + np.abs(direct)),
        "chain_identity_dev":
            np.abs(block.relative_entropy - block.coherence - block.population_divergence),
        "optimal_unitary_gap": np.abs(_aligned_gaps(block)),
    }


def _random_block(seed: int, index: range, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The state and Hamiltonian matrices of the trials i in ``index``, not yet validated,
    drawn from ``stream(seed, 3i)`` and ``stream(seed, 3i + 1)`` (one repositioned
    generator for the block)."""
    streams = _streams(seed, (k for i in index for k in (3 * i, 3 * i + 1)))
    draws = _ginibre(streams, 2 * len(index), (dim, dim))
    return _densities(draws[0::2]), _hermitians(draws[1::2])


def _sweep(config: argparse.Namespace, columns: Callable[[range], dict]) -> dict:
    """The column table of a sweep's trials: ``trial`` = 0, 1, ..., then ``columns(index)``
    of each block ``index`` of at most ``BLOCK_ENTRIES // dim**2`` trials, joined in trial
    order.  A trial's entries do not depend on the block it falls in, and a block that an
    error stops runs again as blocks of one: the error is its first failing trial's."""
    size = max(1, BLOCK_ENTRIES // config.dim**2)
    blocks = []
    for start in range(0, config.trials, size):
        index = range(start, min(start + size, config.trials))
        try:
            blocks.append(columns(index))
        except (ErgokitError, ValueError):
            blocks += [columns(range(i, i + 1)) for i in index]
    return {"trial": np.arange(config.trials),
            **{name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}}


def _cmd_verify_identities(config: argparse.Namespace):
    """Random-state sweep of the identities: ``_sweep`` over blocks whose states and
    Hamiltonians are validated and diagonalized together and evaluated by
    ``_identity_columns``."""
    def columns(index: range) -> dict:
        states, hamiltonians = _random_block(config.seed, index, config.dim)
        return _identity_columns(_states(states),
                                 _spectra(_hermitian_stack(hamiltonians), "ascending"), config.beta)

    table = _sweep(config, columns)
    results = {"trials": config.trials, **{  # np.max: a NaN in any trial carries through
        f"max_{name}": float(np.max(table[name]))
        for name in ("ergotropy_identity_dev", "chain_identity_dev", "optimal_unitary_gap")}}
    checks = {
        "ergotropy_identity":
            check(results["max_ergotropy_identity_dev"], min(config.tolerance, 1e-8)),
        "chain_identity":
            check(results["max_chain_identity_dev"], min(1e-9, config.beta * config.tolerance)),
        "optimal_unitary_equality": check(results["max_optimal_unitary_gap"], 1e-9),
    }
    return results, checks, table


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
        return grid, cl.microcanonical(grid, shell_floor, shell_width), generated_kernel(n)
    if config.input_path.endswith(".csv"):
        grid, p_a = _read_input(config.input_path, "grid CSV", grid_from_csv)
        return grid, p_a, generated_kernel(grid.n_cells)

    def parse(text: str):
        obj = json.loads(text)
        grid, p_a = grid_from_json(obj["grid"])
        kernel = (kernel_from_json(obj["kernel"]) if "kernel" in obj
                  else generated_kernel(grid.n_cells))
        if p_a.n_cells != grid.n_cells or kernel.n_cells != grid.n_cells:
            raise ValueError(f"{grid.n_cells} grid cells, {p_a.n_cells} weights and a kernel "
                             f"on {kernel.n_cells} cells")
        return grid, p_a, kernel

    return _read_input(config.input_path, "grid file", parse)


def _cmd_classical(config: argparse.Namespace):
    grid, p_a, kernel = _load_grid_experiment(config)
    n = grid.n_cells
    beta = config.beta
    # The grid context, built once and read by every result below.
    p_eq = cl.grid_gibbs(grid, beta)
    log_eq = np.log(p_eq.weights)
    joint = cl.joint_from_kernel(p_a, kernel)
    marginal = joint.final_marginal()
    phi = marginal - p_a.weights  # inhomogeneity_phi's expression, on the marginal above
    e18 = cl.classical_ergotropy(joint, p_a, p_eq, beta)
    e19 = cl.ergotropy_via_phi(joint, p_a, grid)
    conditional = cl._conditional_entropy(joint, p_a)
    sorted_value = cl.sorted_pairing_divergence(p_a.weights, p_eq.weights)
    results: dict = {
        "n_cells": n,
        "ergotropy_relative_entropy_route": e18,
        "ergotropy_inhomogeneity_route": e19,
        "conditional_entropy": conditional,
        "phi_sum": float(phi.sum()),
        "kernel_deterministic": kernel.is_deterministic,
        "sorted_pairing_divergence": sorted_value,
        "grid": grid_to_json(grid, p_a),
        "kernel": kernel_to_json(kernel),
    }
    checks = {
        "phi_sums_to_zero": check(abs(float(phi.sum())), 1e-10),
        "inhomogeneity_route_agrees": check(abs(e18 - (e19 - conditional / beta)), 1e-9),
    }
    if n <= 8:
        brute, _ = cl.permutation_min_bruteforce(p_a, p_eq)
        results["bruteforce_min_divergence"] = brute
        checks["bruteforce_matches_sorted_pairing"] = check(abs(brute - sorted_value), 1e-12)

    epsilon = 1e-3
    experiment_probe = cl.stationarity_probe(marginal, log_eq, epsilon)
    results["stationarity"] = {
        "epsilon": epsilon,
        "experiment_min_first_order": experiment_probe.min_first_order,
        "experiment_max_first_order": experiment_probe.max_first_order,
        "experiment_marginal_passive": experiment_probe.min_first_order >= 0.0,
    }
    table = {"index": np.arange(n), "energy_a": grid.energy_a, "energy_b": grid.energy_b,
             "weight": p_a.weights, "phi": phi}
    return results, checks, table


def _cmd_geometric_z(config: argparse.Namespace):
    if config.input_path is not None:
        hamiltonian = _read_input(config.input_path, "Hamiltonian file", lambda text: (
            HermitianOperator(matrix_from_json(json.loads(text)["hamiltonian"]))))
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
    checks = {"within_four_standard_errors": check(z_score, 4.0)}
    return results, checks, {name: [value] for name, value in results.items()} | {
        "beta": [config.beta]}


def _otm_columns(seed: int, index: range, dim: int, beta: float) -> dict:
    """The columns of the trials i in ``index``: H_A and H_B drawn from ``stream(seed, 4i)``
    and ``stream(seed, 4i + 1)``, each stack validated and diagonalized together, tau from
    ``stream(seed, 4i + 2)`` (a sudden switch below 0.15), then one ``_evolve_all`` of
    the paths (doubling from 32 steps to the 1e-6 gate) and one ``_bound_reports`` over
    the block, whose fields are columns too, for ``_bound_checks``."""
    draws = _ginibre(_streams(seed, (k for i in index for k in (4 * i, 4 * i + 1))),
                     2 * len(index), (dim, dim))
    h_a, h_b = (_spectra(_hermitian_stack(_hermitians(draws[k::2])), "ascending")
                for k in (0, 1))
    del draws
    taus = [float(rng.uniform(0.0, 1.5)) for rng in _streams(seed, (4 * i + 2 for i in index))]
    paths = [(np.array([0.0, tau if tau >= 0.15 else 0.0]), np.stack((a, b)))
             for a, b, tau in zip(h_a.matrices, h_b.matrices, taus)]
    reports = _bound_reports(h_a, h_b, np.array(_evolve_all(paths, 32, 1e-6)), beta)
    bound = reports["bound"]
    return {"tau": np.array(taus), **reports, "jensen_gap": beta * reports["w_irr"] - bound,
            "conditional_z_identity_dev": np.abs(bound - reports["bound_closed_form"])}


@cache
def _sudden_quench() -> tuple[dict, float]:
    """The documented equality case, a sudden quench from diag(0, 1) onto a coupled qubit
    at beta = 1, as its unchecked ``WorkReport`` fields, and its oracle ln Z_B - ln Z_A.
    Its inputs are literals, so it is built once per process."""
    h_a = HermitianOperator(np.diag([0.0, 1.0]))
    h_b = HermitianOperator(np.array([[0.0, 0.5], [0.5, 1.0]]))
    quench = _work_fields(DrivingProtocol.sudden(h_a, h_b), np.eye(2, dtype=complex), 1.0)
    eigs = np.linalg.eigvalsh(h_b.matrix)
    return quench, float(np.log(np.exp(-eigs).sum()) - np.log(1.0 + np.exp(-1.0)))


def _cmd_otm(config: argparse.Namespace):
    """Driven-protocol sweep: ``_sweep`` over blocks evaluated by ``_otm_columns`` (the
    propagators' stacked generators are bounded apart, by ``GENERATOR_BLOCK``), then the
    sudden-quench equality case of ``_sudden_quench``."""
    columns = _sweep(config,
                     lambda index: _otm_columns(config.seed, index, config.dim, config.beta))
    quench, oracle = _sudden_quench()
    results = {  # min and max of arrays: a NaN in any trial carries through
        "trials": config.trials,
        "min_jensen_gap": float(columns["jensen_gap"].min()),
        "max_conditional_z_identity_dev": float(columns["conditional_z_identity_dev"].max()),
        "sudden_quench_bound": quench["bound"],
        "sudden_quench_oracle": oracle,
        "sudden_quench_w_irr": quench["w_irr"],
    }
    checks = {
        **_bound_checks({**columns, "beta": config.beta}),
        "conditional_z_identity": check(results["max_conditional_z_identity_dev"], 1e-9),
        "irreversible_work_nonnegative": check(columns["w_irr"].min(), -1e-9, at_most=False),
        "sudden_quench_equality":
            check(abs(quench["beta"] * quench["w_irr"] - quench["bound"]), 1e-9),
        "sudden_quench_value": check(abs(quench["bound"] - oracle), 1e-6),
        **{f"sudden_quench_{name}": c for name, c in _bound_checks(quench).items()},
    }
    return results, checks, columns


class Command(NamedTuple):
    """A subcommand: what it runs, returning (results, checks, column table), the value
    options it reads, the file its ``--input`` reads (None: no ``--input``) and the options
    that replaces, its help, and the columns of the table its CSV file holds."""

    run: Callable[[argparse.Namespace], tuple[dict, dict, dict]]
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
        f"{','.join(GRID_CSV_COLUMNS)})", ("dim",),
        "Grid experiment: classical ergotropy routes, inhomogeneity, exact stationarity "
        "extremes (--trials is echoed, but no result reads it).",
        ",".join((*GRID_CSV_COLUMNS, "phi"))),
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
                           epilog=f"CSV columns (--output NAME.csv): {command.csv_columns}",
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
                       help="write the report here too, or for a name ending in .csv the "
                            "CSV table whose columns the epilog lists")
    return parser


def _float_tokens(values: list[float]) -> list[str]:
    """``json.dumps(float(format_float(x)))`` for each x, formatting it once.

    A ``%.12g`` text that holds a "." and no ``e+1..`` or ``e-3..`` exponent
    already is that token: it parses to a normal double whose shortest repr
    has the same digits (12 < DBL_DIG), and ``%g`` and ``repr`` choose the
    same notation outside 1e12..1e16.  The rest (integral values, zeros, nan,
    infinities, that band and subnormals) is parsed and encoded again: a finite
    value by its ``repr``, as ``json.dumps`` writes it.  The batch is formatted
    and checked as one text, token by token only if it fails.
    """
    text = ("%.12g\0" * len(values)) % tuple(values)
    texts = text.split("\0")[:-1]
    if text.count(".") == len(texts) and "e+1" not in text and "e-3" not in text:
        return texts
    return [t if "." in t and "e+1" not in t and "e-3" not in t
            else repr(float(t)) if "n" not in t else json.dumps(float(t)) for t in texts]


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
    encoder and writes each float's shortest repr.  This copies that layout
    and rounds each float as it writes it: the payload's scalar floats in one
    ``_float_tokens`` batch at the end, and float, int and bool ndarrays
    whole.  A 1-D or 2-D float array with at least as many zeros as nonzero
    entries goes to ``_zero_runs``; any other array is one ``%`` format of its
    entries against its cached ``_template``, written again from their
    ``_float_tokens`` if that text fails the check ``_float_tokens`` makes.
    Dict keys are encoded once per process, and every piece goes to one list,
    joined once, so no level copies the text below it.
    """
    out: list = []
    scalars: list[int] = []
    _encode(obj, "", out, scalars)
    for i, token in zip(scalars, _float_tokens([out[i] for i in scalars])):
        out[i] = token
    return "".join(out)


@lru_cache(maxsize=64)
def _template(shape: tuple[int, ...], indent: str, zeros: bytes | None) -> str:
    """The ``_layout`` text of a nonempty array of ``shape`` with ``%`` slots
    for its entries: ``%s`` when ``zeros`` is None, else ``%.1f`` where the
    zero mask ``zeros`` (one byte per entry) is set and ``%.12g`` elsewhere."""
    head, tails = _layout(shape, indent)
    slots = ["%s"] * len(tails) if zeros is None else ["%.1f" if z else "%.12g" for z in zeros]
    return head + "".join(map(str.__add__, slots, tails))


@lru_cache(maxsize=1024)
def _key(name: str) -> str:
    """A dict key's JSON string and the ``": "`` after it."""
    return json.dumps(name) + ": "


def _encode(obj, indent: str, out: list, scalars: list[int]) -> None:
    """Append the pieces of ``obj``'s text, its first line at ``indent``, to
    ``out``; a scalar float is appended as itself and its index to ``scalars``."""
    if isinstance(obj, (float, np.floating)):
        scalars.append(len(out))
        out.append(float(obj))
    elif isinstance(obj, np.ndarray) and obj.size:
        flat = obj.reshape(-1)
        if obj.dtype.kind == "f":
            zero = flat == 0
            if obj.ndim in (1, 2) and 2 * np.count_nonzero(zero) >= flat.size:
                out += _zero_runs(obj, indent)
                return
            values = flat.tolist()
            text = _template(obj.shape, indent, zero.tobytes()) % tuple(values)
            if text.count(".") == flat.size and (
                    "e" not in text or "e+1" not in text and "e-3" not in text):
                out.append(text)
                return
            values = _float_tokens(values)
        elif obj.dtype.kind == "b":
            values = ["true" if v else "false" for v in flat.tolist()]
        else:
            values = flat.tolist()
        out.append(_template(obj.shape, indent, None) % tuple(values))
    elif isinstance(obj, np.ndarray):  # a zero side, (r, 0) or (0, c): nested empty lists
        _encode(obj.tolist(), indent, out, scalars)
    elif isinstance(obj, (dict, list, tuple)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        items = ([(_key(k), v) for k, v in sorted(obj.items())] if brackets == "{}"
                 else [("", v) for v in obj])
        inner, sep = indent + "  ", brackets[0]
        for key, value in items:
            out.append(f"{sep}\n{inner}{key}")
            _encode(value, inner, out, scalars)
            sep = ","
        out.append(f"\n{indent}{brackets[1]}" if items else brackets)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    else:
        out.append(json.dumps(obj))


def _emit(config: argparse.Namespace, results: dict, checks: dict, table: dict) -> None:
    payload = {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "config": {name: value for name, value in vars(config).items() if name in _OPTIONS},
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks.values()),
    }
    text = _dumps(payload)
    path = config.output_path
    if path is not None:  # written first, so a run that cannot write it prints nothing
        with open(path, "w", encoding="utf-8") as handle:
            if path.endswith(".csv"):
                columns = COMMANDS[config.command].csv_columns.split(",")
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows(zip(*([format_float(x) if isinstance(x, float) else x
                                        for x in np.asarray(table[n]).tolist()] for n in columns)))
            else:
                print(text, file=handle)
    print(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    config = parser.parse_args(argv)
    command = COMMANDS[config.command]
    replaced = () if getattr(config, "input_path", None) is None else command.input_replaces
    for name in command.options:
        if name not in replaced:
            vars(config).setdefault(name, _OPTIONS[name][1])
        elif hasattr(config, name):
            parser.error(f"argument --{name}: not allowed with argument --input")
    try:
        results, checks, table = command.run(config)
    except (_InputError, OutOfScope, MemoryError) as exc:  # a bare MemoryError has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ErgokitError as exc:  # an error that stops a trial
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(config, results, checks, table)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    if failed := failure_line(checks):
        print(failed, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
