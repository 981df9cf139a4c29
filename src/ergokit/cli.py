"""Command-line front end: seeded experiments, identity sweeps, and JSON/CSV
reports.

Every subcommand prints a machine-readable JSON report (schema 2, sorted keys,
floats at 12 significant digits, kernels in the forms of ``serialize``) to
stdout, encoded in one pass by ``_dumps``.  ``--output`` additionally writes
the report, or a plot-ready CSV table when ``--format csv`` is chosen.  Exit
status is 0 when every asserted invariant holds at the configured tolerance, 1
on an invariant failure, and 2 on I/O, parse, configuration, or scope
(``OutOfScope``) errors.  ``ERGOKIT_THREADS``, a positive integer, caps worker
threads for trial sweeps; results do not depend on it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import classical as cl
from . import geometric as geo
from .ergotropy import ergotropy_direct, ergotropy_report, unitary_min_probe
from .errors import ErgokitError, OutOfScope
from .quantum import DensityMatrix, HermitianOperator
from .sampling import random_density, random_hermitian, stream
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
from .workbench import DrivingProtocol, evolve_unitary, sharpened_bound_report

SCHEMA_VERSION = 2


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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: ...`` line on stderr (exit 2);
    subparsers are built from the same class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


CSV_COLUMNS = {
    "ergotropy": "total,via_entropies,via_geometric,coherent_eq11,incoherent,"
                 "dephased_ergotropy,beta_used,passive_energy",
    "verify-identities": "trial,ergotropy_identity_dev,coherent_identity_dev,"
                         "chain_identity_dev,unitary_min_gap,optimal_unitary_gap",
    "classical": "index,energy_a,energy_b,weight,phi",
    "geometric-z": "dim,beta,samples,estimate,standard_error,closed_form,z_score",
    "otm": "trial,tau,avg_work,delta_f,w_irr,bound,jensen_gap,"
           "decomposition_dev,conditional_z_identity_dev",
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(
        prog="ergokit",
        description="Quantum/classical ergotropy experiments with reproducible seeds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "ergotropy": "Full ergotropy report (direct, entropy, and geometric routes) for one state.",
        "verify-identities": "Random-state sweep of the ergotropy and coherence identities.",
        "classical": "Grid experiment: classical ergotropy routes, inhomogeneity, probes.",
        "geometric-z": "Monte Carlo geometric partition function with error bars.",
        "otm": "Driven-protocol work accounting and the sharpened maximum work bound.",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(
            name,
            help=help_text,
            description=help_text,
            epilog=f"CSV columns (--format csv): {CSV_COLUMNS[name]}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--beta", type=_positive_float, default=1.0, help="inverse temperature (k_B = 1)")
        p.add_argument("--dim", type=_positive_int, default=2,
                       help="Hilbert-space dimension / number of grid cells")
        p.add_argument("--trials", type=_positive_int, default=100, help="number of random trials")
        p.add_argument("--seed", type=int, default=0, help="master seed for all random streams")
        p.add_argument("--tolerance", type=_positive_float, default=1e-8,
                       help="tolerance for the identity checks")
        p.add_argument("--samples", type=_positive_int, default=100000,
                       help="Monte Carlo / Haar sample count")
        p.add_argument("--input", dest="input_path", default=None,
                       help="input file (JSON; grid tables may be CSV index,energy_a,energy_b,weight)")
        p.add_argument("--output", dest="output_path", default=None,
                       help="write the report here (JSON, or CSV with --format csv)")
        p.add_argument("--format", dest="out_format", choices=("json", "csv"), default="json",
                       help="--output format; see the epilog for the CSV columns")
    return parser


def _max_workers() -> int:
    raw = os.environ.get("ERGOKIT_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise _InputError(f"ERGOKIT_THREADS must be a positive integer, got {raw!r}")
    return workers


def _map_trials(worker: Callable[[int], dict], n_trials: int) -> list[dict]:
    """Run trials 0..n-1, possibly in parallel; order of results is fixed."""
    workers = _max_workers()
    if workers == 1:
        return [worker(i) for i in range(n_trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(n_trials)))


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
# Subcommands.  Each returns (results, checks, csv_header, csv_rows); the rows
# are read once, and only for ``--format csv``.


def _load_state_pair(config: argparse.Namespace) -> tuple[DensityMatrix, HermitianOperator]:
    if config.input_path is None:
        rho = random_density(config.dim, stream(config.seed, 0))
        hamiltonian = random_hermitian(config.dim, stream(config.seed, 1))
        return rho, hamiltonian
    obj = _read_json(config.input_path)
    try:
        return density_from_json(obj["rho"]), hermitian_from_json(obj["hamiltonian"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise _InputError(f"bad state file {config.input_path}: {exc}") from exc


def _cmd_ergotropy(config: argparse.Namespace):
    rho, hamiltonian = _load_state_pair(config)
    report = ergotropy_report(rho, hamiltonian, config.beta)
    via_geometric = geo.ergotropy_geometric(rho, hamiltonian, config.beta)
    scale = 1.0 + abs(report.total)
    checks = {
        "route_entropies_agrees": _check(abs(report.total - report.via_entropies), config.tolerance * scale),
        "route_geometric_agrees": _check(abs(report.total - via_geometric), config.tolerance * scale),
        "ergotropy_nonnegative": _check(report.total, -1e-9, at_most=False),
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
    header = CSV_COLUMNS["ergotropy"].split(",")
    rows = [[results[k] for k in header]]
    return results, checks, header, rows


def _cmd_verify_identities(config: argparse.Namespace):
    beta = config.beta
    probe_samples = 32

    def worker(i: int) -> dict:
        rho = random_density(config.dim, stream(config.seed, 3 * i))
        hamiltonian = random_hermitian(config.dim, stream(config.seed, 3 * i + 1))
        direct = ergotropy_direct(rho, hamiltonian)
        report = ergotropy_report(rho, hamiltonian, beta)
        context = report.context
        chain = abs(
            context.relative_entropy() - context.coherence() - context.population_divergence()
        )
        probe = unitary_min_probe(
            rho, context.gibbs, probe_samples, seed=config.seed + 7919 * i, include_optimal=True
        )
        return {
            "trial": i,
            "ergotropy_identity_dev": abs(direct - report.via_entropies) / (1.0 + abs(direct)),
            "coherent_identity_dev": abs(report.coherent_eq11 - report.via_entropies),
            "chain_identity_dev": chain,
            "unitary_min_gap": probe.min_gap,
            "optimal_unitary_gap": abs(probe.optimal_gap),
        }

    trials = _map_trials(worker, config.trials)
    max_dev9 = max(t["ergotropy_identity_dev"] for t in trials)
    max_dev11 = max(t["coherent_identity_dev"] for t in trials)
    max_chain = max(t["chain_identity_dev"] for t in trials)
    min_gap = min(t["unitary_min_gap"] for t in trials)
    max_opt = max(t["optimal_unitary_gap"] for t in trials)
    checks = {
        "ergotropy_identity": _check(max_dev9, config.tolerance),
        "coherent_identity": _check(max_dev11, config.tolerance),
        "chain_identity": _check(max_chain, 1e-9),
        "unitary_minimum_bound": _check(min_gap, -1e-9, at_most=False),
        "optimal_unitary_equality": _check(max_opt, 1e-9),
    }
    results = {
        "trials": config.trials,
        "max_ergotropy_identity_dev": max_dev9,
        "max_coherent_identity_dev": max_dev11,
        "max_chain_identity_dev": max_chain,
        "min_unitary_min_gap": min_gap,
        "max_optimal_unitary_gap": max_opt,
        "haar_samples_per_trial": probe_samples,
    }
    header = CSV_COLUMNS["verify-identities"].split(",")
    rows = [[t[k] for k in header] for t in trials]
    return results, checks, header, rows


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
    p_eq = cl.grid_gibbs(grid, "B", beta)
    joint = cl.joint_from_kernel(p_a, kernel)
    phi = cl.inhomogeneity_phi(joint, p_a)
    e18 = cl.classical_ergotropy(joint, p_a, p_eq, beta)
    results: dict = {
        "n_cells": n,
        "ergotropy_relative_entropy_route": e18,
        "phi_sum": float(phi.sum()),
        "kernel_deterministic": kernel.is_deterministic,
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
        sorted_value = cl.sorted_pairing_divergence(p_a.weights, p_eq.weights)
        results["bruteforce_min_divergence"] = brute
        results["sorted_pairing_divergence"] = sorted_value
        checks["bruteforce_matches_sorted_pairing"] = _check(abs(brute - sorted_value), 1e-12)

    epsilon = 1e-3
    n_probes = min(config.trials, 64)
    uniform = cl.GridDistribution(np.full(n, 1.0 / n))
    uniform_probe = cl.stationarity_probe(
        cl.joint_from_kernel(uniform, kernel), uniform, grid, beta, n_probes, epsilon,
        config.seed + 1,
    )
    experiment_probe = cl.stationarity_probe(
        joint, p_a, grid, beta, n_probes, epsilon, config.seed + 2
    )
    uniform_max = float(np.max(np.abs(uniform_probe.delta_first_order)))
    results["stationarity"] = {
        "epsilon": epsilon,
        "n_perturbations": n_probes,
        "uniform_max_first_order": uniform_max,
        "uniform_envelope": uniform_probe.first_order_bound,
        "experiment_min_first_order": float(experiment_probe.delta_first_order.min()),
        "experiment_negative_probes": experiment_probe.n_negative_first_order,
    }
    checks["uniform_stationarity_envelope"] = _check(uniform_max, uniform_probe.first_order_bound)
    header = CSV_COLUMNS["classical"].split(",")
    rows = zip(range(n), grid.energy_a.tolist(), grid.energy_b.tolist(), p_a.weights.tolist(),
               phi.tolist())
    return results, checks, header, rows


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
    header = CSV_COLUMNS["geometric-z"].split(",")
    rows = [[hamiltonian.dim, config.beta, config.samples, estimate, stderr, closed, z_score]]
    return results, checks, header, rows


def _cmd_otm(config: argparse.Namespace):
    beta = config.beta

    def worker(i: int) -> dict:
        h_a = random_hermitian(config.dim, stream(config.seed, 4 * i))
        h_b = random_hermitian(config.dim, stream(config.seed, 4 * i + 1))
        tau = float(stream(config.seed, 4 * i + 2).uniform(0.0, 1.5))
        if tau < 0.15:
            protocol = DrivingProtocol.sudden(h_a, h_b)
        else:
            protocol = DrivingProtocol.linear_ramp(h_a, h_b, tau)
        unitary = evolve_unitary(protocol, n_steps=64, tol=1e-6)
        report = sharpened_bound_report(protocol, unitary, beta)
        return {
            "trial": i,
            "tau": tau,
            "avg_work": report.avg_work,
            "delta_f": report.delta_f,
            "w_irr": report.w_irr,
            "bound": report.bound,
            "jensen_gap": beta * report.w_irr - report.bound,
            "decomposition_dev": abs(report.bound_terms.total() - report.bound),
            "conditional_z_identity_dev": abs(report.bound - report.bound_closed_form),
        }

    trials = _map_trials(worker, config.trials)

    # Documented equality case: sudden quench from diag(0, 1) onto a coupled qubit.
    h_a = HermitianOperator(np.diag([0.0, 1.0]))
    h_b = HermitianOperator(np.array([[0.0, 0.5], [0.5, 1.0]]))
    quench = sharpened_bound_report(
        DrivingProtocol.sudden(h_a, h_b), np.eye(2, dtype=complex), 1.0
    )
    eigs = np.linalg.eigvalsh(h_b.matrix)
    oracle = float(np.log(np.exp(-eigs).sum()) - np.log(1.0 + np.exp(-1.0)))

    min_gap = min(t["jensen_gap"] for t in trials)
    max_decomposition = max(t["decomposition_dev"] for t in trials)
    max_z_identity = max(t["conditional_z_identity_dev"] for t in trials)
    min_w_irr = min(t["w_irr"] for t in trials)
    checks = {
        "maximum_work_bound": _check(min_gap, -1e-9, at_most=False),
        "bound_decomposition": _check(max_decomposition, 1e-9),
        "conditional_z_identity": _check(max_z_identity, 1e-9),
        "irreversible_work_nonnegative": _check(min_w_irr, -1e-9, at_most=False),
        "sudden_quench_equality": _check(abs(quench.beta * quench.w_irr - quench.bound), 1e-9),
        "sudden_quench_value": _check(abs(quench.bound - oracle), 1e-6),
    }
    results = {
        "trials": config.trials,
        "min_jensen_gap": min_gap,
        "max_decomposition_dev": max_decomposition,
        "max_conditional_z_identity_dev": max_z_identity,
        "sudden_quench_bound": quench.bound,
        "sudden_quench_oracle": oracle,
        "sudden_quench_w_irr": quench.w_irr,
    }
    header = CSV_COLUMNS["otm"].split(",")
    rows = [[t[k] for k in header] for t in trials]
    return results, checks, header, rows


_COMMANDS = {
    "ergotropy": _cmd_ergotropy,
    "verify-identities": _cmd_verify_identities,
    "classical": _cmd_classical,
    "geometric-z": _cmd_geometric_z,
    "otm": _cmd_otm,
}


def _float_tokens(values: list[float]) -> list[str]:
    """``json.dumps(float(format_float(x)))`` for each x, formatting it once.

    A ``%.12g`` text that holds a "." and no ``e+1..`` or ``e-3..`` exponent
    already is that token: it parses to a normal double whose shortest repr
    has the same digits (12 < DBL_DIG), and ``%g`` and ``repr`` choose the
    same notation outside 1e12..1e16.  The rest (integral values, zeros, nan,
    infinities, that band and subnormals) is parsed and encoded again.
    """
    texts = [f"{x:.12g}" for x in values]
    return [t if "." in t and "e+1" not in t and "e-3" not in t else json.dumps(float(t))
            for t in texts]


def _array_tokens(array: np.ndarray) -> list[str]:
    """The JSON token of each entry of a nonempty ``array``, row-major, floats
    rounded.

    A zero of either sign is its own rounding, so only nonzero floats are
    formatted: a sparse dense kernel costs one format per populated entry."""
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


def _block(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Already encoded ``items`` one per line between ``brackets``."""
    if not items:
        return brackets
    inner = indent + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


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


def _dumps(obj, indent: str = "") -> str:
    """``json.dumps(round_floats(obj), sort_keys=True, indent=2)`` for
    string-keyed payloads, in one pass.

    With ``indent`` set, the standard library always runs its pure-Python
    encoder and writes each float's shortest repr.  This copies that layout,
    rounds each float as it writes it (``_float_tokens``), and takes float,
    int and bool ndarrays whole, with no list of rounded floats in between.
    """
    if isinstance(obj, (float, np.floating)):
        return _float_tokens([float(obj)])[0]
    if isinstance(obj, np.ndarray):
        if not obj.size:  # a zero side, (r, 0) or (0, c): nested empty lists
            return _dumps(obj.tolist(), indent)
        head, tails = _layout(obj.shape, indent)
        pieces = [""] * (2 * obj.size)
        pieces[::2] = _array_tokens(obj)
        pieces[1::2] = tails
        return head + "".join(pieces)
    inner = indent + "  "
    if isinstance(obj, dict):
        return _block([f"{json.dumps(k)}: {_dumps(v, inner)}" for k, v in sorted(obj.items())],
                      indent, "{}")
    if isinstance(obj, (list, tuple)):
        return _block([_dumps(v, inner) for v in obj], indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return json.dumps(obj)


def _emit(config: argparse.Namespace, results: dict, checks: dict, header: list,
          rows: Iterable[Sequence]) -> None:
    payload = {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "config": {
            "beta": config.beta,
            "dim": config.dim,
            "seed": config.seed,
            "trials": config.trials,
            "tolerance": config.tolerance,
            "samples": config.samples,
        },
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks.values()),
    }
    text = _dumps(payload) + "\n"
    sys.stdout.write(text)
    if config.output_path is not None:
        if config.out_format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [format_float(x) if isinstance(x, float) else x for x in row]
                )
            content = buf.getvalue()
        else:
            content = text
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(content)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    config = parser.parse_args(argv)
    if config.out_format == "csv" and config.output_path is None:
        parser.error("--format csv requires --output")
    try:
        results, checks, header, rows = _COMMANDS[config.command](config)
    except (_InputError, OutOfScope) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ErgokitError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(config, results, checks, header, rows)
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
