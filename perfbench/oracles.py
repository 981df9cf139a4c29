"""Benchmark-side oracles: recompute each report's headline number with plain
numpy/scipy from what the report itself prints, independently of ergokit.

Each oracle takes the parsed JSON report and returns ``(problems, figures)``:
a list of rejection messages (empty when the output is accepted) and named
figures the traced run reports (route deviation, Monte Carlo z-score).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import logsumexp

Z_GATE = 4.0


def matrix(obj: dict) -> np.ndarray:
    entries = np.asarray(obj["entries"], dtype=float)
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(obj["dim"], obj["dim"])


def geometric_z_closed_form(energies: np.ndarray, beta: float) -> float:
    """Geometric partition function over CP^(d-1) for any d.

    Hermite-Genocchi gives Z = Vol * (d-1)! * (-beta)^(1-d) * f[E_1..E_d] for
    f(x) = exp(-beta x), with Vol = pi^(d-1)/(d-1)!.  The divided difference,
    confluent cases included, is entry (0, d-1) of f(J) for the bidiagonal
    J = diag(E) + superdiag(1) (Opitz).
    """
    d = len(energies)
    bidiagonal = np.diag(np.asarray(energies, dtype=float)) + np.diag(np.ones(d - 1), 1)
    return math.pi ** (d - 1) * (-beta) ** (1 - d) * float(expm(-beta * bidiagonal)[0, d - 1])


def ergotropy(report: dict) -> tuple[list[str], dict]:
    """tr(rho H) - sum p_desc E_asc from the printed state and Hamiltonian."""
    res = report["results"]
    rho, ham = matrix(res["state"]), matrix(res["hamiltonian"])
    p = np.sort(np.linalg.eigvalsh(rho))[::-1]
    e = np.sort(np.linalg.eigvalsh(ham))
    expected = float(np.einsum("ij,ji->", rho, ham).real) - float(p @ e)
    total = res["total"]
    scale = 1.0 + abs(total)
    problems = []
    if abs(expected - total) > 1e-9 * scale:
        problems.append(f"ergotropy {total} but tr(rho H) - passive energy = {expected}")
    route_dev = max(abs(total - res["via_entropies"]), abs(total - res["via_geometric"])) / scale
    return problems, {"route_dev": route_dev}


def geometric_z(report: dict) -> tuple[list[str], dict]:
    """Monte Carlo estimate within Z_GATE standard errors of the closed form."""
    res = report["results"]
    energies = np.linalg.eigvalsh(matrix(res["hamiltonian"]))
    closed = geometric_z_closed_form(energies, report["config"]["beta"])
    z_score = abs(res["estimate"] - closed) / res["standard_error"]
    problems = []
    if not z_score <= Z_GATE:
        problems.append(f"estimate {res['estimate']} is {z_score:.2f} sigma from {closed}")
    return problems, {"z_score": z_score}


def dense_kernel(obj: dict) -> np.ndarray:
    """The kernel as a dense matrix, from its ``"matrix"`` form or from the
    ``"image"`` form of a permutation (cell j goes to cell image[j])."""
    if "matrix" in obj:
        return np.asarray(obj["matrix"], dtype=float)
    image = np.asarray(obj["image"], dtype=int)
    kernel = np.zeros((obj["n"], obj["n"]))
    kernel[image, np.arange(image.size)] = 1.0
    return kernel


def classical(report: dict) -> tuple[list[str], dict]:
    """Relative-entropy route (D(J||p_eq) - D(p_A||p_eq))/beta from the printed
    grid and kernel."""
    res, beta = report["results"], report["config"]["beta"]
    grid = res["grid"]
    p_a = np.asarray(grid["weights"])
    kernel = dense_kernel(res["kernel"])
    log_eq = -beta * np.asarray(grid["energy_b"])
    log_eq -= logsumexp(log_eq)
    joint = kernel * p_a[None, :]
    live = joint[joint > 0.0]
    d_joint = float((live * np.log(live)).sum()) - float(joint.sum(axis=1) @ log_eq)
    pa_live = p_a > 0.0
    d_pa = float((p_a[pa_live] * (np.log(p_a[pa_live]) - log_eq[pa_live])).sum())
    expected = (d_joint - d_pa) / beta
    got = res["ergotropy_relative_entropy_route"]
    problems = []
    if abs(expected - got) > 1e-8 * (1.0 + abs(got)):
        problems.append(f"classical ergotropy {got} but recomputed {expected}")
    return problems, {}


BY_COMMAND = {"ergotropy": ergotropy, "geometric-z": geometric_z, "classical": classical}


def check(report: dict) -> tuple[list[str], dict]:
    """The report's own verdict plus the command's oracle, if it has one."""
    problems = [] if report.get("passed") is True else ["report has passed != true"]
    oracle = BY_COMMAND.get(report.get("command"))
    if oracle is not None:
        more, figures = oracle(report)
        return problems + more, figures
    return problems, {}
