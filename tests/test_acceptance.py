"""Acceptance suite: one test per acceptance criterion, each printing a single
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values are frozen from independent oracles computed inline (scalar
exponential/log arithmetic, exhaustive enumeration, quadrature), never from the
code paths they check.
"""

import math
import time
from itertools import permutations

import numpy as np

from ergokit import (
    DensityMatrix,
    DrivingProtocol,
    GridDistribution,
    HermitianOperator,
    PhaseGrid,
    TransitionKernel,
    aligned_geometric_state,
    classical_ergotropy,
    classical_relative_entropy,
    coherence_relative_entropy,
    coherent_ergotropy_eq11,
    conditional_thermal_state,
    dephase,
    ergotropy_direct,
    ergotropy_geometric,
    ergotropy_via_entropies,
    ergotropy_via_phi,
    evolve_unitary,
    geometric_partition_function,
    geometric_relative_entropy,
    geometric_state_of,
    gibbs_state,
    grid_gibbs,
    inhomogeneity_phi,
    joint_from_kernel,
    permutation_min_bruteforce,
    quantum_relative_entropy,
    sharpened_bound_report,
    sorted_pairing_divergence,
    spectral_relative_entropy,
    stationarity_probe,
)
from ergokit.classical import _entropy_minus_cross
from ergokit.ergotropy import optimal_alignment_unitary
from ergokit.sampling import random_density, random_hermitian, stream
from haar import haar_unitaries


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_ergotropy_identity():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(500):
        dim = 2 + trial % 7
        beta = (0.5, 1.0, 2.0)[trial % 3]
        rho = random_density(dim, stream(1000, 2 * trial))
        h = random_hermitian(dim, stream(1001, trial))
        direct = ergotropy_direct(rho, h)
        via = ergotropy_via_entropies(rho, h, beta)
        worst = max(worst, abs(direct - via) / (1.0 + abs(direct)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, ok, f"direct vs entropy route, 500 cases d<=8: max dev {worst:.2e} "
                   f"(tol 1e-08), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_beta_independence():
    betas = (0.25, 0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for trial in range(100):
        dim = 2 + trial % 6
        rho = random_density(dim, stream(1100, 2 * trial))
        # Desk-scale energies: beta * spread must keep every Gibbs population
        # above the support floor at beta = 4.
        h = HermitianOperator(0.4 * random_hermitian(dim, stream(1101, trial)).matrix)
        values = [ergotropy_via_entropies(rho, h, beta) for beta in betas]
        worst = max(worst, max(values) - min(values))
    ok = worst <= 1e-8
    _report(2, ok, f"beta-independence over {betas}, 100 states: max spread {worst:.2e} (tol 1e-08)")


def test_criterion_3_unitary_minimum():
    # The aligning unitary attains min_U S(U rho U†||sigma) = D(rho||sigma); that no U
    # undercuts it is checked over every permutation unitary and 10^4 Haar draws per d
    # in tests/test_ergotropy.py (TestUnitaryOrbit).
    worst_opt = 0.0
    for dim in range(2, 9):
        rho = random_density(dim, stream(1200, dim))
        sigma = random_density(dim, stream(1201, dim))
        u = optimal_alignment_unitary(rho, sigma)
        aligned = DensityMatrix(u @ rho.matrix @ u.conj().T)
        gap = quantum_relative_entropy(aligned, sigma) - spectral_relative_entropy(rho, sigma)
        worst_opt = max(worst_opt, abs(gap))
    ok = worst_opt <= 1e-9
    _report(3, ok, f"aligning unitary per d in 2..8: |S(U rho U+||sigma) - D(rho||sigma)| "
                   f"{worst_opt:.2e} (tol 1e-09)")


def test_criterion_4_coherent_split_and_chain():
    worst_split = 0.0
    worst_chain = 0.0
    for trial in range(500):
        dim = 2 + trial % 6
        beta = (0.5, 1.0, 2.0)[trial % 3]
        rho = random_density(dim, stream(1300, 2 * trial))
        h = random_hermitian(dim, stream(1301, trial))
        eq = gibbs_state(h, beta).rho
        worst_split = max(
            worst_split,
            abs(coherent_ergotropy_eq11(rho, h, beta) - ergotropy_via_entropies(rho, h, beta)),
        )
        chain = (
            quantum_relative_entropy(rho, eq)
            - coherence_relative_entropy(rho, h)
            - quantum_relative_entropy(dephase(rho, h), eq)
        )
        worst_chain = max(worst_chain, abs(chain))
    ok = worst_split <= 1e-8 and worst_chain <= 1e-9
    _report(4, ok, f"coherent split vs entropy route: max dev {worst_split:.2e} (tol 1e-08); "
                   f"chain identity max dev {worst_chain:.2e} (tol 1e-09)")


def test_criterion_5_grid_route_equivalence():
    worst = 0.0
    worst_phi = 0.0
    for trial in range(500):
        rng = stream(1400, trial)
        n = 3 + trial % 98
        grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
        beta = (0.5, 1.0, 2.0)[trial % 3]
        shell = np.zeros(n)
        members = rng.choice(n, size=max(1, n // 4), replace=False)
        shell[members] = 1.0 / members.size
        p_a = GridDistribution(shell)
        kernel = TransitionKernel.from_permutation(rng.permutation(n))
        joint = joint_from_kernel(p_a, kernel)
        p_eq = grid_gibbs(grid, beta)
        worst = max(worst, abs(
            classical_ergotropy(joint, p_a, p_eq, beta) - ergotropy_via_phi(joint, p_a, grid)
        ))
        worst_phi = max(worst_phi, abs(inhomogeneity_phi(joint, p_a).sum()))
    ok = worst <= 1e-9 and worst_phi <= 1e-10
    _report(5, ok, f"relative-entropy vs inhomogeneity route, 500 permutation grids n<=100: "
                   f"max dev {worst:.2e} (tol 1e-09); max |sum phi| {worst_phi:.2e} (tol 1e-10)")


def test_criterion_6_rearrangement_oracle():
    worst = 0.0
    for trial in range(100):
        rng = stream(1500, trial)
        n = 2 + trial % 5
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        brute, _ = permutation_min_bruteforce(GridDistribution(p), GridDistribution(q))
        # Independent oracle: direct exhaustive enumeration, not the library path.
        oracle = min(
            sum(p[perm[i]] * math.log(p[perm[i]] / q[i]) for i in range(n))
            for perm in permutations(range(n))
        )
        ps, qs = np.sort(p)[::-1], np.sort(q)[::-1]
        sorted_value = float((ps * np.log(ps / qs)).sum())
        worst = max(worst, abs(brute - oracle), abs(brute - sorted_value))
    ok = worst <= 1e-12
    _report(6, ok, f"brute force over all pairings vs sorted pairing, 100 pairs n<=6: "
                   f"max dev {worst:.2e} (tol 1e-12)")


def test_criterion_7_geometric_route():
    worst_route = 0.0
    worst_div = 0.0
    for trial in range(500):
        dim = 2 + trial % 5
        rho = random_density(dim, stream(1600, 2 * trial))
        h = random_hermitian(dim, stream(1601, trial))
        direct = ergotropy_direct(rho, h)
        geom = ergotropy_geometric(rho, h, 1.0)
        worst_route = max(worst_route, abs(direct - geom) / (1.0 + abs(direct)))
        sigma = random_density(dim, stream(1602, trial))
        div = geometric_relative_entropy(
            aligned_geometric_state(rho, sigma), geometric_state_of(sigma)
        )
        worst_div = max(worst_div, abs(div - spectral_relative_entropy(rho, sigma)))
    ok = worst_route <= 1e-8 and worst_div <= 1e-9
    _report(7, ok, f"triple-route ergotropy, 500 cases d<=6: max dev {worst_route:.2e} (tol 1e-08); "
                   f"geometric vs sorted divergence max dev {worst_div:.2e} (tol 1e-09)")


def test_criterion_8_geometric_partition_function():
    start = time.perf_counter()
    hamiltonian = HermitianOperator(np.diag([0.0, 1.0]))
    closed = math.pi * (1.0 - math.exp(-1.0))
    worst_sigma = 0.0
    for seed in range(20):
        estimate, stderr = geometric_partition_function(hamiltonian, 1.0, 1_000_000, seed)
        worst_sigma = max(worst_sigma, abs(estimate - closed) / stderr)
    elapsed = time.perf_counter() - start
    ok = worst_sigma <= 4.0 and elapsed < 60.0
    _report(8, ok, f"Monte Carlo partition integral vs pi(1-1/e)={closed:.6f}, 20 seeds x 10^6: "
                   f"worst {worst_sigma:.2f} sigma (<= 4), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_9_maximum_work_bound():
    worst_gap = 0.0
    worst_sum = 0.0
    worst_logz = 0.0
    for trial in range(100):
        dim = 2 + trial % 2
        h_a = random_hermitian(dim, stream(1700, 3 * trial))
        h_b = random_hermitian(dim, stream(1701, trial))
        tau = float(stream(1702, trial).uniform(0.0, 1.5))
        if tau < 0.2:
            protocol = DrivingProtocol.sudden(h_a, h_b)
            unitary = np.eye(dim, dtype=complex)
        else:
            protocol = DrivingProtocol.linear_ramp(h_a, h_b, tau)
            unitary = evolve_unitary(protocol, n_steps=32, tol=1e-6)
        report = sharpened_bound_report(protocol, unitary, 1.0)
        conditional = conditional_thermal_state(h_a, h_b, unitary, 1.0)
        worst_gap = min(worst_gap, report.beta * report.w_irr - report.bound)
        worst_sum = max(worst_sum, abs(report.incoherent + report.coherence + report.population - report.bound))
        worst_logz = max(worst_logz, abs(
            report.bound - (gibbs_state(h_b, 1.0).log_z - conditional.log_conditional_z)
        ))

    # Documented equality case, frozen from the closed-form eigenvalues
    # (1 +- sqrt(2))/2 of the quench target: bound = ln(Z_B / Z_A).
    h_a = HermitianOperator(np.diag([0.0, 1.0]))
    h_b = HermitianOperator(np.array([[0.0, 0.5], [0.5, 1.0]]))
    eig_plus = (1.0 + math.sqrt(2.0)) / 2.0
    eig_minus = (1.0 - math.sqrt(2.0)) / 2.0
    oracle = math.log(math.exp(-eig_plus) + math.exp(-eig_minus)) - math.log(1.0 + math.exp(-1.0))
    quench = sharpened_bound_report(DrivingProtocol.sudden(h_a, h_b), np.eye(2, dtype=complex), 1.0)
    quench_dev = max(abs(quench.bound - oracle), abs(quench.beta * quench.w_irr - oracle))

    ok = worst_gap >= -1e-9 and worst_sum <= 1e-9 and worst_logz <= 1e-9 and quench_dev <= 1e-6
    _report(9, ok, f"100 driven qubit/qutrit protocols: bound slack min {worst_gap:.2e} "
                   f"(floor -1e-09), decomposition max dev {worst_sum:.2e} (tol 1e-09), "
                   f"log-partition identity max dev {worst_logz:.2e} (tol 1e-09); "
                   f"sudden-quench equality dev {quench_dev:.2e} vs oracle {oracle:.6f} (tol 1e-06)")


def test_criterion_10_stationarity_probe():
    epsilons = (1e-2, 5e-3, 2.5e-3)
    n = 8
    rng = stream(1800)
    grid = PhaseGrid(energy_a=rng.uniform(0, 2, n), energy_b=rng.uniform(0, 2, n))
    uniform = GridDistribution(np.full(n, 1.0 / n))
    p_eq = grid_gibbs(grid, 1.0)
    log_eq = np.log(p_eq.weights)

    # (a) Uniform initial distribution, Liouville (permutation) kernel: the
    # exact extremes of the first-order variational change over every doubly
    # stochastic direction must sit inside the quadratic envelope at every
    # epsilon.  They in fact vanish identically on a uniform marginal, which
    # is stronger than quadratic decay and leaves no measurable ratio.
    kernel = TransitionKernel.from_permutation(rng.permutation(n))
    joint = joint_from_kernel(uniform, kernel)
    first_order_max = {}
    envelope_ok = True
    for eps in epsilons:
        probe = stationarity_probe(joint.final_marginal(), log_eq, eps)
        first_order_max[eps] = max(abs(probe.min_first_order), abs(probe.max_first_order))
        envelope_ok &= first_order_max[eps] <= 10.0 * eps**2
    measurable = all(v > 1e-13 for v in first_order_max.values())
    ratio_note = "identically zero at machine precision"
    ratios_ok = True
    if measurable:
        r1 = first_order_max[1e-2] / first_order_max[5e-3]
        r2 = first_order_max[5e-3] / first_order_max[2.5e-3]
        ratios_ok = abs(r1 - 4.0) <= 0.5 and abs(r2 - 4.0) <= 0.5
        ratio_note = f"ratios {r1:.2f}, {r2:.2f}"

    # (b) The quadratic (Richardson ratio 4) decay is measurable on the smooth
    # total relative-entropy change of a full-support kernel along the
    # extremal permutation, where the linear component cancels between
    # epsilon halvings: the permutation depends on the marginal, not on epsilon.
    mix = 0.5 * np.eye(n) + 0.5 * np.full((n, n), 1.0 / n)
    smooth_joint = joint_from_kernel(uniform, TransitionKernel(mix))
    totals = {
        eps: stationarity_probe(smooth_joint.final_marginal(), log_eq, eps).delta_total(
            smooth_joint, p_eq)
        for eps in epsilons
    }
    residual_coarse = abs(totals[1e-2] - 2.0 * totals[5e-3])
    residual_fine = abs(totals[5e-3] - 2.0 * totals[2.5e-3])
    richardson = residual_coarse / residual_fine
    richardson_ok = abs(richardson - 4.0) <= 0.5

    # (c) Point mass on the highest-energy cell: the variation is not
    # stationary, and the extremal direction, which shifts weight downhill,
    # lowers the relative entropy.
    weights = np.zeros(n)
    weights[int(np.argmax(grid.energy_b))] = 1.0
    point = GridDistribution(weights)
    point_joint = joint_from_kernel(point, TransitionKernel.from_permutation(np.arange(n)))
    counter = stationarity_probe(point_joint.final_marginal(), log_eq, 0.05)
    counter_total = counter.delta_total(point_joint, p_eq)
    negatives_ok = counter.min_first_order < 0.0 and counter_total < 0.0

    ok = envelope_ok and ratios_ok and richardson_ok and negatives_ok
    _report(10, ok,
            f"uniform p_A: max first-order change {max(first_order_max.values()):.2e} within "
            f"10*eps^2 at eps={epsilons} ({ratio_note}); smooth-path Richardson ratio "
            f"{richardson:.2f} (4 +- 0.5); point-mass p_A: exact min dD "
            f"{counter.min_first_order:.3f} first order, {counter_total:.3f} total")


def test_criterion_11_commuting_case():
    # For diagonal rho = diag p and sigma = diag q the quantum relative entropy is the
    # classical one, and the divergence of the sorted spectra is the sorted pairing's.
    worst = 0.0
    for dim in range(2, 17):
        rng = stream(2100, dim)
        p, q = rng.dirichlet(np.ones(dim)), rng.dirichlet(np.ones(dim))
        rho, sigma = DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q))
        worst = max(
            worst,
            abs(quantum_relative_entropy(rho, sigma)
                - classical_relative_entropy(GridDistribution(p), GridDistribution(q))),
            abs(spectral_relative_entropy(rho, sigma) - sorted_pairing_divergence(p, q)),
        )
    _report(11, worst <= 1e-14, f"commuting case, d = 2-16: max |quantum - classical| "
                                f"= {worst:.2e}")


# The internal helper on the dense joint matrix and its row sums must match the
# public path, which sums the kernel's layers in row-major order.
def test_internal_joint_entropy_helper_matches_public():
    rng = stream(1900)
    n = 5
    grid = PhaseGrid(energy_a=rng.uniform(0, 1, n), energy_b=rng.uniform(0, 1, n))
    p_a = GridDistribution(rng.dirichlet(np.ones(n)))
    kernel = TransitionKernel.from_permutation(rng.permutation(n))
    joint = joint_from_kernel(p_a, kernel)
    p_eq = grid_gibbs(grid, 1.0)
    from ergokit import joint_relative_entropy

    dense = joint.matrix
    assert _entropy_minus_cross(dense, dense.sum(axis=1), p_eq.weights) == joint_relative_entropy(joint, p_eq)


def test_criterion_3_support_matches_haar_batch():
    # Sanity anchor for the Haar sampler that criterion 3's orbit checks draw from.
    units = haar_unitaries(3, 64, stream(2000))
    eye = np.eye(3)
    defect = np.max(np.abs(np.einsum("kij,kil->kjl", units.conj(), units) - eye))
    assert defect < 1e-12
