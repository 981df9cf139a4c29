"""Driven-system experiments: protocol propagators, conditional thermal states,
work accounting, and the sharpened maximum work bound with its decomposition.

The initial state is always the thermal state of the initial Hamiltonian, which
is the setting in which average work compares against the free-energy change.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import _threads
from .errors import NotConverged, check, require
from .ergotropy import _routes
from .quantum import (
    DensityMatrix,
    HermitianOperator,
    _dots,
    _gibbs_logs,
    _SpectralBlock,
    _Stack,
    _stack_of,
    _states,
    eigendecompose,
)

UNITARY_ATOL = 1e-9
REFINEMENT_TOL = 1e-8
MAX_DOUBLINGS = 14


@dataclass(frozen=True)
class DrivingProtocol:
    """Piecewise-linear Hamiltonian path through (time, Hamiltonian) knots.

    Knot times rise from 0 to ``tau``, and the Hamiltonian is interpolated
    linearly between neighbouring knots.  Two knots at one time make a jump:
    the later knot holds from that time on.  A protocol with ``tau == 0`` is
    therefore a sudden switch from ``initial`` to ``final``.  The propagators
    read its path, (``_times``, ``_matrices``): the knot times and matrices.
    """

    knots: tuple[tuple[float, HermitianOperator], ...]

    def __post_init__(self):
        times = [t for t, _ in self.knots]
        if len(times) < 2 or times[0] != 0.0 or times != sorted(times):
            raise ValueError("a protocol needs at least two knots, with times rising from 0")
        if len({h.dim for _, h in self.knots}) != 1:
            raise ValueError("every knot Hamiltonian must share one dimension")
        # The knot times and matrices, held once and read-only for the propagators.
        for name, array in (("_times", np.array(times)),
                            ("_matrices", np.stack([h.matrix for _, h in self.knots]))):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def initial(self) -> HermitianOperator:
        return self.knots[0][1]

    @property
    def final(self) -> HermitianOperator:
        return self.knots[-1][1]

    @property
    def tau(self) -> float:
        return self.knots[-1][0]

    @classmethod
    def sudden(cls, initial: HermitianOperator, final: HermitianOperator) -> "DrivingProtocol":
        return cls(((0.0, initial), (0.0, final)))

    @classmethod
    def linear_ramp(
        cls, initial: HermitianOperator, final: HermitianOperator, tau: float
    ) -> "DrivingProtocol":
        return cls(((0.0, initial), (tau, final)))

    def hamiltonian_at(self, t: float | np.ndarray) -> np.ndarray:
        """Interpolated Hamiltonian matrix at time t in [0, tau]; an array of
        times gives the matrices stacked along its shape, t.shape + (d, d)."""
        s = np.asarray(t, dtype=float).clip(0.0, self.tau)
        times = self._times
        # times[0] = 0 <= s, so j >= 0: only the last interval needs a cap
        j = np.minimum(np.searchsorted(times, s, side="right") - 1, len(times) - 2)
        t0, t1 = times[j], times[j + 1]
        # a zero-width interval is a jump, reached only at its end: take the later knot
        x = np.divide(s - t0, t1 - t0, out=np.ones_like(s), where=t1 > t0)[..., None, None]
        return (1.0 - x) * self._matrices[j] + x * self._matrices[j + 1]


def _step_counts(times: np.ndarray, n_steps: int) -> np.ndarray:
    """The steps on each interval of a non-sudden path's knot ``times``: at least one, in
    proportion to its length, so no step straddles a kink and a ramp takes ``n_steps``."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1 for non-sudden protocols")
    return np.maximum(1, np.rint(n_steps * np.diff(times) / times[-1]).astype(int))


def _step_midpoints(times: np.ndarray, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The midpoint t_k + dt_k / 2 and the width dt_k of each step k."""
    counts = _step_counts(times, n_steps)
    dt = np.repeat(np.diff(times) / counts, counts)
    index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(times[:-1], counts) + (index + 0.5) * dt, dt


def _polar(m: np.ndarray) -> np.ndarray:
    """The nearest unitary (polar factor) to each matrix of a stack, by one batched ``svd``."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _ordered_products(steps: np.ndarray) -> np.ndarray:
    """Polar-projected ordered product U_n ... U_1 of each row of a stack (k, n, d, d)
    of step propagators: pairwise, later step on the left, in log2(n) batched
    products."""
    while steps.shape[1] > 1:
        if steps.shape[1] % 2:
            identity = np.broadcast_to(np.eye(steps.shape[2]), (len(steps), 1) + steps.shape[2:])
            steps = np.concatenate([steps, identity], axis=1)
        steps = steps[:, 1::2] @ steps[:, ::2]
    return _polar(steps[:, 0])


def _ordered_exponentials(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """The polar-projected ordered product exp(-i K_n) ... exp(-i K_1) of each stack
    of Hermitian generators in ``stacks``: every factor of every stack from batched
    ``eigh`` chunks of at most ``EIGH_CHUNK`` entries (one below ``EIGH_SPLIT_ENTRIES``, else
    two or more, claimed in turn: ``_threads.claimed``), each chunk's factors overwriting its
    generators, and each run of stacks of one length multiplied together.  ``stacks`` is emptied."""
    lengths = [len(k) for k in stacks]
    steps = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
    stacks.clear()
    chunk = max(1, EIGH_CHUNK // steps[0].size)
    if steps.size >= _threads.EIGH_SPLIT_ENTRIES:
        chunk = min(chunk, -(-len(steps) // 2))

    def exponentiate(claims) -> dict:
        for part in claims:
            rows = slice(part * chunk, (part + 1) * chunk)
            w, v = np.linalg.eigh(steps[rows])
            factors = v * np.exp(-1j * w)[:, None, :]
            np.matmul(factors, np.conjugate(v, out=v).swapaxes(1, 2), out=steps[rows])
        return {}

    _threads.claimed(exponentiate, -(-len(steps) // chunk))
    products, start = [], 0
    for n, run in groupby(lengths):
        stop = start + n * len(list(run))
        products.extend(_ordered_products(steps[start:stop].reshape((-1, n) + steps.shape[1:])))
        start = stop
    return products


def step_product(protocol: DrivingProtocol, n_steps: int) -> np.ndarray:
    """Ordered product of midpoint-rule step propagators exp(-i H(t_mid) dt),
    second order in dt: the cross-check of ``magnus_product``.

    Each factor comes from an exact eigendecomposition (unitary to rounding);
    the accumulated product is polar-projected back onto the unitary group.
    """
    if protocol.tau == 0.0:
        return np.eye(protocol.initial.dim, dtype=complex)
    midpoints, dt = _step_midpoints(protocol._times, n_steps)
    return _ordered_exponentials([dt[:, None, None] * protocol.hamiltonian_at(midpoints)])[0]


# Stacked generator entries (steps x d^2, 8 MiB of complex) that one ``_ordered_exponentials``
# takes: the units of ``_magnus_products`` are stacked in order up to this bound, and a
# larger unit runs alone, so memory does not grow with the number of protocols.  A
# ramp's 64- and 32-step units share one stack up to d = 73, past the scope's d = 64.
GENERATOR_BLOCK = 2**19
EIGH_CHUNK = 2**16  # entries (1 MiB) per eigh call there: a thread's temporaries stay small


def _magnus_generators(path: tuple[np.ndarray, np.ndarray], n_steps: int) -> np.ndarray:
    """The fourth-order Magnus generators K of a non-sudden ``path``'s steps.  On knot interval
    j, H is linear, so [H_2, H_1] = (x_2 - x_1) [H_{j+1}, H_j] at the nodes' fractions x_1 < x_2
    of it: K = dt/2 ((2 - s) H_j + s H_{j+1}) - i (sqrt(3)/12) dt^2 (x_2 - x_1) [H_{j+1}, H_j],
    s = x_1 + x_2 = (2i + 1)/c at step i of c, x_2 - x_1 = 1/(sqrt(3) c).  A jump has K = 0."""
    times, m = path
    counts = _step_counts(times, n_steps)
    dt = np.diff(times) / counts
    generators = np.empty((int(counts.sum()),) + m.shape[1:], dtype=complex)
    for j, rows in enumerate(np.split(generators, np.cumsum(counts)[:-1])):
        c = len(rows)
        product = m[j + 1] @ m[j]  # [H_{j+1}, H_j] = H_{j+1} H_j - (H_{j+1} H_j)^dagger
        # dt/2 ((2 - s) H_j + s H_{j+1}) = dt H_j + dt s/2 (H_{j+1} - H_j), in place on the rows
        np.multiply((dt[j] / c * (np.arange(c) + 0.5))[:, None, None], m[j + 1] - m[j], out=rows)
        rows += dt[j] * m[j] - (1j * dt[j] ** 2 / (12.0 * c)) * (product - product.conj().T)
    return generators


def _magnus_products(units: list[tuple[tuple, int]]) -> list[np.ndarray]:
    """``magnus_product`` of each (non-sudden protocol's path, n_steps) unit, in order.  The
    units' generators are stacked in order, up to ``GENERATOR_BLOCK`` entries a stack
    (a larger unit alone), and each stack is exponentiated by ``_ordered_exponentials``
    before the next unit's generators are built."""
    products, stack, size = [], [], 0
    for path, n_steps in units:
        entries = int(_step_counts(path[0], n_steps).sum()) * path[1][0].size
        if stack and size + entries > GENERATOR_BLOCK:
            products += _ordered_exponentials(stack)
            size = 0
        stack.append(_magnus_generators(path, n_steps))
        size += entries
    return products + (_ordered_exponentials(stack) if stack else [])


def magnus_product(protocol: DrivingProtocol, n_steps: int) -> np.ndarray:
    """Ordered product of fourth-order Magnus step propagators exp(-i K),
    K = dt/2 (H_1 + H_2) - i sqrt(3)/12 dt^2 [H_2, H_1], with H_1 and H_2 the
    Hamiltonian at the two Gauss-Legendre nodes t_k + (1/2 -+ sqrt(3)/6) dt.

    K is Hermitian, so each step costs one ``eigh`` like a midpoint step.  The step is
    time-symmetric, so its error is even in dt.  K is built per knot interval
    (``_magnus_generators``).  Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 151 (2009).
    """
    if protocol.tau == 0.0:
        return np.eye(protocol.initial.dim, dtype=complex)
    return _magnus_products([((protocol._times, protocol._matrices), n_steps)])[0]


def evolve_unitary(protocol: DrivingProtocol, n_steps: int = 32,
                   tol: float = REFINEMENT_TOL) -> np.ndarray:
    """Propagator from ``magnus_product`` at n and 2n steps, n doubling from ``n_steps`` until
    the two agree entrywise within ``tol``: the Richardson extrapolant polar((16 U_2n - U_n)/15)
    of that pair, whose dt^4 error term cancels (Hairer, Lubich and Wanner, Geometric Numerical
    Integration, 2006).  Raises ``NotConverged`` if ``MAX_DOUBLINGS`` doublings miss the gate."""
    return _evolve_all([(protocol._times, protocol._matrices)], n_steps, tol)[0]


def _evolve_all(paths: list[tuple], n_steps: int, tol: float) -> list[np.ndarray]:
    """``evolve_unitary`` of the protocol of each path (knot times, matrices) of one
    dimension.  A sudden switch is the identity; the first two resolutions of every other
    path are one ``_magnus_products`` pass, and each further doubling is one pass over the
    paths that missed the gate."""
    unitaries = [np.eye(m.shape[-1], dtype=complex) for _, m in paths]
    pending = [i for i, (times, _) in enumerate(paths) if times[-1] != 0.0]
    # The finer resolution first (its larger generators are built while fewer are
    # held), each resolution's units in a run that is multiplied together.
    first = _magnus_products([(paths[i], n) for n in (2 * n_steps, n_steps) for i in pending])
    refined, current = first[:len(pending)], first[len(pending):]
    for doubling in range(MAX_DOUBLINGS):
        n_steps *= 2
        if doubling:
            refined = _magnus_products([(paths[i], n_steps) for i in pending])
        missed = [float(np.max(np.abs(new - old))) > tol for old, new in zip(current, refined)]
        met = [k for k, miss in enumerate(missed) if not miss]
        if met:  # the pass's extrapolants, polar-projected by one batched svd
            extrapolants = np.array([16.0 * refined[k] - current[k] for k in met]) / 15.0
            for k, u in zip(met, _polar(extrapolants)):
                unitaries[pending[k]] = u
        pending = [i for i, miss in zip(pending, missed) if miss]
        current = [u for u, miss in zip(refined, missed) if miss]
        if not pending:
            return unitaries
    raise NotConverged(
        f"propagator did not converge to {tol:.0e} within {n_steps} steps"
    )


@dataclass(frozen=True)
class ConditionalThermalState:
    """Mixture of evolved initial-energy eigenstates with Boltzmann weights in
    the conditional energies h_B(j) = <j_A|U† H_B U|j_A>."""

    rho: DensityMatrix
    weights: np.ndarray
    h_values: np.ndarray
    log_conditional_z: float
    degenerate_initial: bool


def conditional_thermal_state(
    h_initial: HermitianOperator,
    h_final: HermitianOperator,
    unitary: np.ndarray,
    beta: float,
) -> ConditionalThermalState:
    """Conditional thermal state for driving from ``h_initial`` to ``h_final``
    through ``unitary`` at inverse temperature ``beta``.

    Under a degenerate initial Hamiltonian the conditional energies depend on
    the basis chosen inside each degenerate subspace: the eigenvectors that
    ``eigendecompose`` gives h_initial, which are ``eigh``'s own there, are used
    and the degeneracy flagged on the result.
    """
    if h_final.dim != h_initial.dim:
        raise ValueError("Hamiltonian dimensions must match")
    spectrum = eigendecompose(h_initial, "ascending")
    states, weights, h_values, log_z = _conditional_states(
        spectrum.vectors[None], h_final.matrix[None], np.asarray(unitary, dtype=complex)[None],
        beta)
    return ConditionalThermalState(DensityMatrix(states[0]), weights[0], h_values[0],
                                   float(log_z[0]), len(spectrum.clusters) < h_initial.dim)


def _conditional_states(
    basis: np.ndarray, finals: np.ndarray, unitaries: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``conditional_thermal_state`` of each row of a block of one dimension, from the
    stacks (B, d, d) of H_A's ascending eigenvectors ``basis``, H_B's matrices ``finals``
    and the propagators: (states, weights, h_values, ln Z(B|A)), the weights and ln Z(B|A)
    from ``_gibbs_logs`` of the conditional energies (``OutOfScope`` if a weight
    underflows, as for a Gibbs state), the states as matrices that the caller validates.
    Each row has the bits of a block of one."""
    dim = basis.shape[-1]
    u = np.asarray(unitaries, dtype=complex)
    if u.shape[1:] != (dim, dim):
        raise ValueError(f"propagator shape {u.shape[1:]} does not match dim {dim}")
    for defect in np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(dim)).max(axis=(1, 2)).tolist():
        if defect > UNITARY_ATOL:
            raise ValueError(f"propagator is not unitary: defect {defect:.3e}")
    evolved = u @ basis
    h_values = np.einsum("bdi,bde,bei->bi", evolved.conj(), finals, evolved).real
    log_z, _, weights = _gibbs_logs(h_values, beta)
    states = (evolved * weights[:, None, :]) @ evolved.conj().swapaxes(1, 2)
    return states, weights, h_values, log_z


@dataclass(frozen=True)
class WorkReport:
    """Work accounting and the sharpened bound for one protocol run from a
    thermal initial state.

    ``jensen_slack`` is beta <W> + ln Z(B|A) - ln Z_A (that is, beta <W> +
    ln <exp(-beta W)> under the initial thermal weights), the exact gap
    between beta <W_irr> and the bound.  ``bound_closed_form`` is
    ln Z_B - ln Z(B|A), which the bound equals exactly (the conditional
    partition identity).  The bound is ``incoherent`` (the incoherent ergotropy piece,
    in units of beta) + ``coherence`` + ``population`` (the dephased state's mismatch).
    ``w_irr`` is avg_work - delta_f, as ``_bound_reports`` computes it.  Building a report raises
    the failed ``_bound_checks`` (``require``), which ``otm`` prints instead."""

    avg_work: float
    delta_f: float
    w_irr: float
    beta: float
    bound: float
    incoherent: float
    coherence: float
    population: float
    jensen_slack: float
    alt_incoherent_ergotropy: float
    alt_coherent_ergotropy: float
    bound_closed_form: float

    def __post_init__(self):
        require(_bound_checks(vars(self)))


def _bound_checks(report: dict) -> dict:
    """The ``WorkReport`` invariants of its fields, floats or a block's rows, by name: beta w_irr
    is at least the bound - 1e-9; the three terms miss the bound by at most min(1e-9, 1e-8 beta),
    which gates the conditional routes too, as terms - bound = beta (total - via_entropies);
    and the conditional ergotropy, the sum of the ``alt_*`` fields, is at least -1e-9."""
    beta, bound = report["beta"], report["bound"]
    terms = report["incoherent"] + report["coherence"] + report["population"]
    return {"maximum_work_bound": check(beta * report["w_irr"] - bound, -1e-9, at_most=False),
            "bound_decomposition": check(abs(terms - bound), min(1e-9, 1e-8 * beta)),
            "conditional_ergotropy_nonnegative": check(
                report["alt_incoherent_ergotropy"] + report["alt_coherent_ergotropy"], -1e-9,
                at_most=False)}


def sharpened_bound_report(protocol: DrivingProtocol, unitary: np.ndarray,
                           beta: float) -> WorkReport:
    """Work report of a thermal initial state driven through ``unitary``, with the
    conditional-state bound and its decomposition (``_work_fields``).

    The bound is the relative entropy of the conditional thermal state to the final Gibbs
    state; its three pieces follow the printed coherent/incoherent convention (which makes
    the incoherent piece vanish identically - the dephasing-based alternative is reported
    alongside).  H_A and H_B are diagonalized once each, the spectra kept on the operators.
    The work accounting reads those spectra and diagonalizes nothing more:
    <W> = sum_j p_j (h_B(j) - E_j) over the initial Gibbs spectrum and
    Delta F = -(ln Z_B - ln Z_A) / beta.
    """
    return WorkReport(**_work_fields(protocol, unitary, beta))


def _work_fields(protocol: DrivingProtocol, unitary: np.ndarray, beta: float) -> dict:
    """The ``sharpened_bound_report`` fields, unchecked: its ``_bound_reports`` row and beta."""
    columns = _bound_reports(_stack_of(protocol.initial, "ascending"),
                             _stack_of(protocol.final, "ascending"),
                             np.asarray(unitary, dtype=complex)[None], beta)
    return {"beta": float(beta), **{name: float(values[0]) for name, values in columns.items()}}


def _bound_reports(initial: _Stack, final: _Stack, unitaries: np.ndarray,
                   beta: float) -> dict[str, np.ndarray]:
    """The ``sharpened_bound_report`` fields of each row of a block of one dimension, as columns
    named like the ``WorkReport`` fields but ``beta``, from the ascending ``_Stack``s of H_A and
    H_B: the H_A Gibbs logs, the conditional states validated as one stack, and one
    ``_SpectralBlock`` of them and the H_B's for every route, unchecked (``_bound_checks``
    checks them).  Each row has the bits of a block of one."""
    energies = initial.values
    log_z_a, _, populations = _gibbs_logs(energies, beta)
    states, _, h_values, log_cz = _conditional_states(initial.vectors, final.matrices,
                                                      unitaries, beta)
    block = _SpectralBlock.of(_states(states), final, beta)
    routes = _routes(block)
    avg_work = _dots(populations, h_values - energies)
    delta_f = -(block.log_z - log_z_a) / float(beta)
    return {
        "avg_work": avg_work, "delta_f": delta_f, "w_irr": avg_work - delta_f,
        "bound": block.relative_entropy, "incoherent": beta * routes["incoherent"],
        "coherence": block.coherence, "population": block.population_divergence,
        "jensen_slack": beta * avg_work + log_cz - log_z_a,
        "alt_incoherent_ergotropy": routes["dephased_ergotropy"],
        "alt_coherent_ergotropy": routes["total"] - routes["dephased_ergotropy"],
        "bound_closed_form": block.log_z - log_cz,
    }
