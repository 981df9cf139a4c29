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
from .errors import InvariantViolation, NotConverged
from .ergotropy import _check_routes, _routes
from .quantum import (
    DensityMatrix,
    HermitianOperator,
    _dots,
    _eigendecompose_all,
    _gibbs_logs,
    _SpectralBlock,
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
    therefore a sudden switch from ``initial`` to ``final``.
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

    @classmethod
    def from_schedule(
        cls, knots: list[tuple[float, HermitianOperator]]
    ) -> "DrivingProtocol":
        return cls(tuple(knots))

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


def _step_counts(protocol: DrivingProtocol, n_steps: int) -> np.ndarray:
    """The steps on each knot interval: at least one, in proportion to its length, so no
    step straddles a kink and a linear ramp takes ``n_steps`` equal steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1 for non-sudden protocols")
    return np.maximum(1, np.rint(n_steps * np.diff(protocol._times) / protocol.tau).astype(int))


def _step_midpoints(protocol: DrivingProtocol, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The midpoint t_k + dt_k / 2 and the width dt_k of each step k."""
    counts = _step_counts(protocol, n_steps)
    dt = np.repeat(np.diff(protocol._times) / counts, counts)
    index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(protocol._times[:-1], counts) + (index + 0.5) * dt, dt


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
    ``eigh`` chunks of at most ``EIGH_CHUNK`` entries (two or more, claimed in turn, if the
    stack may split: ``_threads.claimed``), each chunk's factors overwriting its generators,
    and each run of stacks of one length multiplied together.  ``stacks`` is emptied."""
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

    _threads.claimed(exponentiate, -(-len(steps) // chunk), steps.size, _threads.EIGH_SPLIT_ENTRIES)
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
    midpoints, dt = _step_midpoints(protocol, n_steps)
    return _ordered_exponentials([dt[:, None, None] * protocol.hamiltonian_at(midpoints)])[0]


# Stacked generator entries (steps x d^2, 8 MiB of complex) that one ``_ordered_exponentials``
# takes: the units of ``_magnus_products`` are stacked in order up to this bound, and a
# larger unit runs alone, so memory does not grow with the number of protocols.  A
# ramp's 64- and 32-step units share one stack up to d = 73, past the scope's d = 64.
GENERATOR_BLOCK = 2**19
EIGH_CHUNK = 2**16  # entries (1 MiB) per eigh call there: a thread's temporaries stay small


def _magnus_generators(protocol: DrivingProtocol, n_steps: int) -> np.ndarray:
    """The fourth-order Magnus generators K of a non-sudden protocol's steps.  On knot interval
    j, H is linear, so [H_2, H_1] = (x_2 - x_1) [H_{j+1}, H_j] at the nodes' fractions x_1 < x_2
    of it: K = dt/2 ((2 - s) H_j + s H_{j+1}) - i (sqrt(3)/12) dt^2 (x_2 - x_1) [H_{j+1}, H_j],
    s = x_1 + x_2 = (2i + 1)/c at step i of c, x_2 - x_1 = 1/(sqrt(3) c).  A jump has K = 0."""
    counts = _step_counts(protocol, n_steps)
    dt, m = np.diff(protocol._times) / counts, protocol._matrices
    generators = np.empty((int(counts.sum()),) + m.shape[1:], dtype=complex)
    for j, rows in enumerate(np.split(generators, np.cumsum(counts)[:-1])):
        c = len(rows)
        product = m[j + 1] @ m[j]  # [H_{j+1}, H_j] = H_{j+1} H_j - (H_{j+1} H_j)^dagger
        # dt/2 ((2 - s) H_j + s H_{j+1}) = dt H_j + dt s/2 (H_{j+1} - H_j), in place on the rows
        np.multiply((dt[j] / c * (np.arange(c) + 0.5))[:, None, None], m[j + 1] - m[j], out=rows)
        rows += dt[j] * m[j] - (1j * dt[j] ** 2 / (12.0 * c)) * (product - product.conj().T)
    return generators


def _magnus_products(units: list[tuple[DrivingProtocol, int]]) -> list[np.ndarray]:
    """``magnus_product`` of each (non-sudden protocol, n_steps) unit, in order.  The
    units' generators are stacked in order, up to ``GENERATOR_BLOCK`` entries a stack
    (a larger unit alone), and each stack is exponentiated by ``_ordered_exponentials``
    before the next unit's generators are built."""
    products, stack, size = [], [], 0
    for protocol, n_steps in units:
        entries = int(_step_counts(protocol, n_steps).sum()) * protocol.initial.dim**2
        if stack and size + entries > GENERATOR_BLOCK:
            products += _ordered_exponentials(stack)
            size = 0
        stack.append(_magnus_generators(protocol, n_steps))
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
    return _magnus_products([(protocol, n_steps)])[0]


def evolve_unitary(protocol: DrivingProtocol, n_steps: int = 32,
                   tol: float = REFINEMENT_TOL) -> np.ndarray:
    """Propagator from ``magnus_product`` at n and 2n steps, n doubling from ``n_steps`` until
    the two agree entrywise within ``tol``: the Richardson extrapolant polar((16 U_2n - U_n)/15)
    of that pair, whose dt^4 error term cancels (Hairer, Lubich and Wanner, Geometric Numerical
    Integration, 2006).  Raises ``NotConverged`` if ``MAX_DOUBLINGS`` doublings miss the gate."""
    return _evolve_all([protocol], n_steps, tol)[0]


def _evolve_all(protocols: list[DrivingProtocol], n_steps: int, tol: float) -> list[np.ndarray]:
    """``evolve_unitary`` of each protocol of one dimension.  A sudden switch is the identity;
    the first two resolutions of every other protocol are one ``_magnus_products`` pass, and
    each further doubling is one pass over the protocols that missed the gate."""
    unitaries = [np.eye(p.initial.dim, dtype=complex) for p in protocols]
    pending = [i for i, p in enumerate(protocols) if p.tau != 0.0]
    # The finer resolution first (its larger generators are built while fewer are
    # held), each resolution's units in a run that is multiplied together.
    first = _magnus_products([(protocols[i], n) for n in (2 * n_steps, n_steps) for i in pending])
    refined, current = first[:len(pending)], first[len(pending):]
    for doubling in range(MAX_DOUBLINGS):
        n_steps *= 2
        if doubling:
            refined = _magnus_products([(protocols[i], n_steps) for i in pending])
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
    the basis chosen inside each degenerate subspace; the canonical tie-broken
    basis is used and the degeneracy flagged on the result.
    """
    return _conditional_states([h_initial], [h_final], np.asarray(unitary, dtype=complex)[None],
                               beta)[0]


def _conditional_states(
    h_initial: list[HermitianOperator],
    h_final: list[HermitianOperator],
    unitaries: np.ndarray,
    beta: float,
) -> list[ConditionalThermalState]:
    """``conditional_thermal_state`` of each row of a block of one dimension: one
    stacked ``eigendecompose`` of the initial Hamiltonians, ln Z(B|A) and the weights
    from ``_gibbs_logs`` of the conditional energies (``OutOfScope`` if a weight
    underflows, as for a Gibbs state), and the states validated together by
    ``DensityMatrix._block``.  Each row has the bits of a block of one."""
    dim = h_initial[0].dim
    u = np.asarray(unitaries, dtype=complex)
    if u.shape[1:] != (dim, dim):
        raise ValueError(f"propagator shape {u.shape[1:]} does not match dim {dim}")
    for defect in np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(dim)).max(axis=(1, 2)).tolist():
        if defect > UNITARY_ATOL:
            raise ValueError(f"propagator is not unitary: defect {defect:.3e}")
    if any(h.dim != dim for h in h_final):
        raise ValueError("Hamiltonian dimensions must match")

    _, vectors, clusters = _eigendecompose_all(h_initial, "ascending")
    evolved = u @ vectors
    finals = np.array([h.matrix for h in h_final])
    h_values = np.einsum("bdi,bde,bei->bi", evolved.conj(), finals, evolved).real
    log_z, _, weights = _gibbs_logs(h_values, beta)
    rhos = DensityMatrix._block((evolved * weights[:, None, :]) @ evolved.conj().swapaxes(1, 2))
    return [ConditionalThermalState(rho, w, h, z, any(len(c) > 1 for c in runs))
            for rho, w, h, z, runs in zip(rhos, weights, h_values, log_z.tolist(), clusters)]


@dataclass(frozen=True)
class BoundTerms:
    """Decomposition of the irreversible-work bound: incoherent ergotropy piece
    (in units of beta), coherence, and population mismatch."""

    incoherent: float
    coherence: float
    population: float

    def total(self) -> float:
        return self.incoherent + self.coherence + self.population


@dataclass(frozen=True)
class WorkReport:
    """Work accounting and the sharpened bound for one protocol run from a
    thermal initial state.

    ``jensen_slack`` is beta <W> + ln Z(B|A) - ln Z_A (that is, beta <W> +
    ln <exp(-beta W)> under the initial thermal weights), the exact gap
    between beta <W_irr> and the bound.  ``bound_closed_form`` is
    ln Z_B - ln Z(B|A), which the bound equals exactly (the conditional
    partition identity).  ``w_irr`` is avg_work - delta_f, as ``_bound_reports``
    computes it.  Building a report raises ``InvariantViolation`` if beta w_irr
    falls below the bound, or the three terms miss it, by more than 1e-9: a
    printed report has passed both, so ``otm`` prints neither as a check.
    """

    avg_work: float
    delta_f: float
    w_irr: float
    beta: float
    bound: float
    bound_terms: BoundTerms
    jensen_slack: float
    alt_incoherent_ergotropy: float
    alt_coherent_ergotropy: float
    bound_closed_form: float

    def __post_init__(self):
        if self.beta * self.w_irr < self.bound - 1e-9:
            raise InvariantViolation(
                "maximum work bound violated: beta*w_irr = "
                f"{self.beta * self.w_irr:.12e} < bound = {self.bound:.12e}"
            )
        gap = abs(self.bound_terms.total() - self.bound)
        if gap > 1e-9:
            raise InvariantViolation(f"bound decomposition misses the bound by {gap:.3e}")


def sharpened_bound_report(
    protocol: DrivingProtocol, unitary: np.ndarray, beta: float
) -> WorkReport:
    """Work report of a thermal initial state driven through ``unitary``, with
    the conditional-state bound and its decomposition.

    The bound is the relative entropy of the conditional thermal state to the
    final Gibbs state; its three pieces follow the printed coherent/incoherent
    convention (which makes the incoherent piece vanish identically - the
    dephasing-based alternative is reported alongside).  H_A and H_B are
    diagonalized once each, the spectra kept on the operators.  The work
    accounting reads those spectra and diagonalizes nothing more:
    <W> = sum_j p_j (h_B(j) - E_j) over the initial Gibbs spectrum and
    Delta F = -(ln Z_B - ln Z_A) / beta.
    """
    return _bound_reports([protocol], np.asarray(unitary, dtype=complex)[None], beta)[0]


def _bound_reports(protocols: list[DrivingProtocol], unitaries: np.ndarray,
                   beta: float) -> list[WorkReport]:
    """``sharpened_bound_report`` of each row of a block of one dimension: the H_A
    spectra and Gibbs logs stacked, the conditional states built as one stack, and
    one ``_SpectralBlock`` of the conditional states and H_B's for every route and
    check.  Each row has the bits of a block of one."""
    h_initial = [p.initial for p in protocols]
    h_final = [p.final for p in protocols]
    energies = _eigendecompose_all(h_initial, "ascending")[0]
    log_z_a, _, populations = _gibbs_logs(energies, beta)
    conditional = _conditional_states(h_initial, h_final, unitaries, beta)
    block = _SpectralBlock.of([c.rho for c in conditional], h_final, beta)
    routes = _routes(block)
    _check_routes(routes["total"], routes["via_entropies"])
    log_cz = np.array([c.log_conditional_z for c in conditional])
    avg_work = _dots(populations, np.array([c.h_values for c in conditional]) - energies)
    delta_f = -(block.log_z - log_z_a) / float(beta)
    rows = zip(*(column.tolist() for column in (
        avg_work, delta_f, avg_work - delta_f, block.relative_entropy,
        beta * routes["incoherent"], block.coherence, block.population_divergence,
        beta * avg_work + log_cz - log_z_a, routes["dephased_ergotropy"],
        routes["total"] - routes["dephased_ergotropy"], block.log_z - log_cz,
    )))
    # WorkReport's fields in order, beta and the bound's three terms put in place.
    return [WorkReport(*row[:3], float(beta), row[3], BoundTerms(*row[4:7]), *row[7:])
            for row in rows]
