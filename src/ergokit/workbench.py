"""Driven-system experiments: protocol propagators, conditional thermal states,
work accounting, and the sharpened maximum work bound with its decomposition.

The initial state is always the thermal state of the initial Hamiltonian, which
is the setting in which average work compares against the free-energy change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NotConverged
from .ergotropy import ergotropy_report
from .quantum import (
    DensityMatrix,
    HermitianOperator,
    _logsumexp,
    eigendecompose,
    gibbs_state,
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
        # (1 - x) M[j] + x M[j + 1] in place on copies (even for a scalar j): no third temporary
        lower, upper = (np.take(self._matrices, k, axis=0) for k in (j, j + 1))
        lower *= 1.0 - x
        upper *= x
        lower += upper
        return lower


def _step_nodes(
    protocol: DrivingProtocol, n_steps: int, fractions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample times t_k + c dt_k of each step k at each fraction c, shape
    (steps, len(fractions)), and the step widths dt_k.

    Each knot interval gets its own uniform grid of at least one step, with
    counts in proportion to the interval's length, so no step straddles a
    kink; a linear ramp takes ``n_steps`` equal steps.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1 for non-sudden protocols")
    times = protocol._times
    lengths = np.diff(times)
    counts = np.maximum(1, np.rint(n_steps * lengths / protocol.tau).astype(int))
    starts = np.repeat(times[:-1], counts)[:, None]
    dt = np.repeat(lengths / counts, counts)
    index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return starts + (index[:, None] + fractions) * dt[:, None], dt


def _ordered_exponential(generators: np.ndarray) -> np.ndarray:
    """Polar-projected ordered product exp(-i K_n) ... exp(-i K_1) of stacked
    Hermitian generators; each factor comes from one batched ``eigh``."""
    w, v = np.linalg.eigh(generators)
    steps = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
    while len(steps) > 1:  # pairwise, later step on the left: log2(n) batched products
        if len(steps) % 2:
            steps = np.concatenate([steps, np.eye(steps.shape[1])[None]])
        steps = steps[1::2] @ steps[::2]
    u, _, vh = np.linalg.svd(steps[0])
    return u @ vh


def step_product(protocol: DrivingProtocol, n_steps: int) -> np.ndarray:
    """Ordered product of midpoint-rule step propagators exp(-i H(t_mid) dt),
    second order in dt: the cross-check of ``magnus_product``.

    Each factor comes from an exact eigendecomposition (unitary to rounding);
    the accumulated product is polar-projected back onto the unitary group.
    """
    if protocol.tau == 0.0:
        return np.eye(protocol.initial.dim, dtype=complex)
    nodes, dt = _step_nodes(protocol, n_steps, np.array([0.5]))
    return _ordered_exponential(dt[:, None, None] * protocol.hamiltonian_at(nodes[:, 0]))


_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0


def magnus_product(protocol: DrivingProtocol, n_steps: int) -> np.ndarray:
    """Ordered product of fourth-order Magnus step propagators exp(-i K),
    K = dt/2 (H_1 + H_2) - i sqrt(3)/12 dt^2 [H_2, H_1], with H_1 and H_2 the
    Hamiltonian at the two Gauss-Legendre nodes t_k + (1/2 -+ sqrt(3)/6) dt.

    K is Hermitian, so each step costs one ``eigh`` like a midpoint step.
    Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 151 (2009).
    """
    if protocol.tau == 0.0:
        return np.eye(protocol.initial.dim, dtype=complex)
    nodes, dt = _step_nodes(protocol, n_steps, _GAUSS_NODES)
    h1, h2 = np.moveaxis(protocol.hamiltonian_at(nodes), 1, 0)
    commutator = h2 @ h1  # [H_2, H_1] = H_2 H_1 - (H_2 H_1)^dagger for Hermitian H_1, H_2
    commutator -= commutator.conj().swapaxes(1, 2)
    dt = dt[:, None, None]
    generators = 0.5 * dt * (h1 + h2) - (1j * np.sqrt(3.0) / 12.0) * dt**2 * commutator
    del h1, h2, commutator  # free the 2n sampled matrices before the batched eigh
    return _ordered_exponential(generators)


def evolve_unitary(
    protocol: DrivingProtocol,
    n_steps: int = 64,
    tol: float = REFINEMENT_TOL,
) -> np.ndarray:
    """Propagator of the protocol from ``magnus_product``, refined by
    step-halving until two successive resolutions agree entrywise within
    ``tol``.  Raises ``NotConverged`` if ``MAX_DOUBLINGS`` halvings do not
    meet the gate."""
    current = magnus_product(protocol, n_steps)
    for _ in range(MAX_DOUBLINGS):
        n_steps *= 2
        refined = magnus_product(protocol, n_steps)
        if float(np.max(np.abs(refined - current))) <= tol:
            return refined
        current = refined
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
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    dim = h_initial.dim
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (dim, dim):
        raise ValueError(f"propagator shape {u.shape} does not match dim {dim}")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
    if defect > UNITARY_ATOL:
        raise ValueError(f"propagator is not unitary: defect {defect:.3e}")
    if dim != h_final.dim:
        raise ValueError("Hamiltonian dimensions must match")

    spectrum = eigendecompose(h_initial, "ascending")
    evolved = u @ spectrum.vectors
    h_values = np.einsum("di,de,ei->i", evolved.conj(), h_final.matrix, evolved).real
    logits = -beta * h_values
    log_z = float(_logsumexp(logits))
    weights = np.exp(logits - log_z)
    rho = DensityMatrix((evolved * weights) @ evolved.conj().T)
    return ConditionalThermalState(
        rho=rho,
        weights=weights,
        h_values=h_values,
        log_conditional_z=log_z,
        degenerate_initial=any(len(c) > 1 for c in spectrum.clusters),
    )


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
    partition identity).
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
        if abs(self.w_irr - (self.avg_work - self.delta_f)) > 1e-12:
            raise InvariantViolation("w_irr must equal avg_work - delta_f")
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
    initial = gibbs_state(protocol.initial, beta)
    conditional = conditional_thermal_state(protocol.initial, protocol.final, unitary, beta)
    report = ergotropy_report(conditional.rho, protocol.final, beta)
    context = report.context
    avg_work = float(initial.populations @ (conditional.h_values - initial.energies))
    delta_f = -(float(context.log_z[0]) - initial.log_z) / initial.beta
    return WorkReport(
        avg_work=avg_work,
        delta_f=delta_f,
        w_irr=avg_work - delta_f,
        beta=initial.beta,
        bound=float(context.relative_entropy[0]),
        bound_terms=BoundTerms(
            incoherent=beta * report.incoherent,
            coherence=float(context.coherence[0]),
            population=float(context.population_divergence[0]),
        ),
        jensen_slack=beta * avg_work + conditional.log_conditional_z - initial.log_z,
        alt_incoherent_ergotropy=report.dephased_ergotropy,
        alt_coherent_ergotropy=report.total - report.dephased_ergotropy,
        bound_closed_form=float(context.log_z[0]) - conditional.log_conditional_z,
    )
