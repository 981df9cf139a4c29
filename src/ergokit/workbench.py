"""Driven-system experiments: protocol propagators, conditional thermal states,
work accounting, and the sharpened maximum work bound with its decomposition.

The initial state is always the thermal state of the initial Hamiltonian, which
is the setting in which average work compares against the free-energy change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .errors import InvariantViolation, NotConverged
from .ergotropy import ergotropy_report
from .quantum import (
    DensityMatrix,
    GibbsState,
    HermitianOperator,
    eigendecompose,
    gibbs_state,
)

ENDPOINT_ATOL = 1e-12
UNITARY_ATOL = 1e-9
REFINEMENT_TOL = 1e-8


@dataclass(frozen=True)
class DrivingProtocol:
    """Time-dependent Hamiltonian path from ``initial`` to ``final``.

    ``kind`` is one of "sudden" (instantaneous switch, tau = 0), "linear_ramp",
    or "custom" (piecewise-linear interpolation between (time, Hamiltonian)
    knots spanning [0, tau]).
    """

    initial: HermitianOperator
    final: HermitianOperator
    kind: str
    tau: float
    knots: tuple[tuple[float, HermitianOperator], ...] | None = None

    def __post_init__(self):
        if self.initial.dim != self.final.dim:
            raise ValueError("initial and final Hamiltonians must share a dimension")
        if self.kind not in ("sudden", "linear_ramp", "custom"):
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.tau < 0.0:
            raise ValueError("tau must be nonnegative")
        if (self.tau == 0.0) != (self.kind == "sudden"):
            raise ValueError("tau = 0 if and only if the protocol is sudden")
        if self.kind == "custom":
            knots = self.knots
            if not knots or len(knots) < 2:
                raise ValueError("custom protocols need at least two knots")
            times = [t for t, _ in knots]
            if times != sorted(times) or abs(times[0]) > 0 or abs(times[-1] - self.tau) > 1e-12:
                raise ValueError("knot times must increase from 0 to tau")
            for endpoint, knot in ((self.initial, knots[0][1]), (self.final, knots[-1][1])):
                if np.max(np.abs(endpoint.matrix - knot.matrix)) > ENDPOINT_ATOL:
                    raise ValueError("knot endpoints must equal the protocol endpoints")
        elif self.knots is not None:
            raise ValueError("knots are only allowed for custom protocols")

    @classmethod
    def sudden(cls, initial: HermitianOperator, final: HermitianOperator) -> "DrivingProtocol":
        return cls(initial=initial, final=final, kind="sudden", tau=0.0)

    @classmethod
    def linear_ramp(
        cls, initial: HermitianOperator, final: HermitianOperator, tau: float
    ) -> "DrivingProtocol":
        return cls(initial=initial, final=final, kind="linear_ramp", tau=tau)

    @classmethod
    def from_schedule(
        cls, knots: list[tuple[float, HermitianOperator]]
    ) -> "DrivingProtocol":
        return cls(
            initial=knots[0][1],
            final=knots[-1][1],
            kind="custom",
            tau=knots[-1][0],
            knots=tuple(knots),
        )

    def hamiltonian_at(self, t: float | np.ndarray) -> np.ndarray:
        """Interpolated Hamiltonian matrix at time t in [0, tau]; an array of
        times gives the matrices stacked along its shape, t.shape + (d, d)."""
        s = np.asarray(t, dtype=float)
        if self.kind == "sudden":
            return np.broadcast_to(self.final.matrix, s.shape + self.final.matrix.shape)
        s = np.clip(s, 0.0, self.tau)
        if self.kind == "linear_ramp":
            x = (s / self.tau)[..., None, None]
            return (1.0 - x) * self.initial.matrix + x * self.final.matrix
        assert self.knots is not None
        times = np.array([tk for tk, _ in self.knots])
        j = np.clip(np.searchsorted(times, s, side="right") - 1, 0, len(times) - 2)
        t0, t1 = times[j], times[j + 1]
        x = np.divide(s - t0, t1 - t0, out=np.zeros_like(s), where=t1 > t0)[..., None, None]
        matrices = np.stack([h.matrix for _, h in self.knots])
        return (1.0 - x) * matrices[j] + x * matrices[j + 1]


def _step_nodes(
    protocol: DrivingProtocol, n_steps: int, fractions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample times t_k + c dt_k of each step k at each fraction c, shape
    (steps, len(fractions)), and the step widths dt_k.

    A linear ramp takes ``n_steps`` equal steps.  A custom schedule gives each
    knot interval its own uniform grid of at least one step, with counts in
    proportion to the interval's length, so no step straddles a kink.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1 for non-sudden protocols")
    if protocol.kind == "custom":
        assert protocol.knots is not None
        times = np.array([t for t, _ in protocol.knots])
        lengths = np.diff(times)
        counts = np.maximum(1, np.rint(n_steps * lengths / protocol.tau).astype(int))
        starts = np.repeat(times[:-1], counts)[:, None]
        dt = np.repeat(lengths / counts, counts)
        index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    else:
        starts = 0.0
        dt = np.full(n_steps, protocol.tau / n_steps)
        index = np.arange(n_steps)
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
    if protocol.kind == "sudden":
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
    if protocol.kind == "sudden":
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
    max_doublings: int = 14,
) -> np.ndarray:
    """Propagator of the protocol from ``magnus_product``, refined by
    step-halving until two successive resolutions agree entrywise within
    ``tol``.  Raises ``NotConverged`` if the gate is not met."""
    if protocol.kind == "sudden":
        return np.eye(protocol.initial.dim, dtype=complex)
    current = magnus_product(protocol, n_steps)
    for _ in range(max_doublings):
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
    log_z = float(logsumexp(logits))
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
    """Work accounting for one protocol run from a thermal initial state.

    ``bound`` and its pieces are present only after the sharpened-bound
    analysis; ``jensen_slack`` is beta <W> + ln Z(B|A) - ln Z_A (that is,
    beta <W> + ln <exp(-beta W)> under the initial thermal weights), the exact
    gap between beta <W_irr> and the bound.
    ``bound_closed_form`` is ln Z_B - ln Z(B|A), which the bound equals exactly
    (the conditional partition identity).
    """

    avg_work: float
    delta_f: float
    w_irr: float
    beta: float
    bound: float | None = None
    bound_terms: BoundTerms | None = None
    jensen_slack: float | None = None
    alt_incoherent_ergotropy: float | None = None
    alt_coherent_ergotropy: float | None = None
    bound_closed_form: float | None = None

    def __post_init__(self):
        if abs(self.w_irr - (self.avg_work - self.delta_f)) > 1e-12:
            raise InvariantViolation("w_irr must equal avg_work - delta_f")
        if self.bound is not None:
            if self.beta * self.w_irr < self.bound - 1e-9:
                raise InvariantViolation(
                    "maximum work bound violated: beta*w_irr = "
                    f"{self.beta * self.w_irr:.12e} < bound = {self.bound:.12e}"
                )
            if self.bound_terms is not None:
                gap = abs(self.bound_terms.total() - self.bound)
                if gap > 1e-9:
                    raise InvariantViolation(f"bound decomposition misses the bound by {gap:.3e}")


def work_accounting(protocol: DrivingProtocol, unitary: np.ndarray, beta: float) -> WorkReport:
    """Average work, free-energy change, and irreversible work for a thermal
    initial state driven through ``unitary``."""
    initial = gibbs_state(protocol.initial, beta)
    conditional = conditional_thermal_state(protocol.initial, protocol.final, unitary, beta)
    return _work_report(initial, conditional, gibbs_state(protocol.final, beta).log_z)


def _work_report(
    initial: GibbsState, conditional: ConditionalThermalState, log_z_final: float
) -> WorkReport:
    """<W> = sum_j p_j (h_B(j) - E_j) over the initial Gibbs spectrum and
    Delta F = -(ln Z_B - ln Z_A) / beta; no state is built or diagonalized."""
    avg_work = float(initial.populations @ (conditional.h_values - initial.energies))
    delta_f = -(log_z_final - initial.log_z) / initial.beta
    return WorkReport(
        avg_work=avg_work,
        delta_f=delta_f,
        w_irr=avg_work - delta_f,
        beta=initial.beta,
    )


def sharpened_bound_report(
    protocol: DrivingProtocol, unitary: np.ndarray, beta: float
) -> WorkReport:
    """Full work report with the conditional-state bound and its decomposition.

    The bound is the relative entropy of the conditional thermal state to the
    final Gibbs state; its three pieces follow the printed coherent/incoherent
    convention (which makes the incoherent piece vanish identically - the
    dephasing-based alternative is reported alongside).  H_A and H_B are
    diagonalized once each, the spectra kept on the operators; the work
    accounting reads those spectra and diagonalizes nothing more.
    """
    initial = gibbs_state(protocol.initial, beta)
    conditional = conditional_thermal_state(protocol.initial, protocol.final, unitary, beta)
    report = ergotropy_report(conditional.rho, protocol.final, beta)
    context = report.context
    base = _work_report(initial, conditional, context.gibbs.log_z)
    return replace(
        base,
        bound=context.relative_entropy(),
        bound_terms=BoundTerms(
            incoherent=beta * report.incoherent,
            coherence=context.coherence(),
            population=context.population_divergence(),
        ),
        jensen_slack=beta * base.avg_work + conditional.log_conditional_z - initial.log_z,
        alt_incoherent_ergotropy=report.dephased_ergotropy,
        alt_coherent_ergotropy=report.total - report.dephased_ergotropy,
        bound_closed_form=context.gibbs.log_z - conditional.log_conditional_z,
    )
