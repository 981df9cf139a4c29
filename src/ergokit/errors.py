"""Exception types, and the invariants' ``check`` dicts that ``require`` raises."""

import numpy as np


class ErgokitError(Exception):
    """Base class for all toolkit-specific failures."""


class SupportViolation(ErgokitError):
    """A relative entropy was requested between states/distributions with
    incompatible supports: the reference vanishes where the argument does not, or
    two geometric states' support points do not pair one to one."""


class EmptyShell(ErgokitError):
    """A microcanonical energy shell contains no grid cells."""


class NotConverged(ErgokitError):
    """Iterative refinement hit its limit before meeting the accuracy gate."""


class OutOfScope(ErgokitError, ValueError):
    """Outside the documented scope: Gibbs populations that underflow, energies that
    overflow, or a manifold CP^(d-1) with d < 2.  The command line exits 2 on it."""


class InvariantViolation(ErgokitError, ValueError):
    """A report failed a consistency invariant checked at its construction (``require``)."""


def check(value, tolerance, *, at_most: bool = True) -> dict:
    """One check: ``value`` at most (or, ``at_most=False``, at least) ``tolerance``.  On
    arrays of a block's rows it is the row that misses its tolerance by the most, a NaN
    first (``argmin`` takes the first NaN); a NaN fails, since both comparisons are false."""
    if np.ndim(value) or np.ndim(tolerance):
        values, tolerances = np.broadcast_arrays(value, tolerance)
        worst = np.argmin(tolerances - values if at_most else values - tolerances)
        value, tolerance = values.flat[worst], tolerances.flat[worst]
    passed = value <= tolerance if at_most else value >= tolerance
    return {"passed": bool(passed), "value": float(value), "tolerance": float(tolerance)}


def failure_line(checks: dict) -> str:
    """The one stderr line of the failed ``checks``, "" if none failed."""
    return "; ".join(f"invariant failed: {name}: value={c['value']:.12g}, tolerance="
                     f"{c['tolerance']:.12g}" for name, c in checks.items() if not c["passed"])


def require(checks: dict) -> None:
    """Raise ``InvariantViolation`` with the ``failure_line`` if a check failed."""
    if line := failure_line(checks):
        raise InvariantViolation(line)
