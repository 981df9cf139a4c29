"""Exception types shared across the toolkit."""


class ErgokitError(Exception):
    """Base class for all toolkit-specific failures."""


class SupportViolation(ErgokitError):
    """A relative entropy was requested between states/distributions with
    incompatible supports (the reference vanishes where the argument does not)."""


class SupportMismatch(ErgokitError):
    """Two geometric states cannot be paired point-by-point on the manifold."""


class EmptyShell(ErgokitError):
    """A microcanonical energy shell contains no grid cells."""


class NotConverged(ErgokitError):
    """Iterative refinement hit its limit before meeting the accuracy gate."""


class OutOfScope(ErgokitError, ValueError):
    """Outside the documented scope: Gibbs populations that underflow, energies that
    overflow, or a manifold CP^(d-1) with d < 2.  The command line exits 2 on it."""


class InvariantViolation(ErgokitError, ValueError):
    """A report failed a consistency invariant checked at its construction."""
