"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from infeasible
problem instances or mechanism-protocol violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A parameter or configuration value is malformed or out of range."""


class InfeasibleInstanceError(ReproError):
    """A DRP instance violates a structural requirement.

    Examples: a primary object larger than its primary server's capacity,
    a disconnected topology, or a negative request count.
    """


class CapacityError(ReproError):
    """An operation would exceed a server's residual storage capacity."""


class MechanismProtocolError(ReproError):
    """The mechanism message protocol was violated.

    Raised e.g. when an agent bids for an object outside its eligible
    list, or when a payment is issued to a non-winning agent.
    """


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its budget."""


class InvariantViolationError(ReproError):
    """A safety check failed during a strict run.

    Raised by :class:`repro.runtime.invariants.InvariantMonitor` when
    one of the audits it runs live (or its availability floor) fails
    under ``strict=True``; the violating
    :class:`~repro.obs.events.InvariantEvent` has already been emitted
    into the active sink when this propagates.
    """
