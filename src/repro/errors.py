"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
being able to distinguish model errors from solver failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class IntervalError(ReproError):
    """Raised for malformed intervals (e.g. ``start > end``)."""


class PartitionError(ReproError):
    """Raised for invalid time partitions (Definition 5.1 violations)."""


class GraphModelError(ReproError):
    """Raised for inconsistent TVG / TVEG construction arguments."""


class ChannelModelError(ReproError):
    """Raised when an ED-function is queried or built with invalid physics
    (negative cost, zero gain, out-of-range probability, ...)."""


class ScheduleError(ReproError):
    """Raised for malformed broadcast schedules (Section IV structure)."""


class InfeasibleError(ReproError):
    """Raised when no feasible schedule / allocation exists for an instance.

    Carries an optional human-readable ``reason`` describing which of the
    four TMEDB feasibility conditions failed.
    """

    def __init__(self, reason: str = "problem instance is infeasible"):
        super().__init__(reason)
        self.reason = reason


class SolverError(ReproError):
    """Raised when an optimization backend fails to converge or errors out."""


class NativeBuildError(ReproError):
    """Raised when the compiled Steiner search cannot be built or loaded:
    no C compiler (``CC``), or a failed compile.  A server fault, so the
    planning service answers it with HTTP 500."""


class TraceFormatError(ReproError):
    """Raised when a contact-trace file cannot be parsed."""


class ServiceOverloaded(ReproError):
    """Raised when the planning service's admission control turns a request
    away — the batch queue is at its bound (HTTP 429) or the request timed
    out waiting for its result (HTTP 504)."""

    def __init__(self, reason: str = "planning service overloaded",
                 retry_after: float = 1.0):
        super().__init__(reason)
        self.reason = reason
        #: suggested client backoff in seconds (the HTTP ``Retry-After``)
        self.retry_after = retry_after
