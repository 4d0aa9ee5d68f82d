"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
masking programming errors such as :class:`TypeError`.  A model's
declarations are checked where they are built (:class:`ModelError`);
faults that only a run can reveal raise :class:`SimulationError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "CompositionError",
    "SimulationError",
    "SimulationBudgetError",
    "InstantaneousLoopError",
    "SanitizerError",
    "ChaosError",
    "TaskTimeoutError",
    "StateSpaceError",
    "AnalysisError",
    "ParseError",
    "FitError",
    "ParameterError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelError(ReproError):
    """A stochastic activity network definition is malformed.

    This includes an effect or a reward defined twice: a function passed
    beside the ``writes=`` of a gate, case or activity, or a function or
    ``reads=`` beside a rate reward's ``form=``.
    """


class CompositionError(ModelError):
    """A replicate/join composition tree cannot be flattened.

    Typical causes: shared place names missing from a child model,
    conflicting initial markings for a shared place, or duplicate
    submodel names within a join.
    """


class SimulationError(ReproError):
    """The discrete-event simulator reached an invalid state."""


class InstantaneousLoopError(SimulationError):
    """Instantaneous activities re-enabled each other without reaching a fixpoint.

    Raised after ``Simulator(max_instant_chain=...)`` zero-time firings at
    one instant, which indicates a modeling bug (a "vanishing loop" in SAN
    terms).  Raise the cap for models with legitimately deep zero-time
    cascades.
    """


class SimulationBudgetError(SimulationError):
    """A run exceeded its event or wall-clock budget.

    Raised by :meth:`~repro.core.simulation.Simulator.run` when
    ``Simulator(max_events=...)`` or ``Simulator(max_wall_s=...)`` is
    exceeded, so a runaway model terminates diagnosably instead of
    hanging.  Carries the partial trajectory state at termination:

    Attributes
    ----------
    budget:
        Which budget tripped — ``"max_events"`` or ``"max_wall_s"``.
    limit:
        The configured bound.
    n_events:
        Events executed before the budget tripped.
    sim_time:
        Simulated time reached.
    marking:
        ``place path -> value`` snapshot of the marking at termination.
    rewards:
        ``reward name -> partial state`` snapshot, consistent with
        ``sim_time``.  Rate rewards map to ``{"kind": "rate",
        "integral": ..., "value": ...}`` (the accumulated integral over
        the observed window so far and the current rate value); impulse
        rewards map to ``{"kind": "impulse", "impulse_sum": ...,
        "count": ...}``.  The snapshot is taken before the interrupting
        event executes, so it is identical whether the run used the
        compiled reward kernels or the reference loop.
    """

    def __init__(
        self,
        message: str,
        *,
        budget: str = "max_events",
        limit: float | int | None = None,
        n_events: int = 0,
        sim_time: float = 0.0,
        marking: dict | None = None,
        rewards: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.budget = budget
        self.limit = limit
        self.n_events = n_events
        self.sim_time = sim_time
        self.marking = {} if marking is None else marking
        self.rewards = {} if rewards is None else rewards


class SanitizerError(SimulationError):
    """Strict-mode sanitizer failure.

    Raised at the end of a ``Simulator(sanitize=True, strict=True)`` run
    when the instrumented execution recorded declaration violations.
    Carries the full :class:`~repro.core.sanitizer.SanitizerReport` as
    the ``report`` attribute.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class ChaosError(SimulationError):
    """A fault injected by :class:`~repro.core.resilience.ChaosPolicy`.

    Retryable by the default :class:`~repro.core.resilience.RetryPolicy`:
    the fault-injection suites use it to prove that supervised execution
    recovers to results bit-identical to an undisturbed run.
    """


class TaskTimeoutError(SimulationError):
    """A supervised task exceeded its per-attempt wall-clock timeout.

    Raised in the parent by the supervised executor
    (:func:`~repro.core.resilience.run_tasks_supervised`) after it kills
    the worker pool hosting the overdue task; retryable by default.
    """


class StateSpaceError(ReproError):
    """State-space exploration failed (non-exponential timing, explosion, ...)."""


class AnalysisError(ReproError):
    """A log-analysis operation failed."""


class ParseError(AnalysisError):
    """A log line or log file could not be parsed."""


class FitError(AnalysisError):
    """A statistical fit (e.g. censored Weibull MLE) did not converge."""


class ParameterError(ReproError):
    """A model parameter set failed validation against its documented range."""
