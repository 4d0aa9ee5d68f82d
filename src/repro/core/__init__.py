"""Stochastic activity network substrate (the Möbius stand-in).

Public API:

* distributions: :class:`Exponential`, :class:`Weibull`, :class:`Deterministic`, ...
* model building: :class:`SAN`, :class:`InputGate`, :class:`OutputGate`, :class:`Case`
* composition: :func:`join`, :func:`replicate`, :func:`rename`, :func:`leaf`,
  :func:`flatten`
* execution: :class:`Simulator`, :class:`RateReward`, :class:`ImpulseReward`,
  :class:`BinaryTrace`, :class:`EventTrace`
* experiments: :func:`replicate_runs` (serial or ``n_jobs`` parallel),
  :class:`Estimate`, :class:`ReplicationSpec`
* resilience: :class:`RetryPolicy`, :class:`ChaosPolicy`,
  :func:`run_tasks_supervised` (worker-crash recovery, retry/backoff,
  timeouts, fault injection)
* exact solutions: :func:`explore` (state space → CTMC)
"""

from .batchmeans import BatchMeansResult, batch_means_from_steps, batch_means_from_trace
from .composition import (
    FlatActivity,
    FlatModel,
    JoinNode,
    LeafNode,
    Node,
    ReplicateNode,
    flatten,
    join,
    leaf,
    rename,
    replicate,
)
from .distributions import (
    HOURS_PER_YEAR,
    Deterministic,
    Distribution,
    Empirical,
    EquilibriumResidual,
    Erlang,
    Exponential,
    Gamma,
    LogNormal,
    Shifted,
    Uniform,
    Weibull,
    afr_to_mtbf,
    mtbf_to_afr,
)
from .errors import (
    AnalysisError,
    ChaosError,
    CompositionError,
    FitError,
    InstantaneousLoopError,
    ModelError,
    ParameterError,
    ParseError,
    ReproError,
    SanitizerError,
    SimulationBudgetError,
    SimulationError,
    StateSpaceError,
    TaskTimeoutError,
)
from .distributions import BatchedSampler
from .experiment import Estimate, ExperimentResult, build_metrics, replicate_runs
from .gates import Case, InputGate, OutputGate
from .parallel import ReplicationSetup, ReplicationSpec, resolve_n_jobs
from .resilience import (
    CellFailure,
    ChaosPolicy,
    RetryPolicy,
    TaskFailure,
    run_tasks_supervised,
)
from .places import LocalView, MarkingVector, Place
from .rewards import Affine, ImpulseReward, Indicator, RateReward, RewardResult
from .rng import SeedTree, derive_seed, make_generator
from .san import SAN, ActivityDef
from .sanitizer import (
    LintFinding,
    LintReport,
    SanitizerReport,
    SanitizerViolation,
    lint_model,
)
from .simulation import CompiledProgram, RunResult, Simulator
from .statespace import StateSpace, explore
from .stopping import (
    StoppingRule,
    batch_means,
    batch_means_half_width,
    batch_means_variance,
)
from .trace import BinaryTrace, EventTrace, Interval, TraceEvent

__all__ = [
    "BatchMeansResult",
    "batch_means_from_steps",
    "batch_means_from_trace",
    "HOURS_PER_YEAR",
    "Distribution",
    "Exponential",
    "Weibull",
    "Deterministic",
    "Uniform",
    "LogNormal",
    "Gamma",
    "Erlang",
    "Empirical",
    "Shifted",
    "EquilibriumResidual",
    "afr_to_mtbf",
    "mtbf_to_afr",
    "SAN",
    "ActivityDef",
    "Place",
    "MarkingVector",
    "LocalView",
    "InputGate",
    "OutputGate",
    "Case",
    "Node",
    "LeafNode",
    "JoinNode",
    "ReplicateNode",
    "leaf",
    "join",
    "replicate",
    "rename",
    "flatten",
    "FlatModel",
    "FlatActivity",
    "CompiledProgram",
    "Simulator",
    "RunResult",
    "RateReward",
    "ImpulseReward",
    "Affine",
    "Indicator",
    "RewardResult",
    "BinaryTrace",
    "EventTrace",
    "Interval",
    "TraceEvent",
    "Estimate",
    "ExperimentResult",
    "replicate_runs",
    "build_metrics",
    "StoppingRule",
    "batch_means",
    "batch_means_half_width",
    "batch_means_variance",
    "BatchedSampler",
    "ReplicationSetup",
    "ReplicationSpec",
    "resolve_n_jobs",
    "StateSpace",
    "explore",
    "SeedTree",
    "derive_seed",
    "make_generator",
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
    "RetryPolicy",
    "ChaosPolicy",
    "TaskFailure",
    "CellFailure",
    "run_tasks_supervised",
    "lint_model",
    "LintFinding",
    "LintReport",
    "SanitizerReport",
    "SanitizerViolation",
]
