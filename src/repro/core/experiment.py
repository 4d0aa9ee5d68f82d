"""Replicated simulation experiments with confidence intervals.

The paper reports every simulation result "at 95% confidence level, with
intervals".  This module provides that workflow: run ``n`` independent
replications (independent RNG streams from the seed tree), collect one
scalar per metric per replication, and summarize with Student-t confidence
intervals.  A study runs in rounds (one round of ``n``, or a
:class:`~repro.core.stopping.StoppingRule`'s schedule), and each round is
either a serial ``Simulator.run`` loop or one pooled batch
(:mod:`repro.core.parallel`); replication ``k`` draws stream ``k`` either
way, so the samples do not depend on how the rounds ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import special

from .errors import SimulationError
from .parallel import ReplicationSetup, resolve_n_jobs, run_replications_parallel
from .rewards import ImpulseReward, RateReward
from .simulation import RunResult, Simulator, _check_number
from .stopping import _check_confidence, _run_rounds
from .trace import BinaryTrace, EventTrace

__all__ = [
    "Estimate",
    "ExperimentResult",
    "replicate_runs",
    "build_metrics",
    "MetricFn",
]

MetricFn = Callable[[RunResult], float]


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a symmetric Student-t confidence interval."""

    mean: float
    std: float
    n: int
    confidence: float
    half_width: float

    @classmethod
    def from_samples(
        cls, samples: Sequence[float], confidence: float = 0.95
    ) -> "Estimate":
        """Summarize i.i.d. replication outputs.

        With a single sample the half-width is infinite (no variance
        information); with identical samples it is zero.
        """
        confidence = _check_confidence(confidence)
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise SimulationError("cannot build an estimate from zero samples")
        mean = float(arr.mean())
        if arr.size == 1:
            return cls(mean, float("nan"), 1, confidence, float("inf"))
        std = float(arr.std(ddof=1))
        if std == 0.0:
            return cls(mean, 0.0, int(arr.size), confidence, 0.0)
        tcrit = float(special.stdtrit(arr.size - 1, 0.5 + confidence / 2.0))
        half = tcrit * std / math.sqrt(arr.size)
        return cls(mean, std, int(arr.size), confidence, half)

    @property
    def lo(self) -> float:
        """Lower confidence bound."""
        return self.mean - self.half_width

    @property
    def hi(self) -> float:
        """Upper confidence bound."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True if ``value`` lies inside the confidence interval."""
        return self.lo <= value <= self.hi

    def __str__(self) -> str:
        if math.isinf(self.half_width):
            return f"{self.mean:.6g} (n=1)"
        return f"{self.mean:.6g} ± {self.half_width:.2g} ({int(self.confidence * 100)}% CI, n={self.n})"


class ExperimentResult:
    """Per-metric samples across replications, with CI summaries."""

    def __init__(
        self,
        samples: Mapping[str, Sequence[float]],
        until: float,
        warmup: float,
        confidence: float = 0.95,
    ) -> None:
        self._samples = {k: list(v) for k, v in samples.items()}
        self.until = until
        self.warmup = warmup
        self.confidence = confidence

    @property
    def metrics(self) -> list[str]:
        """Names of collected metrics."""
        return sorted(self._samples)

    @property
    def n_replications(self) -> int:
        """Number of replications recorded."""
        if not self._samples:
            return 0
        return len(next(iter(self._samples.values())))

    def samples(self, metric: str) -> list[float]:
        """Raw replication samples for a metric."""
        try:
            return list(self._samples[metric])
        except KeyError:
            raise KeyError(
                f"unknown metric {metric!r}; available: {self.metrics}"
            ) from None

    def estimate(self, metric: str) -> Estimate:
        """Student-t estimate for a metric."""
        return Estimate.from_samples(self.samples(metric), self.confidence)

    def mean(self, metric: str) -> float:
        """Convenience: mean of a metric across replications."""
        return self.estimate(metric).mean

    def as_dict(self) -> dict[str, Estimate]:
        """All metrics, estimated."""
        return {m: self.estimate(m) for m in self.metrics}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{m}={self.estimate(m)}" for m in self.metrics)
        return f"ExperimentResult(n={self.n_replications}, {parts})"


def _default_metrics(
    rewards: Sequence[RateReward | ImpulseReward],
) -> dict[str, MetricFn]:
    metrics: dict[str, MetricFn] = {}
    for r in rewards:
        name = r.name
        if isinstance(r, RateReward):
            metrics[name] = lambda res, _n=name: res[_n].time_average
            if r.probe_times:
                # Instant-of-time probes become per-time metrics, so a
                # replicated study yields a CI'd availability timeline.
                for t in r.probe_times:
                    metrics[f"{name}@{t:g}"] = (
                        lambda res, _n=name, _t=t: res[_n].instant(_t)
                    )
        else:
            metrics[name] = lambda res, _n=name: res[_n].impulse_sum
            metrics[f"{name}.per_hour"] = lambda res, _n=name: res[_n].rate
    return metrics


def build_metrics(
    rewards: Sequence[RateReward | ImpulseReward],
    extra_metrics: Mapping[str, MetricFn] | None = None,
) -> dict[str, MetricFn]:
    """Full metric table for a replication study.

    Default metrics are derived from the rewards (time average for rate
    rewards, sum and per-hour rate for impulse rewards) and merged with
    ``extra_metrics``.  Used identically by the serial path and by
    parallel workers, so metric values cannot diverge between modes.
    """
    metrics = _default_metrics(rewards)
    if extra_metrics:
        overlap = set(metrics) & set(extra_metrics)
        if overlap:
            raise SimulationError(f"extra metrics shadow defaults: {sorted(overlap)}")
        metrics.update(extra_metrics)
    if not metrics:
        raise SimulationError("experiment defines no metrics")
    return metrics


def replicate_runs(
    simulator: Simulator,
    until: float,
    *,
    n_replications: int,
    warmup: float = 0.0,
    rewards: Sequence[RateReward | ImpulseReward] = (),
    traces_factory: Callable[[], Sequence[BinaryTrace | EventTrace]] | None = None,
    extra_metrics: Mapping[str, MetricFn] | None = None,
    confidence: float = 0.95,
    on_result: Callable[[int, RunResult], None] | None = None,
    n_jobs: int | None = 1,
    spec: "ReplicationSpec | None" = None,
    retry: "RetryPolicy | None" = None,
    chaos: "ChaosPolicy | None" = None,
    stopping: "StoppingRule | None" = None,
) -> ExperimentResult:
    """Run independent replications and summarize metrics with CIs.

    Parameters
    ----------
    simulator:
        A reusable :class:`~repro.core.simulation.Simulator`; replication
        ``k`` uses the stream derived from its base seed and run counter.
    until / warmup:
        Observation window per replication.
    rewards:
        Reward variables observed in every replication.  Default metrics
        are derived automatically: the time average for rate rewards, the
        sum and per-hour rate for impulse rewards.
    traces_factory:
        Optional factory producing fresh trace observers per replication
        (traces are stateful, so they cannot be shared across reps when the
        caller wants to keep them; ``on_result`` receives each run).
    extra_metrics:
        Additional ``name -> f(RunResult)`` scalars to collect.
    confidence:
        CI level, strictly between 0 and 1.
    on_result:
        Callback invoked with ``(replication_index, RunResult)``, useful for
        harvesting traces or logging progress.  Serial mode only.
    n_jobs:
        Number of worker processes (1 = serial, -1 = all cores).  Because
        replication ``k`` always uses the seed-tree stream ``k``, the
        returned samples are bit-identical for every ``n_jobs`` value.
    spec:
        Optional :class:`~repro.core.parallel.ReplicationSpec` letting
        workers rebuild the model from a picklable recipe (required on
        platforms without the ``fork`` start method; it must describe the
        same study as ``simulator``/``rewards``).
    retry / chaos:
        Supervision knobs for parallel execution (see
        :mod:`repro.core.resilience` and
        :func:`~repro.core.parallel.run_replications_parallel`): retry
        policy with per-attempt timeouts and deterministic fault
        injection (``None`` honors ``REPRO_CHAOS``).  Worker-crash
        recovery re-executes only incomplete replications and is
        bit-identical to an uninterrupted run.  Serial execution
        (``n_jobs=1``) runs unsupervised.
    stopping:
        Optional :class:`~repro.core.stopping.StoppingRule` enabling
        sequential stopping: replications run in deterministic rounds
        and stop as soon as the watched metrics' relative CI half-width
        (batch-means variance) reaches the rule's target —
        ``n_replications`` becomes the *cap* rather than the exact
        count.  Replication ``k`` still draws from seed-tree stream
        ``k`` and decisions happen only at round boundaries, so the
        stopping point (and every sample) is identical for serial
        execution, any ``n_jobs``, and resumed runs.  Default ``None``
        runs exactly ``n_replications`` replications, byte-identical to
        previous releases.
    """
    n_replications = _check_number(n_replications, "n_replications", low=1)
    confidence = _check_confidence(confidence)
    metrics = build_metrics(rewards, extra_metrics)
    jobs = resolve_n_jobs(n_jobs)
    if jobs > 1:
        if on_result is not None:
            raise SimulationError(
                "on_result callbacks require serial execution (n_jobs=1): "
                "RunResult objects do not cross process boundaries"
            )
        setup = ReplicationSetup(simulator, rewards, traces_factory, extra_metrics)
    samples = {name: [] for name in metrics}
    counter0 = simulator._run_counter

    def run_round(k0: int, count: int) -> None:
        if jobs > 1:
            batch = run_replications_parallel(
                until=until,
                warmup=warmup,
                base_seed=simulator.base_seed,
                counter_base=counter0 + k0,
                n_replications=count,
                n_jobs=jobs,
                spec=spec,
                setup=setup,
                retry=retry,
                chaos=chaos,
            )
            # Keep the local counter in step so a later serial call
            # continues exactly where a serial-only sequence would have.
            simulator._run_counter = counter0 + k0 + count
            for name, values in batch.items():
                samples[name].extend(values)
            return
        for k in range(k0, k0 + count):
            traces = tuple(traces_factory()) if traces_factory is not None else ()
            result = simulator.run(
                until, warmup=warmup, rewards=rewards, traces=traces
            )
            for name, fn in metrics.items():
                samples[name].append(float(fn(result)))
            if on_result is not None:
                on_result(k, result)

    _run_rounds(run_round, n_replications, stopping, lambda: samples)
    return ExperimentResult(samples, until, warmup, confidence)
