"""Sequential (adaptive) stopping for replicated experiments.

The paper reports every simulation estimate with a confidence interval;
the natural follow-up question is *how many replications are enough*.
This module answers it with a classic sequential procedure: run
replications in deterministic **rounds**, and after each complete round
test whether the relative CI half-width of the watched metric(s) has
reached a target.  Two properties make the procedure safe to wire into
the engine's determinism contract:

* **Batch-means variance.**  The half-width is computed from the
  variance of *batch means* (complete batches of ``batch`` consecutive
  replications), not the raw samples.  For i.i.d. replications this is
  an unbiased (if slightly conservative, fewer degrees of freedom)
  variance estimate; its real job here is to pin the decision statistic
  to a **prefix-stable** function of the sample list: adding a round
  never changes the batch means of earlier rounds.
* **Deterministic schedule.**  Decisions happen only at round
  boundaries, and the round sizes are a pure function of the rule and
  the cap — never of wall-clock or worker count.  Since replication
  ``k`` always draws from seed-tree stream ``k`` (see
  :mod:`repro.core.parallel`), the sample sequence is identical however
  the rounds are executed, so the **stopping point is identical for
  serial, any ``n_jobs``, and resumed runs** (asserted float-for-float
  by ``tests/test_rare.py``).

Use via ``replicate_runs(..., stopping=StoppingRule(rel_ci=0.05))``,
``replication_cell(..., stopping=...)`` on sweep grids,
``splitting_probability(..., stopping=...)``, or the CLI's ``--rel-ci``
flag; replicated and RESTART studies share one round loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import special

from .errors import SimulationError
from .simulation import _check_number

__all__ = [
    "StoppingRule",
    "batch_means",
    "batch_means_variance",
    "batch_means_half_width",
]


def _check_confidence(confidence) -> float:
    """``confidence`` as a CI level in (0, 1), else a
    :class:`SimulationError` naming it."""
    confidence = _check_number(confidence, "confidence", integer=False)
    if not 0.0 < confidence < 1.0:  # also rejects NaN
        raise SimulationError(f"confidence must lie in (0, 1), got {confidence}")
    return confidence


def batch_means(samples: Sequence[float], batch: int) -> np.ndarray:
    """Means of consecutive complete batches of size ``batch``.

    A trailing incomplete batch is dropped, which is what keeps the
    statistic prefix-stable across rounds (rounds are multiples of the
    batch size, so in the sequential procedure nothing is ever dropped).
    """
    if batch < 1:
        raise SimulationError(f"batch size must be >= 1, got {batch}")
    arr = np.asarray(samples, dtype=float)
    n_batches = arr.size // batch
    if n_batches == 0:
        return np.empty(0)
    return arr[: n_batches * batch].reshape(n_batches, batch).mean(axis=1)


def batch_means_variance(samples: Sequence[float], batch: int) -> float:
    """Batch-means estimate of ``Var[sample mean]``.

    ``Var(batch means, ddof=1) / n_batches`` over complete batches.
    Requires at least two complete batches (otherwise there is no
    variance information and the result would be undefined); the
    estimate is non-negative, zero only for batchwise-constant samples,
    and invariant under shifting every sample by a constant.
    """
    means = batch_means(samples, batch)
    if means.size < 2:
        raise SimulationError(
            f"batch-means variance needs >= 2 complete batches, got "
            f"{means.size} (n={len(samples)}, batch={batch})"
        )
    return float(means.var(ddof=1) / means.size)


def batch_means_half_width(
    samples: Sequence[float], batch: int, confidence: float
) -> float:
    """Student-t CI half-width of the sample mean via batch means.

    Degrees of freedom come from the number of complete batches.
    Returns ``inf`` with fewer than two complete batches.
    """
    means = batch_means(samples, batch)
    if means.size < 2:
        return float("inf")
    se = math.sqrt(float(means.var(ddof=1)) / means.size)
    if se == 0.0:
        return 0.0
    tcrit = float(special.stdtrit(means.size - 1, 0.5 + confidence / 2.0))
    return tcrit * se


@dataclass(frozen=True)
class StoppingRule:
    """Relative-precision sequential stopping rule.

    Parameters
    ----------
    rel_ci:
        Target relative CI half-width: stop once
        ``half_width <= rel_ci * |mean|`` for every watched metric
        (half-width from :func:`batch_means_half_width`).  A metric with
        zero half-width (batchwise-constant samples) counts as
        satisfied regardless of its mean.
    metrics:
        Names of the metrics the rule watches; empty (default) watches
        every collected metric.  Watch an explicit subset when the study
        carries auxiliary metrics (e.g. impulse counters that may be
        identically zero and therefore can never reach a *relative*
        target).
    confidence:
        CI level for the half-width test.
    min_replications:
        Replications in the first round (the earliest decision point).
        Rounded up to two complete batches if smaller, since the
        batch-means statistic needs them.
    batch:
        Batch size for the batch-means variance *and* the round size
        after the first round.
    """

    rel_ci: float
    metrics: tuple[str, ...] = ()
    confidence: float = 0.95
    min_replications: int = 16
    batch: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < _check_number(self.rel_ci, "rel_ci", integer=False):
            raise SimulationError(f"rel_ci must be > 0, got {self.rel_ci}")
        _check_confidence(self.confidence)
        _check_number(self.batch, "batch", low=1)
        _check_number(self.min_replications, "min_replications", low=1)
        if not isinstance(self.metrics, tuple):
            object.__setattr__(self, "metrics", tuple(self.metrics))

    # ------------------------------------------------------------------
    # deterministic round schedule
    # ------------------------------------------------------------------
    def first_round(self, cap: int) -> int:
        """Size of the first round (capped)."""
        return min(int(cap), max(self.min_replications, 2 * self.batch))

    def next_round(self, n_done: int, cap: int) -> int:
        """Replications in the next round; 0 when the cap is exhausted.

        A pure function of ``(rule, n_done, cap)`` — the schedule cannot
        depend on wall-clock or worker count, which is what makes the
        stopping point identical across serial/parallel/resumed runs.
        """
        cap = int(cap)
        if n_done >= cap:
            return 0
        if n_done == 0:
            return self.first_round(cap)
        return min(self.batch, cap - n_done)

    # ------------------------------------------------------------------
    # decision
    # ------------------------------------------------------------------
    def satisfied(self, samples: Mapping[str, Sequence[float]]) -> bool:
        """True when every watched metric meets the relative target."""
        names = self.metrics or tuple(samples)
        for name in names:
            try:
                values = samples[name]
            except KeyError:
                raise SimulationError(
                    f"stopping rule watches unknown metric {name!r}; "
                    f"collected: {sorted(samples)}"
                ) from None
            half = batch_means_half_width(values, self.batch, self.confidence)
            if half == 0.0:
                continue
            mean = float(np.mean(np.asarray(values, dtype=float)))
            if not math.isfinite(half) or half > self.rel_ci * abs(mean):
                return False
        return True


def _run_rounds(
    run_round: Callable[[int, int], None],
    cap: int,
    rule: StoppingRule | None,
    samples: Callable[[], Mapping[str, Sequence[float]]],
) -> None:
    """Run one study in rounds; ``run_round(k0, count)`` runs and records
    items ``k0 .. k0 + count - 1``.  Without a rule the study is one
    round of ``cap`` items; with one, rounds follow
    :meth:`StoppingRule.next_round` until ``rule.satisfied(samples())``
    holds after a round or the cap is spent.  Replicated studies and
    RESTART root trees both run through here.
    """
    if rule is None:
        run_round(0, cap)
        return
    n_done = 0
    while n_done < cap:
        count = rule.next_round(n_done, cap)
        run_round(n_done, count)
        n_done += count
        if rule.satisfied(samples()):
            return
