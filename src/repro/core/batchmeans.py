"""Batch-means steady-state estimation.

Independent replications (``repro.core.experiment``) pay the warm-up cost
once per replication.  For steady-state measures on a single long run,
the *method of batch means* is the classic alternative: split one
trajectory into ``k`` contiguous batches, treat per-batch averages as
approximately i.i.d., and form a Student-t interval.

This module implements batch means over :class:`BinaryTrace` trajectories
and over explicit (time, value) step functions, with the standard lag-1
autocorrelation diagnostic that warns when batches are too short to be
treated as independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .errors import SimulationError
from .experiment import Estimate
from .trace import BinaryTrace

__all__ = ["BatchMeansResult", "batch_means_from_trace", "batch_means_from_steps"]


@dataclass(frozen=True)
class BatchMeansResult:
    """Outcome of a batch-means analysis."""

    estimate: Estimate
    batch_means: tuple[float, ...]
    batch_hours: float
    lag1_autocorrelation: float

    @property
    def batches_look_independent(self) -> bool:
        """Rule of thumb: |lag-1 autocorrelation| below ~0.2."""
        return abs(self.lag1_autocorrelation) < 0.2


def _lag1_autocorrelation(values: np.ndarray) -> float:
    if values.size < 3:
        return 0.0
    centered = values - values.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        return 0.0
    return float(np.dot(centered[:-1], centered[1:]) / denom)


def batch_means_from_steps(
    times: Sequence[float],
    values: Sequence[float],
    end_time: float,
    n_batches: int = 20,
    warmup: float = 0.0,
    confidence: float = 0.95,
) -> BatchMeansResult:
    """Batch means of a piecewise-constant signal.

    ``times[i]`` is when the signal switched to ``values[i]``; the signal
    holds until the next change point (and until ``end_time`` after the
    last one).
    """
    if n_batches < 2:
        raise SimulationError(f"need at least 2 batches, got {n_batches}")
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size == 0:
        raise SimulationError("times and values must be equal-length 1-D arrays")
    if np.any(np.diff(t) < 0.0):
        raise SimulationError("times must be non-decreasing")
    if not 0.0 <= warmup < end_time:
        raise SimulationError("warmup must lie in [0, end_time)")
    if t[0] > warmup:
        raise SimulationError(
            "the signal must be defined from the start of the window"
        )

    span = end_time - warmup
    batch_hours = span / n_batches
    edges = warmup + batch_hours * np.arange(n_batches + 1)

    # Integrate the step function over each batch.
    change_points = np.concatenate([t, [end_time]])
    means = np.empty(n_batches)
    for b in range(n_batches):
        lo, hi = edges[b], edges[b + 1]
        start_idx = int(np.searchsorted(change_points, lo, side="right") - 1)
        integral = 0.0
        idx = max(start_idx, 0)
        while idx < t.size and change_points[idx] < hi:
            seg_lo = max(change_points[idx], lo)
            seg_hi = min(change_points[idx + 1], hi)
            if seg_hi > seg_lo:
                integral += v[idx] * (seg_hi - seg_lo)
            idx += 1
        means[b] = integral / batch_hours

    mean = float(means.mean())
    std = float(means.std(ddof=1))
    if std == 0.0:
        half = 0.0
    else:
        tcrit = float(special.stdtrit(n_batches - 1, 0.5 + confidence / 2.0))
        half = tcrit * std / math.sqrt(n_batches)
    estimate = Estimate(mean, std, n_batches, confidence, half)
    return BatchMeansResult(
        estimate=estimate,
        batch_means=tuple(means.tolist()),
        batch_hours=batch_hours,
        lag1_autocorrelation=_lag1_autocorrelation(means),
    )


def batch_means_from_trace(
    trace: BinaryTrace,
    n_batches: int = 20,
    warmup: float = 0.0,
    confidence: float = 0.95,
) -> BatchMeansResult:
    """Batch-means availability estimate from a finished binary trace."""
    transitions = trace.transitions
    if not transitions:
        raise SimulationError(f"trace {trace.name!r} recorded no state")
    end = trace.intervals()[-1].end
    times = [t for t, _v in transitions]
    values = [1.0 if v else 0.0 for _t, v in transitions]
    return batch_means_from_steps(
        times, values, end, n_batches=n_batches, warmup=warmup, confidence=confidence
    )
