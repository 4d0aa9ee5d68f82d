"""Workload-failure correlation analysis.

The paper leans on the finding (Schroeder & Gibson, DSN'06) that "failure
rates are ... highly correlated with the type and intensity of the
workload running on it".  This module provides the corresponding log
analysis: bucket a period into fixed windows, count workload intensity
(job submissions) and failure events per window, and report rank and
linear correlation with a permutation significance test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

from ..core.errors import AnalysisError
from .events import EventLog
from .jobs import JobRecord

__all__ = ["CorrelationResult", "bucket_counts", "workload_failure_correlation"]


@dataclass(frozen=True)
class CorrelationResult:
    """Correlation between two bucketed count series."""

    pearson_r: float
    spearman_rho: float
    p_value: float
    n_buckets: int
    workload_counts: tuple[int, ...]
    failure_counts: tuple[int, ...]

    @property
    def is_significant(self) -> bool:
        """Permutation p-value below 0.05."""
        return self.p_value < 0.05


def bucket_counts(
    times: Sequence[datetime],
    start: datetime,
    end: datetime,
    bucket_hours: float,
) -> np.ndarray:
    """Count events per fixed-width bucket over ``[start, end)``."""
    if end <= start:
        raise AnalysisError("end must be after start")
    if bucket_hours <= 0.0:
        raise AnalysisError("bucket_hours must be positive")
    span_hours = (end - start).total_seconds() / 3600.0
    n = max(1, int(math.ceil(span_hours / bucket_hours)))
    counts = np.zeros(n, dtype=int)
    for t in times:
        if start <= t < end:
            idx = int((t - start).total_seconds() / 3600.0 / bucket_hours)
            counts[min(idx, n - 1)] += 1
    return counts


def workload_failure_correlation(
    jobs: Sequence[JobRecord],
    failures: EventLog,
    bucket_hours: float = 24.0,
    n_permutations: int = 2000,
    seed: int = 0,
) -> CorrelationResult:
    """Correlate job-submission intensity with failure-event counts.

    The permutation test shuffles the failure series relative to the
    workload series and reports the fraction of shuffles whose |Spearman
    rho| is at least the observed one.
    """
    if not jobs:
        raise AnalysisError("no jobs supplied")
    if len(failures) == 0:
        raise AnalysisError("no failure events supplied")
    start = min(min(j.submit_time for j in jobs), failures.start)
    end = max(max(j.submit_time for j in jobs), failures.end) + timedelta(seconds=1)

    workload = bucket_counts([j.submit_time for j in jobs], start, end, bucket_hours)
    failure = bucket_counts(
        [e.timestamp for e in failures], start, end, bucket_hours
    )
    if workload.size < 3:
        raise AnalysisError("need at least 3 buckets; shrink bucket_hours")

    # Imported here: scipy.stats adds ~0.5 s to every interpreter start.
    from scipy import stats

    if workload.std() == 0.0 or failure.std() == 0.0:
        pearson = 0.0
        rho = 0.0
    else:
        pearson = float(np.corrcoef(workload, failure)[0, 1])
        rho = float(stats.spearmanr(workload, failure).statistic)

    rng = np.random.default_rng(seed)
    observed = abs(rho)
    hits = 0
    shuffled = failure.copy()
    for _ in range(n_permutations):
        rng.shuffle(shuffled)
        if shuffled.std() == 0.0 or workload.std() == 0.0:
            sample = 0.0
        else:
            sample = abs(float(stats.spearmanr(workload, shuffled).statistic))
        if sample >= observed - 1e-12:
            hits += 1
    p_value = (hits + 1) / (n_permutations + 1)

    return CorrelationResult(
        pearson_r=pearson,
        spearman_rho=rho,
        p_value=p_value,
        n_buckets=int(workload.size),
        workload_counts=tuple(int(x) for x in workload),
        failure_counts=tuple(int(x) for x in failure),
    )
