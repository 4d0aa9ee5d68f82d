"""Replication-scaling benchmarks for the parallel runner.

Replications are embarrassingly parallel and stream-indexed (replication
``k`` always uses seed-tree stream ``k``), so ``n_jobs`` changes wall
clock only — every sample list is bit-identical to serial execution,
which each parallel benchmark asserts.

Scaling is near-linear when (a) the host has multiple cores and (b) the
per-worker model (re)build is amortized over enough replications per
worker.  On a single-core host these benchmarks degenerate into a
measurement of process-pool overhead; see ``docs/performance.md`` for
the interpretation of recorded numbers.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py \
        --benchmark-only -o python_functions='bench_*'
"""

from __future__ import annotations

import os

from repro.cfs import ClusterModel, abe_parameters

#: One ABE yearly-availability sweep cell (Figure 4 / Table-sweep shaped).
HOURS = 8760.0
N_REPLICATIONS = 8
N_JOBS = max(os.cpu_count() or 1, 2)  # exercise the pool even on 1 core


def _simulate(n_jobs: int):
    model = ClusterModel(abe_parameters(), base_seed=2008)
    return model.simulate(
        hours=HOURS, n_replications=N_REPLICATIONS, n_jobs=n_jobs
    )


def _samples_dict(result):
    return {m: result.experiment.samples(m) for m in result.experiment.metrics}


def bench_abe_sweep_cell_serial(benchmark):
    """Serial baseline: one ABE sweep cell (8 yearly replications)."""
    result = benchmark.pedantic(lambda: _simulate(1), rounds=3, iterations=1)
    assert 0.9 < result.cfs_availability.mean <= 1.0


def bench_abe_sweep_cell_parallel(benchmark):
    """Same sweep cell through the process pool (forked workers read the
    parent's compiled setup; without fork they rebuild from the spec).

    Asserts bit-identity with serial execution; the serial/parallel OPS
    ratio in the benchmark table is the replication-scaling speedup
    (bounded by the host's core count and pool start-up cost).
    """
    serial = _samples_dict(_simulate(1))
    result = benchmark.pedantic(
        lambda: _simulate(N_JOBS), rounds=3, iterations=1
    )
    assert _samples_dict(result) == serial


def bench_parallel_pool_startup(benchmark):
    """Cost of spinning up the pool for a minimal workload (2 reps).

    This bounds the overhead term in the scaling model: speedup ≈
    n_jobs / (1 + startup/(serial_time)).
    """
    model = ClusterModel(abe_parameters(), base_seed=2008)

    def run():
        return model.simulate(hours=500.0, n_replications=2, n_jobs=2)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.experiment.n_replications == 2
