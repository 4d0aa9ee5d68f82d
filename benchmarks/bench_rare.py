"""Rare-event engine benchmarks: splitting throughput + stopping overhead.

The deep-tail headline (docs/performance.md, Layer 8) is ~150x effective
speedup from RESTART splitting on the petascale tier, and replications
saved by the adaptive stopping rule.  These benches track the two cost
terms that speedup rests on, at a size small enough for CI smoke:

* ``bench_splitting_small_tier`` runs a full splitting study on the
  4-disk aggregate tier — the per-segment cost (restart-from-marking,
  branch bookkeeping, per-branch seeded streams) is the unit the
  deep-tail wall-clock multiplies.  Its trees are shallow (~4 splits
  deep on average, at most 13), so it cannot show a cost that grows
  with a segment's depth;
* ``bench_splitting_deep_tier`` runs a mission year of the 60-disk,
  f=3 tier: ~5,100 segments, ~54 splits deep on average and up to 135 —
  the shape of the deep-tail trees, where deriving a segment's stream
  must not cost more the deeper the segment sits;
* ``bench_crude_same_model`` is the small-tier study through the crude
  (single-threshold, no-splitting) path — the A/B for the splitting
  tree's bookkeeping overhead per root;
* ``bench_adaptive_stopping_overhead`` replicates a tier study to a
  relative-CI target vs a fixed count of the same size, so the batch
  means / CI re-check cost per round stays visibly near zero;
* ``bench_restart_run`` times 200 restart segments from ``[2, 0]`` on
  the deep-tail tier (480 disks, f=6) with the deep-tail stop
  predicate: zero-event segments (a horizon too short for any event)
  and one-event segments (deep-tail's typical segment).  They cost
  ``Simulator.run``'s per-call set-up, not event work: the fixed cost
  that the program's cached run plan cuts (docs/performance.md,
  Layer 16);
* ``bench_seed_tree_stream`` derives one segment's stream,
  ``node.child(-1).generator()``, below a node 0, 50 and 130 keys deep:
  the per-segment cost a ``SeedTree`` node's mixed entropy pool cuts
  (docs/performance.md, Layer 20), which must not grow with depth.

Every estimate is asserted bit-stable across rounds (same seeds, same
schedule), so the benches double as determinism smoke tests.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest

from repro.core import Simulator, StoppingRule
from repro.core.experiment import replicate_runs
from repro.core.parallel import build_setup_cached
from repro.core.rng import SeedTree, derive_seed, make_generator
from repro.experiments.rare import (
    _make_stop_predicate,
    aggregate_tier_san,
    splitting_probability,
    tier_replication_spec,
    tier_splitting_policy,
)

N_DISKS, TOLERANCE, FAIL_RATE, REPAIR_RATE = 4, 1, 0.01, 0.5
HOURS = 100.0
N_ROOTS = 48
N_REPS = 48
#: The deep tier: a mission year of a 60-disk, f=3 tier.
DEEP_TIER = (60, 3, 1e-4, 0.02)
DEEP_HOURS = 8760.0
DEEP_ROOTS = 4
#: The deep-tail tier, the marking its restart segments start from, and
#: the segments timed per round.
DEEP_TAIL_TIER = (480, 6, 1e-5, 0.02)
RESTART_MARKING = [2, 0]
RESTART_RUNS = 200


def _simulator():
    return Simulator(
        aggregate_tier_san(N_DISKS, TOLERANCE, FAIL_RATE, REPAIR_RATE),
        base_seed=2008,
    )


def _policy():
    return tier_splitting_policy(N_DISKS, TOLERANCE, FAIL_RATE, REPAIR_RATE)


def bench_splitting_small_tier(benchmark):
    """Full RESTART study: per-segment restart + branch bookkeeping cost."""

    def study():
        return splitting_probability(
            _simulator(), HOURS, _policy(), n_roots=N_ROOTS
        )

    baseline = study()
    est = benchmark.pedantic(study, rounds=5, iterations=1, warmup_rounds=1)
    assert est.n_roots == N_ROOTS
    assert est.n_segments > N_ROOTS  # the tree actually branched
    assert est.samples == baseline.samples  # seeded: bit-stable per round


def bench_splitting_deep_tier(benchmark):
    """Deep RESTART trees: per-segment cost at ~54 splits of depth."""
    policy = tier_splitting_policy(*DEEP_TIER)

    def study():
        return splitting_probability(
            Simulator(aggregate_tier_san(*DEEP_TIER), base_seed=2008),
            DEEP_HOURS,
            policy,
            n_roots=DEEP_ROOTS,
        )

    baseline = study()
    est = benchmark.pedantic(study, rounds=5, iterations=1, warmup_rounds=1)
    assert est.n_roots == DEEP_ROOTS
    assert est.n_segments > 1000 * DEEP_ROOTS  # deep, bushy trees
    assert est.samples == baseline.samples  # seeded: bit-stable per round


def bench_crude_same_model(benchmark):
    """Same study, single top threshold: no splitting bookkeeping."""
    crude = _policy().crude()

    def study():
        return splitting_probability(
            _simulator(), HOURS, crude, n_roots=N_ROOTS
        )

    baseline = study()
    est = benchmark.pedantic(study, rounds=5, iterations=1, warmup_rounds=1)
    assert est.n_roots == est.n_segments == N_ROOTS
    assert est.samples == baseline.samples


def bench_adaptive_stopping_overhead(benchmark):
    """Replicate to a rel-CI target vs a fixed count of the same size.

    The rule below never stops early on this config (target far below
    what N_REPS can deliver), so the adaptive run does exactly the fixed
    run's replications plus the per-round batch-means/CI checks — the
    measured delta vs ``bench_fixed_count_baseline`` is pure rule cost.
    """
    spec = tier_replication_spec(
        N_DISKS, TOLERANCE, FAIL_RATE, REPAIR_RATE, base_seed=2008
    )
    setup, _metrics = build_setup_cached(spec)
    rule = StoppingRule(rel_ci=1e-9, metrics=("lost",), batch=4)

    def adaptive():
        return replicate_runs(
            setup.simulator,
            HOURS,
            n_replications=N_REPS,
            rewards=setup.rewards,
            stopping=rule,
        )

    result = benchmark.pedantic(
        adaptive, rounds=5, iterations=1, warmup_rounds=1
    )
    assert result.n_replications == N_REPS  # ran to the cap


def bench_fixed_count_baseline(benchmark):
    """The fixed-count twin of the adaptive bench (A/B denominator)."""
    spec = tier_replication_spec(
        N_DISKS, TOLERANCE, FAIL_RATE, REPAIR_RATE, base_seed=2008
    )
    setup, _metrics = build_setup_cached(spec)

    def fixed():
        return replicate_runs(
            setup.simulator,
            HOURS,
            n_replications=N_REPS,
            rewards=setup.rewards,
        )

    result = benchmark.pedantic(fixed, rounds=5, iterations=1, warmup_rounds=1)
    assert result.n_replications == N_REPS


@pytest.mark.parametrize("events", [0, 1])
def bench_restart_run(benchmark, events):
    """Restart segments from [2, 0] with the deep-tail stop predicate."""
    sim = Simulator(aggregate_tier_san(*DEEP_TAIL_TIER), base_seed=2008)
    policy = tier_splitting_policy(*DEEP_TAIL_TIER)
    level_fn = policy.level.resolve(sim.model)
    thresholds = policy.thresholds
    bracket = bisect_right(thresholds, level_fn(RESTART_MARKING))
    stop = _make_stop_predicate(
        level_fn, thresholds[bracket], thresholds[bracket - 1]
    )
    # Either event from [2, 0] leaves the bracket, so a mission-year
    # horizon fires exactly one; a 1e-6 h horizon fires none.
    until = 8760.0 if events else 1e-6

    def streams():
        gens = [make_generator(2008, "restart", i) for i in range(RESTART_RUNS)]
        return (gens,), {}

    def segments(gens):
        return [
            sim.run(
                until, rng=g, stop_predicate=stop, initial_marking=RESTART_MARKING
            ).n_events
            for g in gens
        ]

    counts = benchmark.pedantic(segments, setup=streams, rounds=5, warmup_rounds=1)
    assert counts == [events] * RESTART_RUNS


@pytest.mark.parametrize("depth", [0, 50, 130])
def bench_seed_tree_stream(benchmark, depth):
    """One restart segment's stream below a node ``depth`` keys deep."""
    path = ("rare", 0, *range(depth))[:depth]
    node = SeedTree(2008).child(*path)
    gen = benchmark(lambda: node.child(-1).generator())
    oracle = np.random.default_rng(derive_seed(2008, *path, -1))
    assert gen.bit_generator.state == oracle.bit_generator.state
