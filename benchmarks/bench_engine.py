"""Engine micro-benchmarks: flattening cost and event throughput.

These guard the performance properties that make the petascale sweeps
feasible: dependency-driven enabling means event cost is O(affected
activities), not O(model size).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cfs import abe_parameters, petascale_parameters
from repro.cfs.cluster import build_cluster_node
from repro.core import (
    SAN,
    EquilibriumResidual,
    Exponential,
    RateReward,
    Simulator,
    flatten,
    replicate,
)
from repro.core import distributions


def _fleet_model(n_units: int):
    unit = SAN("unit")
    unit.place("up", 1)
    unit.place("down_count", 0)
    unit.timed(
        "fail",
        Exponential(0.01),
        enabled=lambda m: m["up"] == 1,
        effect=lambda m, rng: (
            m.__setitem__("up", 0),
            m.__setitem__("down_count", m["down_count"] + 1),
        ),
    )
    unit.timed(
        "repair",
        Exponential(0.1),
        enabled=lambda m: m["up"] == 0,
        effect=lambda m, rng: (
            m.__setitem__("up", 1),
            m.__setitem__("down_count", m["down_count"] - 1),
        ),
    )
    return replicate("fleet", unit, n_units, shared=["down_count"])


def bench_flatten_abe_cluster(benchmark):
    """Flattening the full ABE composition tree (1158 places)."""
    params = abe_parameters()
    model = benchmark(lambda: flatten(build_cluster_node(params)))
    assert model.n_places > 1000


def bench_flatten_petascale_cluster(benchmark):
    """Flattening the petascale tree (~12k places, 4800 disks).

    ``warmup_rounds=1`` + 5 rounds keep the snapshot minima stable
    (min-vs-mean gap <1.1×; the old 2-round runs were one warm-up away
    from whatever the allocator was doing)."""
    params = petascale_parameters()
    model = benchmark.pedantic(
        lambda: flatten(build_cluster_node(params)),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert model.n_places > 10_000


def bench_build_petascale_setup(benchmark):
    """Model construction of the petascale cluster: flatten, measures and
    the first compile (32 activity templates become ~17.8k activities).

    Same rounds and warm-up as :func:`bench_flatten_petascale_cluster`."""
    from repro.cfs.measures import build_measures
    from repro.core import CompiledProgram

    params = petascale_parameters()

    def build():
        model = flatten(build_cluster_node(params))
        measures = build_measures(model, params)
        CompiledProgram(model, batch_dynamic=True).tables()
        return model, measures

    model, measures = benchmark.pedantic(
        build, rounds=5, iterations=1, warmup_rounds=1
    )
    assert len(model.activities) > 17_000
    assert len(measures.rewards) == 4


def bench_event_throughput_small_fleet(benchmark):
    """Raw event-processing rate on a 10-unit fleet (~1100 events)."""
    model = flatten(_fleet_model(10))
    sim = Simulator(model, base_seed=1)

    def run():
        return sim.run(10_000.0).n_events

    events = benchmark(run)
    assert events > 500


def bench_event_throughput_large_fleet(benchmark):
    """Event cost must not grow with fleet size (dependency-driven)."""
    model = flatten(_fleet_model(500))
    sim = Simulator(model, base_seed=2)

    def run():
        return sim.run(1_000.0).n_events

    events = benchmark.pedantic(run, rounds=3, iterations=1)
    assert events > 2_000


def bench_event_throughput_fleet_rewards(benchmark):
    """The observed fast loop: rate+impulse rewards on the 500-unit fleet.

    The rate reward reads the shared counter every event writes, so this
    is the worst case for incremental reward integration (one observer
    refresh per event)."""
    model = flatten(_fleet_model(500))
    sim = Simulator(model, base_seed=2)
    from repro.core import ImpulseReward

    rewards = [
        RateReward("frac_down", lambda m: m["fleet/down_count"] / 500.0),
        ImpulseReward("repairs", "*/repair"),
    ]

    def run():
        return sim.run(1_000.0, rewards=rewards).n_events

    events = benchmark.pedantic(run, rounds=3, iterations=1)
    assert events > 2_000


def bench_abe_cluster_one_year(benchmark):
    """One replication of the calibrated ABE model over a simulated year.

    ``warmup_rounds=1`` keeps one-time work (model compile, equilibrium
    quantile grids, kernel verification) out of the timed rounds, and 8
    pedantic rounds give the minima enough samples to be stable (three
    rounds left 5× gaps between minimum and mean).
    """
    from repro.cfs import ClusterModel

    cm = ClusterModel(abe_parameters(), base_seed=3)
    rw = cm.measures.rewards

    def run():
        return cm.simulator.run(8760.0, rewards=rw)

    result = benchmark.pedantic(run, rounds=8, iterations=1, warmup_rounds=1)
    assert 0.9 < result["cfs_availability"].time_average <= 1.0


def bench_petascale_cluster_one_year(benchmark):
    """One replication of the petascale model over a simulated year.

    Rounds/warmup chosen for stable minima — see
    :func:`bench_abe_cluster_one_year`.
    """
    from repro.cfs import ClusterModel

    cm = ClusterModel(petascale_parameters(), base_seed=4)
    rw = cm.measures.rewards

    def run():
        return cm.simulator.run(8760.0, rewards=rw)

    result = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert 0.8 < result["cfs_availability"].time_average <= 1.0


def bench_equilibrium_grid_cold(benchmark):
    """First draw from the ABE disk fleet's equilibrium law on an empty
    grid cache: one ~4.2k-point inverse-CDF tabulation, one scipy
    ``brentq`` per point.  Each round's setup empties the per-process
    grid cache, so every round times a build."""
    lifetime = abe_parameters().disk_lifetime

    def setup():
        distributions._GRID_CACHE.clear()
        return (EquilibriumResidual(lifetime),), {}

    def first_draw(law):
        return law.sample_many(np.random.default_rng(0), 1)

    benchmark.pedantic(first_draw, setup=setup, rounds=5, iterations=1)
    assert len(distributions._GRID_CACHE) == 1


def bench_equilibrium_grid_warm(benchmark):
    """Construction and first draw of a law equal to one already drawn
    from: what every sweep cell after the first pays for the grid."""
    params = abe_parameters()
    built = EquilibriumResidual(params.disk_lifetime)
    built.sample_many(np.random.default_rng(0), 1)

    def construct_and_draw():
        law = EquilibriumResidual(params.disk_lifetime)
        law.sample_many(np.random.default_rng(0), 1)
        return law

    law = benchmark(construct_and_draw)
    assert law._grid()[1] is built._grid()[1]


def bench_statespace_exploration(benchmark):
    """Exhaustive state-space generation of a 10-unit fleet (1024 states)."""
    from repro.core import explore

    model = flatten(_fleet_model(10))
    ss = benchmark(lambda: explore(model))
    assert ss.n_states == 1024
