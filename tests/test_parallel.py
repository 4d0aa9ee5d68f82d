"""Parallel replication subsystem: serial/parallel bit-identity.

Replication ``k`` always draws from seed-tree stream ``(base_seed,
"run", k)`` regardless of which worker executes it, so
``replicate_runs(..., n_jobs=k)`` must return exactly the same
per-metric sample lists for every ``k`` — these tests assert float
equality, not approximation.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cfs import abe_parameters
from repro.cfs.cluster import ClusterModel, StorageModel, _cluster_setup
from repro.core import (
    SAN,
    Exponential,
    ImpulseReward,
    RateReward,
    ReplicationSetup,
    ReplicationSpec,
    SimulationError,
    Simulator,
    StoppingRule,
    flatten,
    replicate_runs,
    resolve_n_jobs,
)

from _helpers import build_two_state_san

UNTIL = 4000.0


def _rewards():
    return [
        RateReward("avail", lambda m: float(m["comp/up"])),
        ImpulseReward("fails", "comp/fail"),
    ]


def _serial_baseline(n=6, base_seed=77):
    sim = Simulator(flatten(build_two_state_san()), base_seed=base_seed)
    return replicate_runs(sim, UNTIL, n_replications=n, rewards=_rewards())


class TestForkInheritMode:
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_bit_identical_samples(self, n_jobs):
        base = _serial_baseline()
        sim = Simulator(flatten(build_two_state_san()), base_seed=77)
        par = replicate_runs(
            sim, UNTIL, n_replications=6, rewards=_rewards(), n_jobs=n_jobs
        )
        assert par.metrics == base.metrics
        for metric in base.metrics:
            assert par.samples(metric) == base.samples(metric)

    def test_more_jobs_than_replications(self):
        base = _serial_baseline(n=2)
        sim = Simulator(flatten(build_two_state_san()), base_seed=77)
        par = replicate_runs(
            sim, UNTIL, n_replications=2, rewards=_rewards(), n_jobs=4
        )
        for metric in base.metrics:
            assert par.samples(metric) == base.samples(metric)

    @pytest.mark.parametrize(
        "stopping",
        [
            None,
            # Never satisfied: rounds of 2, 1 and 1 up to the cap of 4.
            StoppingRule(rel_ci=1e-12, min_replications=2, batch=1),
        ],
    )
    def test_run_counter_continuity(self, stopping):
        # serial-after-parallel continues exactly where all-serial would
        base = _serial_baseline(n=8)
        sim = Simulator(flatten(build_two_state_san()), base_seed=77)
        first = replicate_runs(
            sim,
            UNTIL,
            n_replications=4,
            rewards=_rewards(),
            n_jobs=2,
            stopping=stopping,
        )
        assert first.n_replications == 4
        cont = replicate_runs(sim, UNTIL, n_replications=4, rewards=_rewards())
        for metric in base.metrics:
            assert cont.samples(metric) == base.samples(metric)[4:]

    def test_on_result_requires_serial(self):
        sim = Simulator(flatten(build_two_state_san()), base_seed=1)
        with pytest.raises(SimulationError, match="on_result"):
            replicate_runs(
                sim,
                UNTIL,
                n_replications=2,
                rewards=_rewards(),
                n_jobs=2,
                on_result=lambda k, res: None,
            )


class TestWarmStateIndependence:
    """A run's trajectory must not depend on how warm the simulator is.

    Reactivating activities resample whenever a dirty wake-up finds them
    enabled, and wake-ups are driven by the discovered-dependency
    superset — which grows across runs for predicates with
    marking-dependent (short-circuit) read sets.  The engine rolls
    post-compile discoveries back at the start of each run, so serial,
    parallel, and fresh-simulator execution all see the same state.
    """

    @staticmethod
    def _reactivating_model():
        san = SAN("s")
        # a starts at 0 so the short-circuit predicate below reads only
        # "a" at compile time; the dependency on "t" is discovered
        # mid-run, the first time a flips to 1.
        san.place("a", 0)
        san.place("t", 0)
        san.place("n", 0)
        san.timed(
            "toggle_a",
            Exponential(0.05),
            enabled=lambda m: True,
            effect=lambda m, rng: m.__setitem__("a", 1 - m["a"]),
        )
        san.timed(
            "toggle_t",
            Exponential(0.08),
            enabled=lambda m: True,
            effect=lambda m, rng: m.__setitem__("t", 1 - m["t"]),
        )
        # short-circuit predicate: reads "t" only when a == 1, so the
        # discovered read set grows mid-run
        san.timed(
            "work",
            Exponential(0.5),
            enabled=lambda m: m["a"] == 0 or m["t"] == 0,
            effect=lambda m, rng: m.__setitem__("n", m["n"] + 1),
            reactivate=True,
        )
        return flatten(san)

    def test_warm_run_equals_fresh_run(self):
        model = self._reactivating_model()
        sim = Simulator(model, base_seed=42)
        warm = [sim.run(2000.0).place("s/n") for _ in range(6)]
        fresh = []
        for k in range(6):
            s2 = Simulator(model, base_seed=42)
            s2._run_counter = k
            fresh.append(s2.run(2000.0).place("s/n"))
        assert warm == fresh

    @pytest.mark.parametrize("n_jobs", [2, 6])
    def test_parallel_identical_with_reactivation(self, n_jobs):
        model = self._reactivating_model()
        rw = [ImpulseReward("works", "s/work")]
        serial = replicate_runs(
            Simulator(model, base_seed=42), 2000.0, n_replications=6, rewards=rw
        )
        par = replicate_runs(
            Simulator(model, base_seed=42),
            2000.0,
            n_replications=6,
            rewards=rw,
            n_jobs=n_jobs,
        )
        assert par.samples("works") == serial.samples("works")


class TestSpecMode:
    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_cluster_model_identical(self, n_jobs):
        serial = ClusterModel(abe_parameters(), base_seed=2008).simulate(
            hours=1500.0, n_replications=6
        )
        parallel = ClusterModel(abe_parameters(), base_seed=2008).simulate(
            hours=1500.0, n_replications=6, n_jobs=n_jobs
        )
        assert parallel.experiment.metrics == serial.experiment.metrics
        for metric in serial.experiment.metrics:
            assert parallel.experiment.samples(metric) == serial.experiment.samples(
                metric
            )

    def test_storage_model_identical(self):
        serial = StorageModel(abe_parameters(), base_seed=96).simulate(
            hours=1500.0, n_replications=4
        )
        parallel = StorageModel(abe_parameters(), base_seed=96).simulate(
            hours=1500.0, n_replications=4, n_jobs=2
        )
        for metric in serial.experiment.metrics:
            assert parallel.experiment.samples(metric) == serial.experiment.samples(
                metric
            )

    def test_forked_workers_read_the_parents_setup(self, monkeypatch):
        """Under fork no pooled worker rebuilds: replicated and RESTART
        studies both hand the parent's live setup to their workers."""
        from repro.core import parallel
        from repro.experiments.rare import (
            splitting_probability,
            tier_replication_spec,
            tier_splitting_policy,
        )

        def forbidden(spec):
            raise AssertionError("a forked worker rebuilt its setup")

        serial = ClusterModel(abe_parameters(), base_seed=2008).simulate(
            hours=1500.0, n_replications=4
        )
        policy = tier_splitting_policy(4, 1, 0.01, 0.5)
        roots = splitting_probability(
            tier_replication_spec(4, 1, 0.01, 0.5, 42), 100.0, policy, n_roots=16
        )
        monkeypatch.setattr(parallel, "build_setup_cached", forbidden)
        forked = ClusterModel(abe_parameters(), base_seed=2008).simulate(
            hours=1500.0, n_replications=4, n_jobs=2
        )
        for metric in serial.experiment.metrics:
            assert forked.experiment.samples(metric) == serial.experiment.samples(
                metric
            )
        forked_roots = splitting_probability(
            tier_replication_spec(4, 1, 0.01, 0.5, 42),
            100.0,
            policy,
            n_roots=16,
            n_jobs=2,
        )
        assert forked_roots.samples == roots.samples

    def test_spawned_workers_rebuild_from_spec(self, monkeypatch):
        """Without fork, each worker rebuilds the study from the spec."""
        from repro.core import parallel

        serial = ClusterModel(abe_parameters(), base_seed=2008).simulate(
            hours=1500.0, n_replications=4
        )
        monkeypatch.setattr(parallel, "_fork_context", lambda: None)
        monkeypatch.setattr(
            parallel, "pool_context", lambda: multiprocessing.get_context("spawn")
        )
        spawned = ClusterModel(abe_parameters(), base_seed=2008).simulate(
            hours=1500.0, n_replications=4, n_jobs=2
        )
        assert spawned.experiment.metrics == serial.experiment.metrics
        for metric in serial.experiment.metrics:
            assert spawned.experiment.samples(metric) == serial.experiment.samples(
                metric
            )

    def test_spec_is_picklable(self):
        import pickle

        spec = ClusterModel(abe_parameters(), base_seed=1).replication_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.factory is _cluster_setup
        setup = clone.build()
        assert isinstance(setup, ReplicationSetup)

    def test_bad_factory_rejected(self):
        spec = ReplicationSpec(dict)  # returns {}, not a ReplicationSetup
        with pytest.raises(SimulationError, match="ReplicationSetup"):
            spec.build()


class TestResolveNJobs:
    def test_values(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1

    def test_invalid(self):
        with pytest.raises(SimulationError):
            resolve_n_jobs(0)
        with pytest.raises(SimulationError):
            resolve_n_jobs(-2)
        for bad in (1.5, 2.7, "x", "2", float("nan")):
            with pytest.raises(SimulationError, match="n_jobs") as exc:
                resolve_n_jobs(bad)
            assert repr(bad) in str(exc.value)
