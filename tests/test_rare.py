"""Rare-event subsystem: differential and contract tests (fast).

Three contracts, each pinned bit-for-bit:

* the restart-from-marking primitive (``Simulator.run(...,
  initial_marking=...)``) leaves the default path byte-identical and
  continues stopped trajectories deterministically;
* splitting disabled *is* ``replicate_runs`` — same streams, same
  samples — and the splitting tree itself is identical for serial
  execution, any worker count, and repeated runs;
* adaptive CI stopping picks the same stopping replication count
  float-for-float whether the study runs serially, across any
  ``n_jobs``, or resumed from a sweep checkpoint.

The *statistical* properties (unbiasedness against the Markov closed
forms, CI coverage) live in ``tests/test_rare_stats.py`` (``-m stats``).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Exponential,
    ModelError,
    RateReward,
    SimulationError,
    Simulator,
    StoppingRule,
    flatten,
    make_generator,
    replicate_runs,
)
from repro.experiments import run_sweep
from repro.experiments.rare import (
    LevelFunction,
    SplittingPolicy,
    aggregate_tier_san,
    brute_force_probability,
    splitting_probability,
    suggested_splits,
    tier_level,
    tier_replication_spec,
    tier_splitting_policy,
)
from repro.experiments.sweep import cell_digest, replication_cell

from _helpers import build_two_state_san

# Small enough that every study here runs in milliseconds, rare enough
# (p ~ 0.19 over the horizon) that trees actually split and die.
N, F, LAM, MU, T = 4, 1, 0.01, 0.5, 100.0


def tier_model():
    return aggregate_tier_san(N, F, LAM, MU)


def tier_spec(seed):
    return tier_replication_spec(N, F, LAM, MU, seed)


def lost_reward():
    return [
        RateReward("lost", lambda m: float(m["tier/lost"]), reads=["tier/lost"])
    ]


class TestRestartHook:
    """``initial_marking`` on ``Simulator.run``."""

    def test_default_path_byte_identical(self):
        """Passing the model's own initial marking changes nothing."""
        model = flatten(build_two_state_san())
        a = Simulator(model, base_seed=11).run(500.0, rng=make_generator(1, "x"))
        b = Simulator(model, base_seed=11).run(
            500.0, rng=make_generator(1, "x"), initial_marking=model.initial
        )
        assert a.n_events == b.n_events
        assert a.final_time == b.final_time
        assert a.final_marking == b.final_marking

    def test_continuation_runs_from_stopped_state(self):
        model = tier_model()
        sim = Simulator(model, base_seed=3)
        first = sim.run(
            T,
            rng=make_generator(3, "seg", 0),
            stop_predicate=lambda m: m.raw[model.paths["tier/failed"]] >= 1,
        )
        assert first.stopped_early
        marking = first.final_marking
        assert marking[model.paths["tier/failed"]] == 1
        second = sim.run(
            T - first.final_time,
            rng=make_generator(3, "seg", 1),
            initial_marking=marking,
        )
        assert second.final_time <= T - first.final_time
        # The continuation really started from the degraded state: its
        # own final marking is a valid tier marking, and the original
        # simulator is reusable afterwards (marking restored per run).
        plain = sim.run(T, rng=make_generator(3, "seg", 2))
        assert not plain.stopped_early

    def test_restart_is_deterministic(self):
        model = tier_model()
        sim = Simulator(model, base_seed=3)
        marking = [2, 0]
        runs = [
            sim.run(T, rng=make_generator(9, "r"), initial_marking=marking)
            for _ in range(2)
        ]
        assert runs[0].n_events == runs[1].n_events
        assert runs[0].final_marking == runs[1].final_marking

    def test_rewards_integrate_from_restart_marking(self):
        model = tier_model()
        sim = Simulator(model, base_seed=3)
        # Start lost: the sticky flag freezes the chain, so the 'lost'
        # rate reward integrates to exactly 1.0.
        lost = [1 + F + 0, 1]
        lost[model.paths["tier/failed"]] = F + 1
        lost[model.paths["tier/lost"]] = 1
        res = sim.run(
            50.0,
            rng=make_generator(4, "r"),
            rewards=lost_reward(),
            initial_marking=lost,
        )
        assert res["lost"].time_average == 1.0

    def test_invalid_markings_raise(self):
        model = tier_model()
        sim = Simulator(model, base_seed=3)
        with pytest.raises(SimulationError, match="has 2 places|2 entries"):
            sim.run(T, rng=make_generator(1, "r"), initial_marking=[0])
        with pytest.raises(SimulationError, match=">= 0"):
            sim.run(T, rng=make_generator(1, "r"), initial_marking=[-1, 0])


class TestValidation:
    def test_level_function_rejects_bad_weights(self):
        with pytest.raises(SimulationError, match="no places"):
            LevelFunction("empty", {})
        with pytest.raises(SimulationError, match="positive finite"):
            LevelFunction("neg", {"tier/failed": -1.0})
        with pytest.raises(SimulationError, match="positive finite"):
            LevelFunction("zero", {"tier/failed": 0.0})
        with pytest.raises(SimulationError, match="positive finite"):
            LevelFunction("nan", {"tier/failed": float("nan")})

    def test_level_function_rejects_unknown_place(self):
        lf = LevelFunction("bad", {"tier/nonexistent": 1.0})
        with pytest.raises(SimulationError, match="unknown place"):
            lf.resolve(tier_model())

    def test_policy_rejects_bad_thresholds(self):
        lf = tier_level()
        with pytest.raises(SimulationError, match=">= 1 threshold"):
            SplittingPolicy(lf, ())
        with pytest.raises(SimulationError, match="strictly increasing"):
            SplittingPolicy(lf, (2.0, 1.0), (4,))
        with pytest.raises(SimulationError, match="one splitting factor"):
            SplittingPolicy(lf, (1.0, 2.0), ())
        with pytest.raises(SimulationError, match=">= 1"):
            SplittingPolicy(lf, (1.0, 2.0), (0,))

    @pytest.mark.parametrize(
        "thresholds, splits, shown",
        [
            ((math.nan,), (), "nan"),
            ((-math.inf,), (), "-inf"),
            ((1.0, math.inf), (4,), "inf"),
            ((math.nan, 2.0), (4,), "nan"),
        ],
    )
    def test_policy_rejects_non_finite_thresholds(self, thresholds, splits, shown):
        with pytest.raises(
            SimulationError, match=f"thresholds must be finite, got {shown} in"
        ):
            SplittingPolicy(tier_level(), thresholds, splits)

    def test_initial_marking_at_top_raises(self):
        model = tier_model()
        policy = SplittingPolicy(tier_level(), (0.0,))
        with pytest.raises(SimulationError, match="already at the top"):
            splitting_probability(
                Simulator(model, base_seed=1), T, policy, n_roots=4
            )

    def test_parallel_requires_spec(self):
        with pytest.raises(SimulationError, match="ReplicationSpec"):
            splitting_probability(
                Simulator(tier_model(), base_seed=1),
                T,
                tier_splitting_policy(N, F, LAM, MU),
                n_roots=8,
                n_jobs=2,
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("bad", [-1, 1.5, "x"])
    def test_bad_base_seed_rejected_before_any_root(
        self, bad, jobs, monkeypatch
    ):
        import repro.experiments.rare as rare

        def forbidden(*args, **kwargs):
            raise AssertionError("a root tree ran or a pool started")

        monkeypatch.setattr(rare, "_run_root_tree", forbidden)
        monkeypatch.setattr(rare, "_run_chunked", forbidden)
        with pytest.raises(SimulationError, match="base_seed") as exc:
            splitting_probability(
                tier_spec(3),
                T,
                tier_splitting_policy(N, F, LAM, MU),
                n_roots=8,
                base_seed=bad,
                n_jobs=jobs,
            )
        assert repr(bad) in str(exc.value)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "name, bad",
        [
            ("horizon", float("nan")),
            ("horizon", float("inf")),
            ("horizon", "5"),
            ("horizon", 0.0),
            ("n_roots", 2.5),
            ("n_roots", "3"),
            ("n_roots", 0),
            ("confidence", 2.0),
            ("confidence", 0.0),
            ("confidence", float("nan")),
            ("confidence", "x"),
        ],
    )
    def test_bad_argument_rejected_before_any_root(
        self, name, bad, jobs, monkeypatch
    ):
        import repro.experiments.rare as rare

        def forbidden(*args, **kwargs):
            raise AssertionError("a root tree ran or a pool started")

        monkeypatch.setattr(rare, "_run_root_tree", forbidden)
        monkeypatch.setattr(rare, "_run_chunked", forbidden)
        kwargs = {"horizon": T, "n_roots": 8, name: bad}
        with pytest.raises(SimulationError, match=name) as exc:
            splitting_probability(
                tier_spec(3),
                policy=tier_splitting_policy(N, F, LAM, MU),
                n_jobs=jobs,
                **kwargs,
            )
        assert repr(bad) in str(exc.value)

    def test_brute_force_rejects_bad_confidence(self):
        sim = Simulator(tier_model(), base_seed=1)
        with pytest.raises(SimulationError, match="confidence") as exc:
            brute_force_probability(
                sim, T, tier_level(), float(F + 1), n_replications=4,
                confidence=2.0,
            )
        assert "2.0" in str(exc.value)
        assert sim._run_counter == 0

    @pytest.mark.parametrize(
        "args, kwargs, needle",
        [
            ((10, 20, 1e-5, 0.02), {}, "got 20 of 10"),
            ((4, 4, 1e-5, 0.02), {}, "got 4 of 4"),
            ((480, 0, 1e-5, 0.02), {}, "got 0 of 480"),
            ((480.0, 6, 1e-5, 0.02), {}, "n_disks must be an integer, got 480.0"),
            ((480, "6", 1e-5, 0.02), {}, "fault_tolerance must be an integer, got '6'"),
            ((480, 6, float("nan"), 0.02), {}, "disk_failure_rate must be finite and positive, got nan"),
            ((480, 6, 1e-5, float("inf")), {}, "disk_repair_rate must be finite and positive, got inf"),
            ((480, 6, -1e-5, 0.02), {}, "disk_failure_rate must be finite and positive, got -1e-05"),
            ((480, 6, 1e-5, 0.0), {}, "disk_repair_rate must be finite and positive, got 0.0"),
            ((480, 6, 1e-5, 0.02), {"cap": 0}, "cap must be an integer >= 1, got 0"),
        ],
    )
    def test_tier_helpers_check_inputs_first(self, args, kwargs, needle):
        calls = [lambda: suggested_splits(*args, **kwargs)]
        if not kwargs:
            calls += [
                lambda: aggregate_tier_san(*args),
                lambda: tier_splitting_policy(*args),
            ]
        for call in calls:
            with pytest.raises(SimulationError) as exc_info:
                call()
            assert needle in str(exc_info.value)

    @pytest.mark.parametrize(
        "lam, mu",
        [(1e308, 0.02), (1e-5, 1e308), (1e-300, 1e300), (1e-320, 0.02)],
    )
    def test_overflowing_stage_odds_name_both_rates(self, lam, mu):
        """Finite positive rates whose stage rates or odds overflow:
        NaN, zero-division and infinite odds become one error."""
        for call in (suggested_splits, tier_splitting_policy):
            with pytest.raises(SimulationError) as exc_info:
                call(480, 6, lam, mu)
            assert str(exc_info.value) == (
                f"disk_failure_rate {lam!r} and disk_repair_rate {mu!r} "
                "give no finite splitting odds at 1 of 480 disks failed"
            )

    @given(
        n=st.integers(2, 10**4),
        f_frac=st.floats(0.0, 1.0),
        lam=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        mu=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_tier_helpers_return_or_raise_repro_errors(self, n, f_frac, lam, mu):
        """Over the whole positive float range, the tier helpers either
        return or raise a structured error: never NaN arithmetic, a
        division by zero or an overflow."""
        f = 1 + min(n - 2, int(f_frac * (n - 1)))
        for call in (suggested_splits, tier_splitting_policy, aggregate_tier_san):
            try:
                call(n, f, lam, mu)
            except (SimulationError, ModelError):
                pass

    def test_tier_laws_are_prebuilt_per_count(self):
        n, f, lam, mu = 480, 6, 1e-5, 0.02
        model = aggregate_tier_san(n, f, lam, mu)
        acts = {a.path: a.definition.distribution for a in model.activities}
        fail, repair = acts["tier/fail"], acts["tier/repair"]
        for k in range(f + 1):
            law = fail({"failed": k, "lost": 0})
            assert law is fail({"failed": k, "lost": 0})
            assert law.rate == Exponential((n - k) * lam).rate
        for k in range(1, f + 1):
            law = repair({"failed": k, "lost": 0})
            assert law is repair({"failed": k, "lost": 0})
            assert law.rate == Exponential(k * mu).rate

    def test_suggested_splits_shape(self):
        splits = suggested_splits(N, F, LAM, MU)
        assert len(splits) == F
        assert all(s >= 1 for s in splits)
        policy = tier_splitting_policy(N, F, LAM, MU)
        assert policy.thresholds == tuple(float(j) for j in range(1, F + 2))
        assert policy.crude().thresholds == (float(F + 1),)
        assert policy.crude().splits == ()


class TestSplittingDifferentials:
    def test_serial_equals_parallel_roots(self):
        policy = tier_splitting_policy(N, F, LAM, MU)
        serial = splitting_probability(
            Simulator(tier_model(), base_seed=42), T, policy, n_roots=40
        )
        for jobs in (2, 3):
            par = splitting_probability(
                tier_spec(42), T, policy, n_roots=40, n_jobs=jobs
            )
            assert par.samples == serial.samples
            assert par.n_segments == serial.n_segments
            assert par.n_hits == serial.n_hits

    def test_spec_serial_equals_simulator_serial(self):
        policy = tier_splitting_policy(N, F, LAM, MU)
        a = splitting_probability(
            Simulator(tier_model(), base_seed=42), T, policy, n_roots=40
        )
        b = splitting_probability(tier_spec(42), T, policy, n_roots=40)
        assert a.samples == b.samples

    def test_repeat_runs_identical(self):
        policy = tier_splitting_policy(N, F, LAM, MU)
        runs = [
            splitting_probability(
                Simulator(tier_model(), base_seed=7), T, policy, n_roots=30
            )
            for _ in range(2)
        ]
        assert runs[0].samples == runs[1].samples

    def test_brute_force_is_replicate_runs_bit_for_bit(self):
        """Splitting disabled routes literally through replicate_runs."""
        model = tier_model()
        bf = brute_force_probability(
            Simulator(model, base_seed=5),
            T,
            tier_level(),
            float(F + 1),
            n_replications=60,
        )
        fn = tier_level().resolve(model)
        ref = replicate_runs(
            Simulator(model, base_seed=5),
            T,
            n_replications=60,
            extra_metrics={
                "rare_event": lambda res: (
                    1.0 if fn(res._final_values) >= F + 1 else 0.0
                )
            },
        )
        assert list(bf.samples) == ref.samples("rare_event")
        assert bf.n_hits == int(sum(bf.samples))

    def test_weight_conservation_in_tree(self):
        """Per-root contributions stay in [0, 1]: region weights never
        exceed the root's weight."""
        est = splitting_probability(
            Simulator(tier_model(), base_seed=13),
            T,
            tier_splitting_policy(N, F, LAM, MU),
            n_roots=50,
        )
        assert all(0.0 <= s <= 1.0 + 1e-12 for s in est.samples)
        assert math.isclose(
            est.probability,
            sum(est.samples) / len(est.samples),
            rel_tol=1e-12,
        )

    def test_max_segments_guard(self):
        policy = tier_splitting_policy(N, F, LAM, MU, max_segments=2)
        with pytest.raises(SimulationError, match="max_segments"):
            splitting_probability(
                Simulator(tier_model(), base_seed=42), T, policy, n_roots=40
            )


class TestSplittingGolden:
    """One deep splitting study pinned across commits.

    The differentials above compare two runs of the same tree; only this
    golden notices a change to a segment's stream, the tree's accounting
    or the restart primitive.  The 60-disk, f=3 tier runs 2,524 segments
    whose seed paths reach 114 keys.
    """

    def test_deep_tier_study(self):
        n, f, lam, mu = 60, 3, 1e-4, 0.02
        est = splitting_probability(
            Simulator(aggregate_tier_san(n, f, lam, mu), base_seed=2008),
            8760.0,
            tier_splitting_policy(n, f, lam, mu),
            n_roots=2,
            base_seed=2008,
        )
        assert [repr(s) for s in est.samples] == [
            "0.15104166666666666",
            "0.15885416666666663",
        ]
        assert (est.n_segments, est.n_hits) == (2524, 119)


class TestAdaptiveStopping:
    def test_disabled_is_byte_identical(self):
        a = replicate_runs(
            Simulator(tier_model(), base_seed=9),
            T,
            n_replications=30,
            rewards=lost_reward(),
        )
        b = replicate_runs(
            Simulator(tier_model(), base_seed=9),
            T,
            n_replications=30,
            rewards=lost_reward(),
            stopping=None,
        )
        assert a.samples("lost") == b.samples("lost")

    def test_never_satisfied_rule_equals_plain_run(self):
        """A rule that cannot be satisfied runs to the cap and matches
        the fixed-count study float-for-float."""
        rule = StoppingRule(rel_ci=1e-12, metrics=("lost",))
        adaptive = replicate_runs(
            Simulator(tier_model(), base_seed=9),
            T,
            n_replications=30,
            rewards=lost_reward(),
            stopping=rule,
        )
        plain = replicate_runs(
            Simulator(tier_model(), base_seed=9),
            T,
            n_replications=30,
            rewards=lost_reward(),
        )
        assert adaptive.samples("lost") == plain.samples("lost")

    def test_serial_equals_any_n_jobs(self):
        rule = StoppingRule(
            rel_ci=0.4, metrics=("lost",), min_replications=16, batch=8
        )
        serial = replicate_runs(
            Simulator(tier_model(), base_seed=9),
            T,
            n_replications=128,
            rewards=lost_reward(),
            stopping=rule,
        )
        for jobs in (2, 3):
            par = replicate_runs(
                Simulator(tier_model(), base_seed=9),
                T,
                n_replications=128,
                rewards=lost_reward(),
                stopping=rule,
                n_jobs=jobs,
                spec=tier_spec(9),
            )
            assert par.samples("lost") == serial.samples("lost")
            assert par.n_replications == serial.n_replications

    def test_adaptive_splitting_serial_equals_parallel(self):
        rule = StoppingRule(rel_ci=0.25, min_replications=16, batch=8)
        policy = tier_splitting_policy(N, F, LAM, MU)
        serial = splitting_probability(
            Simulator(tier_model(), base_seed=7),
            T,
            policy,
            n_roots=200,
            stopping=rule,
        )
        par = splitting_probability(
            tier_spec(7), T, policy, n_roots=200, stopping=rule, n_jobs=3
        )
        assert par.samples == serial.samples
        assert par.n_roots == serial.n_roots
        # The rule actually stopped the study before the cap.
        assert serial.n_roots < 200

    def test_run_counter_advances_by_stopped_count(self):
        """Back-to-back adaptive studies on one simulator use disjoint
        replication streams, exactly like fixed-count studies."""
        sim = Simulator(tier_model(), base_seed=9)
        rule = StoppingRule(
            rel_ci=0.4, metrics=("lost",), min_replications=16, batch=8
        )
        first = replicate_runs(
            sim, T, n_replications=64, rewards=lost_reward(), stopping=rule
        )
        second = replicate_runs(
            sim, T, n_replications=64, rewards=lost_reward(), stopping=rule
        )
        # Second study continues the counter: replication 0 of study 2
        # uses stream k = n_done, so its samples differ from study 1.
        assert first.samples("lost") != second.samples("lost")


class TestSweepIntegration:
    def test_adaptive_cell_serial_equals_parallel(self):
        rule = StoppingRule(
            rel_ci=0.4, metrics=("lost",), min_replications=16, batch=8
        )
        cells = [
            replication_cell(
                ("tier", seed), tier_spec(seed), T, 64, stopping=rule
            )
            for seed in (1, 2, 3)
        ]

        def rebuilt():
            return [
                replication_cell(
                    ("tier", seed), tier_spec(seed), T, 64, stopping=rule
                )
                for seed in (1, 2, 3)
            ]

        serial = run_sweep(cells, n_jobs=1)
        parallel = run_sweep(rebuilt(), n_jobs=3)
        for seed in (1, 2, 3):
            a = serial[("tier", seed)]
            b = parallel[("tier", seed)]
            assert a.samples("lost") == b.samples("lost")
            assert a.n_replications == b.n_replications

    def test_adaptive_cell_checkpoint_resume_identical(self, tmp_path):
        rule = StoppingRule(
            rel_ci=0.4, metrics=("lost",), min_replications=16, batch=8
        )

        def cells():
            return [
                replication_cell(
                    ("tier", seed), tier_spec(seed), T, 64, stopping=rule
                )
                for seed in (1, 2)
            ]

        ckpt = str(tmp_path / "journal")
        first = run_sweep(cells(), n_jobs=1, checkpoint_dir=ckpt)
        resumed = run_sweep(cells(), n_jobs=1, checkpoint_dir=ckpt)
        for seed in (1, 2):
            assert (
                first[("tier", seed)].samples("lost")
                == resumed[("tier", seed)].samples("lost")
            )
            assert (
                first[("tier", seed)].n_replications
                == resumed[("tier", seed)].n_replications
            )

    def test_digest_excludes_jobs_but_not_stopping(self):
        rule = StoppingRule(rel_ci=0.4, metrics=("lost",))
        plain = replication_cell("k", tier_spec(1), T, 64)
        plain_jobs = replication_cell("k", tier_spec(1), T, 64, n_jobs=4)
        adaptive = replication_cell("k", tier_spec(1), T, 64, stopping=rule)
        # Inner worker split never invalidates a checkpoint...
        assert cell_digest(plain) == cell_digest(plain_jobs)
        # ...but a stopping rule changes the result, hence the digest.
        assert cell_digest(plain) != cell_digest(adaptive)


class TestStoppingRule:
    def test_validation(self):
        with pytest.raises(SimulationError):
            StoppingRule(rel_ci=0.0)
        with pytest.raises(SimulationError):
            StoppingRule(rel_ci=0.1, confidence=1.0)
        with pytest.raises(SimulationError):
            StoppingRule(rel_ci=0.1, batch=0)
        with pytest.raises(SimulationError):
            StoppingRule(rel_ci=0.1, min_replications=0)
        for kwargs in (
            {"batch": 2.5},
            {"min_replications": 9.5},
            {"rel_ci": "x"},
            {"rel_ci": float("nan")},
            {"confidence": float("nan")},
            {"confidence": "x"},
        ):
            (name, bad), = kwargs.items()
            with pytest.raises(SimulationError, match=name) as exc:
                StoppingRule(**{"rel_ci": 0.1, **kwargs})
            assert repr(bad) in str(exc.value)

    def test_round_schedule_is_deterministic_and_caps(self):
        rule = StoppingRule(rel_ci=0.1, min_replications=16, batch=4)
        assert rule.first_round(100) == 16
        assert rule.first_round(10) == 10
        n, rounds = 0, []
        while True:
            r = rule.next_round(n, 23)
            if r == 0:
                break
            rounds.append(r)
            n += r
        assert sum(rounds) == 23
        assert rounds[0] == 16
        assert all(r <= 4 for r in rounds[1:])

    def test_satisfied_semantics(self):
        rule = StoppingRule(rel_ci=0.5, metrics=("m",), min_replications=4, batch=2)
        # Constant samples: zero half-width counts as satisfied.
        assert rule.satisfied({"m": [1.0] * 8})
        # Zero mean with batch-level spread: relative target unreachable.
        assert not rule.satisfied({"m": [3.0, -1.0, -3.0, 1.0, 2.0, -2.0, -1.0, 1.0]})
        with pytest.raises(SimulationError, match="unknown"):
            rule.satisfied({"other": [1.0] * 8})
