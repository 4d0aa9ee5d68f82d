"""Simulator semantics validated against closed-form results."""

from __future__ import annotations

import math

import numpy as np
import pytest

import warnings

from repro.core import (
    SAN,
    BinaryTrace,
    Case,
    CompiledProgram,
    Deterministic,
    EventTrace,
    Exponential,
    ImpulseReward,
    Indicator,
    InstantaneousLoopError,
    RateReward,
    SimulationBudgetError,
    SimulationError,
    Simulator,
    Uniform,
    flatten,
    join,
    replicate,
    replicate_runs,
)
from repro.markov import two_state_availability

from _helpers import build_two_state_san
from _mutants import _m_case_branch0, _m_wrong_add_amount, _machine
from test_sanitizer import assert_runs_identical


class TestTwoState:
    def test_availability_exponential(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=1)
        rw = RateReward("a", lambda m: 1.0 if m["comp/up"] == 1 else 0.0)
        res = replicate_runs(sim, 60_000.0, n_replications=8, rewards=[rw])
        est = res.estimate("a")
        expected = two_state_availability(100.0, 10.0)
        assert abs(est.mean - expected) < max(3 * est.half_width, 0.01)

    def test_availability_deterministic_repair(self):
        model = flatten(build_two_state_san(deterministic_repair=True))
        sim = Simulator(model, base_seed=2)
        rw = RateReward("a", lambda m: 1.0 if m["comp/up"] == 1 else 0.0)
        res = replicate_runs(sim, 60_000.0, n_replications=8, rewards=[rw])
        # A = MTBF/(MTBF+MTTR) holds for general repair laws too.
        expected = two_state_availability(100.0, 10.0)
        assert res.estimate("a").mean == pytest.approx(expected, abs=0.01)

    def test_failure_frequency(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=3)
        imp = ImpulseReward("fails", "comp/fail")
        res = replicate_runs(sim, 50_000.0, n_replications=6, rewards=[imp])
        # Long-run failure frequency = 1/(MTBF+MTTR).
        assert res.estimate("fails.per_hour").mean == pytest.approx(
            1.0 / 110.0, rel=0.1
        )

    def test_reproducible_with_same_seed(self, two_state_model):
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        r1 = Simulator(two_state_model, base_seed=9).run(5000.0, rewards=[rw])
        r2 = Simulator(two_state_model, base_seed=9).run(5000.0, rewards=[rw])
        assert r1["a"].integral == r2["a"].integral
        assert r1.n_events == r2.n_events

    def test_different_seeds_differ(self, two_state_model):
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        r1 = Simulator(two_state_model, base_seed=9).run(5000.0, rewards=[rw])
        r2 = Simulator(two_state_model, base_seed=10).run(5000.0, rewards=[rw])
        assert r1["a"].integral != r2["a"].integral


class TestWarmupAndWindows:
    def test_warmup_shrinks_duration(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=4)
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        res = sim.run(1000.0, warmup=200.0, rewards=[rw])
        assert res.duration == pytest.approx(800.0)
        assert res["a"].duration == pytest.approx(800.0)

    def test_invalid_until(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=5)
        with pytest.raises(SimulationError):
            sim.run(0.0)
        with pytest.raises(SimulationError):
            sim.run(10.0, warmup=10.0)

    def test_rate_reward_value_bounds(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=6)
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        res = sim.run(2000.0, rewards=[rw])
        assert 0.0 <= res["a"].time_average <= 1.0


class TestStopPredicate:
    def test_stops_on_condition(self):
        san = SAN("s")
        san.place("n", 0)
        san.timed(
            "tick",
            Deterministic(1.0),
            enabled=lambda m: True,
            effect=lambda m, rng: m.__setitem__("n", m["n"] + 1),
        )
        sim = Simulator(flatten(san), base_seed=1)
        res = sim.run(1000.0, stop_predicate=lambda m: m["s/n"] >= 5)
        assert res.stopped_early
        assert res.final_time == pytest.approx(5.0)
        assert res.place("s/n") == 5


class TestInstantaneous:
    def test_priority_order(self):
        san = SAN("s")
        san.place("token", 1)
        san.place("winner", 0)

        def take(value):
            def effect(m, rng):
                if m["token"] == 1:
                    m["token"] = 0
                    m["winner"] = value

            return effect

        san.instant("low", enabled=lambda m: m["token"] == 1, effect=take(1), priority=1)
        san.instant("high", enabled=lambda m: m["token"] == 1, effect=take(2), priority=9)
        sim = Simulator(flatten(san), base_seed=1)
        # no timed activities fire; but initial settle runs instants
        san2 = san  # silence lint
        res = sim.run(1.0)
        assert res.place("s/winner") == 2

    def test_loop_guard(self):
        san = SAN("s")
        san.place("a", 1)
        san.place("b", 0)
        san.instant(
            "flip1",
            enabled=lambda m: m["a"] == 1,
            effect=lambda m, rng: (m.__setitem__("a", 0), m.__setitem__("b", 1)),
        )
        san.instant(
            "flip2",
            enabled=lambda m: m["b"] == 1,
            effect=lambda m, rng: (m.__setitem__("b", 0), m.__setitem__("a", 1)),
        )
        sim = Simulator(flatten(san), base_seed=1, max_instant_chain=100)
        with pytest.raises(InstantaneousLoopError):
            sim.run(1.0)

    def test_chain_counts_events(self):
        san = SAN("s")
        san.place("stage", 0)
        for i in range(5):
            san.instant(
                f"step{i}",
                enabled=lambda m, _i=i: m["stage"] == _i,
                effect=lambda m, rng, _i=i: m.__setitem__("stage", _i + 1),
            )
        sim = Simulator(flatten(san), base_seed=1)
        res = sim.run(1.0)
        assert res.place("s/stage") == 5
        assert res.n_events == 5


class TestCases:
    def test_case_split_frequencies(self):
        san = SAN("s")
        san.place("heads", 0)
        san.place("tails", 0)
        san.timed(
            "flip",
            Exponential(1.0),
            enabled=lambda m: True,
            cases=[
                Case(0.3, lambda m, rng: m.__setitem__("heads", m["heads"] + 1)),
                Case(0.7, lambda m, rng: m.__setitem__("tails", m["tails"] + 1)),
            ],
        )
        sim = Simulator(flatten(san), base_seed=11)
        res = sim.run(20_000.0)
        heads, tails = res.place("s/heads"), res.place("s/tails")
        assert heads + tails > 15_000
        assert heads / (heads + tails) == pytest.approx(0.3, abs=0.02)

    def test_marking_dependent_case_probability(self):
        san = SAN("s")
        san.place("mode", 0)  # 0 -> always case A; later set to 4 -> 50/50
        san.place("a", 0)
        san.place("b", 0)
        san.timed(
            "flip",
            Exponential(1.0),
            enabled=lambda m: True,
            cases=[
                Case(lambda m: 1.0 - m["mode"] / 8.0, lambda m, rng: m.__setitem__("a", m["a"] + 1)),
                Case(lambda m: m["mode"] / 8.0, lambda m, rng: m.__setitem__("b", m["b"] + 1)),
            ],
        )
        sim = Simulator(flatten(san), base_seed=12)
        res = sim.run(5_000.0)
        assert res.place("s/b") == 0  # mode stayed 0: case B never selected


class TestMarkingDependentDistribution:
    def test_rate_follows_marking(self):
        # A counter whose tick rate doubles when boost==1; boost toggles.
        san = SAN("s")
        san.place("boost", 0)
        san.place("n", 0)
        san.timed(
            "tick",
            lambda m: Exponential(2.0 if m["boost"] == 1 else 1.0),
            enabled=lambda m: True,
            effect=lambda m, rng: m.__setitem__("n", m["n"] + 1),
        )
        san.timed(
            "toggle_on",
            Deterministic(1000.0),
            enabled=lambda m: m["boost"] == 0,
            effect=lambda m, rng: m.__setitem__("boost", 1),
        )
        sim = Simulator(flatten(san), base_seed=13)
        res = sim.run(2000.0)
        # first 1000 h at rate 1, second 1000 h at rate 2 -> ~3000 ticks
        assert res.place("s/n") == pytest.approx(3000, rel=0.1)

    @pytest.mark.parametrize("declared", [False, True])
    @pytest.mark.parametrize("batch_dynamic", [False, True])
    def test_callable_returning_a_non_distribution_names_the_activity(
        self, batch_dynamic, declared
    ):
        # The law a callable returns is checked on every draw without
        # batch_dynamic and on its first draw with it; either way the
        # run fails before the first event with the same error.
        san = SAN("s")
        san.place("n", 0)
        san.timed(
            "tick",
            lambda m: 2.5 if m["n"] == 0 else Exponential(1.0),
            enabled=lambda m: True,
            effect=lambda m, rng: m.__setitem__("n", m["n"] + 1),
            reads=["n"] if declared else None,
        )
        sim = Simulator(flatten(san), batch_dynamic=batch_dynamic)
        with pytest.raises(
            SimulationError,
            match=r"^activity 's/tick': distribution callable did not "
            r"return a Distribution$",
        ):
            sim.run(10.0)


class TestReactivation:
    def test_reactivating_activity_resamples(self):
        # Service rate depends on queue length; with reactivate=True the
        # remaining service time re-samples when the rate changes.
        san = SAN("q")
        san.place("jobs", 0)
        san.timed(
            "arrive",
            Exponential(1.0),
            enabled=lambda m: m["jobs"] < 50,
            effect=lambda m, rng: m.__setitem__("jobs", m["jobs"] + 1),
        )
        san.timed(
            "serve",
            lambda m: Exponential(2.0 * max(m["jobs"], 1)),
            enabled=lambda m: m["jobs"] > 0,
            effect=lambda m, rng: m.__setitem__("jobs", m["jobs"] - 1),
            reactivate=True,
        )
        sim = Simulator(flatten(san), base_seed=14)
        rw = RateReward("L", lambda m: float(m["q/jobs"]))
        res = sim.run(20_000.0, rewards=[rw])
        # M/M/inf-like with service rate 2 per job: L ~ Poisson(0.5) mean 0.5
        assert res["L"].time_average == pytest.approx(0.5, abs=0.08)


class TestSharedStateAcrossSubmodels:
    def test_alarm_threshold_matches_binomial(self):
        pair = build_two_state_san("unit", 1 / 50.0, 1 / 5.0)
        pair.place("down_count", 0)
        # rebuild with counting effects
        pair = SAN("unit")
        pair.place("up", 1)
        pair.place("down_count", 0)
        pair.timed(
            "fail",
            Exponential(1 / 50.0),
            enabled=lambda m: m["up"] == 1,
            effect=lambda m, rng: (
                m.__setitem__("up", 0),
                m.__setitem__("down_count", m["down_count"] + 1),
            ),
        )
        pair.timed(
            "rep",
            Exponential(1 / 5.0),
            enabled=lambda m: m["up"] == 0,
            effect=lambda m, rng: (
                m.__setitem__("up", 1),
                m.__setitem__("down_count", m["down_count"] - 1),
            ),
        )
        model = flatten(replicate("units", pair, 4, shared=["down_count"]))
        sim = Simulator(model, base_seed=15)
        rw = RateReward("ge2", lambda m: 1.0 if m["units/down_count"] >= 2 else 0.0)
        res = replicate_runs(sim, 40_000.0, n_replications=6, rewards=[rw])
        q = 5.0 / 55.0
        expected = sum(
            math.comb(4, k) * q**k * (1 - q) ** (4 - k) for k in range(2, 5)
        )
        assert res.estimate("ge2").mean == pytest.approx(expected, rel=0.15)


class TestObserverErrors:
    def test_unmatched_impulse_pattern_raises(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=1)
        with pytest.raises(SimulationError, match="matches no activity"):
            sim.run(10.0, rewards=[ImpulseReward("x", "nope/*")])

    def test_duplicate_reward_names_rejected(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=1)
        rws = [
            RateReward("a", lambda m: 1.0),
            RateReward("a", lambda m: 0.0),
        ]
        with pytest.raises(SimulationError, match="duplicate reward"):
            sim.run(10.0, rewards=rws)

    def test_unknown_reward_lookup(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=1)
        res = sim.run(10.0, rewards=[RateReward("a", lambda m: 1.0)])
        with pytest.raises(KeyError):
            res["nope"]
        with pytest.raises(KeyError):
            res.trace("nope")


ENGINES = ("auto", "reference", "sanitize")


class _NotATrace:
    """Quacks like a trace (name, reset) without being one."""

    name = "bogus"

    def reset(self):
        pass

    def __repr__(self):
        return "<not a trace>"


def _up(m):
    return float(m["comp/up"])


#: Bad run arguments (against the one-place two-state model at
#: until=10) and the exact error every engine must raise for them.
_REJECTED_CALLS = {
    "duplicate-reward": (
        dict(rewards=[RateReward("a", _up), ImpulseReward("a", "comp/*")]),
        "duplicate reward name 'a'",
    ),
    "duplicate-trace": (
        dict(
            traces=[
                BinaryTrace("t", lambda m: m["comp/up"] == 1),
                EventTrace("t", "comp/*"),
            ]
        ),
        "duplicate trace name 't'",
    ),
    "unsupported-reward": (
        dict(rewards=["bogus"]),
        "unsupported reward object: 'bogus'",
    ),
    "unsupported-trace": (
        dict(traces=[_NotATrace()]),
        "unsupported trace object: <not a trace>",
    ),
    "impulse-matches-nothing": (
        dict(rewards=[ImpulseReward("x", "nope/*")]),
        "impulse reward 'x' matches no activity (pattern 'nope/*')",
    ),
    "event-trace-matches-nothing": (
        dict(traces=[EventTrace("e", "nope/*")]),
        "event trace 'e' matches no activity (pattern 'nope/*')",
    ),
    "probe-beyond-until": (
        dict(rewards=[RateReward("p", _up, probe_times=[20.0])]),
        "rate reward 'p': probe time 20.0 exceeds until=10.0",
    ),
    "marking-wrong-length": (
        dict(initial_marking=[1, 0]),
        "initial_marking has 2 entries, model has 1 places",
    ),
    "marking-negative": (
        dict(initial_marking=[-1]),
        "initial_marking entries must be >= 0",
    ),
    "marking-float": (
        dict(initial_marking=[1.5]),
        "initial_marking[0] must be an integer, got 1.5",
    ),
    "marking-string": (
        dict(initial_marking=["1"]),
        "initial_marking[0] must be an integer, got '1'",
    ),
    "marking-nan": (
        dict(initial_marking=[math.nan]),
        "initial_marking[0] must be an integer, got nan",
    ),
    "marking-inf": (
        dict(initial_marking=[math.inf]),
        "initial_marking[0] must be an integer, got inf",
    ),
    "marking-none": (
        dict(initial_marking=[None]),
        "initial_marking[0] must be an integer, got None",
    ),
    "warmup-string": (
        dict(warmup="1"),
        "warmup must be a number, got '1'",
    ),
    "stop-predicate-not-callable": (
        dict(stop_predicate=5),
        "stop_predicate must be callable or None, got 5",
    ),
    "rng-not-generator": (
        dict(rng=5),
        "rng must be a numpy.random.Generator or None, got 5",
    ),
}

#: Simulator arguments that must be integers (or, for ``max_wall_s``, a
#: number), each with values that used to be truncated or to escape as
#: a bare TypeError/ValueError.
_REJECTED_ARGS = [
    ("max_events", 1.5),
    ("max_events", math.nan),
    ("max_events", "x"),
    ("sample_batch", 2.5),
    ("sample_batch", math.nan),
    ("sample_batch", 0),
    ("max_instant_chain", 0.5),
    ("max_instant_chain", -1),
    ("max_instant_chain", None),
    ("max_wall_s", "x"),
    ("max_wall_s", math.nan),
]


class TestSharedRunWiring:
    """Every engine checks its run arguments and observers the same way."""

    @pytest.mark.parametrize("case", sorted(_REJECTED_CALLS))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_same_error_on_every_engine(self, two_state_model, engine, case):
        kw, message = _REJECTED_CALLS[case]
        sim = Simulator(two_state_model, base_seed=1, engine=engine)
        with pytest.raises(SimulationError) as info:
            sim.run(10.0, **kw)
        assert type(info.value) is SimulationError
        assert str(info.value) == message


class TestRunEntryValidation:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("until", [math.inf, math.nan, -1.0, 0.0])
    def test_bad_until_names_until(self, two_state_model, engine, until):
        sim = Simulator(two_state_model, base_seed=5, engine=engine)
        with pytest.raises(SimulationError, match="until must be") as info:
            sim.run(until)
        assert str(until) in str(info.value)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("warmup", [math.inf, math.nan, -1.0, 10.0])
    def test_bad_warmup_names_warmup(self, two_state_model, engine, warmup):
        sim = Simulator(two_state_model, base_seed=5, engine=engine)
        with pytest.raises(SimulationError, match="warmup must") as info:
            sim.run(10.0, warmup=warmup)
        assert str(warmup) in str(info.value)

    @pytest.mark.parametrize("bad", [1.5, -1, "x", None])
    def test_bad_base_seed_rejected_at_construction(self, two_state_model, bad):
        with pytest.raises(SimulationError, match="base_seed") as info:
            Simulator(two_state_model, base_seed=bad)
        assert repr(bad) in str(info.value)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("bad", [1.5, -3, "x"])
    def test_bad_run_seed_rejected(self, two_state_model, engine, bad):
        sim = Simulator(two_state_model, base_seed=5, engine=engine)
        with pytest.raises(SimulationError, match="seed") as info:
            sim.run(10.0, seed=bad)
        assert repr(bad) in str(info.value)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_non_number_until_rejected(self, two_state_model, engine):
        sim = Simulator(two_state_model, base_seed=5, engine=engine)
        with pytest.raises(SimulationError) as info:
            sim.run("10")
        assert str(info.value) == "until must be a number, got '10'"

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name, bad", _REJECTED_ARGS)
    def test_bad_argument_rejected_at_construction(
        self, two_state_model, engine, name, bad
    ):
        with pytest.raises(SimulationError) as info:
            Simulator(two_state_model, engine=engine, **{name: bad})
        assert type(info.value) is SimulationError
        assert str(info.value).startswith(f"{name} must be ")
        assert str(info.value).endswith(f"got {bad!r}")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_numpy_integer_arguments_pass(self, two_state_model, engine):
        kw = dict(max_events=10**6, max_instant_chain=50)
        want = Simulator(two_state_model, base_seed=3, engine=engine, **kw)
        np_kw = {k: np.int64(v) for k, v in kw.items()}
        got = Simulator(two_state_model, base_seed=3, engine=engine, **np_kw)
        assert {k: getattr(got, k) for k in kw} == kw
        a = got.run(500.0, initial_marking=[np.int64(1)])
        b = want.run(500.0, initial_marking=[1])
        assert (a.n_events, a.final_marking) == (b.n_events, b.final_marking)

    def test_numpy_integer_seeds_pass(self, two_state_model):
        want = Simulator(two_state_model, base_seed=3).run(500.0)
        got = Simulator(two_state_model, base_seed=np.int64(3)).run(500.0)
        assert got.final_marking == want.final_marking
        assert got.n_events == want.n_events
        sim = Simulator(two_state_model)
        a = sim.run(500.0, seed=np.uint32(7))
        b = sim.run(500.0, seed=7)
        assert (a.n_events, a.final_marking) == (b.n_events, b.final_marking)


class TestRejectedCallKeepsStream:
    """A rejected run() uses up no stream index: reuse still == fresh."""

    @pytest.mark.parametrize(
        "case",
        [
            "marking-wrong-length",
            "duplicate-reward",
            "stop-predicate-not-callable",
            "rng-not-generator",
        ],
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_next_run_equals_fresh_first_run(self, two_state_model, engine, case):
        kw, _message = _REJECTED_CALLS[case]
        rw = RateReward("a", _up)
        sim = Simulator(two_state_model, base_seed=4, engine=engine)
        with pytest.raises(SimulationError):
            sim.run(10.0, **kw)
        got = sim.run(800.0, rewards=[rw])
        fresh = Simulator(two_state_model, base_seed=4, engine=engine)
        want = fresh.run(800.0, rewards=[rw])
        assert got.n_events == want.n_events > 0
        assert got.final_marking == want.final_marking
        assert got["a"].integral == want["a"].integral


class TestTraceIntegration:
    def test_binary_trace_availability_equals_rate_reward(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=16)
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        tr = BinaryTrace("up", lambda m: m["comp/up"] == 1)
        res = sim.run(5000.0, rewards=[rw], traces=[tr])
        assert res.trace("up").availability() == pytest.approx(
            res["a"].time_average, abs=1e-12
        )

    def test_intervals_partition_window(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=17)
        tr = BinaryTrace("up", lambda m: m["comp/up"] == 1)
        res = sim.run(3000.0, traces=[tr])
        ivs = res.trace("up").intervals()
        assert ivs[0].start == 0.0
        assert ivs[-1].end == pytest.approx(3000.0)
        for a, b in zip(ivs, ivs[1:]):
            assert a.end == pytest.approx(b.start)
            assert a.value != b.value


#: Rewards on the repairable machine of tests/_mutants.py (places m/up,
#: m/down, m/count): tracked, declared and form rate rewards with windows
#: and probes, and a windowed impulse reward.  The tracked reward reads
#: m/down only once a repair has happened, so it discovers a slot mid-run.
_PLAN_REWARDS = (
    RateReward(
        "tracked",
        lambda m: float(m["m/up"]) if m["m/count"] == 0 else 2.0 * m["m/down"],
        window=(100.0, 900.0),
        probe_times=[50.0, 500.0],
    ),
    RateReward(
        "declared",
        lambda m: float(m["m/count"]),
        reads=["m/count"],
        probe_times=[250.0],
    ),
    RateReward(
        "form", form=Indicator(guards=[("m/down", "<=", 0)]), window=(0.0, 600.0)
    ),
    ImpulseReward("repairs", "m/repair", window=(10.0, 800.0)),
)


def _plan_traces(n_binary: int) -> tuple:
    """Fresh traces for one run, the way a traces factory hands them out."""
    binary = (
        BinaryTrace("up", lambda m: m["m/up"] == 1),
        BinaryTrace("busy", lambda m: m["m/count"] >= 2 or m["m/down"] == 1),
    )
    return binary[:n_binary] + (EventTrace("events", "m/*"),)


#: Run configurations a reused simulator alternates between.
_PLAN_CONFIGS = {
    "rewards": lambda: dict(rewards=_PLAN_REWARDS),
    "none": lambda: dict(),
    "traces": lambda: dict(traces=_plan_traces(2)),
    "rewards-traces": lambda: dict(rewards=_PLAN_REWARDS, traces=_plan_traces(1)),
    "restart": lambda: dict(rewards=_PLAN_REWARDS, initial_marking=[0, 1, 3]),
    "restart-traces": lambda: dict(
        traces=_plan_traces(2), initial_marking=[0, 1, 0]
    ),
}

_PLAN_SCHEDULE = (
    "rewards", "rewards", "none", "traces", "rewards-traces", "rewards",
    "restart", "restart", "none", "traces", "traces", "rewards-traces",
    "restart-traces", "rewards", "restart-traces", "none",
)


def _snapshot(result) -> tuple:
    """Everything a caller can read from a RunResult, copied."""
    rewards = {
        name: (r.integral, r.impulse_sum, r.count, r.duration, list(r.instants))
        for name, r in result.rewards.items()
    }
    traces = {
        name: tr.intervals() if isinstance(tr, BinaryTrace) else tr.events
        for name, tr in result.traces.items()
    }
    return (result.n_events, result.final_marking, rewards, traces)


class TestRunPlanReuse:
    """A run reuses the program's cached run plan while the engine and the
    reward objects stay the same; nothing a run does may leak into the
    next one through it."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_alternating_runs_equal_fresh_runs(self, engine):
        model = flatten(_machine())
        sim = Simulator(model, engine=engine)
        for k, name in enumerate(_PLAN_SCHEDULE):
            got = sim.run(1000.0, seed=k, **_PLAN_CONFIGS[name]())
            fresh = Simulator(model, engine=engine)
            want = fresh.run(1000.0, seed=k, **_PLAN_CONFIGS[name]())
            assert_runs_identical(got, want)
            if "events" in want.traces:
                assert got.trace("events").events == want.trace("events").events
            assert sim.fastpath_report() == fresh.fastpath_report()

    def test_earlier_result_unchanged_by_next_run(self):
        sim = Simulator(flatten(_machine()), base_seed=3)
        first = sim.run(1000.0, rewards=_PLAN_REWARDS, traces=_plan_traces(2))
        before = _snapshot(first)
        second = sim.run(1000.0, rewards=_PLAN_REWARDS, traces=_plan_traces(2))
        assert _snapshot(first) == before
        assert _snapshot(second) != before
        assert second.rewards is not first.rewards
        for name, res in first.rewards.items():
            assert second[name] is not res

    @pytest.mark.parametrize("other_engine", ENGINES)
    @pytest.mark.parametrize("build", [_m_wrong_add_amount, _m_case_branch0])
    def test_simulator_sharing_the_program_keeps_its_kernels(
        self, build, other_engine
    ):
        """The program holds one plan, built here by a simulator sharing
        it on another engine (whose kernel tables are empty on the
        reference and sanitize engines): the ``auto`` run after it fires
        every effect through its kernels, on the reference trajectory."""
        san, _ = build(False)
        model = flatten(san)
        program = CompiledProgram(model, sample_batch=None)
        a = Simulator(program, engine=other_engine)
        b = Simulator(program)
        a.run(2000.0, seed=2)
        got = b.run(2000.0, seed=3)
        want = Simulator(model, sample_batch=None, engine="reference").run(
            2000.0, seed=3
        )
        assert_runs_identical(got, want)
        assert b.last_python_effects == 0
        assert b.last_kernel_effects + b.last_case_kernels == got.n_events


def _set(place, value):
    return lambda m, rng: m.__setitem__(place, value)


def _settle_tie_model():
    """Instants fired inside the compiled loop's settle() activate timed
    activities whose Deterministic delays tie with the loop's own
    activations, so only ``seq`` (and then the activity id) orders them.

    ``first`` and ``second`` complete together every hour, ``first``
    first: the instant ``boot`` activates ``second`` after ``first`` at
    t=0.  ``first``'s gate-write kernel raises ``go``, and the instant
    ``fan`` (a gate-write kernel) then arms ``echo`` inside settle(),
    due with the loop's re-activations of ``first`` (before settle) and
    ``second`` (after it); the ids order second < echo < first.
    ``second`` (a case kernel) bumps ``ticks`` or not and raises
    ``toss``, and the instant ``coin`` (a case kernel) flips a coin
    inside settle().  ``echo``, a Python effect, completes right after
    ``fan``'s settle() and writes ``done``; ``watch`` reads ``armed``
    (written inside settle) and ``done``.
    """

    def drain(m, rng):
        m["armed"] = m["armed"] - 1
        m["done"] = m["done"] + 1

    san = SAN("w")
    for name in ("live", "go", "toss", "armed", "ticks", "heads", "tails", "done", "seen"):
        san.place(name, 0)
    san.timed(
        "second",
        Deterministic(1.0),
        enabled=lambda m: m["live"] == 1,
        reads=["live"],
        cases=[
            Case(0.5, name="tick", writes=[("toss", "set", 1), ("ticks", "add", 1)]),
            Case(0.5, name="quiet", writes=[("toss", "set", 1)]),
        ],
    )
    san.timed(
        "echo",
        Deterministic(1.0),
        enabled=lambda m: m["armed"] > 0,
        effect=drain,
    )
    san.timed(
        "first",
        Deterministic(1.0),
        enabled=lambda m: True,
        writes=[("go", "set", 1)],
    )
    san.timed(
        "watch",
        Deterministic(0.25),
        enabled=lambda m: m["done"] % 2 == 1 and m["armed"] >= 0,
        reads=["done", "armed"],
        writes=[("seen", "add", 1)],
    )
    san.instant(
        "boot",
        enabled=lambda m: m["live"] == 0,
        reads=["live"],
        writes=[("live", "set", 1)],
    )
    san.instant(
        "fan",
        enabled=lambda m: m["go"] == 1,
        reads=["go"],
        writes=[("go", "set", 0), ("armed", "add", 1)],
    )
    san.instant(
        "coin",
        enabled=lambda m: m["toss"] == 1,
        reads=["toss"],
        cases=[
            Case(0.5, name="heads", writes=[("toss", "set", 0), ("heads", "add", 1)]),
            Case(0.5, name="tails", writes=[("toss", "set", 0), ("tails", "add", 1)]),
        ],
    )
    return flatten(san)


def _settle_tie_observers():
    return dict(
        rewards=[ImpulseReward("fans", "w/fan", window=(3.0, 17.0))],
        traces=[
            EventTrace("events", "w/*"),
            BinaryTrace("odd_heads", lambda m: m["w/heads"] % 2 == 1),
        ],
    )


class TestSettleWriteBack:
    """The compiled loop keeps the run's scalars in locals and hands them
    to settle() through the run state: every scalar it writes back before
    the call and reloads after it must reach the reference trajectory."""

    def _run(self, engine, **kwargs):
        sim = Simulator(_settle_tie_model(), base_seed=5, engine=engine, **kwargs)
        return sim, sim.run(40.0, **_settle_tie_observers())

    def test_auto_matches_reference_event_for_event(self):
        auto_sim, auto = self._run("auto")
        _, ref = self._run("reference")
        assert auto_sim.last_loop == "observed"
        assert auto.trace("events").events == ref.trace("events").events
        assert_runs_identical(auto, ref)
        assert auto.place("w/heads") + auto.place("w/tails") == 40
        assert auto["fans"].count == 15

    def test_auto_completion_counters(self):
        # Kernel and case-kernel completions happen on both sides of the
        # settle() call, so a count lost either way changes the split:
        # 138 kernels (first 40, watch 57, fan 40, boot 1), 80 case
        # kernels (second and coin, 40 each) and echo's 39 Python effects.
        sim, result = self._run("auto")
        assert result.n_events == 257
        assert (
            sim.last_kernel_effects,
            sim.last_case_kernels,
            sim.last_python_effects,
        ) == (138, 80, 39)

    @pytest.mark.parametrize("max_events", [7, 58, 121])
    def test_event_budget_trips_at_the_same_event(self, max_events):
        errors = []
        for engine in ("auto", "reference"):
            with pytest.raises(SimulationBudgetError) as info:
                self._run(engine, max_events=max_events)
            errors.append(info.value)
        auto, ref = errors
        assert auto.n_events == ref.n_events >= max_events
        assert auto.sim_time == ref.sim_time
        assert auto.marking == ref.marking
        assert auto.rewards == ref.rewards


# ----------------------------------------------------------------------
# restart runs: one run state, with and without observers
# ----------------------------------------------------------------------
def _add(place, delta):
    return lambda m, rng: m.__setitem__(place, m[place] + delta)


def _restart_tier_model():
    """The aggregate tier: marking-dependent laws with declared reads, and
    the loss instant, which a restart marking at the loss level enables
    at t=0."""
    from repro.experiments.rare import aggregate_tier_san

    return aggregate_tier_san(6, 2, 0.05, 0.5)


def _restart_kernel_model():
    """Gate-write, case and guard kernels and an instant (``spill``) that
    a restart marking with ``b >= 2`` enables at t=0."""
    san = SAN("k")
    for name in ("a", "b", "c", "d"):
        san.place(name, 0)
    san.timed(
        "fill", Exponential(1.0), enabled=lambda m: m["a"] < 4, reads=["a"],
        writes=[("a", "add", 1)],
    )
    san.timed(
        "drain", Exponential(0.8), enabled=lambda m: m["a"] > 0, reads=["a"],
        cases=[
            Case(0.4, writes=[("a", "add", -1), ("b", "add", 1)]),
            Case(0.6, writes=[("a", "add", -1), ("d", "add", 1)]),
        ],
    )
    san.timed(
        "guard", Exponential(0.5), enabled=lambda m: m["d"] < 3, reads=["d"],
        writes=[("d", "add", 1)], when=("b", ">=", 1),
    )
    san.instant(
        "spill", enabled=lambda m: m["b"] >= 2, reads=["b"],
        writes=[("b", "set", 0), ("c", "add", 1), ("d", "set", 0)],
    )
    san.timed(
        "leak", Exponential(0.3), enabled=lambda m: m["c"] > 0, reads=["c"],
        writes=[("c", "add", -1), ("a", "add", 1)],
    )
    return flatten(san)


def _restart_discovery_model():
    """An undeclared predicate that reads ``y`` only when ``x > 0``, an
    undeclared marking-dependent law and two batched static laws."""
    laws = {k: Exponential(0.5 + k) for k in range(6)}

    def feed(m, rng):
        m["x"] = m["x"] + 1
        m["z"] = max(0, m["z"] - 2)

    san = SAN("d")
    for name in ("x", "y", "z"):
        san.place(name, 0)
    san.timed(
        "pump", Exponential(0.6),
        enabled=lambda m: m["x"] > 0 and m["y"] < 3,
        effect=lambda m, rng: (_add("x", -1)(m, rng), _add("y", 1)(m, rng)),
    )
    san.timed(
        "push", lambda m: laws[min(m["y"], 5)],
        enabled=lambda m: m["y"] > 0,
        effect=lambda m, rng: (_add("y", -1)(m, rng), _add("z", 1)(m, rng)),
    )
    san.timed(
        "feed", Uniform(0.5, 1.5),
        enabled=lambda m: m["z"] < 5 or m["x"] == 0,
        effect=feed,
    )
    return flatten(san)


#: name -> (model, restart marking bounds per slot, stop predicate,
#: rewards, traces factory, simulator options).
_RESTART_MODELS = {
    "tier": (
        _restart_tier_model,
        [(0, 3), (0, 1)],
        lambda m: m["tier/failed"] >= 3,
        (
            RateReward(
                "failed", lambda m: float(m["tier/failed"]),
                window=(1.0, 15.0), probe_times=[0.5, 5.0, 12.0],
            ),
            ImpulseReward("fails", "tier/fail", window=(2.0, 18.0)),
        ),
        lambda: (
            BinaryTrace("degraded", lambda m: m["tier/failed"] > 0),
            EventTrace("events", "tier/*"),
        ),
        {},
    ),
    "kernels": (
        _restart_kernel_model,
        [(0, 4), (0, 3), (0, 2), (0, 3)],
        lambda m: m["k/c"] >= 2,
        (
            RateReward(
                "a", lambda m: float(m["k/a"]) + 0.5 * m["k/d"],
                window=(2.0, 16.0), probe_times=[1.0, 9.0],
            ),
            ImpulseReward("spills", "k/spill", window=(0.0, 12.0)),
        ),
        lambda: (
            BinaryTrace("full", lambda m: m["k/a"] >= 3),
            EventTrace("events", "k/*"),
        ),
        {},
    ),
    "discovery": (
        _restart_discovery_model,
        [(0, 3), (0, 4), (0, 5)],
        lambda m: m["d/z"] >= 4,
        (
            RateReward(
                "y", lambda m: float(m["d/y"]) if m["d/x"] else 0.25,
                window=(0.5, 10.0), probe_times=[1.0, 3.0, 19.0],
            ),
            ImpulseReward("pushes", "d/push", window=(1.0, 19.0)),
        ),
        lambda: (
            BinaryTrace("busy", lambda m: m["d/x"] > 0 and m["d/y"] > 1),
            EventTrace("events", "d/*"),
        ),
        {},
    ),
}


class TestRestartDifferential:
    """Restart runs that alternate between no observers, rewards (rate
    and impulse, with probes and windows) and traces (binary and event),
    from random restart markings or the model's own, with or without a
    stop predicate.  A run builds observer state only when it has
    observers and reads the rest from the run plan, so each run must
    match the reference engine and a fresh simulator on the same stream:
    a skipped set-up may leave nothing behind for the next run."""

    @pytest.mark.parametrize("name", sorted(_RESTART_MODELS))
    def test_restart_runs_match_reference_and_fresh(self, name):
        build, bounds, stop, rewards, traces, options = _RESTART_MODELS[name]
        model = build()
        sims = {
            engine: Simulator(model, engine=engine, **options)
            for engine in ("auto", "reference")
        }
        gen = np.random.default_rng(26)
        kinds = {"none": 0, "rewards": 0, "traces": 0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(60):
                kind = ("none", "rewards", "traces")[int(gen.integers(3))]
                kinds[kind] += 1
                marking = (
                    None
                    if gen.random() < 0.2
                    else [int(gen.integers(lo, hi + 1)) for lo, hi in bounds]
                )
                pred = stop if gen.random() < 0.5 else None
                runs = {}
                for label, sim in (
                    ("auto", sims["auto"]),
                    ("reference", sims["reference"]),
                    ("fresh", Simulator(model, **options)),
                ):
                    observers = (
                        {"rewards": rewards} if kind == "rewards"
                        else {"traces": traces()} if kind == "traces"
                        else {}
                    )
                    rng = np.random.default_rng([2008, k])
                    result = sim.run(
                        20.0, rng=rng, stop_predicate=pred,
                        initial_marking=marking, **observers,
                    )
                    runs[label] = (result, rng.bit_generator.state)
                auto, auto_state = runs["auto"]
                assert set(auto.rewards) == (
                    {r.name for r in rewards} if kind == "rewards" else set()
                )
                assert set(auto.traces) == (
                    {t.name for t in traces()} if kind == "traces" else set()
                )
                if kind == "traces":
                    # The event trace matches every activity.
                    assert len(auto.trace("events").events) == auto.n_events
                for label in ("reference", "fresh"):
                    other, state = runs[label]
                    assert_runs_identical(auto, other)
                    for tname, tr in auto.traces.items():
                        if isinstance(tr, EventTrace):
                            assert tr.events == other.trace(tname).events
                    assert state == auto_state, (k, label)
        assert min(kinds.values()) > 0

    @pytest.mark.parametrize("engine", ["auto", "reference"])
    @pytest.mark.parametrize("batch_dynamic", [False, True])
    def test_law_check_rejects_after_another_law_type(self, engine, batch_dynamic):
        # The first draw checks an Exponential and admits its type; a
        # callable that returns something else must still be rejected.
        san = SAN("L")
        san.place("p", 0)
        san.timed(
            "good", lambda m: Exponential(1.0),
            enabled=lambda m: m["p"] == 0, effect=_set("p", 1),
        )
        san.timed(
            "bad", lambda m: 2.5,
            enabled=lambda m: m["p"] == 1, effect=_set("p", 0),
        )
        sim = Simulator(flatten(san), engine=engine, batch_dynamic=batch_dynamic)
        with pytest.raises(SimulationError, match="L/bad.*did not return a Distribution"):
            sim.run(100.0, seed=1)
        # A warm program still rejects it, from its first draw on.
        with pytest.raises(SimulationError, match="did not return a Distribution"):
            sim.run(100.0, seed=2)

    def test_law_check_accepts_a_virtual_subclass(self):
        class Virtual:
            batchable = False

            def sample(self, rng):
                return 0.5

        from repro.core.distributions import Distribution

        Distribution.register(Virtual)
        san = SAN("V")
        san.place("n", 0)
        san.timed(
            "tick", lambda m: Virtual(),
            enabled=lambda m: m["n"] < 3, effect=_add("n", 1),
        )
        result = Simulator(flatten(san)).run(10.0, seed=0)
        assert result.n_events == 3 and result.final_time == 10.0


class TestRestartCallCount:
    """A RESTART segment pays the engine's fixed per-call work, so it is
    counted: after a warm-up run, a one-event and a zero-event restart
    run with ``bench_restart_run``'s set-up (benchmarks/bench_rare.py)
    make at most this many calls into ``core/simulation.py`` —
    ``Simulator.run``, ``_Run.__init__``, ``initialize``, ``settle``,
    ``compiled_loop`` and ``result`` once each, and ``dyn_sample`` once
    per draw (two at t=0, two after the event) — and no
    ``abc.__instancecheck__`` call."""

    LIMITS = {1: 10, 0: 8}

    def _setup(self):
        from bisect import bisect_right

        from repro.experiments.rare import (
            _make_stop_predicate,
            aggregate_tier_san,
            tier_splitting_policy,
        )

        tier = (480, 6, 1e-5, 0.02)
        sim = Simulator(aggregate_tier_san(*tier), base_seed=2008)
        policy = tier_splitting_policy(*tier)
        level_fn = policy.level.resolve(sim.model)
        thresholds = policy.thresholds
        bracket = bisect_right(thresholds, level_fn([2, 0]))
        stop = _make_stop_predicate(
            level_fn, thresholds[bracket], thresholds[bracket - 1]
        )
        return sim, stop

    @pytest.mark.parametrize("events", [1, 0])
    def test_restart_run_calls(self, events):
        import sys

        from repro.core import simulation
        from repro.core.rng import make_generator

        sim, stop = self._setup()
        until = 8760.0 if events else 1e-6
        rngs = [make_generator(2008, "restart", i) for i in range(2)]
        sim.run(until, rng=rngs[0], stop_predicate=stop, initial_marking=[2, 0])
        calls: dict[str, int] = {}

        def profile(frame, event, arg):
            if event != "call":
                return
            code = frame.f_code
            if code.co_filename == simulation.__file__:
                calls[code.co_name] = calls.get(code.co_name, 0) + 1
            elif code.co_name == "__instancecheck__":
                calls["abc"] = calls.get("abc", 0) + 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = sim.run(
                until, rng=rngs[1], stop_predicate=stop, initial_marking=[2, 0]
            )
        finally:
            sys.setprofile(previous)
        assert result.n_events == events
        assert "abc" not in calls, calls
        assert sum(calls.values()) <= self.LIMITS[events], calls
        assert calls["dyn_sample"] == 2 + 2 * events
