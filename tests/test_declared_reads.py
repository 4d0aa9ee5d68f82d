"""Declared activity dependency sets: ``timed(..., reads=[...])``.

The activity analogue of PR 2's reward read-sets: a declared activity is
wired into the slot → activity dependency map at compile time and its
predicate runs with read tracking skipped.  The contract under test:

* a declared model's trajectory is **bit-identical** to its tracked twin
  (same SAN without declarations) on the specialized, the reference and
  the sanitizing engine — Hypothesis sweeps random topologies, rates and
  seeds;
* declarations compose with every activity flavour: instants,
  ``reactivate=True``, and marking-dependent distributions;
* misdeclarations fail loudly (unknown place, undeclared read).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SAN,
    Exponential,
    ImpulseReward,
    ModelError,
    RateReward,
    SimulationError,
    Simulator,
    Uniform,
    flatten,
    join,
    replicate,
    replicate_runs,
)

pytestmark = pytest.mark.slow


def build_fleet(n_units, fail_rate, repair_mean, threshold, declare: bool):
    """Random repairable fleet + alarm watcher + reactivating sensor.

    ``declare=True`` annotates every activity with its full read set;
    ``declare=False`` is the tracked-discovery twin.  The sensor reads
    both its places on every evaluation (no short-circuit), so tracked
    discovery converges at compile time and the reactivation wake-up
    pattern is identical in both modes.
    """

    def reads(*names):
        return {"reads": list(names)} if declare else {}

    unit = SAN("unit")
    unit.place("up", 1)
    unit.place("down_count", 0)
    unit.timed(
        "fail",
        Exponential(fail_rate),
        enabled=lambda m: m["up"] == 1,
        effect=lambda m, rng: (
            m.__setitem__("up", 0),
            m.__setitem__("down_count", m["down_count"] + 1),
        ),
        **reads("up"),
    )
    unit.timed(
        "repair",
        Uniform(0.5 * repair_mean, 1.5 * repair_mean),
        enabled=lambda m: m["up"] == 0,
        effect=lambda m, rng: (
            m.__setitem__("up", 1),
            m.__setitem__("down_count", m["down_count"] - 1),
        ),
        **reads("up"),
    )

    watch = SAN("watch")
    watch.place("down_count", 0)
    watch.place("alarm", 0)
    watch.place("sensed", 0)
    watch.instant(
        "raise",
        enabled=lambda m: m["down_count"] >= threshold and m["alarm"] == 0,
        effect=lambda m, rng: m.__setitem__("alarm", 1),
        **reads("down_count", "alarm"),
    )
    watch.instant(
        "clear",
        enabled=lambda m: m["down_count"] < threshold and m["alarm"] == 1,
        effect=lambda m, rng: m.__setitem__("alarm", 0),
        **reads("down_count", "alarm"),
    )
    # Reactivating sensor whose rate depends on the marking: exercises
    # declared reads for both the predicate and the marking-dependent
    # distribution callable (dyn_sample path).
    watch.timed(
        "sense",
        lambda m: Exponential(0.2 + 0.1 * m["down_count"]),
        enabled=lambda m: (m["down_count"] + m["alarm"]) >= 0,
        effect=lambda m, rng: m.__setitem__("sensed", m["sensed"] + 1),
        reactivate=True,
        **reads("down_count", "alarm"),
    )

    tree = join(
        "sys",
        replicate("units", unit, n_units, shared=["down_count"]),
        watch,
        shared=["down_count"],
    )
    return flatten(tree)


fleet_params = st.tuples(
    st.integers(2, 6),       # units
    st.floats(0.01, 0.5),    # fail rate
    st.floats(0.5, 10.0),    # repair mean
    st.integers(1, 3),       # alarm threshold
    st.integers(0, 10_000),  # seed
)


def _rewards():
    return [
        RateReward("alarm_frac", lambda m: float(m["sys/watch/alarm"])),
        ImpulseReward("fails", "*/fail"),
        ImpulseReward("senses", "*/sense"),
    ]


@given(fleet_params, st.sampled_from(["auto", "reference", "sanitize"]))
@settings(max_examples=25, deadline=None)
def test_declared_equals_tracked_bitwise(params, engine):
    """timed(..., reads=...) == tracked path, bit for bit, every engine.

    Under ``engine="sanitize"`` both twins must also come back clean:
    the declarations, the marking-dependent law's included, are true.
    """
    n_units, fail_rate, repair_mean, threshold, seed = params
    runs = {}
    for declare in (False, True):
        model = build_fleet(n_units, fail_rate, repair_mean, threshold, declare)
        sim = Simulator(model, base_seed=seed, engine=engine)
        runs[declare] = sim.run(150.0, rewards=_rewards())
        if engine == "sanitize":
            report = runs[declare].sanitizer_report
            assert report.ok, report.format()
    tracked, declared = runs[False], runs[True]
    assert declared.n_events == tracked.n_events
    assert declared._final_values == tracked._final_values
    for name in ("alarm_frac",):
        assert declared[name].integral == tracked[name].integral
    for name in ("fails", "senses"):
        assert declared[name].count == tracked[name].count
        assert declared[name].impulse_sum == tracked[name].impulse_sum


@given(fleet_params)
@settings(max_examples=8, deadline=None)
def test_declared_serial_equals_parallel(params):
    """Declared models keep the n_jobs bit-identity contract."""
    n_units, fail_rate, repair_mean, threshold, seed = params
    rw = [ImpulseReward("senses", "*/sense")]

    def experiment(n_jobs):
        model = build_fleet(n_units, fail_rate, repair_mean, threshold, True)
        sim = Simulator(model, base_seed=seed)
        return replicate_runs(
            sim, 120.0, n_replications=4, rewards=rw, n_jobs=n_jobs
        )

    assert experiment(2).samples("senses") == experiment(1).samples("senses")


class TestDeclarationErrors:
    def test_unknown_place_rejected_at_compile(self):
        san = SAN("s")
        san.place("up", 1)
        san.timed(
            "t",
            Exponential(1.0),
            enabled=lambda m: m["up"] == 1,
            effect=lambda m, rng: None,
            reads=["nope"],
        )
        with pytest.raises(SimulationError, match="not a place"):
            Simulator(flatten(san), base_seed=1).run(10.0)

    def test_undeclared_read_rejected_at_first_eval(self):
        san = SAN("s")
        san.place("up", 1)
        san.place("other", 1)
        san.timed(
            "t",
            Exponential(1.0),
            enabled=lambda m: m["other"] == 1,
            effect=lambda m, rng: None,
            reads=["up"],
        )
        with pytest.raises(SimulationError, match="outside its declared"):
            Simulator(flatten(san), base_seed=1).run(10.0)

    def test_undeclared_distribution_read_rejected(self):
        """The marking-dependent law's reads are checked too."""
        san = SAN("s")
        san.place("up", 1)
        san.place("rate", 2)
        san.timed(
            "t",
            lambda m: Exponential(0.1 * m["rate"]),
            enabled=lambda m: m["up"] == 1,
            effect=lambda m, rng: None,
            reads=["up"],  # omits the distribution's "rate" read
        )
        with pytest.raises(SimulationError, match="distribution callable"):
            Simulator(flatten(san), base_seed=1).run(50.0)

    def test_empty_reads_rejected(self):
        san = SAN("s")
        san.place("up", 1)
        with pytest.raises(ModelError, match="must not be empty"):
            san.timed(
                "t",
                Exponential(1.0),
                enabled=lambda m: m["up"] == 1,
                effect=lambda m, rng: None,
                reads=[],
            )

    def test_non_string_reads_rejected(self):
        san = SAN("s")
        san.place("up", 1)
        with pytest.raises(ModelError, match="place names"):
            san.timed(
                "t",
                Exponential(1.0),
                enabled=lambda m: m["up"] == 1,
                effect=lambda m, rng: None,
                reads=[3],
            )
