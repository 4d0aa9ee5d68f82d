"""Property-based differential tests of the reward fast path.

The specialized observed fast loop (``engine="auto"``) must reproduce the
general reference loop (``engine="reference"``) *bit for bit* on random
models with random observers: rate-reward integrals, impulse
accumulators, interval-of-time windows, instant-of-time probes,
binary-trace transitions, warm-up clipping and early stops.  Parallel
replication (``n_jobs > 1``) must in turn match serial execution
float-for-float.

Cross-checks beyond the engine-vs-engine differential:

* windowed integrals of indicator rewards equal the trace-derived
  occupation time of the window;
* probe values equal the trace value at the probed instant;
* windowed impulse counts equal the event-trace events in the window;
* declared read sets produce the same accumulators as tracked discovery,
  and undeclared reads fail loudly;
* with per-draw sampling, ``engine="sanitize"`` reproduces the reference
  run bit for bit and reports no violation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SAN,
    BinaryTrace,
    EventTrace,
    Exponential,
    ImpulseReward,
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


def build_fleet(n_units, fail_rate, repair_mean, threshold):
    """Repairable fleet with an instantaneous alarm watcher (same shape
    as tests/test_properties_engine.py, so the differential covers the
    instant-fixpoint path of the observed loop)."""
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
    )
    unit.timed(
        "repair",
        Uniform(0.5 * repair_mean, 1.5 * repair_mean),
        enabled=lambda m: m["up"] == 0,
        effect=lambda m, rng: (
            m.__setitem__("up", 1),
            m.__setitem__("down_count", m["down_count"] - 1),
        ),
    )
    watch = SAN("watch")
    watch.place("down_count", 0)
    watch.place("alarm", 0)
    watch.instant(
        "raise",
        enabled=lambda m: m["down_count"] >= threshold and m["alarm"] == 0,
        effect=lambda m, rng: m.__setitem__("alarm", 1),
    )
    watch.instant(
        "clear",
        enabled=lambda m: m["down_count"] < threshold and m["alarm"] == 1,
        effect=lambda m, rng: m.__setitem__("alarm", 0),
    )
    return flatten(
        join(
            "sys",
            replicate("units", unit, n_units, shared=["down_count"]),
            watch,
            shared=["down_count"],
        )
    )


def make_observers(n_units, window, probes, impulse_window):
    rewards = [
        RateReward(
            "frac_down", lambda m: m["sys/down_count"] / float(n_units)
        ),
        RateReward(
            "busy",
            lambda m: 1.0 if m["sys/down_count"] > 0 else 0.0,
            window=window,
            probe_times=probes,
        ),
        ImpulseReward("fails", "*/fail"),
        ImpulseReward(
            "weighted_repairs",
            lambda path: path.endswith("/repair"),
            value=lambda m: 1.0 + m["sys/down_count"],
            window=impulse_window,
        ),
    ]
    traces = [BinaryTrace("alarm", lambda m: m["sys/watch/alarm"] == 1)]
    return rewards, traces


def reward_fingerprint(res):
    """Bit-level fingerprint of everything a run observed."""
    return {
        "n_events": res.n_events,
        "final": list(res._final_values),
        "final_time": res.final_time.hex(),
        "stopped": res.stopped_early,
        "rewards": {
            name: (
                r.integral.hex(),
                r.impulse_sum.hex(),
                r.count,
                r.duration.hex(),
                [(t.hex(), v.hex()) for t, v in r.instants],
            )
            for name, r in res.rewards.items()
        },
        "traces": {
            name: [(t.hex(), v) for t, v in tr.transitions]
            for name, tr in res.traces.items()
            if isinstance(tr, BinaryTrace)
        },
    }


fleet_params = st.tuples(
    st.integers(2, 6),               # units
    st.floats(0.02, 0.5),            # fail rate
    st.floats(0.5, 10.0),            # repair mean
    st.integers(1, 3),               # alarm threshold
    st.integers(0, 10_000),          # seed
)

observer_params = st.tuples(
    st.floats(0.0, 60.0),            # warmup
    st.one_of(                       # rate window
        st.none(),
        st.tuples(st.floats(0.0, 80.0), st.floats(90.0, 400.0)),
    ),
    st.one_of(                       # probe times
        st.none(),
        st.lists(st.floats(0.0, 200.0), min_size=1, max_size=4),
    ),
    st.one_of(                       # impulse window
        st.none(),
        st.tuples(st.floats(0.0, 80.0), st.floats(90.0, 400.0)),
    ),
    st.sampled_from([None, 64, 256]),  # sample batch
)


def run_pair(model, observers_factory, seed, sample_batch, **run_kwargs):
    """Run the same configuration under both engines.

    Per-draw configurations also run ``engine="sanitize"``, which must
    reproduce the reference run bit for bit with a clean report.
    """
    out = {}
    engines = ("auto", "reference") + (("sanitize",) if sample_batch is None else ())
    for engine in engines:
        rewards, traces = observers_factory()
        sim = Simulator(
            model, base_seed=seed, sample_batch=sample_batch, engine=engine
        )
        out[engine] = sim.run(200.0, rewards=rewards, traces=traces, **run_kwargs)
    if "sanitize" in out:
        sanitized = out["sanitize"]
        assert sanitized.sanitizer_report.ok, sanitized.sanitizer_report.format()
        assert reward_fingerprint(sanitized) == reward_fingerprint(out["reference"])
    return out["auto"], out["reference"]


@given(fleet_params, observer_params)
@settings(max_examples=30, deadline=None)
def test_fast_loop_matches_reference_bit_for_bit(params, obs_params):
    n_units, fail_rate, repair_mean, threshold, seed = params
    warmup, window, probes, impulse_window, sample_batch = obs_params
    if probes is not None:
        probes = [min(t, 200.0) for t in probes]
    model = build_fleet(n_units, fail_rate, repair_mean, threshold)
    fast, ref = run_pair(
        model,
        lambda: make_observers(n_units, window, probes, impulse_window),
        seed,
        sample_batch,
        warmup=min(warmup, 199.0),
    )
    assert reward_fingerprint(fast) == reward_fingerprint(ref)


@given(fleet_params, st.integers(1, 8))
@settings(max_examples=15, deadline=None)
def test_stop_predicate_matches_reference(params, stop_at):
    n_units, fail_rate, repair_mean, threshold, seed = params
    model = build_fleet(n_units, fail_rate, repair_mean, threshold)
    fast, ref = run_pair(
        model,
        lambda: make_observers(n_units, None, None, None),
        seed,
        256,
        stop_predicate=lambda m: m["sys/units/unit[0]/down_count"] >= stop_at,
    )
    assert fast.stopped_early == ref.stopped_early
    assert reward_fingerprint(fast) == reward_fingerprint(ref)


@given(fleet_params)
@settings(max_examples=15, deadline=None)
def test_windowed_integral_equals_trace_occupation(params):
    """∫ 1{busy} dt over a window == trace-derived time in state."""
    n_units, fail_rate, repair_mean, threshold, seed = params
    window = (30.0, 150.0)
    model = build_fleet(n_units, fail_rate, repair_mean, threshold)
    busy = RateReward(
        "busy",
        lambda m: 1.0 if m["sys/down_count"] > 0 else 0.0,
        window=window,
    )
    trace = BinaryTrace("busy_tr", lambda m: m["sys/down_count"] > 0)
    res = Simulator(model, base_seed=seed).run(
        200.0, rewards=[busy], traces=[trace]
    )
    occupation = sum(
        min(iv.end, window[1]) - max(iv.start, window[0])
        for iv in res.trace("busy_tr").intervals_where(True)
        if iv.end > window[0] and iv.start < window[1]
    )
    assert res["busy"].integral == pytest.approx(occupation, abs=1e-9)
    assert res["busy"].duration == pytest.approx(window[1] - window[0])
    assert 0.0 <= res["busy"].time_average <= 1.0


@given(fleet_params, st.lists(st.floats(0.0, 200.0), min_size=1, max_size=5))
@settings(max_examples=15, deadline=None)
def test_probe_equals_trace_value_at_instant(params, probe_times):
    """An instant-of-time probe reads the left limit of the trajectory."""
    n_units, fail_rate, repair_mean, threshold, seed = params
    model = build_fleet(n_units, fail_rate, repair_mean, threshold)
    busy = RateReward(
        "busy",
        lambda m: 1.0 if m["sys/down_count"] > 0 else 0.0,
        probe_times=probe_times,
    )
    trace = BinaryTrace("busy_tr", lambda m: m["sys/down_count"] > 0)
    res = Simulator(model, base_seed=seed).run(
        200.0, rewards=[busy], traces=[trace]
    )
    instants = res["busy"].instants
    assert [t for t, _ in instants] == sorted(probe_times)
    transitions = res.trace("busy_tr").transitions
    for t, value in instants:
        # left limit: last transition strictly before t (or the t=0 state)
        state = transitions[0][1]
        for tt, vv in transitions:
            if tt < t or (tt == 0.0 and t == 0.0):
                state = vv
            else:
                break
        assert value == (1.0 if state else 0.0), f"probe at t={t}"


@given(fleet_params)
@settings(max_examples=15, deadline=None)
def test_windowed_impulse_equals_event_trace_count(params):
    n_units, fail_rate, repair_mean, threshold, seed = params
    window = (40.0, 160.0)
    model = build_fleet(n_units, fail_rate, repair_mean, threshold)
    imp = ImpulseReward("fails_w", "*/fail", window=window)
    etr = EventTrace("fail_events", "*/fail")
    res = Simulator(model, base_seed=seed).run(
        200.0, rewards=[imp], traces=[etr]
    )
    in_window = [
        ev for ev in res.trace("fail_events").events
        if window[0] <= ev.time <= window[1]
    ]
    assert res["fails_w"].count == len(in_window)
    assert res["fails_w"].impulse_sum == pytest.approx(len(in_window))
    assert res["fails_w"].duration == pytest.approx(window[1] - window[0])


@given(fleet_params)
@settings(max_examples=15, deadline=None)
def test_declared_reads_match_tracked_discovery(params):
    """Declaring the read set must not change any accumulator bit."""
    n_units, fail_rate, repair_mean, threshold, seed = params
    model = build_fleet(n_units, fail_rate, repair_mean, threshold)
    slot = model.paths["sys/down_count"]

    discovered = RateReward(
        "frac", lambda m: m["sys/down_count"] / float(n_units)
    )
    declared = RateReward(
        "frac",
        lambda m: m.raw[slot] / float(n_units),
        reads=("sys/down_count",),
    )
    r1 = Simulator(model, base_seed=seed).run(200.0, rewards=[discovered])
    r2 = Simulator(model, base_seed=seed).run(200.0, rewards=[declared])
    assert r1["frac"].integral.hex() == r2["frac"].integral.hex()
    assert r1.n_events == r2.n_events


def test_undeclared_read_raises():
    model = build_fleet(3, 0.1, 2.0, 2)
    bad = RateReward(
        "bad",
        lambda m: float(m["sys/down_count"]),  # tracked read, undeclared
        reads=("sys/watch/alarm",),
    )
    with pytest.raises(SimulationError, match="outside its declared read set"):
        Simulator(model, base_seed=1).run(50.0, rewards=[bad])


def test_declared_read_unknown_place_raises():
    model = build_fleet(3, 0.1, 2.0, 2)
    bad = RateReward("bad", lambda m: 0.0, reads=("sys/no_such_place",))
    with pytest.raises(SimulationError, match="matches no place"):
        Simulator(model, base_seed=1).run(50.0, rewards=[bad])


def test_probe_beyond_until_raises():
    model = build_fleet(3, 0.1, 2.0, 2)
    rw = RateReward("x", lambda m: 1.0, probe_times=[120.0])
    with pytest.raises(SimulationError, match="exceeds until"):
        Simulator(model, base_seed=1).run(100.0, rewards=[rw])


def test_bad_engine_name_raises():
    model = build_fleet(2, 0.1, 2.0, 1)
    with pytest.raises(SimulationError, match="engine"):
        Simulator(model, engine="turbo")


@pytest.mark.parametrize("spares", [0, 2])
def test_cluster_measure_declarations_cover_tracked_reads(spares):
    """The CFS-up condition is written once, as the form's guards: the
    path-based ``cfs_up_predicate`` evaluates that form, so its tracked
    reads on the all-up marking (no short-circuit) are exactly the
    places of the ``cfs_availability`` form, and the perceived form
    reads those plus the client-network places."""
    from repro.cfs import abe_parameters
    from repro.cfs import measures as M
    from repro.cfs.cluster import build_cluster_node
    from repro.core import flatten

    params = abe_parameters().with_spare_oss(spares) if spares else abe_parameters()
    model = flatten(build_cluster_node(params))
    vec = model.new_marking()
    view = model.global_view(vec)
    vec.begin_tracking()
    assert M.cfs_up_predicate(model)(view) is True
    tracked = set(vec.end_tracking())

    def slots(reward):
        assert reward.reads == reward.form.places()
        return {model.paths[p] for p in reward.form.places()}

    assert tracked == slots(M.cfs_availability_reward(model))
    client = {
        model.paths[M.resolve_slot_path(model, "*/client/switches_down")],
        model.paths[M.resolve_slot_path(model, "*/spine_up")],
    }
    perceived = M.perceived_availability_reward(model, params)
    assert slots(perceived) == tracked | client
    assert len(tracked) == (7 if spares else 6)


@pytest.mark.parametrize("seed", [0, 9])
def test_parallel_replications_match_serial(seed):
    """Reward metrics (including probes) are n_jobs-invariant."""
    model = build_fleet(4, 0.15, 3.0, 2)
    rewards = [
        RateReward(
            "busy",
            lambda m: 1.0 if m["sys/down_count"] > 0 else 0.0,
            window=(20.0, 180.0),
            probe_times=[50.0, 150.0],
        ),
        ImpulseReward("fails", "*/fail"),
    ]
    serial = replicate_runs(
        Simulator(model, base_seed=seed),
        200.0,
        n_replications=4,
        rewards=rewards,
    )
    parallel = replicate_runs(
        Simulator(model, base_seed=seed),
        200.0,
        n_replications=4,
        rewards=rewards,
        n_jobs=2,
    )
    assert serial.metrics == parallel.metrics
    for metric in serial.metrics:
        assert serial.samples(metric) == parallel.samples(metric), metric
