"""Probe/window boundary semantics: fast and reference loops must agree.

The regression surface audited in PR 7: probes falling exactly on
``warmup``/``until``/event times, probes after an early stop, and reward
windows clipped partially or entirely outside the ``[warmup, until]``
observation interval.  Every case here asserts the observed fast loop
and the ``engine="reference"`` oracle produce identical results, and
pins the documented semantics:

* probes record the **left limit** — the reward value just before any
  event at the probe instant;
* probes beyond an early stop stay unrecorded; probes at or before the
  stop time are recorded;
* a window outside the observation interval integrates to 0 with
  duration 0; an early stop clips windowed durations at the stop time.
"""

from __future__ import annotations

import math

import pytest

from repro.core import (
    SAN,
    Deterministic,
    Exponential,
    RateReward,
    Simulator,
    flatten,
)
from repro.core.errors import ModelError, SimulationError
from repro.core.rewards import Indicator


def _clock_model():
    """Deterministic unit: fails at exactly t=2, repairs after exactly 1h.

    Events land on known instants (2, 3, 5, 6, 8, ...), so probes can be
    placed exactly on event times.
    """
    san = SAN("unit")
    san.place("up", 1)
    san.timed(
        "fail",
        Deterministic(2.0),
        enabled=lambda m: m["up"] == 1,
        writes=[("up", "set", 0)],
    )
    san.timed(
        "repair",
        Deterministic(1.0),
        enabled=lambda m: m["up"] == 0,
        writes=[("up", "set", 1)],
    )
    return flatten(san)


def _stochastic_model():
    san = SAN("unit")
    san.place("up", 1)
    san.place("fails", 0)
    san.timed(
        "fail",
        Exponential(0.5),
        enabled=lambda m: m["up"] == 1,
        effect=lambda m, rng: (
            m.__setitem__("up", 0),
            m.__setitem__("fails", m["fails"] + 1),
        ),
    )
    san.timed(
        "repair",
        Exponential(2.0),
        enabled=lambda m: m["up"] == 0,
        effect=lambda m, rng: m.__setitem__("up", 1),
    )
    return flatten(san)


def _up_reward(**kw):
    return RateReward(
        "up_frac", lambda m: float(m["unit/up"]), reads=["unit/up"], **kw
    )


def _run_both(model_factory, until, **run_kw):
    rf = Simulator(model_factory(), base_seed=9).run(until, **run_kw)
    rr = Simulator(model_factory(), base_seed=9, engine="reference").run(
        until, **run_kw
    )
    return rf, rr


def _assert_same(rf, rr, name="up_frac"):
    assert rf[name].integral == rr[name].integral
    assert rf[name].instants == rr[name].instants
    assert rf[name].duration == rr[name].duration
    assert rf.n_events == rr.n_events
    assert rf.final_time == rr.final_time
    assert rf.stopped_early == rr.stopped_early


class TestProbeBoundaries:
    def test_probe_exactly_at_event_time_records_left_limit(self):
        """The unit fails at t=2: a probe at 2.0 sees the pre-event value."""
        rw = [_up_reward(probe_times=[2.0, 2.5, 3.0])]
        rf, rr = _run_both(_clock_model, 10.0, rewards=rw)
        _assert_same(rf, rr)
        assert rf["up_frac"].instants == [(2.0, 1.0), (2.5, 0.0), (3.0, 0.0)]

    def test_probe_at_zero_and_at_until(self):
        rw = [_up_reward(probe_times=[0.0, 10.0])]
        rf, rr = _run_both(_clock_model, 10.0, rewards=rw)
        _assert_same(rf, rr)
        assert rf["up_frac"].instants[0] == (0.0, 1.0)
        # t=10 is one hour past the repair at t=9: up again
        assert rf["up_frac"].instants[1] == (10.0, 1.0)

    def test_probe_at_warmup_is_recorded(self):
        rw = [_up_reward(probe_times=[4.0])]
        rf, rr = _run_both(_clock_model, 10.0, warmup=4.0, rewards=rw)
        _assert_same(rf, rr)
        assert len(rf["up_frac"].instants) == 1

    def test_probe_beyond_until_raises(self):
        rw = [_up_reward(probe_times=[11.0])]
        with pytest.raises(SimulationError, match="exceeds until"):
            Simulator(_clock_model(), base_seed=9).run(10.0, rewards=rw)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_probe_time_rejected(self, bad):
        """A NaN probe would sort first and block every later probe, so
        each bad time is rejected wherever it sits in the list."""
        for times in ([bad, 1.0], [1.0, bad]):
            with pytest.raises(ModelError) as info:
                _up_reward(probe_times=times)
            assert str(info.value) == (
                "rate reward 'up_frac': probe times must be finite and "
                f">= 0, got {bad}"
            )

    def test_probe_after_last_event_uses_final_marking(self):
        """No events between the last completion and ``until``: remaining
        probes flush from the constant final marking."""
        rw = [_up_reward(probe_times=[9.5, 9.9])]
        rf, rr = _run_both(_clock_model, 10.0, rewards=rw)
        _assert_same(rf, rr)
        assert rf["up_frac"].instants == [(9.5, 1.0), (9.9, 1.0)]


class TestEarlyStopProbes:
    @staticmethod
    def _stop(m):
        return m["unit/fails"] >= 2

    def test_probes_beyond_early_stop_unrecorded(self):
        rw = [_up_reward(probe_times=[0.0, 0.1, 500.0, 1000.0])]
        rf, rr = _run_both(
            _stochastic_model, 1000.0, rewards=rw, stop_predicate=self._stop
        )
        _assert_same(rf, rr)
        assert rf.stopped_early
        recorded = rf["up_frac"].instants
        assert all(t <= rf.final_time for t, _v in recorded)
        assert (0.0, 1.0) in recorded
        assert all(t != 1000.0 for t, _v in recorded)

    def test_duration_clipped_at_stop(self):
        rf, rr = _run_both(
            _stochastic_model,
            1000.0,
            rewards=[_up_reward()],
            stop_predicate=self._stop,
        )
        _assert_same(rf, rr)
        assert rf.duration == rf.final_time
        assert rf["up_frac"].integral <= rf.duration


class TestWindowClipping:
    def test_window_entirely_before_warmup(self):
        rw = [_up_reward(window=(1.0, 3.0))]
        rf, rr = _run_both(_clock_model, 10.0, warmup=5.0, rewards=rw)
        _assert_same(rf, rr)
        assert rf["up_frac"].integral == 0.0
        assert rf["up_frac"].duration == 0.0

    def test_window_entirely_after_until(self):
        rw = [_up_reward(window=(20.0, 30.0))]
        rf, rr = _run_both(_clock_model, 10.0, rewards=rw)
        _assert_same(rf, rr)
        assert rf["up_frac"].integral == 0.0
        assert rf["up_frac"].duration == 0.0

    def test_window_touching_until_boundary(self):
        """Window [8, 10] on a run to 10: unit repairs at t=9."""
        rw = [_up_reward(window=(8.0, 10.0))]
        rf, rr = _run_both(_clock_model, 10.0, rewards=rw)
        _assert_same(rf, rr)
        # down on [8, 9), up on [9, 10): exactly 1.0 up-hours
        assert rf["up_frac"].integral == 1.0
        assert rf["up_frac"].duration == 2.0

    def test_window_clipped_by_warmup(self):
        rw = [_up_reward(window=(0.0, 4.0))]
        rf, rr = _run_both(_clock_model, 10.0, warmup=2.5, rewards=rw)
        _assert_same(rf, rr)
        # observation is [2.5, 4.0]; unit is down on [2, 3): 1 up-hour
        assert rf["up_frac"].integral == 1.0
        assert rf["up_frac"].duration == 1.5

    def test_windowed_duration_clipped_by_early_stop(self):
        rw = [
            RateReward(
                "up_w",
                lambda m: float(m["unit/up"]),
                reads=["unit/up"],
                window=(0.0, 900.0),
            )
        ]
        rf, rr = _run_both(
            _stochastic_model,
            1000.0,
            rewards=rw,
            stop_predicate=lambda m: m["unit/fails"] >= 2,
        )
        _assert_same(rf, rr, name="up_w")
        assert rf["up_w"].duration == min(rf.final_time, 900.0)

    def test_form_reward_with_window_and_probes(self):
        """Forms compose with windows and probes identically to closures."""

        def rw():
            return [
                RateReward(
                    "up_form",
                    form=Indicator(guards=[("unit/up", ">=", 1)]),
                    window=(2.0, 8.0),
                    probe_times=[2.0, 5.0, 8.0],
                )
            ]

        rf, rr = _run_both(_clock_model, 10.0, rewards=rw())
        _assert_same(rf, rr, name="up_form")
        # down on [2,3) and [5,6): 4 of the 6 window hours are up
        assert rf["up_form"].integral == 4.0
        assert rf["up_form"].instants == [(2.0, 1.0), (5.0, 1.0), (8.0, 1.0)]
