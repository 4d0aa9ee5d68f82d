"""Log generation and the generation → analysis loop closure."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.analysis import (
    availability_from_outages,
    job_statistics,
    jobs_from_events,
    mount_failures_by_day,
    pair_outages,
    parse_lines,
)
from repro.cfs import abe_parameters
from repro.core import BinaryTrace, Weibull, make_generator
from repro.core.trace import EventTrace, TraceEvent
from repro.loggen import (
    AbeLogWindows,
    disk_survival_dataset,
    generate_abe_logs,
    generate_job_records,
    hours_to_datetime,
    job_end_events,
    mount_failure_events,
    outage_events_from_trace,
    write_log,
)

EPOCH = datetime(2007, 5, 3)


def make_binary_trace(transitions, end):
    tr = BinaryTrace("x", lambda m: True)
    tr.reset()
    for t, v in transitions:
        tr.observe(t, v)
    tr.finish(end)
    return tr


def make_event_trace(name, entries):
    tr = EventTrace(name, "*")
    tr.reset()
    tr._events = [TraceEvent(t, act, None) for t, act in entries]
    return tr


class TestOutageEvents:
    def test_down_intervals_become_start_end_pairs(self):
        tr = make_binary_trace([(0.0, True), (10.0, False), (12.5, True)], 100.0)
        events = outage_events_from_trace(tr, EPOCH, cause="I/O hardware")
        assert len(events) == 2
        assert events[0].event_type == "outage_start"
        assert events[0].timestamp == EPOCH + timedelta(hours=10)
        assert events[1].timestamp == EPOCH + timedelta(hours=12.5)

    def test_roundtrip_availability(self):
        tr = make_binary_trace(
            [(0.0, True), (10.0, False), (20.0, True), (50.0, False), (55.0, True)],
            100.0,
        )
        events = outage_events_from_trace(tr, EPOCH, cause="X")
        from repro.analysis import EventLog

        outages = pair_outages(EventLog(events))
        a = availability_from_outages(outages, EPOCH, EPOCH + timedelta(hours=100))
        assert a == pytest.approx(tr.availability(), abs=1e-9)


class TestMountFailures:
    def test_leaf_and_spine_scopes(self):
        switch_tr = make_event_trace(
            "sw", [(float(i), f"c/switches/switch[{i % 4}]/transient") for i in range(40)]
        )
        spine_tr = make_event_trace("sp", [(50.0, "c/spine/transient")])
        rng = make_generator(1)
        events = mount_failure_events(
            switch_tr,
            spine_tr,
            EPOCH,
            rng,
            n_compute_nodes=300,
            nodes_per_switch=75,
            leaf_observation_p=1.0,
            spine_observation_p=1.0,
            local_noise_per_1000h=0.0,
            horizon_hours=100.0,
        )
        by_day = mount_failures_by_day(
            __import__("repro.analysis", fromlist=["EventLog"]).EventLog(events)
        )
        assert sum(by_day.values()) > 0
        # spine storm should touch more nodes than any single switch
        assert max(by_day.values()) > 22  # 0.2 x 300 = 60 min share minus overlap

    def test_unparseable_switch_path_rejected(self):
        bad = make_event_trace("sw", [(1.0, "c/other/transient")])
        empty = make_event_trace("sp", [])
        with pytest.raises(Exception):
            mount_failure_events(
                bad, empty, EPOCH, make_generator(1),
                n_compute_nodes=10, nodes_per_switch=5,
                leaf_observation_p=1.0, horizon_hours=10.0,
            )


class TestJobGeneration:
    def test_all_complete_on_quiet_system(self):
        cfs = make_binary_trace([(0.0, True)], 1000.0)
        sw = make_event_trace("sw", [])
        sp = make_event_trace("sp", [])
        jobs = generate_job_records(
            cfs, sw, sp, make_generator(2), 1000.0, EPOCH,
            job_rate_per_hour=2.0, job_mean_duration_hours=4.0,
            job_io_exposure_hours=1.0, n_switches=4,
        )
        assert jobs and all(j.status == "completed" for j in jobs)

    def test_transient_on_own_switch_kills(self):
        cfs = make_binary_trace([(0.0, True)], 1000.0)
        sw = make_event_trace(
            "sw", [(float(t), "c/switches/switch[0]/transient") for t in range(0, 1000, 2)]
        )
        sp = make_event_trace("sp", [])
        jobs = generate_job_records(
            cfs, sw, sp, make_generator(3), 1000.0, EPOCH,
            job_rate_per_hour=2.0, job_mean_duration_hours=4.0,
            job_io_exposure_hours=1.0, n_switches=1,
        )
        killed = sum(j.status == "failed_transient" for j in jobs)
        assert killed / len(jobs) > 0.7

    def test_outage_onset_kills_via_io_exposure(self):
        cfs = make_binary_trace(
            [(0.0, True)] + [(float(t), v) for t in range(10, 1000, 10)
                             for v in ([False] if (t // 10) % 2 == 1 else [True])],
            1000.0,
        )
        sw = make_event_trace("sw", [])
        sp = make_event_trace("sp", [])
        jobs = generate_job_records(
            cfs, sw, sp, make_generator(4), 1000.0, EPOCH,
            job_rate_per_hour=5.0, job_mean_duration_hours=4.0,
            job_io_exposure_hours=4.0, n_switches=4,
        )
        assert any(j.status == "failed_other" for j in jobs)
        assert all(j.status != "failed_transient" for j in jobs)

    def test_queue_during_outage_toggle(self):
        # CFS down the whole time: queued jobs never fail by default.
        cfs = make_binary_trace([(0.0, False)], 100.0)
        sw = make_event_trace("sw", [])
        sp = make_event_trace("sp", [])
        common = dict(
            rng=make_generator(5), horizon_hours=100.0, epoch=EPOCH,
            job_rate_per_hour=1.0, job_mean_duration_hours=2.0,
            job_io_exposure_hours=1.0, n_switches=2,
        )
        held = generate_job_records(cfs, sw, sp, **common)
        assert all(j.status == "completed" for j in held)
        failed = generate_job_records(
            cfs, sw, sp, queue_during_outage=False, **common
        )
        assert all(j.status == "failed_other" for j in failed)

    def test_job_end_events_roundtrip(self):
        cfs = make_binary_trace([(0.0, True)], 100.0)
        sw = make_event_trace("sw", [])
        sp = make_event_trace("sp", [])
        jobs = generate_job_records(
            cfs, sw, sp, make_generator(6), 100.0, EPOCH,
            job_rate_per_hour=1.0, job_mean_duration_hours=2.0,
            job_io_exposure_hours=1.0, n_switches=2,
        )
        from repro.analysis import EventLog

        back = jobs_from_events(EventLog(job_end_events(jobs)))
        assert len(back) == len(jobs)
        assert {j.job_id for j in back} == {j.job_id for j in jobs}


def per_job_records(
    cfs_trace, switch_trace, spine_trace, rng, horizon_hours, epoch,
    job_rate_per_hour, job_mean_duration_hours, job_io_exposure_hours,
    n_switches, queue_during_outage=True,
):
    """The per-job classification loop ``generate_job_records`` batches,
    kept as its reference."""
    from repro.analysis.jobs import (
        COMPLETED,
        FAILED_OTHER,
        FAILED_TRANSIENT,
        JobRecord,
    )
    from repro.loggen.generator import _transients_from_traces

    down_intervals = cfs_trace.intervals_where(False)
    onset_times = np.array([iv.start for iv in down_intervals])

    def cfs_down_at(t):
        for iv in down_intervals:
            if iv.start <= t < iv.end:
                return True
            if iv.start > t:
                break
        return False

    transients = _transients_from_traces(switch_trace, spine_trace)
    by_switch = {}
    for tr in transients:
        by_switch.setdefault(tr.switch, []).append(tr.time)
    spine_times = np.array(by_switch.get(None, []))
    switch_times = {k: np.array(v) for k, v in by_switch.items() if k is not None}

    def any_in(times, lo, hi):
        if times.size == 0:
            return False
        idx = np.searchsorted(times, lo, side="left")
        return idx < times.size and times[idx] <= hi

    n_jobs = rng.poisson(job_rate_per_hour * horizon_hours)
    arrivals = np.sort(rng.uniform(0.0, horizon_hours, size=int(n_jobs)))
    jobs = []
    for i, start in enumerate(arrivals):
        duration = float(rng.exponential(job_mean_duration_hours))
        end = min(start + duration, horizon_hours)
        switch = int(rng.integers(0, n_switches))
        if any_in(switch_times.get(switch, np.array([])), start, end) or any_in(
            spine_times, start, end
        ):
            status = FAILED_TRANSIENT
        elif any_in(onset_times, start, min(start + job_io_exposure_hours, end)) or (
            not queue_during_outage and cfs_down_at(float(start))
        ):
            status = FAILED_OTHER
        else:
            status = COMPLETED
        jobs.append(
            JobRecord(
                job_id=f"job-{i:06d}",
                submit_time=hours_to_datetime(epoch, float(start)),
                duration_hours=duration,
                status=status,
            )
        )
    return jobs


@pytest.fixture(scope="module")
def abe_job_inputs():
    """The arguments ``generate_abe_logs(seed=2013)`` classifies its jobs
    with, the generator captured in its state at that call."""
    import copy

    import repro.loggen.abe as abe

    captured = {}

    def capture(*args, **kwargs):
        args = list(args)
        args[3] = copy.deepcopy(args[3])
        captured["call"] = (args, kwargs)
        return []

    original = abe.generate_job_records
    abe.generate_job_records = capture
    try:
        abe.generate_abe_logs(seed=2013)
    finally:
        abe.generate_job_records = original
    return captured["call"]


def _both(args, kwargs, **overrides):
    """(records, final generator state) of the batched code and of the
    per-job reference, each from its own copy of the generator."""
    import copy

    out = []
    for fn in (generate_job_records, per_job_records):
        call = list(args)
        call[3] = copy.deepcopy(args[3])
        jobs = fn(*call, **{**kwargs, **overrides})
        fields = [
            (j.job_id, j.submit_time, j.duration_hours, j.status, type(j.status))
            for j in jobs
        ]
        out.append((fields, call[3].bit_generator.state))
    return out


class TestBatchedJobClassification:
    def test_abe_seed_2013_logs(self, abe_job_inputs):
        batched, reference = _both(*abe_job_inputs)
        assert len(batched[0]) == 47417
        assert {f[3] for f in batched[0]} == {
            "completed", "failed_transient", "failed_other"
        }
        assert batched == reference

    def test_abe_without_queueing(self, abe_job_inputs):
        batched, reference = _both(*abe_job_inputs, queue_during_outage=False)
        assert batched == reference

    def test_no_arrivals(self, abe_job_inputs):
        batched, reference = _both(*abe_job_inputs, job_rate_per_hour=0.0)
        assert batched == reference
        assert batched[0] == []

    def test_switch_without_transients(self):
        cfs = make_binary_trace(
            [(0.0, True), (50.0, False), (60.0, True), (300.0, False), (320.0, True)],
            500.0,
        )
        sw = make_event_trace(
            "sw",
            [(float(t), "c/switches/switch[0]/transient") for t in range(5, 500, 7)],
        )
        sp = make_event_trace("sp", [(133.0, "c/spine/transient")])
        args = [cfs, sw, sp, make_generator(11), 500.0, EPOCH]
        kwargs = dict(
            job_rate_per_hour=3.0, job_mean_duration_hours=2.0,
            job_io_exposure_hours=1.0, n_switches=3,
        )
        for queue in (True, False):
            batched, reference = _both(args, kwargs, queue_during_outage=queue)
            assert batched == reference
            assert {f[3] for f in batched[0]} == {
                "completed", "failed_transient", "failed_other"
            }


class TestDiskSurvival:
    def test_renewal_counts(self):
        law = Weibull.from_mtbf(1.0, 100.0)
        data = disk_survival_dataset(50, law, 1000.0, make_generator(7))
        # ~10 renewals per slot
        assert data.n_failures == pytest.approx(500, rel=0.25)
        assert data.durations.min() > 0.0
        # censored entries: exactly one per slot
        assert (~data.observed).sum() == 50

    def test_failures_in_window(self):
        law = Weibull.from_mtbf(1.0, 10.0)
        data = disk_survival_dataset(5, law, 100.0, make_generator(8))
        full = data.failures_in_window(0.0, 100.0)
        half = data.failures_in_window(0.0, 50.0)
        assert len(half) <= len(full) == data.n_failures

    def test_validation(self):
        law = Weibull.from_mtbf(1.0, 10.0)
        with pytest.raises(Exception):
            disk_survival_dataset(0, law, 10.0, make_generator(9))
        with pytest.raises(Exception):
            disk_survival_dataset(5, law, 0.0, make_generator(9))


class TestAbeLogsLoopClosure:
    @pytest.fixture(scope="class")
    def logs(self):
        return generate_abe_logs(seed=2013)

    def test_windows(self, logs):
        assert logs.windows.horizon_hours == pytest.approx(5064.0)

    def test_availability_recovered_from_san_log(self, logs):
        w = logs.windows
        outage_log = logs.san_log.component("san")
        outages = pair_outages(outage_log, window_end=w.san_end)
        a = availability_from_outages(outages, w.epoch, w.san_end)
        assert a == pytest.approx(logs.ground_truth.cfs_availability, abs=0.005)

    def test_job_mix_matches_paper_shape(self, logs):
        stats = job_statistics(logs.jobs)
        # right order of magnitude vs 44085 / 1234 / 184
        assert 40_000 < stats.total < 55_000
        assert stats.failed_transient > 3 * stats.failed_other
        assert stats.cluster_utility > 0.9

    def test_mount_failure_day_counts_have_storm_mix(self, logs):
        counts = mount_failures_by_day(logs.compute_log)
        values = sorted(counts.values())
        assert values, "no mount failure days generated"
        assert values[0] <= 10  # small node-local days exist
        assert values[-1] >= 100  # at least one big storm

    def test_logs_serialize_and_parse(self, logs, tmp_path):
        path = tmp_path / "san.log"
        n = write_log(logs.san_log.events, str(path))
        report = parse_lines(open(path, encoding="utf-8"), strict=True)
        assert len(report.log) == n

    def test_ground_truth_consistency(self, logs):
        gt = logs.ground_truth
        assert 0.9 < gt.cfs_availability <= 1.0
        assert gt.n_switch_transients > 100  # ~4/720h x 16 switches x 5088h
        assert gt.n_disk_replacements >= 0
