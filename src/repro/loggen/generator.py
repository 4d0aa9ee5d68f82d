"""Synthetic operational-log generation from simulation traces.

The paper's raw material — NCSA's compute-logs and SAN-logs — is
proprietary.  This module substitutes them: a calibrated simulation run
produces component up/down traces and event streams, and the generator
renders them as timestamped log events in the canonical format of
:mod:`repro.analysis.parsing`.  Because the generating model's rates are
known, the analysis pipeline can be validated end-to-end: parse the
synthetic logs, re-estimate availability/rates, and compare with the
simulation's own reward values (the "loop closure" of DESIGN.md §6).

Time convention: simulation hours are offset from a calendar ``epoch``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Iterable, Sequence

import numpy as np

from ..analysis.events import EventLog, LogEvent
from ..analysis.jobs import COMPLETED, FAILED_OTHER, FAILED_TRANSIENT, JobRecord
from ..core.errors import AnalysisError
from ..core.trace import BinaryTrace, EventTrace, Interval

__all__ = [
    "hours_to_datetime",
    "outage_events_from_trace",
    "replacement_events_from_trace",
    "mount_failure_events",
    "generate_job_records",
    "job_end_events",
    "batch_outage_events",
    "write_log",
]

_SWITCH_INDEX_RE = re.compile(r"switch\[(\d+)\]")


def hours_to_datetime(epoch: datetime, hours: float) -> datetime:
    """Convert simulation hours to a calendar timestamp."""
    return epoch + timedelta(hours=float(hours))


def outage_events_from_trace(
    trace: BinaryTrace,
    epoch: datetime,
    cause: str,
    source: str = "lustre-fs",
    component: str = "san",
) -> list[LogEvent]:
    """Render a component's down intervals as outage notifications.

    Mirrors the TeraGrid user notifications behind Table 1: one
    ``outage_start`` (with a ``cause`` attribute) and one ``outage_end``
    per down interval.
    """
    events: list[LogEvent] = []
    for iv in trace.intervals_where(False):
        events.append(
            LogEvent(
                timestamp=hours_to_datetime(epoch, iv.start),
                source=source,
                component=component,
                severity="ERROR",
                event_type="outage_start",
                message=f"{cause} outage begins",
                attrs={"cause": cause},
            )
        )
        events.append(
            LogEvent(
                timestamp=hours_to_datetime(epoch, iv.end),
                source=source,
                component=component,
                severity="INFO",
                event_type="outage_end",
                message=f"{cause} outage resolved",
                attrs={"cause": cause},
            )
        )
    return events


def replacement_events_from_trace(
    trace: EventTrace, epoch: datetime, component: str = "disk"
) -> list[LogEvent]:
    """Render disk replacement completions as SAN-log entries.

    The emitting "source" is derived from the activity path, so each
    physical slot is distinguishable (Table 4's replacement log).
    """
    events: list[LogEvent] = []
    for ev in trace:
        slot = ev.activity.replace("/replace", "").replace("/fail", "")
        slot = slot.split("ddn_units/")[-1] if "ddn_units/" in slot else slot
        events.append(
            LogEvent(
                timestamp=hours_to_datetime(epoch, ev.time),
                source=slot,
                component=component,
                severity="WARN",
                event_type="disk_replaced",
                message="failed disk replaced",
            )
        )
    return events


@dataclass(frozen=True)
class _Transient:
    """One client-network transient, located in time and scope."""

    time: float
    switch: int | None  # None = spine-level


def _transients_from_traces(
    switch_trace: EventTrace, spine_trace: EventTrace
) -> list[_Transient]:
    out: list[_Transient] = []
    for ev in switch_trace:
        match = _SWITCH_INDEX_RE.search(ev.activity)
        if match is None:
            raise AnalysisError(f"cannot locate switch index in {ev.activity!r}")
        out.append(_Transient(ev.time, int(match.group(1))))
    for ev in spine_trace:
        out.append(_Transient(ev.time, None))
    out.sort(key=lambda t: t.time)
    return out


def mount_failure_events(
    switch_trace: EventTrace,
    spine_trace: EventTrace,
    epoch: datetime,
    rng: np.random.Generator,
    n_compute_nodes: int,
    nodes_per_switch: int,
    leaf_observation_p: float = 0.025,
    spine_observation_p: float = 0.8,
    local_noise_per_1000h: float = 2.0,
    horizon_hours: float | None = None,
) -> list[LogEvent]:
    """Per-node Lustre mount-failure log lines (the Table 2 raw material).

    A transient produces mount-failure entries only when nodes happen to
    attempt (re)mounts during the blackout — job launches, reboots — so
    only a fraction of transients is *observed* in the log:

    * a leaf-switch transient is observed with ``leaf_observation_p`` and
      then affects a large share of that switch's nodes;
    * a spine transient is observed with ``spine_observation_p`` and
      affects nodes across many switches (Table 2's 258–591 counts);
    * independent node-local mount hiccups add the small 2–5 node days.
    """
    events: list[LogEvent] = []

    def node_event(node: int, t_hours: float) -> LogEvent:
        return LogEvent(
            timestamp=hours_to_datetime(epoch, t_hours),
            source=f"compute-{node:04d}",
            component="network",
            severity="ERROR",
            event_type="mount_failure",
            message="mount of /cfs/scratch failed: transport endpoint failure",
        )

    for tr in _transients_from_traces(switch_trace, spine_trace):
        if tr.switch is not None:
            if rng.uniform() > leaf_observation_p:
                continue
            base = tr.switch * nodes_per_switch
            pool = [
                n for n in range(base, base + nodes_per_switch) if n < n_compute_nodes
            ]
            share = rng.uniform(0.3, 1.0)
        else:
            if rng.uniform() > spine_observation_p:
                continue
            pool = list(range(n_compute_nodes))
            share = rng.uniform(0.2, 0.5)
        affected = rng.choice(
            pool, size=max(1, int(round(share * len(pool)))), replace=False
        )
        for node in affected:
            jitter = rng.uniform(0.0, 0.2)
            events.append(node_event(int(node), tr.time + jitter))

    # Node-local noise: isolated mounts failing without a network event.
    if horizon_hours is None:
        times = switch_trace.times() + spine_trace.times()
        horizon_hours = max(times) if times else 0.0
    n_noise = rng.poisson(local_noise_per_1000h * horizon_hours / 1000.0)
    for _ in range(int(n_noise)):
        t = rng.uniform(0.0, horizon_hours)
        for node in rng.choice(
            n_compute_nodes, size=int(rng.integers(2, 6)), replace=False
        ):
            events.append(node_event(int(node), t + rng.uniform(0.0, 0.1)))
    events.sort(key=lambda e: e.timestamp)
    return events


def generate_job_records(
    cfs_trace: BinaryTrace,
    switch_trace: EventTrace,
    spine_trace: EventTrace,
    rng: np.random.Generator,
    horizon_hours: float,
    epoch: datetime,
    job_rate_per_hour: float,
    job_mean_duration_hours: float,
    job_io_exposure_hours: float,
    n_switches: int,
    queue_during_outage: bool = True,
) -> list[JobRecord]:
    """Sample the batch workload against the simulated trajectory.

    Jobs arrive Poisson, run for an exponential duration on a random leaf
    switch, and are classified exactly as Table 3 classifies them:

    * ``failed_transient`` — a transient struck the job's own switch or
      the spine during its run;
    * ``failed_other`` — a CFS outage began during the job's I/O-exposure
      window (an *unannounced* failure catching the job mid-I/O);
    * ``completed`` — otherwise.

    By default (``queue_during_outage=True``) jobs submitted while the CFS
    is down are simply held by the batch scheduler until service resumes —
    announced outages do not kill jobs, which is why Table 3's
    "other/file system" count (184) is tiny compared to the downtime
    Table 1 reports.  Set it to False to count such jobs as failures.
    """
    down_intervals = cfs_trace.intervals_where(False)
    onset_times = np.array([iv.start for iv in down_intervals])
    down_ends = np.array([iv.end for iv in down_intervals])

    by_switch: dict[int | None, list[float]] = {}
    for tr in _transients_from_traces(switch_trace, spine_trace):
        by_switch.setdefault(tr.switch, []).append(tr.time)

    n_jobs = rng.poisson(job_rate_per_hour * horizon_hours)
    starts = np.sort(rng.uniform(0.0, horizon_hours, size=int(n_jobs)))
    # Each job draws its duration, then its switch: scalar draws, in order.
    durations = np.empty(starts.size)
    switches = np.empty(starts.size, dtype=np.int64)
    for i in range(starts.size):
        durations[i] = rng.exponential(job_mean_duration_hours)
        switches[i] = rng.integers(0, n_switches)
    ends = np.minimum(starts + durations, horizon_hours)

    def any_in(times, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per job: does one of the sorted ``times`` lie in ``[lo, hi]``?"""
        times = np.asarray(times, dtype=float)
        idx = np.searchsorted(times, lo, side="left")
        hit = idx < times.size
        hit[hit] = times[idx[hit]] <= hi[hit]
        return hit

    transient = any_in(by_switch.pop(None, []), starts, ends)
    for switch, times in by_switch.items():
        mine = switches == switch
        transient[mine] |= any_in(times, starts[mine], ends[mine])
    exposure_end = np.minimum(starts + job_io_exposure_hours, ends)
    other = any_in(onset_times, starts, exposure_end)
    if not queue_during_outage and onset_times.size:
        # Down intervals are disjoint and sorted: only the last one to
        # start at or before a job's submission can contain it.
        k = np.searchsorted(onset_times, starts, side="right") - 1
        other |= (k >= 0) & (starts < down_ends[np.maximum(k, 0)])

    return [
        JobRecord(
            job_id=f"job-{i:06d}",
            submit_time=hours_to_datetime(epoch, start),
            duration_hours=duration,
            status=(
                FAILED_TRANSIENT if hit else FAILED_OTHER if late else COMPLETED
            ),
        )
        for i, (start, duration, hit, late) in enumerate(
            zip(starts.tolist(), durations.tolist(), transient.tolist(), other.tolist())
        )
    ]


def job_end_events(jobs: Iterable[JobRecord]) -> list[LogEvent]:
    """Render job records as ``job_end`` compute-log entries."""
    events: list[LogEvent] = []
    for job in jobs:
        end_time = job.submit_time + timedelta(hours=job.duration_hours)
        events.append(
            LogEvent(
                timestamp=end_time,
                source="batch-scheduler",
                component="job",
                severity="INFO" if job.status == COMPLETED else "ERROR",
                event_type="job_end",
                message=f"job {job.job_id} {job.status}",
                attrs={
                    "job": job.job_id,
                    "status": job.status,
                    "hours": f"{job.duration_hours:.3f}",
                },
            )
        )
    return events


def batch_outage_events(
    epoch: datetime,
    horizon_hours: float,
    rng: np.random.Generator,
    rate_per_720h: float = 0.2,
    duration_hours: tuple[float, float] = (2.0, 5.0),
) -> list[LogEvent]:
    """Synthetic batch-system outages (Table 1's "Batch system" row).

    The batch scheduler is outside the CFS model proper; its rare outages
    are injected directly so Table 1's cause mix is complete.
    """
    events: list[LogEvent] = []
    n = rng.poisson(rate_per_720h * horizon_hours / 720.0)
    for _ in range(int(n)):
        start = rng.uniform(0.0, horizon_hours)
        length = rng.uniform(*duration_hours)
        for etype, offset, sev in (
            ("outage_start", 0.0, "ERROR"),
            ("outage_end", length, "INFO"),
        ):
            events.append(
                LogEvent(
                    timestamp=hours_to_datetime(epoch, start + offset),
                    source="batch-scheduler",
                    component="batch",
                    severity=sev,
                    event_type=etype,
                    message="batch system outage",
                    attrs={"cause": "Batch system"},
                )
            )
    return events


def write_log(events: Iterable[LogEvent], path: str) -> int:
    """Write events to a log file in the canonical format; returns count."""
    from ..analysis.parsing import format_event

    ordered = sorted(events, key=lambda e: e.timestamp)
    with open(path, "w", encoding="utf-8") as fh:
        for event in ordered:
            fh.write(format_event(event) + "\n")
    return len(ordered)
