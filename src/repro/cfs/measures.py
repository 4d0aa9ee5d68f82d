"""Reward measures of the CFS model (Section 4.2).

Three measures, verbatim from the paper:

* **availability of the cluster file system** — "the fraction of time when
  all the file server nodes (OSSes), the DDN, and the network interconnect
  between the OSSes and the DDN are in the working state";
* **disk replacement rate** — "the number of disks that need to be
  replaced per unit of time to sustain the maximum availability of the
  CFS";
* **cluster utility (CU)** — the availability metric from the cluster
  user's perspective: the probability that a submitted job is not killed
  by perceived CFS unavailability, a transient network error during its
  run, or a CFS outage while it has I/O in flight.

CU is computed per replication from simulated quantities:

    CU = A_perceived · exp(−λ_transient·T_job − r_outage·T_io)

where ``A_perceived`` is the time-averaged fraction of compute nodes that
see the CFS as reachable (CFS up × spine up × share of leaf switches up),
``λ_transient`` the per-job transient-kill rate (own leaf switch + spine),
``r_outage`` the simulated rate of CFS-outage onsets, ``T_job`` the mean
job duration and ``T_io`` the per-job I/O exposure window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..core.composition import FlatModel
from ..core.errors import ModelError
from ..core.experiment import MetricFn
from ..core.rewards import Affine, ImpulseReward, Indicator, RateReward
from ..core.simulation import RunResult
from ..core.trace import BinaryTrace
from .parameters import CFSParameters

__all__ = [
    "HOURS_PER_WEEK",
    "resolve_slot_path",
    "storage_availability_reward",
    "cfs_availability_reward",
    "perceived_availability_reward",
    "disk_replacement_reward",
    "cfs_up_predicate",
    "cluster_utility_from_run",
    "ClusterMeasureSet",
    "build_measures",
    "build_storage_measures",
]

HOURS_PER_WEEK = 168.0


def resolve_slot_path(model: FlatModel, pattern: str) -> str:
    """Resolve a glob to exactly one place; returns its canonical path."""
    matches = model.match(pattern)
    if len(matches) != 1:
        raise ModelError(
            f"pattern {pattern!r} resolved to {len(matches)} places "
            f"({sorted(matches)[:4]}...); expected exactly one"
        )
    return next(iter(matches))


def _storage_paths(model: FlatModel) -> tuple[str, str]:
    return (
        resolve_slot_path(model, "*/tiers_down"),
        resolve_slot_path(model, "*/ctrl_pairs_down"),
    )


def _cfs_up_paths(model: FlatModel) -> tuple[str, str, str, str, str, str, str | None]:
    """Canonical paths of every place the CFS-up condition reads.

    The private helpers below take this tuple instead of the model, so
    :func:`build_measures` resolves it once for all of its measures.
    """
    tiers, ctrl = _storage_paths(model)
    oss = resolve_slot_path(model, "*/oss_layer/pairs_down")
    oss_sw = resolve_slot_path(model, "*/oss_layer/oss_sw_down")
    nw = resolve_slot_path(model, "*/oss_san_nw/pairs_down")
    fabric = resolve_slot_path(model, "*/fabric_down")
    # With a standby-spare pool, covered pairs keep serving while down.
    covered_matches = model.match("*/oss_layer/covered_pairs")
    covered = next(iter(covered_matches)) if covered_matches else None
    return tiers, ctrl, oss, oss_sw, nw, fabric, covered


def storage_availability_reward(model: FlatModel) -> RateReward:
    """1 while every RAID tier holds data and every DDN controller pair is up."""
    tiers, ctrl = _storage_paths(model)
    ts, cs = model.paths[tiers], model.paths[ctrl]

    # Declared reads let the simulator wire per-slot observer lists at
    # compile time; raw slot reads then skip name lookup and tracking.
    def up(m) -> float:
        raw = m.raw
        return 1.0 if raw[ts] == 0 and raw[cs] == 0 else 0.0

    return RateReward(
        "storage_availability",
        up,
        reads=(tiers, ctrl),
        form=Indicator(guards=[(tiers, "==", 0), (ctrl, "==", 0)]),
    )


def cfs_up_predicate(model: FlatModel) -> Callable:
    """Boolean marking function: the CFS serves its clients.

    Requires: storage up, every OSS pair up (hardware and software), the
    OSS↔DDN network up, and the shared SAN fabric up.

    This variant reads places *by path* so the simulator's tracked
    discovery sees every read — use it for traces, stop predicates and
    ad-hoc probing.  The reward built by :func:`cfs_availability_reward`
    uses the slot-resolved fast variant with a declared read set instead.
    """
    return _cfs_up_predicate(_cfs_up_paths(model))


def _cfs_up_predicate(paths: tuple) -> Callable:
    tiers, ctrl, oss, oss_sw, nw, fabric, covered = paths

    def up(m) -> bool:
        oss_effective = m[oss] - (m[covered] if covered is not None else 0)
        return (
            m[tiers] == 0
            and m[ctrl] == 0
            and oss_effective <= 0
            and m[oss_sw] == 0
            and m[nw] == 0
            and m[fabric] == 0
        )

    return up


def _cfs_up_fast(
    model: FlatModel, paths: tuple
) -> tuple[Callable, Callable, tuple[str, ...]]:
    """Slot-resolved CFS-up checks plus the read declaration covering them.

    ``paths`` is :func:`_cfs_up_paths` of ``model``.  Returns ``(up,
    up_raw, reads)``: ``up`` takes the view, ``up_raw`` takes the raw
    values list directly (for callers that already hold it).
    """
    tiers, ctrl, oss, oss_sw, nw, fabric, covered = paths
    idx = model.paths
    ts, cs, os_, osw, ns, fs = (
        idx[tiers], idx[ctrl], idx[oss], idx[oss_sw], idx[nw], idx[fabric]
    )
    cov = idx[covered] if covered is not None else None

    if cov is None:

        def up_raw(raw) -> bool:
            return (
                raw[ts] == 0
                and raw[cs] == 0
                and raw[os_] <= 0
                and raw[osw] == 0
                and raw[ns] == 0
                and raw[fs] == 0
            )

    else:

        def up_raw(raw) -> bool:
            return (
                raw[ts] == 0
                and raw[cs] == 0
                and raw[os_] - raw[cov] <= 0
                and raw[osw] == 0
                and raw[ns] == 0
                and raw[fs] == 0
            )

    def up(m) -> bool:
        return up_raw(m.raw)

    return up, up_raw, tuple(p for p in paths if p is not None)


def _cfs_up_guards(paths: tuple) -> tuple:
    """The CFS-up condition as reward-form guards (same semantics as
    :func:`_cfs_up_fast`, declaratively)."""
    tiers, ctrl, oss, oss_sw, nw, fabric, covered = paths
    oss_guard = (
        (oss, "<=", 0) if covered is None else ((oss, covered), "<=", 0)
    )
    return (
        (tiers, "==", 0),
        (ctrl, "==", 0),
        oss_guard,
        (oss_sw, "==", 0),
        (nw, "==", 0),
        (fabric, "==", 0),
    )


def cfs_availability_reward(
    model: FlatModel, probe_times=None
) -> RateReward:
    """The paper's CFS-availability measure as a rate reward.

    ``probe_times`` adds instant-of-time availability samples (the
    probability the CFS is up at time ``t``, once averaged over
    replications).
    """
    return _cfs_availability_reward(model, _cfs_up_paths(model), probe_times)


def _cfs_availability_reward(
    model: FlatModel, paths: tuple, probe_times
) -> RateReward:
    _, up_raw, reads = _cfs_up_fast(model, paths)
    return RateReward(
        "cfs_availability",
        lambda m: 1.0 if up_raw(m.raw) else 0.0,
        reads=reads,
        probe_times=probe_times,
        form=Indicator(guards=_cfs_up_guards(paths)),
    )


def perceived_availability_reward(
    model: FlatModel, params: CFSParameters
) -> RateReward:
    """Expected fraction of compute nodes that currently see the CFS as up.

    Multiplies CFS truth by the client-network view: the spine must be up
    and the node's leaf switch must be up (averaged over leaf switches).
    """
    return _perceived_availability_reward(model, params, _cfs_up_paths(model))


def _perceived_availability_reward(
    model: FlatModel, params: CFSParameters, paths: tuple
) -> RateReward:
    _, _, up_reads = _cfs_up_fast(model, paths)
    switches_down = resolve_slot_path(model, "*/client/switches_down")
    spine_up = resolve_slot_path(model, "*/spine_up")
    sw, sp = model.paths[switches_down], model.paths[spine_up]
    n_switches = float(params.n_switches)

    # Fused CFS-up + client-view check: this reward re-evaluates on every
    # leaf-switch transient (~97 % of petascale events), so the up check
    # is inlined rather than calling up_raw — identical short-circuit
    # logic and float arithmetic, one call fewer per refresh.
    idx = model.paths
    ts, cs, os_, osw, ns, fs = (idx[p] for p in paths[:6])
    cov = idx[paths[6]] if paths[6] is not None else None

    if cov is None:

        def perceived(m) -> float:
            raw = m.raw
            if (
                raw[ts] == 0
                and raw[cs] == 0
                and raw[os_] <= 0
                and raw[osw] == 0
                and raw[ns] == 0
                and raw[fs] == 0
                and raw[sp] != 0
            ):
                return 1.0 - raw[sw] / n_switches
            return 0.0

    else:

        def perceived(m) -> float:
            raw = m.raw
            if (
                raw[ts] == 0
                and raw[cs] == 0
                and raw[os_] - raw[cov] <= 0
                and raw[osw] == 0
                and raw[ns] == 0
                and raw[fs] == 0
                and raw[sp] != 0
            ):
                return 1.0 - raw[sw] / n_switches
            return 0.0

    # The declared form compiles to an incremental update kernel, so the
    # leaf-switch transients that dominate the petascale event stream
    # refresh this value with one guard check + one affine recompute
    # instead of re-calling the closure above.  The form's canonical
    # arithmetic ``1.0 + (-1.0 · switches_down) / n_switches`` is
    # bit-identical to the closure's ``1.0 - switches_down / n_switches``
    # (exact sign flip, sign-symmetric IEEE division), which the
    # simulator verifies against the closure at t=0 and the golden /
    # differential suites pin over full trajectories.
    return RateReward(
        "perceived_availability",
        perceived,
        reads=up_reads + (switches_down, spine_up),
        form=Affine(
            1.0,
            terms=[(switches_down, -1.0, n_switches)],
            guards=_cfs_up_guards(paths) + ((spine_up, "!=", 0),),
        ),
    )


def disk_replacement_reward() -> ImpulseReward:
    """Counts disk replacements (the Figure 3 reward)."""
    return ImpulseReward("disks_replaced", "*/disks/disk[*]/replace")


def cluster_utility_from_run(
    result: RunResult, params: CFSParameters, cfs_trace_name: str = "cfs_up"
) -> float:
    """Derive CU for one replication (see module docstring for the formula)."""
    perceived = result["perceived_availability"].time_average
    trace = result.trace(cfs_trace_name)
    if not isinstance(trace, BinaryTrace):
        raise ModelError(f"{cfs_trace_name!r} must be a BinaryTrace")
    onsets = len(trace.intervals_where(False))
    duration = result.duration if result.duration > 0 else 1.0
    outage_rate = onsets / duration
    transient_rate = (
        params.switch_transient_per_720h + params.spine_transient_per_720h
    ) / 720.0
    survives_run = math.exp(
        -transient_rate * params.job_mean_duration_hours
        - outage_rate * params.job_io_exposure_hours
    )
    return perceived * survives_run


@dataclass(frozen=True)
class ClusterMeasureSet:
    """Everything :func:`repro.core.experiment.replicate_runs` needs."""

    rewards: tuple
    traces_factory: Callable[[], tuple]
    extra_metrics: dict[str, MetricFn]


def build_measures(
    model: FlatModel,
    params: CFSParameters,
    availability_probes=None,
) -> ClusterMeasureSet:
    """Wire the full measure set for a composed cluster model.

    ``availability_probes`` adds instant-of-time samples of the CFS
    availability at the given times (hours).
    """
    paths = _cfs_up_paths(model)
    rewards = (
        storage_availability_reward(model),
        _cfs_availability_reward(model, paths, availability_probes),
        _perceived_availability_reward(model, params, paths),
        disk_replacement_reward(),
    )
    up = _cfs_up_predicate(paths)

    def traces_factory() -> tuple:
        return (BinaryTrace("cfs_up", up),)

    extra: dict[str, MetricFn] = {
        "cluster_utility": lambda res: cluster_utility_from_run(res, params),
        "disks_replaced_per_week": (
            lambda res: res["disks_replaced"].rate * HOURS_PER_WEEK
        ),
        "cfs_outage_onsets_per_year": (
            lambda res: len(res.trace("cfs_up").intervals_where(False))
            / max(res.duration, 1e-9)
            * 8760.0
        ),
    }
    return ClusterMeasureSet(rewards, traces_factory, extra)


def build_storage_measures(model: FlatModel) -> ClusterMeasureSet:
    """Measure set for storage-in-isolation studies (Figures 2 and 3)."""
    rewards = (
        storage_availability_reward(model),
        disk_replacement_reward(),
        ImpulseReward("data_loss_events", "*/tierctl/data_loss"),
    )
    extra: dict[str, MetricFn] = {
        "disks_replaced_per_week": (
            lambda res: res["disks_replaced"].rate * HOURS_PER_WEEK
        ),
    }
    return ClusterMeasureSet(rewards, lambda: (), extra)
