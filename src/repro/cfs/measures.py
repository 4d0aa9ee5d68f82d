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
    return RateReward(
        "storage_availability",
        form=Indicator(guards=[(tiers, "==", 0), (ctrl, "==", 0)]),
    )


def cfs_up_predicate(model: FlatModel) -> Callable:
    """Boolean marking function: the CFS serves its clients.

    Requires: storage up, every OSS pair up (hardware and software), the
    OSS↔DDN network up, and the shared SAN fabric up.

    It evaluates the form of :func:`cfs_availability_reward` through
    the function that reward is built with, which reads places *by
    path*, so the simulator's tracked discovery sees every read — use it
    for traces, stop predicates and ad-hoc probing.
    """
    return _up_predicate(cfs_availability_reward(model))


def _up_predicate(reward: RateReward) -> Callable:
    value = reward.function

    def up(m) -> bool:
        return value(m) != 0.0

    return up


def _cfs_up_guards(paths: tuple) -> tuple:
    """The CFS-up condition as reward-form guards, the one place it is
    written: with a standby-spare pool the OSS layer is up while its
    down pairs are all covered."""
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
    return _cfs_availability_reward(_cfs_up_paths(model), probe_times)


def _cfs_availability_reward(paths: tuple, probe_times) -> RateReward:
    return RateReward(
        "cfs_availability",
        form=Indicator(guards=_cfs_up_guards(paths)),
        probe_times=probe_times,
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
    switches_down = resolve_slot_path(model, "*/client/switches_down")
    spine_up = resolve_slot_path(model, "*/spine_up")
    # The share of leaf switches up, ``1.0 + (-1.0 · switches_down) /
    # n_switches`` in the form's canonical arithmetic, is bit-identical
    # to ``1.0 - switches_down / n_switches`` (exact sign flip,
    # sign-symmetric IEEE division).  The compiled form kernel refreshes
    # it with one guard check and one affine recompute on each
    # leaf-switch transient (~97 % of petascale events).
    return RateReward(
        "perceived_availability",
        form=Affine(
            1.0,
            terms=[(switches_down, -1.0, float(params.n_switches))],
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
    cfs = _cfs_availability_reward(paths, availability_probes)
    rewards = (
        storage_availability_reward(model),
        cfs,
        _perceived_availability_reward(model, params, paths),
        disk_replacement_reward(),
    )
    up = _up_predicate(cfs)

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
