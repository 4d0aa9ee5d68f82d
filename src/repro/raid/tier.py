"""RAID tier submodel: replicated disks plus data-loss logic.

A tier of ``n`` disks tolerates ``f`` concurrent failures; the (f+1)-th
concurrent failure is a data-loss event.  The tier then undergoes a
restore (hardware-class repair + restripe) before serving again.  The
tier-down condition is tracked in a shared counter ``tiers_down`` so the
storage-availability reward can read a single place regardless of fleet
size.
"""

from __future__ import annotations

from ..core.composition import Node, join, replicate
from ..core.distributions import Deterministic, Weibull
from ..core.san import SAN
from .config import RAIDConfig
from .disk import build_disk_san

__all__ = ["build_tier_control_san", "build_tier_node"]


def build_tier_control_san(config: RAIDConfig, name: str = "tierctl") -> SAN:
    """Data-loss detection and restore logic for one tier.

    Shares ``failed_count`` / ``disk_kill`` with the tier's disks and
    exports ``tiers_down`` / ``data_loss_total`` for fleet-level
    aggregation.
    """
    san = SAN(name)
    san.place("failed_count", 0)
    san.place("disk_kill", 0)
    san.place("tier_down", 0)
    san.place("tiers_down", 0)
    san.place("data_loss_total", 0)
    threshold = config.fault_tolerance + 1

    san.instant(
        "data_loss",
        enabled=lambda m: m["failed_count"] >= threshold and m["tier_down"] == 0,
        writes=[
            ("tier_down", "set", 1),
            ("tiers_down", "add", 1),
            ("data_loss_total", "add", 1),
        ],
        priority=5,
    )
    # If replacements have not caught up, the guard fails: the tier
    # stays down and the restore activity re-fires (it remains enabled).
    san.timed(
        "restore",
        Deterministic(config.tier_restore_hours),
        enabled=lambda m: m["tier_down"] == 1,
        writes=[("tier_down", "set", 0), ("tiers_down", "add", -1)],
        when=("failed_count", "<=", config.fault_tolerance),
    )
    # A propagation token with no healthy disk left to strike evaporates
    # (otherwise it would linger and kill a disk replaced hours later).
    san.instant(
        "void_kill",
        enabled=lambda m: m["disk_kill"] > 0 and m["failed_count"] >= config.tier_size,
        writes=[("disk_kill", "set", 0)],
        priority=1,
    )
    return san


def build_tier_node(
    config: RAIDConfig,
    lifetime: Weibull,
    propagation_p: float = 0.0,
    equilibrium_start: bool = True,
    disk_capacity_tb: float = 0.0,
    name: str = "tier",
) -> Node:
    """One RAID tier: ``tier_size`` disk replicas joined with the control SAN.

    ``disk_capacity_tb`` feeds the optional capacity-dependent rebuild
    term (see :class:`RAIDConfig`): a failed disk counts against the
    tier's parity until replaced *and* rebuilt.

    Exported shared places: ``disks_replaced``, ``tiers_down``,
    ``data_loss_total`` (for fleet-level sharing).
    """
    disk = build_disk_san(
        lifetime,
        config.vulnerability_hours(disk_capacity_tb),
        propagation_p=propagation_p,
        equilibrium_start=equilibrium_start,
    )
    disks = replicate(
        "disks",
        disk,
        config.tier_size,
        shared=["failed_count", "disk_kill", "disks_replaced"],
    )
    control = build_tier_control_san(config)
    return join(
        name,
        disks,
        control,
        shared=[
            "failed_count",
            "disk_kill",
            "disks_replaced",
            "tiers_down",
            "data_loss_total",
        ],
    )
