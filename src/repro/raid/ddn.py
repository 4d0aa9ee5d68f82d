"""DDN storage-unit submodel (the paper's ``DDN_UNITS``).

One DDN S2A9550 unit = a RAID-controller fail-over pair plus a set of
RAID tiers (ABE: 24 tiers of (8+2) per unit).  The unit's storage is
unavailable while its controller pair is down or any of its tiers has
lost data; fleet-level rewards aggregate the shared counters
``tiers_down``, ``ctrl_pairs_down``, ``disks_replaced`` and
``data_loss_total``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.composition import Node, join, rename, replicate
from ..core.distributions import Distribution, Exponential, Uniform, Weibull
from .config import RAIDConfig
from .controller import build_failover_pair_node
from .tier import build_tier_node

__all__ = ["DDNUnitSpec", "build_ddn_unit_node", "build_ddn_fleet_node"]


@dataclass(frozen=True)
class DDNUnitSpec:
    """Parameters of one DDN unit.

    Attributes
    ----------
    raid:
        Tier geometry and repair policy.
    tiers_per_unit:
        RAID tiers in the unit (ABE S2A9550: 8 ports × 3 tiers = 24).
    disk_lifetime:
        Weibull lifetime law of a fresh disk.
    controller_failure / controller_repair:
        Failure and repair laws of each RAID-controller pair member
        (paper: 1–2 per 720 h; 12–36 h to procure and replace).
    controller_propagation:
        Probability that a controller fault propagates to its partner.
    equilibrium_start:
        Start disks in renewal equilibrium (in-service fleet).
    """

    raid: RAIDConfig
    tiers_per_unit: int
    disk_lifetime: Weibull
    controller_failure: Distribution
    controller_repair: Distribution
    controller_propagation: float = 0.0
    disk_propagation_p: float = 0.0
    disk_capacity_tb: float = 0.0
    equilibrium_start: bool = True

    def __post_init__(self) -> None:
        from ..core.errors import ParameterError

        if self.tiers_per_unit < 1:
            raise ParameterError(
                f"tiers_per_unit must be >= 1, got {self.tiers_per_unit}"
            )

    @property
    def disks_per_unit(self) -> int:
        """Total disks in the unit."""
        return self.tiers_per_unit * self.raid.tier_size


def build_ddn_unit_node(spec: DDNUnitSpec, name: str = "ddn") -> Node:
    """One DDN unit: controller pair + replicated tiers.

    Exported shared places: ``tiers_down``, ``data_loss_total``,
    ``disks_replaced``, ``ctrl_pairs_down``, ``ctrl_pair_outages_total``.
    """
    tier = build_tier_node(
        spec.raid,
        spec.disk_lifetime,
        propagation_p=spec.disk_propagation_p,
        equilibrium_start=spec.equilibrium_start,
        disk_capacity_tb=spec.disk_capacity_tb,
    )
    tiers = replicate(
        "tiers",
        tier,
        spec.tiers_per_unit,
        shared=["tiers_down", "data_loss_total", "disks_replaced"],
    )
    controllers = build_failover_pair_node(
        spec.controller_failure,
        spec.controller_repair,
        spec.controller_propagation,
        name="ctrl",
        member_name="controller",
    )
    # Controller counters get unit-agnostic names so fleets can unify them.
    return join(
        name,
        tiers,
        _rename_pair_counters(controllers),
        shared=[
            "tiers_down",
            "data_loss_total",
            "disks_replaced",
            "ctrl_pairs_down",
            "ctrl_pair_outages_total",
        ],
    )


def _rename_pair_counters(pair: Node) -> Node:
    """Re-export the pair's generic ``pairs_down`` / ``pair_outages_total``
    as ``ctrl_*``, so they do not unify with the OSS pairs' counters."""
    return rename(
        pair,
        {
            "pairs_down": "ctrl_pairs_down",
            "pair_outages_total": "ctrl_pair_outages_total",
        },
    )


def build_ddn_fleet_node(
    spec: DDNUnitSpec, n_units: int, name: str = "ddn_units"
) -> Node:
    """The paper's ``DDN_UNITS``: ``n_units`` replicated DDN units.

    ABE: 2 units; the petascale design point: up to 20 (Table 5).
    Exported shared places aggregate across the whole fleet.
    """
    unit = build_ddn_unit_node(spec)
    return replicate(
        name,
        unit,
        n_units,
        shared=[
            "tiers_down",
            "data_loss_total",
            "disks_replaced",
            "ctrl_pairs_down",
            "ctrl_pair_outages_total",
        ],
    )
