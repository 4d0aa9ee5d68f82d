"""SAN builders for the CFS submodels of Figure 1.

* ``OSS`` — fail-over pairs of metadata/file servers: hardware faults with
  fail-over + correlated propagation, plus Lustre software errors (fsck)
  that take the pair down regardless of fail-over;
* ``OSS_SAN_NW`` — the redundant switch pair between the OSSes and the
  DDN units;
* ``SAN`` — the shared fabric whose failure takes the whole CFS down
  (the system-level "I/O hardware" outages of Table 1);
* ``CLIENT`` — the compute-side network: leaf switches and the spine,
  whose transient errors drive mount-failure storms (Table 2) and job
  kills (Table 3).

Every builder returns composition nodes exporting the shared counters the
reward measures read (see :mod:`repro.cfs.measures`).

The single-place enabling predicates declare their dependency sets
(``timed(..., reads=[...])``), so the compiled engine skips read tracking
for them — this matters most for the leaf-switch transients, which are
~97 % of all events in a petascale year.  Every effect is a constant
marking update, declared once as its writes (``writes=[...]``): the
compiled engine applies the slot deltas as a gate-write kernel (see
``docs/performance.md`` Layer 5), and the reference engine runs the
function built from the same ops.
"""

from __future__ import annotations

from ..core.composition import Node, join, leaf, rename, replicate
from ..core.distributions import Exponential, Uniform
from ..core.san import SAN
from ..raid.controller import build_failover_pair_node
from ..raid.ddn import DDNUnitSpec, build_ddn_fleet_node
from .parameters import CFSParameters

__all__ = [
    "build_oss_pair_node",
    "build_oss_layer_node",
    "build_oss_san_network_node",
    "build_san_fabric_san",
    "build_client_network_node",
    "build_storage_node",
]


def _per_720h(events: float) -> Exponential:
    return Exponential.per_period(events, 720.0)


def _uniform(bounds: tuple[float, float]) -> Uniform:
    return Uniform(*bounds)


# ----------------------------------------------------------------------
# OSS layer
# ----------------------------------------------------------------------
def build_oss_software_san(params: CFSParameters, name: str = "lustre") -> SAN:
    """Lustre software-error overlay for one OSS pair.

    Software corruption (Section 4.3) is not masked by hardware fail-over:
    the file system must be brought back to a consistent state with fsck
    (2–6 h).  The shared counter ``oss_sw_down`` counts pairs currently in
    fsck; ``oss_sw_outages_total`` accumulates events.
    """
    san = SAN(name)
    san.place("sw_down", 0)
    san.place("oss_sw_down", 0)
    san.place("oss_sw_outages_total", 0)

    san.timed(
        "sw_fail",
        _per_720h(params.oss_sw_failures_per_720h),
        enabled=lambda m: m["sw_down"] == 0,
        reads=["sw_down"],
        writes=[
            ("sw_down", "set", 1),
            ("oss_sw_down", "add", 1),
            ("oss_sw_outages_total", "add", 1),
        ],
    )
    san.timed(
        "fsck",
        _uniform(params.oss_sw_repair_hours),
        enabled=lambda m: m["sw_down"] == 1,
        reads=["sw_down"],
        writes=[("sw_down", "set", 0), ("oss_sw_down", "add", -1)],
    )
    return san


def build_oss_pair_node(params: CFSParameters, name: str = "oss_pair") -> Node:
    """One OSS fail-over pair: hardware pair + software overlay.

    Exports ``pairs_down`` / ``pair_outages_total`` (hardware outages,
    named ``oss_pairs_down`` at the layer level) and ``oss_sw_down`` /
    ``oss_sw_outages_total`` (software outages), plus ``pair_down`` and
    ``down_count`` for the standby-spare logic.
    """
    hardware = build_failover_pair_node(
        _per_720h(params.oss_hw_failures_per_720h),
        _uniform(params.oss_hw_repair_hours),
        params.oss_hw_propagation_p,
        name="hw",
        member_name="server",
    )
    software = build_oss_software_san(params)
    children: list[Node] = [hardware, software]
    shared = [
        "pairs_down",
        "pair_outages_total",
        "oss_sw_down",
        "oss_sw_outages_total",
    ]
    if params.n_spare_oss > 0:
        from .spares import build_spare_dock_san

        children.append(leaf(build_spare_dock_san(params)))
        shared += ["pair_down", "spare_free", "covered_pairs", "spare_swaps_total"]
        return join(name, *children, shared=shared)
    return join(name, *children, shared=shared, exports=["pair_down", "down_count"])


def build_oss_layer_node(params: CFSParameters, name: str = "oss_layer") -> Node:
    """All OSS pairs (metadata pair + scratch pairs), fleet counters shared.

    Exported: ``pairs_down``, ``pair_outages_total``, ``oss_sw_down``,
    ``oss_sw_outages_total``.
    """
    pair = build_oss_pair_node(params)
    shared = [
        "pairs_down",
        "pair_outages_total",
        "oss_sw_down",
        "oss_sw_outages_total",
    ]
    if params.n_spare_oss > 0:
        shared += ["spare_free", "covered_pairs", "spare_swaps_total"]
    return replicate(name, pair, params.n_oss_pairs, shared=shared)


# ----------------------------------------------------------------------
# networks
# ----------------------------------------------------------------------
def build_oss_san_network_node(params: CFSParameters, name: str = "oss_san_nw") -> Node:
    """The redundant switch pair between OSSes and DDN units (``OSS_SAN_NW``).

    Exports the pair counters under network-specific names
    (``nw_pairs_down`` / ``nw_pair_outages_total``).
    """
    pair = build_failover_pair_node(
        _per_720h(params.oss_san_nw_failures_per_720h),
        _uniform(params.oss_san_nw_repair_hours),
        params.oss_san_nw_propagation_p,
        name="switchpair",
        member_name="switch",
    )
    return rename(
        join(name, pair, shared=["pairs_down", "pair_outages_total"]),
        {"pairs_down": "nw_pairs_down", "pair_outages_total": "nw_pair_outages_total"},
    )


def build_san_fabric_san(params: CFSParameters, name: str = "san_fabric") -> SAN:
    """The shared SAN fabric (``SAN`` in Figure 1).

    A non-redundant, system-level resource: its hardware failures are the
    Table 1 "I/O hardware" outages that take the whole file system down
    for 8–16 h while parts are replaced.  Does not scale with the number
    of OSS/DDN units — this is what keeps petascale availability at 0.909
    rather than collapsing linearly.
    """
    san = SAN(name)
    san.place("fabric_down", 0)
    san.place("fabric_outages_total", 0)

    san.timed(
        "hw_fail",
        _per_720h(params.san_fabric_failures_per_720h),
        enabled=lambda m: m["fabric_down"] == 0,
        reads=["fabric_down"],
        writes=[("fabric_down", "set", 1), ("fabric_outages_total", "add", 1)],
    )
    san.timed(
        "hw_repair",
        _uniform(params.san_fabric_repair_hours),
        enabled=lambda m: m["fabric_down"] == 1,
        reads=["fabric_down"],
        writes=[("fabric_down", "set", 0)],
    )
    return san


# ----------------------------------------------------------------------
# client network (CLIENT submodel)
# ----------------------------------------------------------------------
def build_leaf_switch_san(params: CFSParameters, name: str = "switch") -> SAN:
    """One leaf switch serving ``nodes_per_switch`` compute nodes.

    Transient errors (Section 4.3: "temporary, but hard to diagnose ...
    causes a few minutes of unavailability") take the switch down for
    3–10 minutes; attached nodes perceive the CFS as unreachable.
    """
    san = SAN(name)
    san.place("sw_up", 1)
    san.place("switches_down", 0)
    san.place("switch_transients_total", 0)
    lo, hi = params.switch_transient_minutes

    san.timed(
        "transient",
        _per_720h(params.switch_transient_per_720h),
        enabled=lambda m: m["sw_up"] == 1,
        reads=["sw_up"],
        writes=[
            ("sw_up", "set", 0),
            ("switches_down", "add", 1),
            ("switch_transients_total", "add", 1),
        ],
    )
    san.timed(
        "recover",
        Uniform(lo / 60.0, hi / 60.0),
        enabled=lambda m: m["sw_up"] == 0,
        reads=["sw_up"],
        writes=[("sw_up", "set", 1), ("switches_down", "add", -1)],
    )
    return san


def build_spine_san(params: CFSParameters, name: str = "spine") -> SAN:
    """The spine/aggregation layer between compute nodes and the CFS.

    A spine transient disconnects a large slice of the cluster at once —
    the big mount-failure storms of Table 2 (hundreds of nodes on one day).
    """
    san = SAN(name)
    san.place("spine_up", 1)
    san.place("spine_transients_total", 0)
    lo, hi = params.spine_transient_minutes

    san.timed(
        "transient",
        _per_720h(params.spine_transient_per_720h),
        enabled=lambda m: m["spine_up"] == 1,
        reads=["spine_up"],
        writes=[("spine_up", "set", 0), ("spine_transients_total", "add", 1)],
    )
    san.timed(
        "recover",
        Uniform(lo / 60.0, hi / 60.0),
        enabled=lambda m: m["spine_up"] == 0,
        reads=["spine_up"],
        writes=[("spine_up", "set", 1)],
    )
    return san


def build_client_network_node(params: CFSParameters, name: str = "client") -> Node:
    """The CLIENT submodel: replicated leaf switches + the spine.

    Exports ``switches_down``, ``switch_transients_total``, ``spine_up``,
    ``spine_transients_total``.
    """
    switches = replicate(
        "switches",
        build_leaf_switch_san(params),
        params.n_switches,
        shared=["switches_down", "switch_transients_total"],
    )
    spine = build_spine_san(params)
    return join(
        name,
        switches,
        spine,
        shared=["switches_down", "switch_transients_total"],
        exports=["spine_up", "spine_transients_total"],
    )


# ----------------------------------------------------------------------
# storage (DDN fleet)
# ----------------------------------------------------------------------
def build_storage_node(params: CFSParameters, name: str = "ddn_units") -> Node:
    """The DDN fleet, parameterized from :class:`CFSParameters`."""
    spec = DDNUnitSpec(
        raid=params.raid,
        tiers_per_unit=params.tiers_per_ddn,
        disk_lifetime=params.disk_lifetime,
        controller_failure=_per_720h(params.ddn_ctrl_failures_per_720h),
        controller_repair=_uniform(params.ddn_ctrl_repair_hours),
        controller_propagation=params.ddn_ctrl_propagation_p,
        disk_propagation_p=params.disk_propagation_p,
        disk_capacity_tb=params.disk_capacity_tb,
        equilibrium_start=params.equilibrium_start,
    )
    return build_ddn_fleet_node(spec, params.n_ddn_units, name=name)
