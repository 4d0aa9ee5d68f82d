"""Fail-over pair submodel (RAID controllers, OSS servers).

"Most of the hardware is replicated with fail-over mechanisms.  Failure of
both members of the fail-over pair causes the unavailability of the CFS
system."  (Section 4.3.)  The same structure covers the DDN RAID
controllers and the Dell OSS fail-over pairs, so the builder is generic:

* each of the two members fails independently (exponential, the paper's
  1–2 per 720 h class) and repairs with its own crew (12–36 h for
  hardware);
* a member failure **propagates** to its partner with probability *p* —
  the paper's correlated-failure mechanism ("there is small probability p
  that errors can propagate to other connected components");
* the pair is *down* while both members are down; down pairs are counted
  in a shared place so system-level rewards read one slot.

The model matches
:func:`repro.markov.repairable.failover_pair_unavailability` exactly when
the repair law is exponential (validated in the test-suite).
"""

from __future__ import annotations

from ..core.composition import Node, join, replicate
from ..core.distributions import Distribution, Exponential
from ..core.gates import Case
from ..core.san import SAN

__all__ = ["build_failover_member_san", "build_pair_control_san", "build_failover_pair_node"]


def build_failover_member_san(
    failure: Distribution,
    repair: Distribution,
    propagation_probability: float,
    name: str = "member",
) -> SAN:
    """One member of a fail-over pair.

    Shared places: ``down_count`` (members of this pair currently down)
    and ``kill`` (the propagation token set when a fault propagates to the
    partner).
    """
    san = SAN(name)
    san.place("up", 1)
    san.place("down_count", 0)
    san.place("kill", 0)

    p = float(propagation_probability)
    # Declared case writes compile the propagation coin into a case
    # kernel (one uniform, precomputed slot deltas per branch).
    san.timed(
        "fail",
        failure,
        enabled=lambda m: m["up"] == 1,
        cases=[
            Case(
                1.0 - p,
                name="isolated",
                writes=[("up", "set", 0), ("down_count", "add", 1)],
            ),
            Case(
                p,
                name="propagating",
                writes=[
                    ("up", "set", 0),
                    ("down_count", "add", 1),
                    ("kill", "set", 1),
                ],
            ),
        ],
    )
    # The partner absorbs a propagated fault instantly.
    san.instant(
        "absorb_kill",
        enabled=lambda m: m["kill"] == 1 and m["up"] == 1,
        writes=[("up", "set", 0), ("down_count", "add", 1), ("kill", "set", 0)],
        priority=10,
    )
    san.timed(
        "repair",
        repair,
        enabled=lambda m: m["up"] == 0,
        writes=[("up", "set", 1), ("down_count", "add", -1)],
    )
    return san


def build_pair_control_san(name: str = "pairctl") -> SAN:
    """Pair-level bookkeeping: outage detection and kill-token hygiene.

    Shares ``down_count``/``kill`` with the members and exports
    ``pair_down`` plus the fleet counters ``pairs_down`` (current outages)
    and ``pair_outages_total`` (cumulative count).
    """
    san = SAN(name)
    san.place("down_count", 0)
    san.place("kill", 0)
    san.place("pair_down", 0)
    san.place("pairs_down", 0)
    san.place("pair_outages_total", 0)

    san.instant(
        "pair_fail",
        enabled=lambda m: m["down_count"] >= 2 and m["pair_down"] == 0,
        writes=[
            ("pair_down", "set", 1),
            ("pairs_down", "add", 1),
            ("pair_outages_total", "add", 1),
        ],
        priority=5,
    )
    san.instant(
        "pair_restore",
        enabled=lambda m: m["down_count"] < 2 and m["pair_down"] == 1,
        writes=[("pair_down", "set", 0), ("pairs_down", "add", -1)],
        priority=5,
    )
    # A propagated fault that finds the partner already down is a no-op;
    # drop the token so it does not linger.
    san.instant(
        "clear_kill",
        enabled=lambda m: m["kill"] == 1 and m["down_count"] >= 2,
        writes=[("kill", "set", 0)],
        priority=1,
    )
    return san


def build_failover_pair_node(
    failure: Distribution,
    repair: Distribution,
    propagation_probability: float = 0.0,
    name: str = "pair",
    member_name: str = "member",
) -> Node:
    """A complete fail-over pair.

    Exported shared places: ``pair_down`` (this pair), ``pairs_down`` and
    ``pair_outages_total`` (fleet counters to unify across pairs).
    """
    if not 0.0 <= propagation_probability <= 1.0:
        from ..core.errors import ModelError

        raise ModelError(
            f"propagation probability must be in [0,1], got {propagation_probability}"
        )
    member = build_failover_member_san(
        failure, repair, propagation_probability, name=member_name
    )
    members = replicate("members", member, 2, shared=["down_count", "kill"])
    control = build_pair_control_san()
    return join(
        name,
        members,
        control,
        shared=["down_count", "kill", "pairs_down", "pair_outages_total"],
        exports=["pair_down"],
    )
