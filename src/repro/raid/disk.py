"""Per-disk SAN submodel.

Each disk is a two-state component with the paper's failure law:

* lifetimes follow a Weibull distribution (Table 4's survival analysis:
  shape β ≈ 0.7, i.e. infant mortality — a freshly replaced disk is more
  failure-prone than a seasoned one);
* replacement is a deterministic event (Table 5: 1–12 h);
* a replaced disk starts a **fresh** Weibull lifetime, while disks present
  at time zero draw from the renewal-equilibrium residual-life law (the
  fleet was already in service when the observation window opened);
* a disk failure **propagates** to another disk of the same tier with
  probability *p* — the paper's correlated-failure mechanism ("errors can
  propagate to other connected components"; tiers share a backplane,
  power domain and firmware).  Propagated failures may chain (another
  Bernoulli-*p* coin), which is what makes multi-disk tier losses
  physically possible: with independent failures only, RAID6 with
  parallel hour-scale replacement essentially never loses data.

Shared places (unified upward by the composition tree):

* ``failed_count`` — failed disks in this tier (drives RAID data-loss
  detection);
* ``disk_kill`` — pending propagated-failure token within the tier;
* ``disks_replaced`` — global replacement counter (Figure 3's reward).
"""

from __future__ import annotations

from ..core.distributions import Deterministic, Distribution, EquilibriumResidual, Weibull
from ..core.errors import ModelError
from ..core.gates import Case
from ..core.places import LocalView
from ..core.san import SAN

__all__ = ["build_disk_san"]


def build_disk_san(
    lifetime: Weibull,
    replacement_hours: float,
    propagation_p: float = 0.0,
    equilibrium_start: bool = True,
    name: str = "disk",
) -> SAN:
    """Build the disk template.

    Parameters
    ----------
    lifetime:
        The Weibull lifetime law (fresh disk, age 0).
    replacement_hours:
        Deterministic replacement delay once failed.
    propagation_p:
        Probability that a failure propagates to another disk in the same
        tier (and that a propagated failure chains further).
    equilibrium_start:
        If true (default), the *first* lifetime of each disk is drawn from
        the stationary residual-life distribution; afterwards replacements
        draw fresh Weibull lifetimes.  Disable for "all disks new at t=0"
        studies (e.g. infant-mortality burn-in experiments).
    """
    if not 0.0 <= propagation_p <= 1.0:
        raise ModelError(f"propagation_p must be in [0,1], got {propagation_p}")
    san = SAN(name)
    san.place("up", 1)
    # 0 until the first replacement: selects the equilibrium residual law.
    san.place("fresh", 0 if equilibrium_start else 1)
    san.place("failed_count", 0)
    san.place("disk_kill", 0)
    san.place("disks_replaced", 0)

    equilibrium = EquilibriumResidual(lifetime)

    def fail_distribution(m: LocalView) -> Distribution:
        return lifetime if m["fresh"] == 1 else equilibrium

    p = float(propagation_p)
    # The declared read set covers both the enabling predicate ("up") and
    # the marking-dependent distribution callable ("fresh"), so the
    # compiled engine evaluates the fleet's hottest delay draws — one
    # equilibrium-residual or Weibull lifetime per disk — with read
    # tracking skipped entirely.  The declared case writes compile the
    # propagation coin into a case kernel: the fast loops pick a branch
    # with the same single uniform and apply its slot deltas.
    san.timed(
        "fail",
        fail_distribution,
        enabled=lambda m: m["up"] == 1,
        cases=[
            Case(
                1.0 - p,
                name="isolated",
                writes=[("up", "set", 0), ("failed_count", "add", 1)],
            ),
            Case(
                p,
                name="propagating",
                writes=[
                    ("up", "set", 0),
                    ("failed_count", "add", 1),
                    ("disk_kill", "add", 1),
                ],
            ),
        ],
        reads=["up", "fresh"],
    )

    # A propagated fault strikes some healthy disk of the tier; the
    # token stays on the "chain" branch, so the fault strikes yet
    # another disk.
    san.instant(
        "absorb_kill",
        enabled=lambda m: m["disk_kill"] > 0 and m["up"] == 1,
        cases=[
            Case(
                1.0 - p,
                name="stop",
                writes=[
                    ("up", "set", 0),
                    ("failed_count", "add", 1),
                    ("disk_kill", "add", -1),
                ],
            ),
            Case(
                p,
                name="chain",
                writes=[("up", "set", 0), ("failed_count", "add", 1)],
            ),
        ],
        priority=8,
    )
    san.timed(
        "replace",
        Deterministic(replacement_hours),
        enabled=lambda m: m["up"] == 0,
        writes=[
            ("up", "set", 1),
            ("fresh", "set", 1),
            ("failed_count", "add", -1),
            ("disks_replaced", "add", 1),
        ],
    )
    return san
