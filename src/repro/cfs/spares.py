"""Standby-spare OSS policy (Figure 4's "CFS-Availability-spare-OSS").

"Improving upon ABE's design, the architect could provide an additional
standby-spare OSS that can replace the failed OSS.  Our evaluation shows
that this approach can improve the availability by 3%."  (Section 5.2.)

The spare pool is global: when an OSS pair suffers a *hardware* double
fault (both members down), a free spare is swapped in after
``spare_swap_hours`` and the pair serves again while its members repair in
the background; the spare returns to the pool once a member comes back.
Software (fsck) outages are not covered — a spare server cannot fix an
inconsistent file system.

Implementation: each OSS pair carries a ``spare_dock`` SAN sharing the
pair-local ``pair_down`` place and the *global* ``spare_free`` pool
(unified across all pairs by the composition tree).  The dock never
mutates the pair's own bookkeeping; it maintains a parallel global
``covered_pairs`` counter, and the availability measure treats a pair as
serving when it is either up or covered (``pairs_down − covered_pairs``).
"""

from __future__ import annotations

from ..core.distributions import Deterministic
from ..core.san import SAN
from .parameters import CFSParameters

__all__ = ["build_spare_dock_san"]


def build_spare_dock_san(params: CFSParameters, name: str = "spare_dock") -> SAN:
    """Spare hand-off logic for one OSS pair.

    Shared places: ``pair_down`` (with the pair), ``spare_free`` (global
    pool, initial = ``n_spare_oss``), ``covered_pairs`` (global count of
    pairs currently served by a spare), and ``spare_swaps_total``.
    """
    san = SAN(name)
    san.place("pair_down", 0)
    san.place("covered", 0)
    san.place("covered_pairs", 0)
    san.place("spare_free", params.n_spare_oss)
    san.place("spare_swaps_total", 0)

    san.timed(
        "spare_swap",
        Deterministic(params.spare_swap_hours),
        enabled=lambda m: (
            m["pair_down"] == 1 and m["covered"] == 0 and m["spare_free"] > 0
        ),
        writes=[
            ("spare_free", "add", -1),
            ("covered", "set", 1),
            ("covered_pairs", "add", 1),
            ("spare_swaps_total", "add", 1),
        ],
    )
    # The pair's own restore logic clears pair_down when a member repairs;
    # at that moment the spare returns to the pool.
    san.instant(
        "spare_release",
        enabled=lambda m: m["covered"] == 1 and m["pair_down"] == 0,
        writes=[
            ("covered", "set", 0),
            ("covered_pairs", "add", -1),
            ("spare_free", "add", 1),
        ],
        priority=3,
    )
    return san
