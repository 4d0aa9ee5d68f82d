"""Places and markings — the state variables of a stochastic activity network.

A *place* holds a non-negative integer token count; the vector of all place
values is the *marking* (the model state).  During simulation every
predicate, gate function, and reward function accesses the marking through
a :class:`LocalView`, which binds the *local* place names of one submodel
to slots of the shared global :class:`MarkingVector`.

The view instruments accesses:

* reads are recorded (when tracking is enabled) so the simulator can build
  the place → activity dependency map used for incremental enabling checks;
* writes are always recorded into the vector's ``changed`` set so the
  simulator knows which dependencies to re-evaluate after a firing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import ModelError, SimulationError

__all__ = ["Place", "MarkingVector", "LocalView", "FrozenView"]


@dataclass(frozen=True)
class Place:
    """Definition of a state variable in a leaf SAN.

    Attributes
    ----------
    name:
        Local name, unique within its SAN.
    initial:
        Initial token count (non-negative integer).
    """

    name: str
    initial: int = 0

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ModelError(
                f"place name must be non-empty and must not contain '/': {self.name!r}"
            )
        if self.initial < 0 or self.initial != int(self.initial):
            raise ModelError(
                f"place {self.name!r}: initial marking must be a non-negative "
                f"integer, got {self.initial!r}"
            )


class MarkingVector:
    """The global marking: one integer slot per flattened place.

    The vector also carries the bookkeeping shared by all views:
    ``changed`` (slots written since the simulator last drained it) and
    ``reads`` (slots read while tracking is on).  ``values``,
    ``changed`` and ``reads`` are created once and only ever mutated in
    place, because the simulator's run plan holds them.
    """

    __slots__ = ("values", "changed", "reads", "tracking")

    def __init__(self, initial_values: list[int]) -> None:
        self.values: list[int] = list(initial_values)
        self.changed: set[int] = set()
        self.reads: set[int] = set()
        self.tracking: bool = False

    def reset(self, initial_values: list[int]) -> None:
        """Restore the initial marking (for a new replication)."""
        if len(initial_values) != len(self.values):
            raise SimulationError("initial marking length mismatch on reset")
        self.values[:] = initial_values
        self.changed.clear()
        self.reads.clear()
        self.tracking = False

    def begin_tracking(self) -> None:
        """Start recording read slots into ``reads``.

        The ``reads`` set object is reused (cleared, not reallocated) so
        views and the simulator can hold direct references to it.
        """
        self.reads.clear()
        self.tracking = True

    def end_tracking(self) -> set[int]:
        """Stop recording reads and return the recorded slot set.

        The returned set is the live scratch buffer: it is only valid
        until the next :meth:`begin_tracking`; copy it to keep it.
        """
        self.tracking = False
        return self.reads

    def __len__(self) -> int:
        return len(self.values)


class LocalView:
    """Name-addressed window onto the global marking for one submodel.

    Predicates and gate functions receive a view and use mapping syntax::

        def enabled(m):
            return m["up"] == 1 and m["tier_down"] == 0

        def effect(m, rng):
            m["up"] = 0
            m["failed_count"] += 1

    Values are non-negative integers; writing a negative value raises
    :class:`SimulationError` immediately, which turns modeling bugs into
    loud failures rather than silently corrupt markings.
    """

    __slots__ = ("_vector", "_index", "_values", "_known")

    def __init__(
        self,
        vector: MarkingVector,
        index: Mapping[str, int],
        known: set[int] | None = None,
    ) -> None:
        self._vector = vector
        self._index = index
        # The values list identity is stable (reset() assigns in place),
        # so caching the reference saves an attribute hop per access.
        self._values = vector.values
        # Optional filter for read tracking: slots already present in
        # ``known`` are not re-recorded into ``vector.reads``.  The
        # simulator binds each activity's discovered-dependency set here,
        # so once discovery converges, tracked evaluations leave ``reads``
        # empty and dependency registration short-circuits.
        self._known = known

    @property
    def names(self) -> tuple[str, ...]:
        """Local place names visible through this view."""
        return tuple(self._index)

    @property
    def raw(self) -> list[int]:
        """The underlying marking values (read-only by convention).

        Fast path for reward functions with a *declared* read set:
        resolve slots once with :meth:`slot` and index this list
        directly, bypassing name lookup and read tracking.  Only valid
        when every read is declared (``RateReward(..., reads=[...])``):
        raw reads are invisible to dependency discovery, so an
        undeclared raw read would silently miss marking updates.
        """
        return self._values

    def slot(self, name: str) -> int:
        """Global slot index for a local place name."""
        try:
            return self._index[name]
        except KeyError:
            raise SimulationError(
                f"unknown place {name!r}; visible places: {sorted(self._index)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __getitem__(self, name: str) -> int:
        try:
            slot = self._index[name]
        except KeyError:
            raise SimulationError(
                f"unknown place {name!r}; visible places: {sorted(self._index)}"
            ) from None
        vec = self._vector
        if vec.tracking:
            known = self._known
            if known is None or slot not in known:
                vec.reads.add(slot)
        return self._values[slot]

    def __setitem__(self, name: str, value: int) -> None:
        try:
            slot = self._index[name]
        except KeyError:
            raise SimulationError(
                f"unknown place {name!r}; visible places: {sorted(self._index)}"
            ) from None
        ivalue = value if type(value) is int else int(value)
        if ivalue < 0:
            raise SimulationError(
                f"attempt to set place {name!r} to negative value {value!r}"
            )
        values = self._values
        if values[slot] != ivalue:
            values[slot] = ivalue
            self._vector.changed.add(slot)

    def get(self, name: str, default: int | None = None) -> int | None:
        """Mapping-style ``get`` with optional default."""
        if name in self._index:
            return self[name]
        return default

    def as_dict(self) -> dict[str, int]:
        """Snapshot of all visible places (reads are tracked)."""
        return {name: self[name] for name in self._index}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalView({self.as_dict()!r})"


class FrozenView(LocalView):
    """A :class:`LocalView` whose reads never record, tracking or not.

    The compiled engine hands this view to the enabling predicates (and
    verified distribution callables) of activities with *declared* read
    sets: their dependencies are wired at compile time, so read tracking
    is pure overhead — this view drops the tracking branch from every
    ``__getitem__`` and lets the event loops leave the vector's tracking
    flag untouched around declared evaluations.  Writes behave exactly
    like :class:`LocalView` (recorded into ``changed``), so even a
    misbehaving predicate cannot corrupt the marking silently.
    """

    __slots__ = ()

    def __getitem__(self, name: str) -> int:
        try:
            return self._values[self._index[name]]
        except KeyError:
            raise SimulationError(
                f"unknown place {name!r}; visible places: {sorted(self._index)}"
            ) from None
