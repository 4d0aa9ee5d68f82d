"""Replicate/join composition of SAN templates (the Möbius composed model).

The paper's Figure 1 is a replicate/join tree: ``CLUSTER`` joins ``CLIENT``
with ``CFS_UNIT``; ``CFS_UNIT`` joins ``OSS``, ``OSS_SAN_NW``, ``SAN`` and
``DDN_UNITS``; ``DDN_UNITS`` replicates RAID6 units and controllers.  This
module provides exactly those operators:

* :func:`leaf` wraps a :class:`~repro.core.san.SAN` template;
* :func:`join` composes children, **sharing state variables by name**
  (a shared place becomes one global slot written/read by all sharers);
* :func:`replicate` instantiates ``n`` copies of a subtree, sharing the
  listed places *across* the copies.

:func:`flatten` compiles a composition tree into a :class:`FlatModel`:
a dense marking vector, path-addressed places (``cfs/ddn[0]/tier[3]/up``),
and activity instances bound to their slots.  Flattening is pure — the
same tree can be flattened once and simulated many times.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CompositionError
from .patterns import compile_pattern, path_match
from .places import LocalView, MarkingVector
from .san import SAN, ActivityDef

__all__ = [
    "Node",
    "LeafNode",
    "JoinNode",
    "ReplicateNode",
    "leaf",
    "join",
    "replicate",
    "flatten",
    "FlatActivity",
    "FlatModel",
]


def _join_path(prefix: str, name: str) -> str:
    return f"{prefix}/{name}" if prefix else name


@contextmanager
def _gc_paused():
    """Pause cyclic garbage collection around a model build.

    Flattening and compiling a replicated model allocate a few hundred
    thousand container objects, and the collector would otherwise walk
    them again and again in full collections while they are built.  The
    model graph holds no reference cycles (a dropped model is freed by
    reference counting alone), so there is nothing for those walks to
    find.  Usable as a decorator.  On exit, error included, the caller's
    state is restored: a caller that disabled collection keeps it off.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Node:
    """Base class for composition-tree nodes."""

    name: str

    def _flatten_into(self, ctx: "_FlattenContext", prefix: str) -> dict[str, int]:
        raise NotImplementedError


class LeafNode(Node):
    """A leaf of the composition tree holding one SAN template."""

    def __init__(self, san: SAN) -> None:
        san.validate()
        self.san = san
        self.name = san.name

    def _flatten_into(self, ctx: "_FlattenContext", prefix: str) -> dict[str, int]:
        exports: dict[str, int] = {}
        for pname, place in self.san.places.items():
            pid = ctx.new_place(_join_path(prefix, pname), place.initial)
            exports[pname] = pid
        index = dict(exports)
        for act in self.san.activities.values():
            ctx.new_activity(_join_path(prefix, act.name), act, index)
        return exports


class JoinNode(Node):
    """Composes children, unifying places that appear in ``shared``.

    Parameters
    ----------
    name:
        Node name (used in place paths).
    children:
        Sub-nodes; their names must be unique within the join.
    shared:
        Place names to unify across every child that exports them.  Each
        shared name must be exported by at least one child; sharing a name
        exported by a single child simply re-exports it (useful for hoisting
        a counter to the top of the tree).
    exports:
        Additional child-exported names to re-export unshared; each must be
        exported by exactly one child.
    """

    def __init__(
        self,
        name: str,
        children: Sequence[Node],
        shared: Iterable[str] = (),
        exports: Iterable[str] = (),
    ) -> None:
        if not children:
            raise CompositionError(f"join {name!r} requires at least one child")
        names = [c.name for c in children]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise CompositionError(
                f"join {name!r}: duplicate child names {sorted(dupes)}; "
                "wrap duplicates in replicate() or rename the SAN templates"
            )
        self.name = name
        self.children = list(children)
        self.shared = tuple(shared)
        self.extra_exports = tuple(exports)

    def _flatten_into(self, ctx: "_FlattenContext", prefix: str) -> dict[str, int]:
        child_exports: list[tuple[str, dict[str, int]]] = []
        for child in self.children:
            exp = child._flatten_into(ctx, _join_path(prefix, child.name))
            child_exports.append((child.name, exp))

        exports: dict[str, int] = {}
        for sname in self.shared:
            ids = [exp[sname] for _, exp in child_exports if sname in exp]
            if not ids:
                raise CompositionError(
                    f"join {self.name!r}: shared place {sname!r} is not "
                    "exported by any child"
                )
            rep = ids[0]
            for other in ids[1:]:
                ctx.union(rep, other)
            ctx.add_alias(_join_path(prefix, sname), rep)
            exports[sname] = rep

        for ename in self.extra_exports:
            owners = [
                (cname, exp[ename]) for cname, exp in child_exports if ename in exp
            ]
            if len(owners) != 1:
                raise CompositionError(
                    f"join {self.name!r}: export {ename!r} must be provided by "
                    f"exactly one child, found {len(owners)}"
                )
            if ename in exports:
                raise CompositionError(
                    f"join {self.name!r}: {ename!r} is both shared and exported"
                )
            exports[ename] = owners[0][1]
        return exports


class ReplicateNode(Node):
    """Instantiates ``n`` copies of a subtree, sharing the listed places.

    Copies are addressed ``<name>/<child.name>[i]`` in place paths.
    """

    def __init__(self, name: str, child: Node, n: int, shared: Iterable[str] = ()) -> None:
        if n < 1:
            raise CompositionError(f"replicate {name!r}: n must be >= 1, got {n}")
        self.name = name
        self.child = child
        self.n = int(n)
        self.shared = tuple(shared)

    def _flatten_into(self, ctx: "_FlattenContext", prefix: str) -> dict[str, int]:
        replica_exports: list[dict[str, int]] = []
        for i in range(self.n):
            rep_prefix = _join_path(prefix, f"{self.child.name}[{i}]")
            replica_exports.append(self.child._flatten_into(ctx, rep_prefix))

        exports: dict[str, int] = {}
        for sname in self.shared:
            missing = [i for i, exp in enumerate(replica_exports) if sname not in exp]
            if missing:
                raise CompositionError(
                    f"replicate {self.name!r}: shared place {sname!r} is not "
                    f"exported by replica(s) {missing[:3]}"
                )
            rep = replica_exports[0][sname]
            for exp in replica_exports[1:]:
                ctx.union(rep, exp[sname])
            ctx.add_alias(_join_path(prefix, sname), rep)
            exports[sname] = rep
        return exports


def leaf(san: SAN) -> LeafNode:
    """Wrap a SAN template as a composition-tree leaf."""
    return LeafNode(san)


def _as_node(obj: SAN | Node) -> Node:
    return leaf(obj) if isinstance(obj, SAN) else obj


def join(
    name: str,
    *children: SAN | Node,
    shared: Iterable[str] = (),
    exports: Iterable[str] = (),
) -> JoinNode:
    """Create a join node; bare SAN templates are wrapped automatically."""
    return JoinNode(name, [_as_node(c) for c in children], shared, exports)


def replicate(
    name: str, child: SAN | Node, n: int, shared: Iterable[str] = ()
) -> ReplicateNode:
    """Create a replicate node; a bare SAN template is wrapped automatically."""
    return ReplicateNode(name, _as_node(child), n, shared)


# ----------------------------------------------------------------------
# flattening
# ----------------------------------------------------------------------
@dataclass
class FlatActivity:
    """An activity instance in a flattened model.

    Attributes
    ----------
    path:
        Full path of this instance (``cfs/ddn[0]/tier[3]/disk[2]/fail``).
    definition:
        The template :class:`~repro.core.san.ActivityDef`.
    index:
        Local place name → global marking slot for this instance.
    ident:
        Dense activity id assigned by the flattener.
    """

    path: str
    definition: ActivityDef
    index: dict[str, int]
    ident: int = -1


class _FlattenContext:
    """Accumulates proto-places/activities plus the sharing union-find."""

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.proto_paths: list[str] = []
        self.proto_initials: list[int] = []
        self.aliases: list[tuple[str, int]] = []
        self.activities: list[tuple[str, ActivityDef, dict[str, int]]] = []

    def new_place(self, path: str, initial: int) -> int:
        pid = len(self.parent)
        self.parent.append(pid)
        self.proto_paths.append(path)
        self.proto_initials.append(initial)
        self.aliases.append((path, pid))
        return pid

    def add_alias(self, path: str, pid: int) -> None:
        self.aliases.append((path, pid))

    def new_activity(self, path: str, definition: ActivityDef, index: dict[str, int]) -> None:
        self.activities.append((path, definition, index))

    def find(self, pid: int) -> int:
        root = pid
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[pid] != root:
            self.parent[pid], pid = root, self.parent[pid]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Keep the lower id as representative for deterministic layout.
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            self.parent[hi] = lo


class FlatModel:
    """A compiled, simulation-ready model.

    Attributes
    ----------
    name:
        Root node name.
    initial:
        Initial marking vector (one entry per place slot).
    paths:
        Every place path (including sharing aliases) → slot.
    canonical:
        One representative path per slot (the shallowest alias).
    activities:
        All activity instances with slot-resolved place indexes.

    The model is immutable once built: :meth:`match` memoizes its
    results against ``paths`` and ``canonical``.
    """

    def __init__(
        self,
        name: str,
        initial: list[int],
        paths: dict[str, int],
        canonical: list[str],
        activities: list[FlatActivity],
    ) -> None:
        self.name = name
        self.initial = initial
        self.paths = paths
        self.canonical = canonical
        self.activities = activities
        for i, act in enumerate(activities):
            act.ident = i
        self._matches: dict[str, dict[str, int]] = {}

    @property
    def n_places(self) -> int:
        """Number of marking slots."""
        return len(self.initial)

    def place_index(self, path: str) -> int:
        """Resolve a place path (or alias) to its marking slot."""
        try:
            return self.paths[path]
        except KeyError:
            candidates = [p for p in self.paths if p.endswith("/" + path) or p == path]
            hint = f"; close matches: {sorted(candidates)[:5]}" if candidates else ""
            raise CompositionError(f"unknown place path {path!r}{hint}") from None

    def match(self, pattern: str) -> dict[str, int]:
        """Glob-match place paths; returns canonical path → slot (deduped).

        Patterns use the :mod:`repro.core.patterns` dialect, not
        :mod:`fnmatch`: ``*`` matches any run of characters (``/``
        included), ``?`` exactly one, and every other character —
        ``[`` and ``]`` included — is literal, so
        ``"*/tier[*]/tier_down"`` matches every tier's ``tier_down``.
        The result is ordered by slot and memoized per pattern; each call
        returns a fresh dict.
        """
        hits = self._matches.get(pattern)
        if hits is None:
            # Only paths ending in the text after the last wildcard can
            # match, and endswith() is far cheaper than the regex.
            tail = pattern[max(pattern.rfind("*"), pattern.rfind("?")) + 1 :]
            rx = compile_pattern(pattern)
            slots: dict[int, str] = {}
            for path, slot in self.paths.items():
                if path.endswith(tail) and rx.match(path) is not None:
                    slots.setdefault(slot, self.canonical[slot])
            hits = {cpath: slot for slot, cpath in sorted(slots.items())}
            self._matches[pattern] = hits
        return dict(hits)

    def activities_matching(self, pattern: str) -> list[FlatActivity]:
        """Glob-match activity paths."""
        return [a for a in self.activities if path_match(a.path, pattern)]

    def new_marking(self) -> MarkingVector:
        """Allocate a marking vector initialized to the initial marking."""
        return MarkingVector(self.initial)

    def global_view(self, vector: MarkingVector) -> LocalView:
        """View addressing every place by full path (aliases included)."""
        return LocalView(vector, self.paths)

    def summary(self) -> str:
        """One-line structural summary."""
        n_timed = sum(1 for a in self.activities if a.definition.kind == "timed")
        return (
            f"FlatModel({self.name!r}: {self.n_places} places, "
            f"{n_timed} timed + {len(self.activities) - n_timed} instantaneous activities)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.summary()


@_gc_paused()
def flatten(root: SAN | Node) -> FlatModel:
    """Compile a composition tree (or bare SAN) into a :class:`FlatModel`."""
    root_node = _as_node(root)
    ctx = _FlattenContext()
    root_node._flatten_into(ctx, root_node.name)

    # Compact union classes into dense slots (representative order).
    slot_of_root: dict[int, int] = {}
    initial: list[int] = []
    canonical: list[str] = []
    for pid in range(len(ctx.parent)):
        r = ctx.find(pid)
        if r not in slot_of_root:
            slot_of_root[r] = len(initial)
            initial.append(ctx.proto_initials[r])
            canonical.append(ctx.proto_paths[r])
        if ctx.proto_initials[pid] != ctx.proto_initials[r]:
            raise CompositionError(
                f"shared place has conflicting initial markings: "
                f"{ctx.proto_paths[pid]!r}={ctx.proto_initials[pid]} vs "
                f"{ctx.proto_paths[r]!r}={ctx.proto_initials[r]}"
            )

    paths: dict[str, int] = {}
    for path, pid in ctx.aliases:
        slot = slot_of_root[ctx.find(pid)]
        if path in paths and paths[path] != slot:
            raise CompositionError(f"place path collision: {path!r}")
        paths[path] = slot
        # Prefer the shallowest alias as the canonical name for the slot.
        if path.count("/") < canonical[slot].count("/"):
            canonical[slot] = path

    activities = [
        FlatActivity(
            path=path,
            definition=definition,
            index={name: slot_of_root[ctx.find(pid)] for name, pid in index.items()},
        )
        for path, definition, index in ctx.activities
    ]
    act_paths = [a.path for a in activities]
    if len(set(act_paths)) != len(act_paths):  # pragma: no cover - defensive
        raise CompositionError("duplicate activity paths after flattening")

    return FlatModel(root_node.name, initial, paths, canonical, activities)
