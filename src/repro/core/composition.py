"""Replicate/join composition of SAN templates (the Möbius composed model).

The paper's Figure 1 is a replicate/join tree: ``CLUSTER`` joins ``CLIENT``
with ``CFS_UNIT``; ``CFS_UNIT`` joins ``OSS``, ``OSS_SAN_NW``, ``SAN`` and
``DDN_UNITS``; ``DDN_UNITS`` replicates RAID6 units and controllers.  This
module provides exactly those operators:

* :func:`leaf` wraps a :class:`~repro.core.san.SAN` template;
* :func:`join` composes children, **sharing state variables by name**
  (a shared place becomes one global slot written/read by all sharers);
* :func:`replicate` instantiates ``n`` copies of a subtree, sharing the
  listed places *across* the copies;
* :func:`rename` re-exports a subtree's places under new names.

:func:`flatten` compiles a composition tree into a :class:`FlatModel`:
a dense marking vector, path-addressed places (``cfs/ddn[0]/tier[3]/up``),
and activity instances bound to their slots.  Flattening is pure — the
same tree can be flattened once and simulated many times.

Flattening is the Rep construction of Sanders & Meyer (IEEE JSAC 9(1),
1991): each node builds a template once, its places' union classes in
first-place order plus its exports; a replicate stamps its child's
template ``n`` times by slot arithmetic, a join unions classes, not
places, and one last walk writes each path string once.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import CompositionError
from .patterns import filter_matching
from .places import LocalView, MarkingVector
from .san import SAN, ActivityDef

__all__ = [
    "Node",
    "LeafNode",
    "JoinNode",
    "ReplicateNode",
    "RenameNode",
    "leaf",
    "join",
    "replicate",
    "rename",
    "flatten",
    "FlatActivity",
    "FlatModel",
]


#: Set by :func:`repro.core.resilience._start_worker` in the library's
#: pool workers: there, :func:`_gc_paused` freezes each finished build.
_FREEZE_BUILDS = False


@contextmanager
def _gc_paused():
    """Pause cyclic garbage collection around a model build.

    Flattening and compiling a replicated model allocate a few hundred
    thousand container objects with no reference cycles among them (a
    dropped model is freed by reference counting alone), so collections
    that walk them find nothing; the pause keeps the collector off them
    while they are built.  Usable as a decorator.  On exit, error
    included, the caller's state is restored: a caller that disabled
    collection keeps it off, and nothing below happens.

    In the library's pool workers (``_FREEZE_BUILDS``) a build that
    succeeds ends in ``gc.freeze()``, which moves every tracked object
    into the permanent generation, so later collections stop walking the
    build too.  A young collection before the pause frees the garbage
    made since the last one instead of freezing it.  A build that raises
    does not freeze.  Frozen objects are still freed by reference
    counting, but cyclic garbage alive at a freeze is never collected,
    so the parent process and serial runs never freeze.
    """
    if not gc.isenabled():
        yield
        return
    freeze = _FREEZE_BUILDS
    if freeze:
        gc.collect(0)
    gc.disable()
    try:
        yield
        if freeze:
            gc.freeze()
    finally:
        gc.enable()


class _Template(NamedTuple):
    """A node in its own union-class numbering (first-place order): class
    markings, exports, whether a union met two markings, and ``emit(pre,
    cmap, sink)``, which writes an instance whose class c owns ``cmap[c]``."""

    initial: list[int]
    exports: dict[str, int]
    conflict: bool
    emit: Callable[[str, list[int], "_Sink"], None]


class _Sink:
    """The emit walk's output: aliases in order, the same bucketed by their
    count of ``/``, and ``(pre, activities, index, initial)`` per leaf."""

    def __init__(self) -> None:
        self.paths, self.slots, self.leaves, self.by_depth = [], [], [], {}

    def add(self, paths: list[str], slots: list[int], depth: int) -> None:
        self.paths += paths
        self.slots += slots
        bucket = self.by_depth.get(depth) or self.by_depth.setdefault(depth, ([], []))
        bucket[0].extend(paths)
        bucket[1].extend(slots)

    def aliases(self, pre: str, aliases, cmap: list[int]) -> None:
        for name, c in aliases:
            self.add([pre + name], [cmap[c]], pre.count("/") + name.count("/"))


class Node:
    """Base class for composition-tree nodes; ``flatten`` asks each for
    its :class:`_Template` with ``_template()``."""

    name: str


def _check_names(kind: str, name: str, children: Sequence[Node]) -> None:
    """A join or replicate name is one path level, so it must be
    '/'-free; it may be empty only at the root, so every child's name
    must be non-empty (the rules of SAN and place names)."""
    if "/" in name:
        raise CompositionError(f"{kind} name must be '/'-free: {name!r}")
    for child in children:
        if not child.name:
            raise CompositionError(
                f"{kind} {name!r}: child names must be non-empty "
                "(only the root may be unnamed)"
            )


class LeafNode(Node):
    """A leaf of the composition tree holding one SAN template."""

    def __init__(self, san: SAN) -> None:
        san.validate()
        self.san = san
        self.name = san.name

    def _template(self) -> _Template:
        names = tuple(self.san.places)
        acts = tuple(self.san.activities.values())
        initial = [p.initial for p in self.san.places.values()]

        def emit(pre: str, cmap: list[int], sink: _Sink) -> None:
            sink.add([pre + name for name in names], cmap, pre.count("/"))
            sink.leaves.append((pre, acts, dict(zip(names, cmap)), initial))

        return _Template(initial, {n: c for c, n in enumerate(names)}, False, emit)


class JoinNode(Node):
    """Composes children, unifying places that appear in ``shared``.

    Parameters
    ----------
    name:
        Node name (used in place paths): '/'-free, and empty only at the
        root of the tree.
    children:
        Sub-nodes; their names must be non-empty and unique within the
        join.
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
        _check_names("join", name, children)
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

    def _template(self) -> _Template:
        kids = [child._template() for child in self.children]
        offsets, initial = [], []
        for t in kids:
            offsets.append(len(initial))
            initial += t.initial
        conflict = any(t.conflict for t in kids)
        parent: dict[int, int] = {}  # union-find over classes; roots absent

        def find(c: int) -> int:
            while c in parent:
                c = parent[c]
            return c

        def owners(n: str) -> list[int]:
            return [o + t.exports[n] for o, t in zip(offsets, kids) if n in t.exports]

        exports, aliases = {}, []
        for sname in self.shared:
            ids = owners(sname)
            if not ids:
                raise CompositionError(
                    f"join {self.name!r}: shared place {sname!r} is not "
                    "exported by any child"
                )
            for other in ids[1:]:
                lo, hi = sorted((find(ids[0]), find(other)))
                if lo != hi:  # the lower class keeps its place order
                    parent[hi] = lo
                    conflict = conflict or initial[lo] != initial[hi]
            aliases.append((sname, ids[0]))
            exports[sname] = ids[0]
        for ename in self.extra_exports:
            ids = owners(ename)
            if len(ids) != 1:
                raise CompositionError(
                    f"join {self.name!r}: export {ename!r} must be provided by "
                    f"exactly one child, found {len(ids)}"
                )
            if ename in exports:
                raise CompositionError(
                    f"join {self.name!r}: {ename!r} is both shared and exported"
                )
            exports[ename] = ids[0]

        # Drop the merged classes; a child that lost none owns a slice.
        gone = sorted(parent)
        for c in reversed(gone):
            del initial[c]

        def slot(c: int) -> int:
            c = find(c)
            return c - bisect_left(gone, c)

        parts = []
        for child, t, lo in zip(self.children, kids, offsets):
            hi, skip = lo + len(t.initial), bisect_left(gone, lo)
            m = slice(lo - skip, hi - skip)
            if skip < bisect_left(gone, hi):  # the child lost a class
                m = [slot(c) for c in range(lo, hi)]
            parts.append((child.name, t.emit, m))
        aliases = [(name, slot(c)) for name, c in aliases]

        def emit(pre: str, cmap: list[int], sink: _Sink) -> None:
            for name, child_emit, m in parts:
                sub = cmap[m] if type(m) is slice else [cmap[c] for c in m]
                child_emit(f"{pre}{name}/" if pre or name else "", sub, sink)
            sink.aliases(pre, aliases, cmap)

        exports = {n: slot(c) for n, c in exports.items()}
        return _Template(initial, exports, conflict, emit)


class ReplicateNode(Node):
    """Instantiates ``n`` copies of a subtree, sharing the listed places.

    Copies are addressed ``<name>/<child.name>[i]`` in place paths, so
    ``name`` must be '/'-free (empty only at the root) and the child's
    name non-empty.
    """

    def __init__(self, name: str, child: Node, n: int, shared: Iterable[str] = ()) -> None:
        if n < 1:
            raise CompositionError(f"replicate {name!r}: n must be >= 1, got {n}")
        _check_names("replicate", name, [child])
        self.name = name
        self.child = child
        self.n = int(n)
        self.shared = tuple(shared)

    def _template(self) -> _Template:
        t = self.child._template()
        aliases = []
        for sname in self.shared:
            if sname not in t.exports:
                raise CompositionError(
                    f"replicate {self.name!r}: shared place {sname!r} is not "
                    f"exported by replica(s) {list(range(self.n))[:3]}"
                )
            aliases.append((sname, t.exports[sname]))
        # Copy 0 owns classes 0..size-1; copy i >= 1 reuses its shared ones
        # and owns the `step` slots from size + (i-1)*step, in class order.
        shared = sorted({c for _, c in aliases})
        rest = [m for c, m in enumerate(t.initial) if c not in shared]
        size, step, child_emit = len(t.initial), len(rest), t.emit
        labels = [f"{self.child.name}[{i}]/" for i in range(self.n)]

        def emit(pre: str, cmap: list[int], sink: _Sink) -> None:
            child_emit(pre + labels[0], cmap[:size], sink)
            for i, label in enumerate(labels[1:]):
                sub = cmap[size + i * step : size + (i + 1) * step]
                for c in shared:
                    sub.insert(c, cmap[c])
                child_emit(pre + label, sub, sink)
            sink.aliases(pre, aliases, cmap)

        initial = t.initial + rest * (self.n - 1)
        return _Template(initial, dict(aliases), t.conflict, emit)


class RenameNode(Node):
    """Re-exports a child's places ``old -> new``; it takes the child's
    name and adds no path level, so no path changes."""

    def __init__(self, child: Node, mapping: Mapping[str, str]) -> None:
        self.child, self.name, self.mapping = child, child.name, dict(mapping)

    def _template(self) -> _Template:
        t = self.child._template()
        exports = dict(t.exports)
        for old, new in self.mapping.items():
            if old not in t.exports:
                raise CompositionError(
                    f"rename source {old!r} not exported by {self.child.name!r}"
                )
            exports[new] = exports.pop(old)
        return t._replace(exports=exports)


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


def rename(child: SAN | Node, mapping: Mapping[str, str]) -> RenameNode:
    """Re-export ``child``'s places ``old -> new`` per ``mapping``."""
    return RenameNode(_as_node(child), mapping)


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
        Local place name → global marking slot for this instance.  All
        activities of one leaf instance share this dict; it is read-only.
    ident:
        Dense activity id assigned by the flattener.
    """

    path: str
    definition: ActivityDef
    index: dict[str, int]
    ident: int = -1


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
            slots: dict[int, str] = {}
            for slot in filter_matching(pattern, self.paths.items()):
                slots.setdefault(slot, self.canonical[slot])
            hits = {cpath: slot for slot, cpath in sorted(slots.items())}
            self._matches[pattern] = hits
        return dict(hits)

    def activities_matching(self, pattern: str) -> list[FlatActivity]:
        """Glob-match activity paths."""
        return list(
            filter_matching(pattern, ((a.path, a) for a in self.activities))
        )

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
    template = root_node._template()
    initial, sink = template.initial, _Sink()
    root_pre = f"{root_node.name}/" if root_node.name else ""  # unnamed: none
    template.emit(root_pre, list(range(len(initial))), sink)
    if template.conflict:  # name the first place, in place order, that differs
        first: dict[int, str] = {}
        for pre, _, index, inits in sink.leaves:
            for (name, slot), init in zip(index.items(), inits):
                first.setdefault(slot, pre + name)
                if init != initial[slot]:
                    raise CompositionError(
                        f"shared place has conflicting initial markings: "
                        f"{pre + name!r}={init} vs {first[slot]!r}={initial[slot]}"
                    )
    paths = dict(zip(sink.paths, sink.slots))
    if len(paths) < len(sink.paths):
        seen: dict[str, int] = {}
        for path, slot in zip(sink.paths, sink.slots):
            if seen.setdefault(path, slot) != slot:
                raise CompositionError(f"place path collision: {path!r}")
    # The canonical name is the shallowest alias, the first seen among equals.
    names: dict[int, str] = {}
    for _, (aliases, slots) in sorted(sink.by_depth.items(), reverse=True):
        names.update(zip(reversed(slots), reversed(aliases)))
    canonical = [names[slot] for slot in range(len(initial))]
    # All activities of one leaf instance share its (read-only) index.
    activities = [
        FlatActivity(pre + act.name, act, index)
        for pre, acts, index, _ in sink.leaves
        for act in acts
    ]
    if len({a.path for a in activities}) != len(activities):  # pragma: no cover
        raise CompositionError("duplicate activity paths after flattening")

    return FlatModel(root_node.name, initial, paths, canonical, activities)
