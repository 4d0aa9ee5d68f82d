"""The recursive union-find flattener, kept as the flatten differential's oracle.

This is the flattener ``repro.core.composition`` used before its
template flattener: every replica is rebuilt place by place, sharing is a
union-find over places (the lower id stays representative), and slots are
numbered by representative at the end.  The algorithm is unchanged; only
its per-node ``_flatten_into`` methods became one function that dispatches
on the node kind, and the rename body that ``raid/ddn.py`` and
``cfs/components.py`` each carried lives here once.

``reference_flatten(root)`` returns a :class:`~repro.core.composition.FlatModel`
that the template flattener must reproduce field for field, and raises the
same :class:`~repro.core.errors.CompositionError` on invalid trees.
"""

from __future__ import annotations

from repro.core.composition import (
    FlatActivity,
    FlatModel,
    JoinNode,
    LeafNode,
    RenameNode,
    ReplicateNode,
    _as_node,
    _gc_paused,
)
from repro.core.errors import CompositionError
from repro.core.san import ActivityDef

__all__ = ["reference_flatten"]


def _join_path(prefix: str, name: str) -> str:
    return f"{prefix}/{name}" if prefix else name


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


def _flatten_into(node, ctx: _FlattenContext, prefix: str) -> dict[str, int]:
    if isinstance(node, LeafNode):
        return _leaf_into(node, ctx, prefix)
    if isinstance(node, JoinNode):
        return _join_into(node, ctx, prefix)
    if isinstance(node, ReplicateNode):
        return _replicate_into(node, ctx, prefix)
    if isinstance(node, RenameNode):
        return _rename_into(node, ctx, prefix)
    raise TypeError(f"unknown node kind {type(node).__name__}")


def _leaf_into(self: LeafNode, ctx: _FlattenContext, prefix: str) -> dict[str, int]:
    exports: dict[str, int] = {}
    for pname, place in self.san.places.items():
        pid = ctx.new_place(_join_path(prefix, pname), place.initial)
        exports[pname] = pid
    index = dict(exports)
    for act in self.san.activities.values():
        ctx.new_activity(_join_path(prefix, act.name), act, index)
    return exports


def _join_into(self: JoinNode, ctx: _FlattenContext, prefix: str) -> dict[str, int]:
    child_exports: list[tuple[str, dict[str, int]]] = []
    for child in self.children:
        exp = _flatten_into(child, ctx, _join_path(prefix, child.name))
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


def _replicate_into(
    self: ReplicateNode, ctx: _FlattenContext, prefix: str
) -> dict[str, int]:
    replica_exports: list[dict[str, int]] = []
    for i in range(self.n):
        rep_prefix = _join_path(prefix, f"{self.child.name}[{i}]")
        replica_exports.append(_flatten_into(self.child, ctx, rep_prefix))

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


def _rename_into(self: RenameNode, ctx: _FlattenContext, prefix: str) -> dict[str, int]:
    exports = _flatten_into(self.child, ctx, prefix)
    out = dict(exports)
    for old, new in self.mapping.items():
        if old not in exports:
            raise CompositionError(
                f"rename source {old!r} not exported by {self.child.name!r}"
            )
        out[new] = out.pop(old)
    return out


@_gc_paused()
def reference_flatten(root) -> FlatModel:
    """Compile a composition tree (or bare SAN) into a :class:`FlatModel`."""
    root_node = _as_node(root)
    ctx = _FlattenContext()
    _flatten_into(root_node, ctx, root_node.name)

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
