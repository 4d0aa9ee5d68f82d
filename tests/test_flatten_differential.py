"""Flatten differential: the template flattener against the recursive oracle.

``tests/_reference_flatten.py`` keeps the union-find flattener that built
every replica place by place.  Every :class:`FlatModel` field must agree:
name, initial marking, ``paths`` (insertion order included), canonical
names, and each activity's path, definition, index items and ident.
Invalid trees must raise the same error type with the same message.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core
from repro.cfs.cluster import build_cluster_node
from repro.cfs.components import build_storage_node
from repro.cfs.parameters import abe_parameters, petascale_parameters
from repro.cfs.scaling import scale_step
from repro.core import (
    SAN,
    CompositionError,
    Exponential,
    flatten,
    join,
    leaf,
    rename,
    replicate,
)
from repro.core.composition import _gc_paused
from repro.experiments.figure2 import DEFAULT_CONFIGS

from _reference_flatten import reference_flatten


@_gc_paused()  # the models hold ~10^5 objects; full collections dominate
def model_fields(model):
    acts = model.activities
    return (
        model.name,
        model.initial,
        list(model.paths.items()),
        model.canonical,
        [(a.path, a.ident, tuple(a.index.items())) for a in acts],
        [id(a.definition) for a in acts],
    )


def outcome(flattener, tree):
    try:
        model = flattener(tree)
    except CompositionError as exc:
        return ("error", type(exc), str(exc))
    return ("ok", model_fields(model))


def assert_same(tree, patterns=("*",)):
    new, ref = flatten(tree), reference_flatten(tree)
    assert model_fields(new) == model_fields(ref)
    for pattern in patterns:
        assert new.match(pattern) == ref.match(pattern)


# ----------------------------------------------------------------------
# every shipped model
# ----------------------------------------------------------------------
SHIPPED = {
    "abe": lambda: build_cluster_node(abe_parameters()),
    "petascale": lambda: build_cluster_node(petascale_parameters()),
    "petascale-spare": lambda: build_cluster_node(
        petascale_parameters().with_spare_oss(1)
    ),
    "abe-storage": lambda: build_storage_node(abe_parameters()),
    "petascale-storage": lambda: build_storage_node(petascale_parameters()),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_models(name):
    assert_same(SHIPPED[name](), ("*/tiers_down", "*/ddn[*]/*", "*pairs_down"))


def test_deep_tail_tier(monkeypatch):
    """The deep-tail workload's aggregate tier (flattened inside the helper)."""
    from repro.experiments.rare import aggregate_tier_san

    roots = []

    def capture(root):
        roots.append(root)
        return flatten(root)

    monkeypatch.setattr(repro.core, "flatten", capture)
    model = aggregate_tier_san(480, 6, 1e-5, 0.02)
    assert model_fields(model) == model_fields(reference_flatten(roots[0]))


# ----------------------------------------------------------------------
# one paper-report cell per distinct structure (14)
# ----------------------------------------------------------------------
def _paper_report_structures():
    """The reduced ``repro all`` grid's 42 replication cells build 14
    structures.  Figures 2 and 3 (36 storage cells) build one per scale
    step for the (8+2) tiers and one per step for the (8+3) tiers; the 6
    Figure 4 cluster cells (3 steps, with and without a spare OSS) are
    all distinct."""
    base = abe_parameters()
    out = {}
    for ci in (0, 3):  # DEFAULT_CONFIGS[0] is (8+2), [3] is (8+3)
        for k in range(1, 5):
            params = DEFAULT_CONFIGS[ci].apply(scale_step(k, 4, base))
            out[f"storage-{DEFAULT_CONFIGS[ci].raid.label}-step{k}"] = (
                build_storage_node,
                params,
            )
    for k in range(1, 4):
        params = scale_step(k, 3, base)
        out[f"cluster-step{k}"] = (build_cluster_node, params)
        out[f"cluster-step{k}-spare"] = (build_cluster_node, params.with_spare_oss(1))
    return out


PAPER_REPORT = _paper_report_structures()


@pytest.mark.parametrize("key", sorted(PAPER_REPORT))
def test_paper_report_structure(key):
    build, params = PAPER_REPORT[key]
    assert_same(build(params), ("*/disks_replaced", "*/tier[*]/tier_down"))


# ----------------------------------------------------------------------
# random trees
# ----------------------------------------------------------------------
NAMES = ("a", "b", "c")
INITIAL = {"a": 0, "b": 1, "c": 2}
RENAME_TO = ("a", "b", "c", "x/y", "d")


def _always(m):
    return True


def _some(names, **kwargs):
    """Lists drawn from ``names`` (always empty when there are none)."""
    return st.lists(st.sampled_from(names), **kwargs) if names else st.just([])


def _leaf_san(label, names):
    san = SAN(label)
    for name in names:
        san.place(name, INITIAL[name])
    san.timed("t", Exponential(1.0), enabled=_always)
    san.instant("u", enabled=_always, priority=1)
    return san


def _build(make, *kids):
    """``make(*kids)``, or the :class:`CompositionError` that building a
    kid or this node raised."""
    for kid in kids:
        if isinstance(kid, CompositionError):
            return kid
    try:
        return make(*kids)
    except CompositionError as exc:
        return exc


@st.composite
def subtrees(draw, label, depth):
    """A random tree (or the error building it raised), the names it
    exports, and whether it holds a node name the naming rules reject.

    Node names are unique among siblings.  Join and replicate names may
    be empty or contain ``/``: a ``/`` name, or an empty name below the
    root, must raise at construction.  Renames may export names with
    ``/``, so aliases can collide and shared classes can meet different
    initial markings: such trees must fail alike on both flatteners.
    """
    kinds = ["leaf"] if depth == 0 else ["leaf", "join", "join", "replicate", "rename"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        names = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
        return leaf(_leaf_san(label, names)), names, False
    if kind == "rename":
        child, exported, bad = draw(subtrees(label, depth - 1))
        olds = draw(_some(exported, unique=True, max_size=2))
        mapping = {old: draw(st.sampled_from(RENAME_TO)) for old in olds}
        out = dict.fromkeys(exported)
        for old, new in mapping.items():
            out.pop(old, None)
            out[new] = None
        return _build(lambda c: rename(c, mapping), child), list(out), bad
    name = draw(st.sampled_from([label] * 6 + [label + "/v", ""]))
    if kind == "replicate":
        child, exported, bad = draw(subtrees(label + "r", depth - 1))
        shared = draw(_some(exported, max_size=3))
        n = draw(st.integers(1, 3))
        bad = bad or "/" in name or _unnamed(child)
        node = _build(lambda c: replicate(name, c, n, shared=shared), child)
        return node, list(dict.fromkeys(shared)), bad
    kids = [
        draw(subtrees(f"{label}{i}", depth - 1))
        for i in range(draw(st.integers(1, 3)))
    ]
    everything = [n for _, exported, _ in kids for n in exported]
    shared = draw(_some(sorted(set(everything)), max_size=4))
    singles = sorted(
        n for n in set(everything) if everything.count(n) == 1 and n not in shared
    )
    exports = draw(_some(singles, unique=True, max_size=2))
    bad = "/" in name or any(b or _unnamed(k) for k, _, b in kids)
    node = _build(
        lambda *ks: join(name, *ks, shared=shared, exports=exports),
        *[k for k, _, _ in kids],
    )
    return node, list(dict.fromkeys(shared + exports)), bad


def _unnamed(node):
    return not isinstance(node, CompositionError) and not node.name


# About a quarter of the drawn trees break a naming rule; 200 examples
# still compare ~150 valid trees on both flatteners.
@given(subtrees("r", 3))
@settings(max_examples=200, deadline=None)
def test_random_trees(tree_and_exports):
    tree, _, bad = tree_and_exports
    if bad:
        assert isinstance(tree, CompositionError)
        assert "name must be '/'-free" in str(tree) or (
            "child names must be non-empty" in str(tree)
        )
    else:
        assert not isinstance(tree, CompositionError)
        assert outcome(flatten, tree) == outcome(reference_flatten, tree)


# ----------------------------------------------------------------------
# hand-built corners
# ----------------------------------------------------------------------
def _san(name, **places):
    san = SAN(name)
    for place, initial in places.items():
        san.place(place, initial)
    san.timed("t", Exponential(1.0), enabled=_always)
    return san


def test_duplicate_shared_names_merge_one_class():
    tree = join("j", _san("p", x=0, y=1), _san("q", x=0), shared=["x", "x"])
    assert_same(tree)
    assert len(flatten(tree).match("*x")) == 1


def test_shallower_later_alias_becomes_canonical():
    inner = replicate("deep", _san("d", x=0), 3, shared=["x"])
    tree = join("top", join("mid", inner, shared=["x"]), _san("s", x=0), shared=["x"])
    assert_same(tree)
    model = flatten(tree)
    assert model.canonical[model.place_index("top/s/x")] == "top/x"


def test_slash_names_and_n1_replicas():
    child = rename(_san("c", a=0, b=1), {"a": "p/q"})
    with pytest.raises(CompositionError, match="join name must be '/'-free"):
        join("j/k", child, shared=["p/q"])
    inner = join("j", child, shared=["p/q"])
    with pytest.raises(CompositionError, match="replicate name must be '/'-free"):
        replicate("r/s", inner, 1, shared=["p/q"])
    tree = replicate("r", inner, 1, shared=["p/q"])
    assert_same(tree)
    assert "r/p/q" in flatten(tree).paths  # a renamed alias may hold '/'


def test_node_names_checked_at_construction():
    c = _san("c", p=0)
    # Once flattened, the two subtrees would both own top/a/b/c/p.
    with pytest.raises(CompositionError, match="'a/b'"):
        join("top", join("a/b", c), join("a", join("b", c)))
    # An empty name below the root would drop its path level.
    for make in (lambda k: join("top", k), lambda k: replicate("top", k, 2)):
        with pytest.raises(CompositionError, match="child names must be non-empty"):
            make(join("", c))
    assert list(flatten(join("", c)).paths) == ["c/p"]  # the root may be unnamed


DEFECTS = {
    "missing join shared place": lambda: join("j", _san("a", x=0), shared=["nope"]),
    "missing replicate shared place": lambda: replicate(
        "r", _san("a", x=0), 4, shared=["nope"]
    ),
    "missing export": lambda: join("j", _san("a", x=0), exports=["nope"]),
    "two export owners": lambda: join(
        "j", _san("a", x=0), _san("b", x=0), exports=["x"]
    ),
    "shared and exported": lambda: join(
        "j", _san("a", x=0), _san("b", y=0), shared=["x"], exports=["x"]
    ),
    "conflicting initials": lambda: join(
        "j",
        replicate("r", _san("a", x=1, y=0), 2, shared=["x"]),
        _san("b", x=2),
        shared=["x"],
    ),
    "missing rename source": lambda: join(
        "j", rename(_san("a", x=0), {"nope": "y"})
    ),
    "path collision": lambda: join(
        "j", _san("a", p=0), rename(_san("b", q=0), {"q": "a/p"}), shared=["a/p"]
    ),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_single_defect_trees_fail_alike(defect):
    tree = DEFECTS[defect]()
    new, ref = outcome(flatten, tree), outcome(reference_flatten, tree)
    assert new[0] == "error"
    assert new == ref
