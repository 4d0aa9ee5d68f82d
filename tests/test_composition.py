"""Replicate/join composition and flattening semantics."""

from __future__ import annotations

import pytest

from repro.core import (
    SAN,
    CompositionError,
    Exponential,
    LeafNode,
    flatten,
    join,
    leaf,
    rename,
    replicate,
)


def make_counter_san(name: str = "unit", shared_name: str = "total") -> SAN:
    san = SAN(name)
    san.place("local", 1)
    san.place(shared_name, 0)

    def tick(m, rng):
        m[shared_name] += 1

    san.timed("tick", Exponential(1.0), enabled=lambda m: m["local"] == 1, effect=tick)
    return san


class TestFlattenLeaf:
    def test_paths_and_initials(self):
        model = flatten(make_counter_san())
        assert model.place_index("unit/local") == 0 or model.place_index("unit/local") == 1
        assert model.n_places == 2
        assert sorted(model.paths) == ["unit/local", "unit/total"]

    def test_activity_paths(self):
        model = flatten(make_counter_san())
        assert [a.path for a in model.activities] == ["unit/tick"]

    def test_initial_marking(self):
        model = flatten(make_counter_san())
        assert model.initial[model.place_index("unit/local")] == 1
        assert model.initial[model.place_index("unit/total")] == 0


class TestJoin:
    def test_sharing_unifies_slots(self):
        a, b = make_counter_san("a"), make_counter_san("b")
        model = flatten(join("sys", a, b, shared=["total"]))
        assert model.place_index("sys/a/total") == model.place_index("sys/b/total")
        assert model.place_index("sys/total") == model.place_index("sys/a/total")
        # 2 locals + 1 shared total
        assert model.n_places == 3

    def test_without_sharing_slots_distinct(self):
        a, b = make_counter_san("a"), make_counter_san("b")
        model = flatten(join("sys", a, b))
        assert model.place_index("sys/a/total") != model.place_index("sys/b/total")

    def test_duplicate_child_names_rejected(self):
        a, b = make_counter_san("same"), make_counter_san("same")
        with pytest.raises(CompositionError, match="duplicate child names"):
            join("sys", a, b)

    def test_shared_name_missing_everywhere(self):
        a = make_counter_san("a")
        with pytest.raises(CompositionError, match="not\\s+exported by any child"):
            flatten(join("sys", a, shared=["nope"]))

    def test_conflicting_initials_rejected(self):
        a = SAN("a")
        a.place("x", 1)
        a.timed("t", Exponential(1.0), enabled=lambda m: True)
        b = SAN("b")
        b.place("x", 2)
        b.timed("t", Exponential(1.0), enabled=lambda m: True)
        with pytest.raises(CompositionError, match="conflicting initial"):
            flatten(join("sys", a, b, shared=["x"]))

    def test_extra_exports(self):
        a, b = make_counter_san("a"), make_counter_san("b")
        node = join("sys", a, b, shared=["total"], exports=[])
        flatten(node)  # fine
        # export must come from exactly one child; "local" exists in both
        with pytest.raises(CompositionError, match="exactly one child"):
            flatten(join("sys2", make_counter_san("a"), make_counter_san("b"), exports=["local"]))

    def test_empty_join_rejected(self):
        with pytest.raises(CompositionError):
            join("sys")


class TestReplicate:
    def test_replica_paths(self):
        model = flatten(replicate("fleet", make_counter_san(), 3, shared=["total"]))
        for i in range(3):
            assert f"fleet/unit[{i}]/local" in model.paths
        assert model.place_index("fleet/total") == model.place_index(
            "fleet/unit[0]/total"
        )
        assert model.n_places == 4  # 3 locals + shared total

    def test_replicate_requires_n_ge_1(self):
        with pytest.raises(CompositionError):
            replicate("fleet", make_counter_san(), 0)

    def test_shared_missing_in_child(self):
        with pytest.raises(CompositionError, match="not\\s+exported by replica"):
            flatten(replicate("fleet", make_counter_san(), 2, shared=["nope"]))

    def test_nested_two_level_sharing(self):
        # tiers of disks: inner shares within the tier, outer across tiers.
        inner = replicate("disks", make_counter_san("disk"), 4, shared=["total"])
        outer = replicate("tiers", inner, 3, shared=["total"])
        # replicate of replicate needs a named child: wrap in join
        model = flatten(outer)
        # one single global 'total'
        slots = {model.place_index(p) for p in model.paths if p.endswith("/total")}
        assert len(slots) == 1
        assert model.n_places == 12 + 1


class TestMatch:
    def test_glob_literal_brackets(self):
        model = flatten(replicate("fleet", make_counter_san(), 3, shared=["total"]))
        hits = model.match("fleet/unit[*]/local")
        assert len(hits) == 3

    def test_match_dedupes_shared(self):
        model = flatten(replicate("fleet", make_counter_san(), 3, shared=["total"]))
        hits = model.match("*total")
        assert len(hits) == 1

    def test_activities_matching(self):
        model = flatten(replicate("fleet", make_counter_san(), 3, shared=["total"]))
        assert len(model.activities_matching("*/tick")) == 3

    def test_unknown_path_error_mentions_candidates(self):
        model = flatten(make_counter_san())
        with pytest.raises(CompositionError, match="unknown place path"):
            model.place_index("unit/loca")


class TestCanonicalNames:
    def test_shallowest_alias_is_canonical(self):
        model = flatten(replicate("fleet", make_counter_san(), 2, shared=["total"]))
        slot = model.place_index("fleet/total")
        assert model.canonical[slot] == "fleet/total"

    def test_summary_counts(self):
        model = flatten(replicate("fleet", make_counter_san(), 2, shared=["total"]))
        text = model.summary()
        assert "2 timed" in text


class TestRename:
    def test_exports_renamed_paths_unchanged(self):
        a = make_counter_san("a")
        b = make_counter_san("b", shared_name="count")
        model = flatten(join("sys", a, rename(b, {"count": "total"}), shared=["total"]))
        slot = model.place_index("sys/total")
        assert model.place_index("sys/a/total") == slot
        assert model.place_index("sys/b/count") == slot
        assert "sys/b/total" not in model.paths

    def test_old_name_is_no_longer_exported(self):
        node = join("sys", rename(make_counter_san("a"), {"total": "t2"}), shared=["total"])
        with pytest.raises(CompositionError, match="not\\s+exported by any child"):
            flatten(node)

    def test_missing_source_rejected(self):
        node = join("sys", rename(make_counter_san("a"), {"nope": "x"}))
        with pytest.raises(
            CompositionError, match="rename source 'nope' not exported by 'a'"
        ):
            flatten(node)

    def test_takes_child_name_and_wraps_bare_san(self):
        node = rename(make_counter_san("a"), {"total": "t"})
        assert node.name == "a"
        assert isinstance(node.child, LeafNode)
        assert [a.path for a in flatten(node).activities] == ["a/tick"]

    def test_renamed_counter_shared_across_replicas(self):
        unit = rename(make_counter_san("unit"), {"total": "n"})
        model = flatten(replicate("fleet", unit, 3, shared=["n"]))
        assert model.n_places == 4
        assert model.canonical[model.place_index("fleet/unit[2]/total")] == "fleet/n"

    def test_new_name_may_contain_slash(self):
        node = join("sys", rename(make_counter_san("a"), {"total": "x/y"}), shared=["x/y"])
        model = flatten(node)
        assert model.place_index("sys/x/y") == model.place_index("sys/a/total")
        # "sys/x/y" has two '/', as many as "sys/a/total": the first seen wins.
        assert model.canonical[model.place_index("sys/x/y")] == "sys/a/total"


class TestActivityIndex:
    def test_one_leaf_instance_shares_one_index(self):
        san = make_counter_san()
        san.timed("tock", Exponential(2.0), enabled=lambda m: m["local"] == 1)
        model = flatten(replicate("fleet", san, 2, shared=["total"]))
        first = model.activities_matching("fleet/unit[0]/*")
        second = model.activities_matching("fleet/unit[1]/*")
        assert first[0].index is first[1].index
        assert first[0].index is not second[0].index
        assert first[0].index["total"] == second[0].index["total"]
