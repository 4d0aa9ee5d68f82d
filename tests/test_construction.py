"""Model construction: memoized place globs, template-level compile plans,
the cyclic-GC pause around flatten and the first compile, and the freeze
of each finished build in pool workers."""

from __future__ import annotations

import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SAN,
    Case,
    CompiledProgram,
    CompositionError,
    Deterministic,
    Exponential,
    SimulationError,
    Simulator,
    flatten,
    join,
    replicate,
)
from repro.core import composition
from repro.core.composition import FlatModel
from repro.core.distributions import Distribution
from repro.core.patterns import path_match


# ----------------------------------------------------------------------
# FlatModel.match: memoized, tail-filtered == brute-force scan
# ----------------------------------------------------------------------
_names = st.sampled_from(["a", "b", "ab", "up", "tier", "disk", "x_y", "a.b"])
_segment = st.one_of(
    _names,
    st.builds(lambda n, i: f"{n}[{i}]", _names, st.integers(0, 12)),
)
_path = st.lists(_segment, min_size=1, max_size=4).map("/".join)
_PATTERN_KINDS = (
    "leading", "middle", "trailing", "question", "none", "empty_tail", "random"
)


def _star_at(path: str, at: str, draw) -> str:
    """Replace a slice of ``path`` with ``*`` at its start, middle or end."""
    if at == "leading":
        return "*" + path[draw(st.integers(0, len(path))) :]
    if at == "trailing":
        return path[: draw(st.integers(0, len(path)))] + "*"
    i = draw(st.integers(0, len(path)))
    j = draw(st.integers(i, len(path)))
    return path[:i] + "*" + path[j:]


@st.composite
def _pattern(draw, paths):
    base = draw(st.sampled_from(paths))
    kind = draw(st.sampled_from(_PATTERN_KINDS))
    if kind in ("leading", "middle", "trailing"):
        return _star_at(base, kind, draw)
    if kind == "question":
        i = draw(st.integers(0, len(base) - 1))
        return base[:i] + "?" + base[i + 1 :]
    if kind == "none":
        return base
    if kind == "empty_tail":
        head = base[: draw(st.integers(0, len(base)))]
        return head + draw(st.sampled_from(["*", "?"]))
    return draw(st.text(alphabet="ab*?[]/1", min_size=0, max_size=8))


@st.composite
def _model_and_patterns(draw):
    paths = draw(st.lists(_path, min_size=1, max_size=25, unique=True))
    n_slots = draw(st.integers(1, len(paths)))
    # Aliases: several paths may share one slot; every slot has a path.
    slot_of = list(range(n_slots)) + [
        draw(st.integers(0, n_slots - 1)) for _ in paths[n_slots:]
    ]
    mapping = dict(zip(paths, slot_of))
    canonical = [None] * n_slots
    for path, slot in mapping.items():
        if canonical[slot] is None or draw(st.booleans()):
            canonical[slot] = path
    model = FlatModel("m", [0] * n_slots, mapping, canonical, [])
    patterns = draw(st.lists(_pattern(paths), min_size=1, max_size=6))
    return model, patterns


def _brute_force_match(model: FlatModel, pattern: str) -> list[tuple[str, int]]:
    hits: dict[int, str] = {}
    for path, slot in model.paths.items():
        if path_match(path, pattern):
            hits.setdefault(slot, model.canonical[slot])
    return [(cpath, slot) for slot, cpath in sorted(hits.items())]


@given(_model_and_patterns())
@settings(max_examples=300, deadline=None)
def test_match_equals_brute_force_scan(case):
    model, patterns = case
    for pattern in patterns:
        expected = _brute_force_match(model, pattern)
        assert list(model.match(pattern).items()) == expected
        # Second call is served from the memo: same answer, same order.
        assert list(model.match(pattern).items()) == expected


def test_match_returns_a_fresh_dict_each_call():
    san = SAN("unit")
    san.place("up", 1)
    san.place("total", 0)
    san.timed("fail", Exponential(1.0), enabled=lambda m: m["up"] == 1)
    model = flatten(replicate("fleet", san, 3, shared=["total"]))
    first = model.match("*/up")
    expected = dict(first)
    first.clear()
    first["bogus"] = 99
    assert model.match("*/up") == expected
    second = model.match("*/up")
    second["fleet/unit[0]/up"] = -1
    assert model.match("*/up") == expected
    assert model.match("*/up") is not model.match("*/up")


# ----------------------------------------------------------------------
# template-level compile plans
# ----------------------------------------------------------------------
def _fleet(n: int = 3):
    unit = SAN("unit")
    unit.place("up", 1)
    unit.place("spare", 1)
    unit.place("down", 0)
    unit.timed(
        "fail",
        Exponential(0.5),
        enabled=lambda m: m["up"] == 1,
        writes=[("up", "set", 0), ("down", "add", 1)],
        reads=["up"],
    )
    unit.timed(
        "repair",
        Deterministic(2.0),
        enabled=lambda m: m["up"] == 0,
        cases=[
            Case(0.25, writes=()),
            Case(0.75, writes=[("up", "set", 1), ("down", "add", -1)]),
        ],
    )
    return flatten(replicate("fleet", unit, n, shared=["down"]))


def test_instances_share_the_template_plan_and_bind_their_own_slots():
    model = _fleet()
    c = CompiledProgram(model).tables()
    fails = [a.ident for a in model.activities if a.path.endswith("/fail")]
    repairs = [a.ident for a in model.activities if a.path.endswith("/repair")]
    down = model.paths["fleet/down"]
    for group in (fails, repairs):
        first = group[0]
        for aid in group[1:]:
            assert c.preds[aid] is c.preds[first]
            assert c.og_fns[aid] is c.og_fns[first]
            assert c.samplers[aid] is c.samplers[first]
    # Same write plan, instance slots: each fail kernel sets its own up
    # place and adds to the one shared counter.
    for i, aid in enumerate(fails):
        up = model.paths[f"fleet/unit[{i}]/up"]
        assert [(s, add, v) for s, add, v, _dl in c.kernels[aid]] == [
            (up, False, 0),
            (down, True, 1),
        ]
    for i, aid in enumerate(repairs):
        up = model.paths[f"fleet/unit[{i}]/up"]
        bounds, guard, branch_ops = c.case_kern[aid]
        assert bounds == (0.25, 1.0) and guard is None
        assert [[s for s, *_ in ops] for ops in branch_ops] == [[], [up, down]]
        assert c.case_tab[aid] is c.case_tab[repairs[0]]


def test_checked_sampler_names_its_own_instance():
    class Negative(Distribution):
        def sample(self, rng):
            return -1.0

        def mean(self):
            return 1.0

    unit = SAN("unit")
    unit.place("up", 1)
    unit.timed("fail", Negative(), enabled=lambda m: m["up"] == 1)
    model = flatten(replicate("fleet", unit, 3))
    c = CompiledProgram(model).tables()
    rng = np.random.default_rng(0)
    for act in model.activities:
        assert c.samp_kind[act.ident] == "scalar"
        with pytest.raises(SimulationError, match=re.escape(repr(act.path))):
            c.samplers[act.ident](rng)


def _one_template_fleet(**kwargs):
    unit = SAN("unit")
    unit.place("up", 1)
    unit.timed("fail", Exponential(1.0), enabled=lambda m: m["up"] == 1, **kwargs)
    return flatten(replicate("fleet", unit, 2))


def test_template_errors_name_the_first_instance():
    model = _one_template_fleet(writes=[("nope", "set", 0)])
    with pytest.raises(
        SimulationError, match=r"'fleet/unit\[0\]/fail': declared write 'nope'"
    ):
        CompiledProgram(model).tables()


def test_instance_errors_keep_the_per_instance_order():
    """A missing declared read is reported before a missing declared
    write, exactly as the unplanned compile checked them."""
    model = _one_template_fleet(reads=["gone"], writes=[("nope", "set", 0)])
    with pytest.raises(
        SimulationError, match=r"'fleet/unit\[0\]/fail': declared read 'gone'"
    ):
        CompiledProgram(model).tables()


# ----------------------------------------------------------------------
# cyclic GC paused during flatten and the first compile
# ----------------------------------------------------------------------
@pytest.fixture
def gc_state():
    """Restore the interpreter's GC state whatever a test does to it."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:  # pragma: no cover - the suite runs with GC on
        gc.disable()


def _probe_san(seen: list[bool]) -> SAN:
    san = SAN("probe")
    san.place("up", 1)

    def enabled(m):
        seen.append(gc.isenabled())
        return m["up"] == 1

    san.timed("fail", Exponential(1.0), enabled=enabled)
    return san


def _bad_write_model():
    san = SAN("bad")
    san.place("up", 1)
    san.timed(
        "fail",
        Exponential(1.0),
        enabled=lambda m: m["up"] == 1,
        writes=[("missing", "set", 0)],
    )
    return flatten(san)


def _conflicting_tree():
    a = SAN("a")
    a.place("shared", 1)
    a.timed("t", Exponential(1.0), enabled=lambda m: True)
    b = SAN("b")
    b.place("shared", 2)
    b.timed("t", Exponential(1.0), enabled=lambda m: True)
    return join("top", a, b, shared=["shared"])


@pytest.mark.parametrize("enabled", [True, False])
def test_flatten_and_compile_restore_the_callers_gc_state(gc_state, enabled):
    seen: list[bool] = []
    gc.enable() if enabled else gc.disable()
    model = flatten(_probe_san(seen))
    assert gc.isenabled() is enabled
    program = CompiledProgram(model)
    program.tables()
    assert gc.isenabled() is enabled
    # The initial predicate evaluation runs inside the compile.
    assert seen == [False]
    program.tables()  # cached: no compile, no GC toggling
    assert gc.isenabled() is enabled and seen == [False]


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_restored_when_construction_raises(gc_state, enabled):
    gc.enable() if enabled else gc.disable()
    with pytest.raises(CompositionError, match="conflicting initial"):
        flatten(_conflicting_tree())
    assert gc.isenabled() is enabled
    model = _bad_write_model()
    with pytest.raises(SimulationError, match="declared write 'missing'"):
        CompiledProgram(model).tables()
    assert gc.isenabled() is enabled


# ----------------------------------------------------------------------
# pool workers freeze each finished build; nothing else does
# ----------------------------------------------------------------------
def _freeze_probe_cell(n: int) -> tuple[tuple, int]:
    """Sweep cell: build and run a small fleet; report the run and this
    process's freeze count."""
    result = Simulator(_fleet(n), base_seed=n).run(20.0)
    return (result.n_events, result.final_time), gc.get_freeze_count()


@pytest.fixture
def freezing(monkeypatch, gc_state):
    """This process freezes its builds, as a pool worker does."""
    monkeypatch.setattr(composition, "_FREEZE_BUILDS", True)
    gc.enable()
    yield
    gc.unfreeze()


def _walked(obj) -> bool:
    """Whether the collector's generations still hold ``obj`` (a frozen
    object is in none of them).  Identity, not a freeze count: another
    thread may free frozen objects at any time."""
    return any(o is obj for o in gc.get_objects())


class _Cyclic:
    pass


class TestFreezeScope:
    def test_builds_outside_pool_workers_do_not_freeze(self, gc_state):
        gc.enable()
        before = gc.get_freeze_count()
        program = CompiledProgram(_fleet())
        program.tables()
        result = Simulator(program, base_seed=1).run(20.0)
        assert result.n_events > 0
        assert gc.get_freeze_count() == before

    def test_pool_workers_freeze_their_builds(self):
        from repro.experiments import SweepCell, run_sweep

        here = gc.get_freeze_count()
        cells = [SweepCell(n, _freeze_probe_cell, (n,)) for n in (2, 3)]
        pooled = run_sweep(cells, n_jobs=2)
        serial = run_sweep(cells, n_jobs=1)
        assert all(frozen > here for _run, frozen in pooled.values())
        assert all(frozen == here for _run, frozen in serial.values())
        assert [r for r, _ in pooled.values()] == [r for r, _ in serial.values()]

    def test_a_successful_build_freezes(self, freezing):
        model = flatten(_probe_san([]))
        assert gc.isenabled() and not _walked(model)
        program = CompiledProgram(model)
        assert _walked(program)
        tables = program.tables()
        assert gc.isenabled() and not _walked(program) and not _walked(tables)

    def test_a_build_that_raises_does_not_freeze(self, freezing):
        model = _bad_write_model()
        tree = _conflicting_tree()
        with pytest.raises(CompositionError, match="conflicting initial"):
            flatten(tree)
        assert gc.isenabled() and _walked(tree)
        program = CompiledProgram(model)
        with pytest.raises(SimulationError, match="declared write 'missing'"):
            program.tables()
        assert gc.isenabled() and _walked(program)

    def test_a_caller_with_gc_off_gets_no_freeze(self, freezing):
        gc.disable()
        program = CompiledProgram(flatten(_probe_san([])))
        program.tables()
        assert not gc.isenabled()
        assert _walked(program) and _walked(program.model)

    def test_a_cycle_dropped_before_a_build_is_still_collected(self, freezing):
        """The young collection before the pause frees fresh cyclic
        garbage instead of freezing it for good."""
        gc.disable()  # no collection may move the cycle out of generation 0
        cycle = _Cyclic()
        cycle.self = cycle
        ref = weakref.ref(cycle)
        del cycle
        gc.enable()
        CompiledProgram(flatten(_probe_san([]))).tables()
        assert gc.isenabled()
        gc.collect()
        assert ref() is None


# ----------------------------------------------------------------------
# the freeze's premise: a dropped shipped model needs no collector
# ----------------------------------------------------------------------
def _shipped_spec(name: str):
    from repro.cfs.cluster import ClusterModel, StorageModel
    from repro.cfs.parameters import abe_parameters, petascale_parameters
    from repro.experiments import tier_replication_spec

    specs = {
        "abe": lambda: ClusterModel.spec(abe_parameters(), 1),
        "petascale": lambda: ClusterModel.spec(petascale_parameters(), 1),
        "petascale-spare": lambda: ClusterModel.spec(
            petascale_parameters().with_spare_oss(1), 1
        ),
        "abe-storage": lambda: StorageModel.spec(abe_parameters(), 1),
        "petascale-storage": lambda: StorageModel.spec(petascale_parameters(), 1),
        "deep-tail-tier": lambda: tier_replication_spec(480, 6, 1e-5, 0.02, 1),
    }
    return specs[name]()


class TestFreezePremise:
    @pytest.mark.parametrize(
        "name",
        ["abe", "petascale", "petascale-spare", "abe-storage",
         "petascale-storage", "deep-tail-tier"],
    )
    def test_a_dropped_shipped_model_is_freed_by_reference_counting(
        self, name, gc_state
    ):
        """Pool workers freeze every build, so a reference cycle in a
        shipped model would leak the whole model in each worker."""
        setup = _shipped_spec(name).build()
        sim = setup.simulator
        sim.program.tables()
        traces = setup.traces_factory() if setup.traces_factory else ()
        result = sim.run(500.0, rewards=setup.rewards, traces=traces)
        assert result.n_events > 0
        refs = [weakref.ref(o) for o in (sim, sim.program, sim.program.model)]
        gc.disable()
        del setup, sim, traces, result
        assert [r() is None for r in refs] == [True, True, True]
