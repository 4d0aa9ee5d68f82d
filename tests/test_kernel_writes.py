"""Compiled gate-write kernels: declaration API, bit-identity.

``OutputGate(writes=[...])`` / ``SAN.timed(..., writes=[...])`` declares
an effect as a fixed sequence of slot ops, the effect's only definition:
the gate's function is built from the ops, and the compiled engine
applies them as precomputed deltas instead of calling it.  The contracts
pinned here:

* declared models follow **bit-identical** trajectories to the same
  models written with Python effect functions, in per-draw and batched
  mode, against both the specialized loops and the
  ``engine="reference"`` oracle (which never uses kernels);
* a function passed beside a declaration, and unknown places, are
  rejected when the model is built (or compiled);
* the declared ops enforce the same non-negative marking invariant as
  ``LocalView.__setitem__``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SAN,
    Case,
    Exponential,
    Indicator,
    LocalView,
    MarkingVector,
    ModelError,
    OutputGate,
    RateReward,
    SimulationError,
    Simulator,
    flatten,
    replicate,
)

pytestmark = pytest.mark.slow


def _pair_fleet(n_units, fail_rate, repair_rate, annotate):
    """Replicated fail/repair units over a shared counter, whose effects
    are declared writes (``annotate``) or the same Python functions."""
    san = SAN("unit")
    san.place("up", 1)
    san.place("down_count", 0)
    san.place("fails_total", 0)

    def fail(m, rng):
        m["up"] = 0
        m["down_count"] += 1
        m["fails_total"] += 1

    def repair(m, rng):
        m["up"] = 1
        m["down_count"] -= 1

    fail_writes = (
        [("up", "set", 0), ("down_count", "add", 1), ("fails_total", "add", 1)]
        if annotate
        else None
    )
    repair_writes = (
        [("up", "set", 1), ("down_count", "add", -1)] if annotate else None
    )
    san.timed(
        "fail",
        Exponential(fail_rate),
        enabled=lambda m: m["up"] == 1,
        effect=None if annotate else fail,
        writes=fail_writes,
    )
    san.timed(
        "repair",
        Exponential(repair_rate),
        enabled=lambda m: m["up"] == 0,
        effect=None if annotate else repair,
        writes=repair_writes,
    )
    return flatten(replicate("fleet", san, n_units, shared=["down_count", "fails_total"]))


def _run(model, seed, batch, engine="auto", hours=1500.0):
    rewards = [RateReward("frac", lambda m: m["fleet/down_count"] / 10.0)]
    sim = Simulator(model, base_seed=seed, sample_batch=batch, engine=engine)
    res = sim.run(hours, rewards=rewards)
    return res, sim


class TestKernelBitIdentity:
    @given(
        seed=st.integers(0, 2**32 - 1),
        fail_rate=st.floats(0.005, 0.05),
        repair_rate=st.floats(0.05, 0.5),
        batch=st.sampled_from([None, 64, 256]),
    )
    @settings(max_examples=25, deadline=None)
    def test_annotated_matches_unannotated(
        self, seed, fail_rate, repair_rate, batch
    ):
        plain = _pair_fleet(12, fail_rate, repair_rate, annotate=False)
        annotated = _pair_fleet(12, fail_rate, repair_rate, annotate=True)
        ra, sim_a = _run(annotated, seed, batch)
        rp, _ = _run(plain, seed, batch)
        assert ra.n_events == rp.n_events
        assert ra._final_values == rp._final_values
        assert ra["frac"].integral.hex() == rp["frac"].integral.hex()
        assert sim_a.last_kernel_effects > 0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_kernel_loop_matches_reference_oracle(self, seed):
        annotated = _pair_fleet(12, 0.01, 0.1, annotate=True)
        fast, sim = _run(annotated, seed, 256)
        ref, ref_sim = _run(annotated, seed, 256, engine="reference")
        assert fast.n_events == ref.n_events
        assert fast._final_values == ref._final_values
        assert fast["frac"].integral.hex() == ref["frac"].integral.hex()
        # the oracle never applies kernels; the fast loop does
        assert ref_sim.last_kernel_effects == 0
        assert sim.last_kernel_effects > 0

    def test_plain_loop_kernels(self):
        """Kernels also drive observer-free runs on the compiled loop."""
        annotated = _pair_fleet(8, 0.01, 0.1, annotate=True)
        plain = _pair_fleet(8, 0.01, 0.1, annotate=False)
        sa = Simulator(annotated, base_seed=3)
        sp = Simulator(plain, base_seed=3)
        ra, rp = sa.run(2000.0), sp.run(2000.0)
        assert sa.last_loop == "observed"
        assert ra.n_events == rp.n_events
        assert ra._final_values == rp._final_values
        assert sa.last_kernel_effects > 0
        assert sa.last_kernel_effects + sa.last_python_effects == ra.n_events

    def test_warm_simulator_retraces(self):
        annotated = _pair_fleet(8, 0.01, 0.1, annotate=True)
        sim = Simulator(annotated, base_seed=5)
        first = sim.run(1000.0)
        fresh = Simulator(annotated, base_seed=5)
        again = fresh.run(1000.0)
        assert first.n_events == again.n_events
        assert first._final_values == again._final_values


def _zero_a(m, rng):
    m["a"] = 0


def _one_shot(writes, places=("a", "b")):
    """Single activity firing once, declaring ``writes``."""
    san = SAN("s")
    for p in places:
        san.place(p, 1)
    san.timed(
        "act",
        Exponential(1.0),
        enabled=lambda m: m[places[0]] == 1,
        writes=writes,
    )
    return flatten(replicate("r", san, 1))


def _drain_model():
    """``drain`` fires while ``tick < 5``; from ``pool = 1`` its second
    completion would drive ``pool`` negative."""
    san = SAN("s")
    san.place("tick", 0)
    san.place("pool", 1)
    san.timed(
        "drain",
        Exponential(1.0),
        enabled=lambda m: m["tick"] < 5,
        writes=[("tick", "add", 1), ("pool", "add", -1)],
    )
    return flatten(san)


class TestVerification:
    def test_unknown_place_rejected_at_compile(self):
        model = _one_shot([("nope", "set", 0)])
        with pytest.raises(SimulationError, match="not a place"):
            Simulator(model, base_seed=1).run(100.0)

    def test_failed_run_is_not_sticky(self):
        """A run a kernel aborts leaves nothing behind: the retried run
        aborts the same way, and a run from a marking that lets every
        completion through equals a fresh simulator's."""
        model = _drain_model()
        sim = Simulator(model, base_seed=1)
        messages = []
        for _ in range(2):
            with pytest.raises(SimulationError, match="negative") as info:
                sim.run(1000.0, seed=3)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        full = [0, 5]  # s/tick, s/pool
        got = sim.run(1000.0, seed=4, initial_marking=full)
        want = Simulator(model, base_seed=1).run(
            1000.0, seed=4, initial_marking=full
        )
        assert got.n_events == want.n_events == 5
        assert got._final_values == want._final_values == [5, 0]
        assert sim.last_kernel_effects == 5


class TestWritesOnly:
    """An effect declared by ``writes=`` (and ``when=``): its function
    is built from the ops, and the compiled engine fires the same ops as
    a kernel."""

    @staticmethod
    def _view(**marking):
        vector = MarkingVector(list(marking.values()))
        return vector, LocalView(vector, {p: i for i, p in enumerate(marking)})

    def test_ops_apply_in_declared_order(self):
        for writes, expected in (
            ([("a", "set", 1), ("a", "add", 2), ("b", "add", -1)], [3, 4]),
            ([("a", "add", 2), ("a", "set", 1), ("b", "set", 0)], [1, 0]),
        ):
            vector, view = self._view(a=7, b=5)
            OutputGate(writes=writes).function(view, None)
            assert vector.values == expected

    def test_when_guards_every_op(self):
        gate = OutputGate(
            writes=[("a", "set", 0), ("n", "add", -1)], when=("k", "<=", 2)
        )
        vector, view = self._view(a=1, n=3, k=2)
        gate.function(view, None)
        assert vector.values == [0, 2, 2]
        vector, view = self._view(a=1, n=3, k=3)
        gate.function(view, None)
        assert vector.values == [1, 3, 3]
        assert not vector.changed

    def test_empty_case_writes_is_a_no_op(self):
        for case in (Case(0.5, writes=()), Case(0.5)):
            vector, view = self._view(a=1)
            case.function(view, None)
            assert vector.values == [1] and not vector.changed

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    def test_negative_result_names_the_place(self, engine):
        """The first completion drains the pool; the second would drive
        it negative, through the built function on the reference path
        and through the kernel on the compiled one."""
        sim = Simulator(_drain_model(), base_seed=1, engine=engine)
        with pytest.raises(SimulationError, match="place 's?/?pool'.*negative"):
            sim.run(1000.0)
        assert sim.last_kernel_effects == 0

    @pytest.mark.parametrize("seed", [0, 7])
    def test_reference_matches_auto(self, seed):
        only = _pair_fleet(12, 0.01, 0.1, annotate=True)
        plain = _pair_fleet(12, 0.01, 0.1, annotate=False)
        fast, sim = _run(only, seed, 256)
        ref, _ = _run(only, seed, 256, engine="reference")
        twin, _ = _run(plain, seed, 256)
        for other in (ref, twin):
            assert fast.n_events == other.n_events
            assert fast._final_values == other._final_values
            assert fast["frac"].integral.hex() == other["frac"].integral.hex()
        assert sim.fastpath_report()["python_effect_activities"] == []
        assert sim.last_kernel_effects > 0


class TestDeclarationAPI:
    def test_writes_alone_declare_the_effect(self):
        """``writes=`` without ``effect=`` is the effect; ``when=``
        still needs ``writes=``."""
        san = SAN("s")
        san.place("a", 1)
        san.place("n", 0)
        san.timed(
            "t",
            Exponential(1.0),
            enabled=lambda m: m["a"] == 1,
            writes=[("a", "set", 0), ("n", "add", 1)],
        )
        with pytest.raises(ModelError, match="guard without an effect"):
            san.timed(
                "u", Exponential(1.0), enabled=lambda m: True, when=("a", "==", 0)
            )
        with pytest.raises(ModelError, match="requires writes"):
            OutputGate(lambda m, rng: None, when=("a", "==", 0))
        with pytest.raises(ModelError, match="function must be callable"):
            OutputGate()
        res = Simulator(flatten(san), base_seed=1).run(100.0)
        assert res.n_events == 1
        assert res.place("s/a") == 0 and res.place("s/n") == 1

    @pytest.mark.parametrize(
        "writes",
        [
            [],
            [("a", "mul", 2)],
            [("a", "add", 0)],
            [("a", "set", -1)],
            [("", "set", 1)],
            [("a", "add", 1.5)],
            ["a"],
        ],
    )
    def test_invalid_write_ops_rejected(self, writes):
        with pytest.raises(ModelError, match="output gate 'g'"):
            OutputGate(name="g", writes=writes)

    def test_output_gate_normalizes_writes(self):
        og = OutputGate(writes=(("a", "add", 2), ("b", "set", 0)))
        assert og.writes == (("a", "add", 2), ("b", "set", 0))

    @pytest.mark.parametrize(
        "build, owner",
        [
            (lambda: OutputGate(_zero_a, name="g", writes=[("a", "set", 0)]),
             "output gate 'g'"),
            (lambda: OutputGate(
                _zero_a, name="g", writes=[("a", "set", 0)], when=("a", "<=", 1)
            ), "output gate 'g'"),
            (lambda: Case(0.5, _zero_a, name="c", writes=[("a", "set", 0)]),
             "case 'c'"),
            (lambda: SAN("s").timed(
                "t", Exponential(1.0), enabled=lambda m: True, effect=_zero_a,
                writes=[("a", "set", 0)],
            ), "activity 't'"),
            (lambda: SAN("s").instant(
                "i", enabled=lambda m: True, effect=_zero_a, writes=[("a", "set", 0)]
            ), "activity 'i'"),
            (lambda: RateReward(
                "r", lambda m: 1.0, form=Indicator([("s/a", "==", 0)])
            ), "rate reward 'r'"),
            (lambda: RateReward(
                "r", form=Indicator([("s/a", "==", 0)]), reads=["s/a"]
            ), "rate reward 'r'"),
        ],
        ids=[
            "gate", "guarded-gate", "case", "timed", "instant",
            "reward-function", "reward-reads",
        ],
    )
    def test_twin_rejected(self, build, owner):
        """Declared writes and reward forms are their effect's or
        reward's only definition: a function (or, beside a form, reads)
        passed as well is rejected when built, naming the owner."""
        with pytest.raises(ModelError, match=owner):
            build()

    def test_explicit_output_gates_compile(self):
        """Annotating an explicit OutputGate (not the effect convenience)
        also reaches the kernel path."""
        san = SAN("s")
        san.place("a", 1)
        san.place("n", 0)
        san.timed(
            "t",
            Exponential(1.0),
            enabled=lambda m: m["a"] == 1,
            output_gates=[OutputGate(writes=[("a", "set", 0), ("n", "add", 1)])],
        )
        san.timed(
            "back",
            Exponential(1.0),
            enabled=lambda m: m["a"] == 0,
            effect=lambda m, rng: m.__setitem__("a", 1),
        )
        model = flatten(replicate("r", san, 1))
        sim = Simulator(model, base_seed=2)
        res = sim.run(500.0)
        assert sim.last_kernel_effects > 0
        assert res.place("r/s[0]/n") + (1 - res.place("r/s[0]/a")) > 0
