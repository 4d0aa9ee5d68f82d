"""Compiled gate-write kernels: declaration API, bit-identity, verification.

``OutputGate(..., writes=[...])`` / ``SAN.timed(..., effect=...,
writes=[...])`` declares an effect as a fixed sequence of slot ops; the
compiled engine then applies precomputed deltas instead of calling the
Python gate functions.  The contracts pinned here:

* annotated models follow **bit-identical** trajectories to their
  unannotated twins, in per-draw and batched mode, against both the
  specialized loops and the ``engine="reference"`` oracle (which never
  uses kernels);
* misdeclarations — wrong amounts, undeclared writes, rng use, unknown
  places — raise loudly on the first completion (or at compile time);
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
    Exponential,
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
    """Replicated fail/repair units over a shared counter, optionally
    declaring every effect's writes."""
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
        effect=fail,
        writes=fail_writes,
    )
    san.timed(
        "repair",
        Exponential(repair_rate),
        enabled=lambda m: m["up"] == 0,
        effect=repair,
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


def _one_shot(effect, writes, places=("a", "b")):
    """Single activity firing once; effect/writes under test."""
    san = SAN("s")
    for p in places:
        san.place(p, 1)
    san.timed(
        "act",
        Exponential(1.0),
        enabled=lambda m: m[places[0]] == 1,
        effect=effect,
        writes=writes,
    )
    return flatten(replicate("r", san, 1))


class TestVerification:
    def test_wrong_amount_raises(self):
        model = _one_shot(
            lambda m, rng: m.__setitem__("a", 0),
            [("a", "set", 0), ("b", "add", 5)],
        )
        with pytest.raises(SimulationError, match="declared writes do not match"):
            Simulator(model, base_seed=1).run(100.0)

    def test_undeclared_write_raises(self):
        def effect(m, rng):
            m["a"] = 0
            m["b"] = 0  # not declared

        model = _one_shot(effect, [("a", "set", 0)])
        with pytest.raises(SimulationError, match="undeclared"):
            Simulator(model, base_seed=1).run(100.0)

    def test_rng_use_raises(self):
        def effect(m, rng):
            m["a"] = 0 if rng.uniform() < 2.0 else 1

        model = _one_shot(effect, [("a", "set", 0)])
        with pytest.raises(SimulationError, match="must not use the rng"):
            Simulator(model, base_seed=1).run(100.0)

    def test_negative_drive_raises(self):
        # declaration and function agree, but the second firing would
        # push the count negative — same loud failure as __setitem__.
        san = SAN("s")
        san.place("tick", 0)
        san.place("pool", 1)

        def effect(m, rng):
            m["tick"] += 1
            m["pool"] -= 1

        san.timed(
            "drain",
            Exponential(1.0),
            enabled=lambda m: m["tick"] < 5,
            effect=effect,
            writes=[("tick", "add", 1), ("pool", "add", -1)],
        )
        model = flatten(replicate("r", san, 1))
        with pytest.raises(SimulationError, match="negative"):
            Simulator(model, base_seed=1).run(1000.0)

    def test_failed_verification_is_not_sticky(self):
        """A misdeclared kernel keeps raising on retried runs — the
        verified flag must only be set after verification succeeds."""
        model = _one_shot(
            lambda m, rng: m.__setitem__("a", 0),
            [("a", "set", 0), ("b", "add", 5)],
        )
        sim = Simulator(model, base_seed=1)
        with pytest.raises(SimulationError, match="declared writes"):
            sim.run(100.0)
        with pytest.raises(SimulationError, match="declared writes"):
            sim.run(100.0)

    def test_unknown_place_rejected_at_compile(self):
        model = _one_shot(
            lambda m, rng: m.__setitem__("a", 0), [("nope", "set", 0)]
        )
        with pytest.raises(SimulationError, match="not a place"):
            Simulator(model, base_seed=1).run(100.0)

    def test_reference_engine_ignores_declarations(self):
        """The oracle calls the functions, so even a misdeclared gate
        runs (and its python path defines the correct trajectory)."""
        model = _one_shot(
            lambda m, rng: m.__setitem__("a", 0),
            [("a", "set", 0), ("b", "add", 5)],
        )
        res = Simulator(model, base_seed=1, engine="reference").run(100.0)
        assert res.n_events >= 1


class TestDeclarationAPI:
    def test_writes_require_effect(self):
        san = SAN("s")
        san.place("a", 1)
        with pytest.raises(ModelError, match="without an effect"):
            san.timed(
                "t",
                Exponential(1.0),
                enabled=lambda m: True,
                writes=[("a", "set", 0)],
            )

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
        with pytest.raises(ModelError):
            OutputGate(lambda m, rng: None, name="g", writes=writes)

    def test_output_gate_normalizes_writes(self):
        og = OutputGate(
            lambda m, rng: None, writes=(("a", "add", 2), ("b", "set", 0))
        )
        assert og.writes == (("a", "add", 2), ("b", "set", 0))

    def test_explicit_output_gates_compile(self):
        """Annotating an explicit OutputGate (not the effect convenience)
        also reaches the kernel path."""
        san = SAN("s")
        san.place("a", 1)
        san.place("n", 0)

        def bump(m, rng):
            m["a"] = 0
            m["n"] += 1

        san.timed(
            "t",
            Exponential(1.0),
            enabled=lambda m: m["a"] == 1,
            output_gates=[
                OutputGate(bump, writes=[("a", "set", 0), ("n", "add", 1)])
            ],
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
