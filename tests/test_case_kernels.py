"""Compiled case/guard kernels: declaration API, bit-identity.

``Case(..., writes=[...])`` declares a case branch's effect as a fixed
sequence of slot ops; when every case of an activity declares its writes
(constant probabilities, no other Python gate functions) the compiled
engine selects a branch with the same single uniform the function path
consumes and applies precomputed slot deltas — a **case kernel**.
``OutputGate(..., writes=[...], when=(place, cmp, value))`` declares the
one conditional-effect shape as a two-branch **guard kernel** selected
by the completion marking.  The contracts pinned here:

* declared models follow **bit-identical** trajectories to the same
  models written with Python case and effect functions, in per-draw and
  batched mode, against both the specialized loops and the
  ``engine="reference"`` oracle (which never uses kernels) — including
  instantaneous case activities, which fire through the settle
  fixpoint;
* malformed declarations and unknown places are rejected when the
  model is built (or compiled);
* the declared ops enforce the same non-negative marking invariant as
  ``LocalView.__setitem__``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SAN,
    Case,
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


def _case_fleet(n_units, fail_rate, repair_rate, p1, p2, annotate):
    """Replicated units whose failure draws a three-way propagation coin
    (timed cases), absorbed by an instant two-way coin — the shapes the
    cluster models use — whose cases declare their writes
    (``annotate``) or run the same Python functions."""
    san = SAN("unit")
    san.place("up", 1)
    san.place("down_count", 0)
    san.place("a_total", 0)
    san.place("b_total", 0)
    san.place("reacted", 0)

    def fail_a(m, rng):
        m["up"] = 0
        m["down_count"] += 1
        m["a_total"] += 1

    def fail_b(m, rng):
        m["up"] = 0
        m["down_count"] += 1
        m["b_total"] += 1

    def fail_quiet(m, rng):
        m["up"] = 0
        m["down_count"] += 1

    p3 = 1.0 - p1 - p2

    def case(p, fn, name, writes):
        if annotate:
            return Case(p, name=name, writes=writes)
        return Case(p, fn, name=name)

    san.timed(
        "fail",
        Exponential(fail_rate),
        enabled=lambda m: m["up"] == 1,
        cases=[
            case(
                p1,
                fail_a,
                "a",
                [("up", "set", 0), ("down_count", "add", 1), ("a_total", "add", 1)],
            ),
            case(
                p2,
                fail_b,
                "b",
                [("up", "set", 0), ("down_count", "add", 1), ("b_total", "add", 1)],
            ),
            case(p3, fail_quiet, "quiet", [("up", "set", 0), ("down_count", "add", 1)]),
        ],
    )
    san.timed(
        "repair",
        Exponential(repair_rate),
        enabled=lambda m: m["up"] == 0,
        effect=lambda m, rng: (
            m.__setitem__("up", 1),
            m.__setitem__("down_count", m["down_count"] - 1),
        ),
    )

    def react_hard(m, rng):
        m["reacted"] = 1
        m["a_total"] += 1

    def react_soft(m, rng):
        m["reacted"] = 1

    # Instant case activity: fires inside the settle fixpoint.  One case
    # is a superset of the other, like the cluster's absorb coins.
    san.instant(
        "react",
        enabled=lambda m: m["down_count"] >= 2 and m["reacted"] == 0,
        cases=[
            case(0.25, react_hard, "hard", [("reacted", "set", 1), ("a_total", "add", 1)]),
            case(0.75, react_soft, "soft", [("reacted", "set", 1)]),
        ],
        priority=5,
    )
    san.timed(
        "calm",
        Exponential(repair_rate),
        enabled=lambda m: m["reacted"] == 1 and m["down_count"] < 2,
        effect=lambda m, rng: m.__setitem__("reacted", 0),
    )
    return flatten(
        replicate(
            "fleet",
            san,
            n_units,
            shared=["down_count", "a_total", "b_total", "reacted"],
        )
    )


def _guard_fleet(n_units, annotate):
    """Conditional-effect shape (the tier restore): a periodic check that
    clears the alarm only when the backlog has drained."""
    san = SAN("cell")
    san.place("busy", 0)
    san.place("alarm", 0)
    san.place("cleared_total", 0)

    def load(m, rng):
        m["busy"] += 1
        if m["busy"] >= 2:
            m["alarm"] = 1

    def drain(m, rng):
        m["busy"] -= 1

    def check(m, rng):
        # conditional: clears only when the backlog has drained
        if m["busy"] <= 1:
            m["alarm"] = 0
            m["cleared_total"] += 1

    san.timed("load", Exponential(0.05), enabled=lambda m: m["busy"] < 4, effect=load)
    san.timed("drain", Exponential(0.06), enabled=lambda m: m["busy"] > 0, effect=drain)
    san.timed(
        "check",
        Exponential(0.2),
        enabled=lambda m: m["alarm"] == 1,
        effect=None if annotate else check,
        writes=[("alarm", "set", 0), ("cleared_total", "add", 1)] if annotate else None,
        when=("busy", "<=", 1) if annotate else None,
    )
    return flatten(replicate("grid", san, n_units, shared=["cleared_total"]))


def _run(model, seed, batch, engine="auto", hours=1500.0, shared="fleet/down_count"):
    rewards = [RateReward("level", lambda m: m[shared] / 10.0)]
    sim = Simulator(model, base_seed=seed, sample_batch=batch, engine=engine)
    res = sim.run(hours, rewards=rewards)
    return res, sim


class TestCaseKernelBitIdentity:
    @given(
        seed=st.integers(0, 2**32 - 1),
        fail_rate=st.floats(0.005, 0.05),
        repair_rate=st.floats(0.05, 0.5),
        p1=st.floats(0.05, 0.5),
        p2=st.floats(0.05, 0.4),
        batch=st.sampled_from([None, 64, 256]),
    )
    @settings(max_examples=25, deadline=None)
    def test_annotated_matches_unannotated(
        self, seed, fail_rate, repair_rate, p1, p2, batch
    ):
        plain = _case_fleet(10, fail_rate, repair_rate, p1, p2, annotate=False)
        annotated = _case_fleet(10, fail_rate, repair_rate, p1, p2, annotate=True)
        ra, sim_a = _run(annotated, seed, batch)
        rp, _ = _run(plain, seed, batch)
        assert ra.n_events == rp.n_events
        assert ra._final_values == rp._final_values
        assert ra["level"].integral.hex() == rp["level"].integral.hex()
        assert sim_a.last_case_kernels > 0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_case_kernels_match_reference_oracle(self, seed):
        annotated = _case_fleet(10, 0.02, 0.1, 0.3, 0.2, annotate=True)
        fast, sim = _run(annotated, seed, 256)
        ref, ref_sim = _run(annotated, seed, 256, engine="reference")
        assert fast.n_events == ref.n_events
        assert fast._final_values == ref._final_values
        assert fast["level"].integral.hex() == ref["level"].integral.hex()
        # the oracle never applies kernels; the fast loop does
        assert ref_sim.last_case_kernels == 0
        assert sim.last_case_kernels > 0

    @given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([None, 256]))
    @settings(max_examples=20, deadline=None)
    def test_guard_kernel_matches_unannotated_and_reference(self, seed, batch):
        plain = _guard_fleet(6, annotate=False)
        annotated = _guard_fleet(6, annotate=True)
        ra, sim_a = _run(annotated, seed, batch, shared="grid/cleared_total")
        rp, _ = _run(plain, seed, batch, shared="grid/cleared_total")
        assert ra.n_events == rp.n_events
        assert ra._final_values == rp._final_values
        assert ra["level"].integral.hex() == rp["level"].integral.hex()
        ref, _ = _run(
            annotated, seed, batch, engine="reference", shared="grid/cleared_total"
        )
        assert ra._final_values == ref._final_values
        assert sim_a.last_case_kernels > 0

    def test_counters_partition_event_count(self):
        annotated = _case_fleet(8, 0.02, 0.1, 0.3, 0.2, annotate=True)
        sim = Simulator(annotated, base_seed=3)
        res = sim.run(2000.0)
        assert sim.last_loop == "observed"  # instants make it observed
        assert (
            sim.last_kernel_effects
            + sim.last_case_kernels
            + sim.last_python_effects
            == res.n_events
        )
        assert sim.last_case_kernels > 0

    def test_report_classifies_case_kernels(self):
        annotated = _case_fleet(2, 0.02, 0.1, 0.3, 0.2, annotate=True)
        report = Simulator(annotated).fastpath_report()
        names = {p.rsplit("/", 1)[-1] for p in report["case_kernel_activities"]}
        assert names == {"fail", "react"}
        assert report["python_effect_activities"] != []  # repair/calm lambdas
        guard = _guard_fleet(2, annotate=True)
        report = Simulator(guard).fastpath_report()
        names = {p.rsplit("/", 1)[-1] for p in report["case_kernel_activities"]}
        assert names == {"check"}

    def test_warm_program_retraces(self):
        annotated = _case_fleet(8, 0.02, 0.1, 0.3, 0.2, annotate=True)
        sim = Simulator(annotated, base_seed=5)
        first = sim.run(1000.0)
        fresh = Simulator(annotated, base_seed=5)
        again = fresh.run(1000.0)
        assert first.n_events == again.n_events
        assert first._final_values == again._final_values


def _one_coin(cases, places=("a", "b")):
    """Single activity with cases, firing repeatedly."""
    san = SAN("s")
    for p in places:
        san.place(p, 1)
    san.place("n", 0)
    san.timed(
        "act",
        Exponential(1.0),
        enabled=lambda m: m["n"] < 50,
        cases=cases,
    )
    return flatten(replicate("r", san, 1))


class TestVerification:
    def test_negative_drive_raises(self):
        cases = [Case(1.0, writes=[("n", "add", 1), ("a", "add", -1)])]
        with pytest.raises(SimulationError, match="negative"):
            Simulator(_one_coin(cases), base_seed=1).run(1000.0)

    def test_failed_run_is_not_sticky(self):
        """A run a case kernel aborts (its second selection would drive
        ``a`` negative) leaves nothing behind: the retried run aborts the
        same way, and a run from a marking that lets all fifty
        selections through equals a fresh simulator's."""
        model = _one_coin([Case(1.0, writes=[("n", "add", 1), ("a", "add", -1)])])
        sim = Simulator(model, base_seed=1)
        messages = []
        for _ in range(2):
            with pytest.raises(SimulationError, match="negative") as info:
                sim.run(1000.0, seed=3)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        full = [50, 1, 0]  # r/s[0]/a, r/s[0]/b, r/s[0]/n
        got = sim.run(1000.0, seed=4, initial_marking=full)
        want = Simulator(model, base_seed=1).run(
            1000.0, seed=4, initial_marking=full
        )
        assert got.n_events == want.n_events == 50
        assert got._final_values == want._final_values == [0, 1, 50]
        assert sim.last_case_kernels == 50

    def test_unknown_place_rejected_at_compile(self):
        cases = [Case(1.0, writes=[("nope", "add", 1)])]
        with pytest.raises(SimulationError, match="not a place"):
            Simulator(_one_coin(cases), base_seed=1).run(100.0)


class TestDeclarationAPI:
    def test_case_writes_normalized(self):
        c = Case(0.5, writes=(("a", "add", 2),))
        assert c.writes == (("a", "add", 2),)
        assert Case(0.5, writes=()).writes == ()

    @pytest.mark.parametrize(
        "writes",
        [
            [("a", "mul", 2)],
            [("a", "add", 0)],
            [("a", "set", -1)],
            [("", "set", 1)],
            [("a", "add", 1.5)],
            [("a", "add", "x")],
            [("a", "set", float("nan"))],
            ["a"],
        ],
    )
    def test_invalid_case_writes_rejected(self, writes):
        with pytest.raises(ModelError, match="case 'c'"):
            Case(0.5, name="c", writes=writes)

    def test_when_requires_writes(self):
        with pytest.raises(ModelError, match="requires writes"):
            OutputGate(lambda m, rng: None, when=("a", "<=", 1))

    @pytest.mark.parametrize(
        "when",
        [
            ("a", "~", 1),
            ("", "<=", 1),
            ("a", "<=", 1.5),
            ("a", "<=", "x"),
            ("a",),
            "a",
        ],
    )
    def test_invalid_guard_rejected(self, when):
        with pytest.raises(ModelError, match="output gate 'g'"):
            OutputGate(name="g", writes=[("a", "set", 0)], when=when)

    def test_when_requires_effect_in_san_sugar(self):
        san = SAN("s")
        san.place("a", 1)
        with pytest.raises(ModelError, match="guard without an effect"):
            san.timed(
                "t",
                Exponential(1.0),
                enabled=lambda m: True,
                when=("a", "<=", 1),
            )

    def test_partial_annotation_stays_python(self):
        """One undeclared case keeps the whole activity on the Python
        path — no partial kernels."""
        cases = [
            Case(0.5, writes=[("n", "add", 1)]),
            Case(0.5, lambda m, rng: None),
        ]
        sim = Simulator(_one_coin(cases), base_seed=2)
        sim.run(100.0)
        assert sim.last_case_kernels == 0

    def test_dynamic_probabilities_stay_python(self):
        """Marking-dependent case probabilities cannot be compiled."""
        cases = [
            Case(lambda m: 0.5, writes=[("n", "add", 1)]),
            Case(lambda m: 0.5, writes=()),
        ]
        sim = Simulator(_one_coin(cases), base_seed=2)
        sim.run(100.0)
        assert sim.last_case_kernels == 0
