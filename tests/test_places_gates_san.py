"""Places, markings, views, gates, and SAN template construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SAN,
    Case,
    Deterministic,
    Exponential,
    InputGate,
    MarkingVector,
    ModelError,
    OutputGate,
    Place,
    SimulationError,
)
from repro.core.gates import validate_cases
from repro.core.places import LocalView


class TestPlace:
    def test_valid(self):
        p = Place("up", 1)
        assert p.name == "up" and p.initial == 1

    def test_rejects_slash(self):
        with pytest.raises(ModelError):
            Place("a/b", 0)

    def test_rejects_negative_initial(self):
        with pytest.raises(ModelError):
            Place("x", -1)

    def test_rejects_empty_name(self):
        with pytest.raises(ModelError):
            Place("", 0)


class TestMarkingVector:
    def test_reset_restores(self):
        v = MarkingVector([1, 2, 3])
        v.values[0] = 9
        v.changed.add(0)
        v.reset([1, 2, 3])
        assert v.values == [1, 2, 3]
        assert not v.changed

    def test_reset_length_mismatch(self):
        v = MarkingVector([1])
        with pytest.raises(SimulationError):
            v.reset([1, 2])

    def test_view_write_lands_in_changed(self):
        v = MarkingVector([0, 0])
        changed = v.changed
        view = LocalView(v, {"a": 0, "b": 1})
        view["a"] = 5
        assert v.changed == {0}
        # The set is the vector's one live object, which a run holds.
        assert v.changed is changed


class TestLocalView:
    def make(self):
        v = MarkingVector([1, 0, 7])
        return v, LocalView(v, {"up": 0, "down": 1, "count": 2})

    def test_read_write(self):
        _, m = self.make()
        assert m["up"] == 1
        m["count"] += 1
        assert m["count"] == 8

    def test_unknown_place(self):
        _, m = self.make()
        with pytest.raises(SimulationError, match="unknown place"):
            m["nope"]
        with pytest.raises(SimulationError, match="unknown place"):
            m["nope"] = 1

    def test_negative_write_rejected(self):
        _, m = self.make()
        with pytest.raises(SimulationError, match="negative"):
            m["down"] = -1

    def test_write_records_change_only_on_difference(self):
        v, m = self.make()
        m["up"] = 1  # same value: no change recorded
        assert not v.changed
        m["up"] = 0
        assert v.changed == {0}

    def test_read_tracking(self):
        v, m = self.make()
        v.begin_tracking()
        _ = m["up"], m["count"]
        reads = v.end_tracking()
        assert reads == {0, 2}

    def test_contains_iter_get(self):
        _, m = self.make()
        assert "up" in m and "nope" not in m
        assert set(iter(m)) == {"up", "down", "count"}
        assert m.get("nope") is None
        assert m.get("up") == 1

    def test_as_dict(self):
        _, m = self.make()
        assert m.as_dict() == {"up": 1, "down": 0, "count": 7}


class TestGates:
    def test_input_gate_requires_callables(self):
        with pytest.raises(ModelError):
            InputGate("not callable")  # type: ignore[arg-type]

    def test_output_gate_requires_callable(self):
        with pytest.raises(ModelError):
            OutputGate(None)  # type: ignore[arg-type]

    def test_case_probability_bounds(self):
        with pytest.raises(ModelError):
            Case(1.5)
        with pytest.raises(ModelError):
            Case(-0.1)

    def test_case_marking_dependent_probability(self):
        v = MarkingVector([2])
        m = LocalView(v, {"n": 0})
        c = Case(lambda mm: mm["n"] / 4.0)
        assert c.probability_in(m) == pytest.approx(0.5)

    def test_case_marking_dependent_out_of_range(self):
        v = MarkingVector([8])
        m = LocalView(v, {"n": 0})
        c = Case(lambda mm: mm["n"] / 4.0)
        with pytest.raises(ModelError):
            c.probability_in(m)

    def test_validate_cases_sums(self):
        validate_cases((Case(0.3), Case(0.7)), "a")
        with pytest.raises(ModelError, match="sum"):
            validate_cases((Case(0.3), Case(0.3)), "a")

    def test_validate_cases_skips_callables(self):
        validate_cases((Case(lambda m: 0.1), Case(0.3)), "a")  # no error


class TestSANTemplate:
    def test_duplicate_place(self):
        san = SAN("s")
        san.place("a")
        with pytest.raises(ModelError, match="duplicate place"):
            san.place("a")

    def test_duplicate_activity(self):
        san = SAN("s")
        san.place("a", 1)
        san.timed("t", Exponential(1.0), enabled=lambda m: True)
        with pytest.raises(ModelError, match="duplicate activity"):
            san.timed("t", Exponential(1.0), enabled=lambda m: True)

    def test_activity_requires_enabling(self):
        san = SAN("s")
        san.place("a", 1)
        with pytest.raises(ModelError, match="no enabling predicate"):
            san.timed("t", Exponential(1.0))

    def test_timed_requires_distribution(self):
        from repro.core.san import ActivityDef, TIMED

        with pytest.raises(ModelError, match="requires a distribution"):
            ActivityDef("t", TIMED, None, input_gates=(InputGate(lambda m: True),))

    def test_instant_must_not_have_distribution(self):
        from repro.core.san import ActivityDef, INSTANT

        with pytest.raises(ModelError, match="must not have"):
            ActivityDef(
                "i",
                INSTANT,
                Deterministic(1.0),
                input_gates=(InputGate(lambda m: True),),
            )

    def test_validate_empty(self):
        san = SAN("s")
        with pytest.raises(ModelError, match="no places"):
            san.validate()
        san.place("a")
        with pytest.raises(ModelError, match="no activities"):
            san.validate()

    def test_places_from(self):
        san = SAN("s")
        san.places_from(["a", "b", "c"], initial=2)
        assert all(san.places[n].initial == 2 for n in "abc")

    def test_name_validation(self):
        with pytest.raises(ModelError):
            SAN("bad/name")
        with pytest.raises(ModelError):
            SAN("")

    def test_convenience_gates_combined_with_explicit(self):
        san = SAN("s")
        san.place("a", 1)
        extra = InputGate(lambda m: m["a"] < 5, name="guard")
        act = san.timed(
            "t",
            Exponential(1.0),
            enabled=lambda m: m["a"] > 0,
            input_gates=[extra],
        )
        assert len(act.input_gates) == 2
