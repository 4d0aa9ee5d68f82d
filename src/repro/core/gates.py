"""Input gates, output gates, and cases — the SAN connectivity formalism.

In a stochastic activity network (Movaghar & Meyer; Möbius), an activity's
*enabling* and *effect* are expressed through gates:

* an **input gate** holds a *predicate* (the activity is enabled only if
  every input-gate predicate holds in the current marking) and an optional
  *function* executed when the activity completes;
* an **output gate** holds a function executed on completion;
* a **case** models a probabilistic outcome: when the activity completes,
  one case is chosen according to the case probabilities and its function
  is executed (between the input-gate and output-gate functions).

Functions receive ``(marking_view, rng)`` so that modeling code can draw
auxiliary random numbers, and predicates receive the view alone.

An output gate's or a case's effect that is a fixed marking update is
*declared* instead, as ``writes=`` ops (an output gate's optionally
guarded by ``when=``).  The declaration is the effect's only definition:
the gate's or case's function is built from the ops, and the compiled
engine applies the same ops as a kernel, so a function passed beside
``writes=`` is rejected at construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ModelError
from .places import LocalView

__all__ = [
    "Predicate",
    "GateFunction",
    "InputGate",
    "OutputGate",
    "WriteOp",
    "WriteGuard",
    "Case",
    "validate_cases",
    "validate_guard",
]

Predicate = Callable[[LocalView], bool]
GateFunction = Callable[[LocalView, np.random.Generator], None]
CaseProbability = float | Callable[[LocalView], float]

#: One declared marking write: ``(place, "add", k)`` for ``m[place] += k``
#: (``k`` may be negative) or ``(place, "set", v)`` for ``m[place] = v``.
WriteOp = tuple[str, str, int]

#: A declared guard over one place: ``(place, cmp, value)`` with ``cmp``
#: one of ``<  <=  ==  !=  >=  >``.  Declared writes guarded by it apply
#: exactly when ``marking[place] cmp value`` holds at completion time.
WriteGuard = tuple[str, str, int]

_WRITE_KINDS = ("add", "set")

#: Every declared guard's comparison by spelling: write and reward-form
#: guards, their built functions and the engine's kernels.
GUARD_OPS = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    "!=": operator.ne, ">=": operator.ge, ">": operator.gt,
}


def validate_guard(when: WriteGuard, owner: str) -> WriteGuard:
    """Normalize and validate a declared write guard."""
    try:
        place, cmp, value = when
    except (TypeError, ValueError):
        raise ModelError(
            f"{owner}: when must be a (place, cmp, int) tuple, got {when!r}"
        ) from None
    if not isinstance(place, str) or not place:
        raise ModelError(
            f"{owner}: when place must be a non-empty name, got {place!r}"
        )
    if cmp not in GUARD_OPS:
        raise ModelError(
            f"{owner}: when comparison must be one of {tuple(GUARD_OPS)}, "
            f"got {cmp!r}"
        )
    try:
        is_integral = value == int(value)
    except (TypeError, ValueError, OverflowError):
        is_integral = False
    if not is_integral:
        raise ModelError(
            f"{owner}: when value must be an integer, got {value!r}"
        )
    return (place, cmp, int(value))


def validate_writes(
    writes: tuple[WriteOp, ...], owner: str, allow_empty: bool = False
) -> tuple[WriteOp, ...]:
    """Normalize and validate a declared-writes tuple.

    ``allow_empty`` permits the explicit empty declaration ``()`` — "this
    function writes nothing" — used by no-op case branches; a gate or
    effect that writes nothing would simply be omitted, so gates keep
    requiring at least one op.
    """
    if not writes:
        if allow_empty:
            return ()
        raise ModelError(
            f"{owner}: writes must not be empty (omit it to keep the "
            "gate function uncompiled)"
        )
    out: list[WriteOp] = []
    for entry in writes:
        try:
            place, kind, amount = entry
        except (TypeError, ValueError):
            raise ModelError(
                f"{owner}: writes entries must be (place, 'add'|'set', int) "
                f"tuples, got {entry!r}"
            ) from None
        if not isinstance(place, str) or not place:
            raise ModelError(
                f"{owner}: writes place must be a non-empty name, got {place!r}"
            )
        if kind not in _WRITE_KINDS:
            raise ModelError(
                f"{owner}: writes kind must be 'add' or 'set', got {kind!r}"
            )
        try:
            is_integral = amount == int(amount)
        except (TypeError, ValueError, OverflowError):
            is_integral = False
        if not is_integral:
            raise ModelError(
                f"{owner}: writes amount must be an integer, got {amount!r}"
            )
        amount = int(amount)
        if kind == "add" and amount == 0:
            raise ModelError(f"{owner}: 'add' writes amount must be non-zero")
        if kind == "set" and amount < 0:
            raise ModelError(
                f"{owner}: 'set' writes amount must be >= 0, got {amount}"
            )
        out.append((place, kind, amount))
    return tuple(out)


def _noop(m: LocalView, rng: np.random.Generator) -> None:
    return None


def _writes_function(writes: tuple[WriteOp, ...], when=None) -> GateFunction:
    """The function a declaration states: the validated ``writes``
    applied in declared order through the view, only while ``when``
    holds if it is given."""
    if not writes:
        return _noop
    ops = tuple((place, kind == "add", amount) for place, kind, amount in writes)

    def apply(m: LocalView, rng) -> None:
        for place, is_add, amount in ops:
            m[place] = m[place] + amount if is_add else amount

    if when is None:
        return apply
    gplace, holds, gvalue = when[0], GUARD_OPS[when[1]], when[2]

    def guarded(m: LocalView, rng) -> None:
        if holds(m[gplace], gvalue):
            apply(m, rng)

    return guarded


@dataclass(frozen=True)
class InputGate:
    """Enabling predicate plus optional completion function.

    Attributes
    ----------
    predicate:
        ``predicate(m) -> bool``; the activity is enabled only when all of
        its input-gate predicates are true.
    function:
        ``function(m, rng)`` run when the activity completes, before cases.
    name:
        Optional label used in diagnostics.
    """

    predicate: Predicate
    function: GateFunction = _noop
    name: str = ""

    def __post_init__(self) -> None:
        if not callable(self.predicate):
            raise ModelError("input gate predicate must be callable")
        if not callable(self.function):
            raise ModelError("input gate function must be callable")


@dataclass(frozen=True)
class OutputGate:
    """Marking transformation executed when the activity completes.

    Either a ``function`` or ``writes``, never both.  ``writes``
    *declares* the transformation as a fixed sequence of
    :data:`WriteOp` slot operations — the gate-write analogue of
    declared activity/reward ``reads`` — and is the gate's only
    definition: the gate's function is built from the ops, and the
    compiled engine applies them as precomputed slot deltas
    (``docs/performance.md`` Layer 5).  An effect with
    marking-dependent amounts or rng draws stays a Python
    ``function``.

    ``when`` extends the declaration to the one conditional shape the
    paper models need (the tier-restore effect): a :data:`WriteGuard`
    ``(place, cmp, value)`` under which the declared writes apply, with
    **no** writes in every other marking.  The compiled engine
    evaluates the guard on the completion marking and applies the ops
    (or nothing).  ``when`` requires ``writes``.
    """

    function: GateFunction | None = None
    name: str = ""
    writes: tuple[WriteOp, ...] | None = None
    when: WriteGuard | None = None

    def __post_init__(self) -> None:
        owner = f"output gate {self.name or '<anonymous>'!r}"
        if self.writes is None:
            if not callable(self.function):
                raise ModelError("output gate function must be callable")
            if self.when is not None:
                raise ModelError(
                    f"{owner}: when requires writes (a guard over undeclared "
                    "writes is meaningless)"
                )
            return
        if self.function is not None:
            raise ModelError(
                f"{owner}: pass a function or writes, not both (the writes "
                "are the effect)"
            )
        writes = validate_writes(tuple(self.writes), owner)
        object.__setattr__(self, "writes", writes)
        if self.when is not None:
            object.__setattr__(self, "when", validate_guard(self.when, owner))
        object.__setattr__(self, "function", _writes_function(writes, self.when))


@dataclass(frozen=True)
class Case:
    """One probabilistic outcome of an activity completion.

    ``probability`` may be a constant or a marking-dependent callable
    ``f(m) -> float`` (Möbius allows marking-dependent case probabilities;
    the paper's propagation probability *p* is a constant case weight).

    ``writes`` *declares* the case's effect as a fixed :data:`WriteOp`
    sequence, with the same contract as :class:`OutputGate` writes: a
    case takes a ``function`` or ``writes``, never both, and its
    function is built from the ops — the explicit empty tuple ``()``
    declares a no-op branch, and so does a case with neither.  When
    every case of an activity declares its writes (and its
    probabilities are constants, its gates hold no other Python
    functions), the compiled engine selects the branch with the same
    single uniform draw and applies the precomputed slot deltas — a
    **case kernel** — instead of calling the case function.  See
    ``docs/performance.md`` Layer 6.
    """

    probability: CaseProbability
    function: GateFunction | None = None
    name: str = ""
    writes: tuple[WriteOp, ...] | None = None

    def __post_init__(self) -> None:
        owner = f"case {self.name or '<anonymous>'!r}"
        if self.function is not None:
            if not callable(self.function):
                raise ModelError("case function must be callable")
            if self.writes is not None:
                raise ModelError(
                    f"{owner}: pass a function or writes, not both (the "
                    "writes are the effect)"
                )
        if not callable(self.probability):
            p = float(self.probability)
            if not (0.0 <= p <= 1.0):
                raise ModelError(f"case probability must be in [0, 1], got {p}")
        if self.function is None:
            if self.writes is not None:
                object.__setattr__(
                    self,
                    "writes",
                    validate_writes(tuple(self.writes), owner, allow_empty=True),
                )
            object.__setattr__(self, "function", _writes_function(self.writes or ()))

    def probability_in(self, m: LocalView) -> float:
        """Evaluate the case probability in marking ``m``."""
        if callable(self.probability):
            p = float(self.probability(m))
            if not (0.0 <= p <= 1.0) or math.isnan(p):
                raise ModelError(
                    f"case {self.name!r}: marking-dependent probability {p} "
                    "is outside [0, 1]"
                )
            return p
        return float(self.probability)


def validate_cases(cases: tuple[Case, ...], activity_name: str) -> None:
    """Check that constant case probabilities sum to 1 (within tolerance).

    Marking-dependent probabilities are validated at firing time instead.
    """
    if not cases:
        return
    if any(callable(c.probability) for c in cases):
        return
    total = sum(float(c.probability) for c in cases)
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ModelError(
            f"activity {activity_name!r}: case probabilities sum to {total}, "
            "expected 1.0"
        )
