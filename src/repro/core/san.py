"""Leaf stochastic activity network (SAN) definitions.

A :class:`SAN` is a reusable *template*: it defines places, timed and
instantaneous activities, and their gates.  Templates carry no runtime
state — the same ``SAN`` object can be replicated thousands of times by the
composition layer (:mod:`repro.core.composition`), exactly as Möbius reuses
an atomic model across a ``Rep`` node.

Example — a repairable component with exponential failures and
deterministic repair::

    san = SAN("component")
    san.place("up", 1)
    san.timed(
        "fail",
        distribution=Exponential(rate=1 / 720.0),
        enabled=lambda m: m["up"] == 1,
        writes=[("up", "set", 0)],
    )
    san.timed(
        "repair",
        distribution=Deterministic(24.0),
        enabled=lambda m: m["up"] == 0,
        writes=[("up", "set", 1)],
    )
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .distributions import Distribution
from .errors import ModelError
from .gates import Case, GateFunction, InputGate, OutputGate, Predicate, validate_cases
from .places import LocalView, Place

__all__ = ["SAN", "ActivityDef", "TIMED", "INSTANT", "DistributionSpec"]

TIMED = "timed"
INSTANT = "instantaneous"

# A timed activity's delay law may depend on the marking, mirroring
# Möbius' marking-dependent activity time distributions.
DistributionSpec = Distribution | Callable[[LocalView], Distribution]


@dataclass(frozen=True)
class ActivityDef:
    """Immutable definition of one activity inside a SAN template.

    Attributes
    ----------
    name:
        Activity name, unique within the SAN.
    kind:
        ``TIMED`` or ``INSTANT``.
    distribution:
        Delay law for timed activities (``None`` for instantaneous ones).
        May be a callable ``f(m) -> Distribution`` for marking-dependent
        timing; the callable is evaluated when the activity is activated.
    input_gates / output_gates / cases:
        SAN gate structure; see :mod:`repro.core.gates`.
    priority:
        Instantaneous activities fire in decreasing priority order
        (ties broken by definition order).
    reads:
        Optional declared dependency set: the local place names this
        activity's enabling predicates (and marking-dependent
        distribution, if any) may ever read.  ``None`` (default) keeps
        tracked discovery.  See :meth:`SAN.timed` for the contract.
    reactivate:
        If true, the activity resamples its completion time whenever a
        place it depends on changes while it remains enabled ("reactivation"
        in SAN terminology).  If false (default), the originally sampled
        completion time stands until it fires or the activity is disabled.
    """

    name: str
    kind: str
    distribution: DistributionSpec | None
    input_gates: tuple[InputGate, ...] = ()
    output_gates: tuple[OutputGate, ...] = ()
    cases: tuple[Case, ...] = ()
    priority: int = 0
    reads: tuple[str, ...] | None = None
    reactivate: bool = False

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ModelError(
                f"activity name must be non-empty and '/'-free: {self.name!r}"
            )
        if self.kind not in (TIMED, INSTANT):
            raise ModelError(f"activity {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == TIMED:
            if self.distribution is None:
                raise ModelError(
                    f"timed activity {self.name!r} requires a distribution"
                )
            if not (isinstance(self.distribution, Distribution) or callable(self.distribution)):
                raise ModelError(
                    f"activity {self.name!r}: distribution must be a Distribution "
                    "or a callable returning one"
                )
        elif self.distribution is not None:
            raise ModelError(
                f"instantaneous activity {self.name!r} must not have a distribution"
            )
        if self.reads is not None:
            if not self.reads:
                raise ModelError(
                    f"activity {self.name!r}: reads must not be empty "
                    "(omit it to keep tracked discovery)"
                )
            for entry in self.reads:
                if not isinstance(entry, str) or not entry:
                    raise ModelError(
                        f"activity {self.name!r}: reads entries must be "
                        f"non-empty place names, got {entry!r}"
                    )
        validate_cases(self.cases, self.name)

    def is_enabled(self, m: LocalView) -> bool:
        """Evaluate the conjunction of input-gate predicates in ``m``."""
        for gate in self.input_gates:
            if not gate.predicate(m):
                return False
        return True


class SAN:
    """A leaf stochastic activity network template.

    Use :meth:`place`, :meth:`timed`, and :meth:`instant` to build the
    model, then compose with :func:`repro.core.composition.join` /
    :func:`repro.core.composition.replicate` and flatten for simulation.
    """

    def __init__(self, name: str) -> None:
        if not name or "/" in name:
            raise ModelError(f"SAN name must be non-empty and '/'-free: {name!r}")
        self.name = name
        self._places: dict[str, Place] = {}
        self._activities: dict[str, ActivityDef] = {}

    # ------------------------------------------------------------------
    # construction API
    # ------------------------------------------------------------------
    def place(self, name: str, initial: int = 0) -> Place:
        """Declare a place with an initial token count and return it."""
        if name in self._places:
            raise ModelError(f"SAN {self.name!r}: duplicate place {name!r}")
        p = Place(name, initial)
        self._places[name] = p
        return p

    def places_from(self, names: Iterable[str], initial: int = 0) -> None:
        """Declare several places sharing one initial marking."""
        for name in names:
            self.place(name, initial)

    def timed(
        self,
        name: str,        distribution: DistributionSpec,
        *,
        enabled: Predicate | None = None,
        effect: GateFunction | None = None,
        input_gates: Iterable[InputGate] = (),
        output_gates: Iterable[OutputGate] = (),
        cases: Iterable[Case] = (),
        reads: Iterable[str] | None = None,
        writes: Iterable[tuple[str, str, int]] | None = None,
        when: tuple[str, str, int] | None = None,
        reactivate: bool = False,
    ) -> ActivityDef:
        """Declare a timed activity.

        ``enabled`` and ``effect`` are conveniences that wrap a bare
        predicate/function into an input/output gate; they combine with any
        explicitly supplied gates (convenience gates run first).

        ``writes`` declares the effect's marking writes as a fixed op
        sequence (``("place", "add", k)`` / ``("place", "set", v)``),
        letting the compiled engine apply them as precomputed slot
        deltas instead of calling a Python function — see
        :class:`~repro.core.gates.OutputGate`.  The declaration is the
        effect, so ``effect`` and ``writes`` exclude each other.
        ``when`` optionally guards the declared writes with a
        ``(place, cmp, value)`` condition for conditional effects
        ("write exactly this iff the guard holds, nothing otherwise");
        it requires ``writes``.

        ``reads`` optionally declares the dependency set: the local place
        names that the enabling predicates — and, for marking-dependent
        distributions, the distribution callable — may *ever* read, in any
        marking.  Declared activities are wired into the simulator's
        slot → activity dependency map at compile time and their
        predicates are evaluated **without read tracking** on the
        compiled fast path (the activity analogue of
        ``RateReward(..., reads=[...])``).  The simulator verifies the
        initial evaluation against the declaration and raises on
        undeclared reads; reads that only happen in later markings
        (short-circuit predicates) cannot be caught that way, so the
        declaration must be kept complete by construction.  For
        ``reactivate=True`` activities the declared set *defines* which
        place writes trigger resampling, replacing discovery-order
        semantics.
        """
        igs = tuple(
            ([InputGate(enabled, name=f"{name}.enabled")] if enabled is not None else [])
            + list(input_gates)
        )
        ogs = tuple(
            self._effect_gates(name, effect, writes, when) + list(output_gates)
        )
        act = ActivityDef(
            name=name,
            kind=TIMED,
            distribution=distribution,
            input_gates=igs,
            output_gates=ogs,
            cases=tuple(cases),
            reads=None if reads is None else tuple(reads),
            reactivate=reactivate,
        )
        self._add_activity(act)
        return act

    def _effect_gates(
        self,
        name: str,
        effect: GateFunction | None,
        writes: Iterable[tuple[str, str, int]] | None,
        when: tuple[str, str, int] | None = None,
    ) -> list[OutputGate]:
        """Wrap the ``effect`` / ``writes`` convenience into its output gate."""
        if effect is None and writes is None:
            if when is not None:
                raise ModelError(
                    f"SAN {self.name!r}: activity {name!r} declares a write "
                    "guard without an effect function"
                )
            return []
        if effect is not None and writes is not None:
            raise ModelError(
                f"SAN {self.name!r}: activity {name!r} passes effect and "
                "writes; pass one (the writes are the effect)"
            )
        return [
            OutputGate(
                effect,
                name=f"{name}.effect",
                writes=None if writes is None else tuple(writes),
                when=when,
            )
        ]

    def instant(
        self,
        name: str,
        *,
        enabled: Predicate | None = None,
        effect: GateFunction | None = None,
        input_gates: Iterable[InputGate] = (),
        output_gates: Iterable[OutputGate] = (),
        cases: Iterable[Case] = (),
        reads: Iterable[str] | None = None,
        writes: Iterable[tuple[str, str, int]] | None = None,
        when: tuple[str, str, int] | None = None,
        priority: int = 0,
    ) -> ActivityDef:
        """Declare an instantaneous (zero-delay) activity.

        ``reads`` declares the enabling predicates' dependency set and
        ``writes`` the effect's marking writes (optionally guarded by
        ``when``), with the same contracts as :meth:`timed`.
        """
        igs = tuple(
            ([InputGate(enabled, name=f"{name}.enabled")] if enabled is not None else [])
            + list(input_gates)
        )
        ogs = tuple(
            self._effect_gates(name, effect, writes, when) + list(output_gates)
        )
        act = ActivityDef(
            name=name,
            kind=INSTANT,
            distribution=None,
            input_gates=igs,
            output_gates=ogs,
            cases=tuple(cases),
            reads=None if reads is None else tuple(reads),
            priority=priority,
        )
        self._add_activity(act)
        return act

    def _add_activity(self, act: ActivityDef) -> None:
        if act.name in self._activities:
            raise ModelError(f"SAN {self.name!r}: duplicate activity {act.name!r}")
        if not act.input_gates:
            raise ModelError(
                f"SAN {self.name!r}: activity {act.name!r} has no enabling "
                "predicate; pass enabled=... or input_gates=[...]"
            )
        self._activities[act.name] = act

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def places(self) -> Mapping[str, Place]:
        """Declared places by name."""
        return dict(self._places)

    @property
    def activities(self) -> Mapping[str, ActivityDef]:
        """Declared activities by name."""
        return dict(self._activities)

    def validate(self) -> None:
        """Check template-level consistency (non-empty, named uniquely)."""
        if not self._places:
            raise ModelError(f"SAN {self.name!r} declares no places")
        if not self._activities:
            raise ModelError(f"SAN {self.name!r} declares no activities")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SAN({self.name!r}, places={len(self._places)}, "
            f"activities={len(self._activities)})"
        )
