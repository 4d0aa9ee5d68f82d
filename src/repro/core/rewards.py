"""Reward variables: how measures are defined on a SAN model.

Following the Möbius reward formalism the paper relies on:

* a **rate reward** assigns a value to each *marking*; its interval-of-time
  accumulation ``∫ value(marking(t)) dt`` divided by the interval length is
  the time-averaged reward.  Availability measures are rate rewards whose
  value is 1 in "up" markings and 0 otherwise.
* an **impulse reward** assigns a value to each *activity completion*; its
  accumulation counts (or weighs) events.  The paper's disk-replacement
  rate is an impulse reward on disk-repair completions.

Reward functions are evaluated through the model's *global view*, so they
address places by full path (``"cluster/storage_tiers_down"``) or via
pre-resolved slots for speed.

Beyond plain interval-of-time accumulation, both reward kinds support the
other Möbius variable shapes:

* an **interval-of-time window** (``window=(start, end)``) restricts
  accumulation to the window (intersected with the run's
  ``[warmup, until]`` observation interval); the reward's ``duration`` is
  the effective window length, so ``time_average`` and ``rate`` stay
  consistent;
* **instant-of-time probes** (``probe_times=[...]`` on rate rewards)
  sample the reward value at fixed time points; results land in
  :attr:`RewardResult.instants`.
* a **declared read set** (``reads=[...]`` on rate rewards) names the
  places the function may read, letting the simulator build its per-slot
  observer lists at wiring time and skip tracked discovery entirely.
* a **declared form** (``form=Indicator(...)`` / ``form=Affine(...)`` on
  rate rewards) goes one step further: it states the reward's value as a
  guarded slot-affine expression the simulator can compile into an
  incremental update kernel — when an event writes a relevant place, the
  kernel refreshes the reward's value inline (integer guard bookkeeping
  plus a short affine recompute) instead of re-calling the Python
  expression.  The form is the reward's only definition (its function is
  synthesized from it), and ``engine="reference"`` never uses the kernel
  (the differential-testing contract of the gate/case kernels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from .patterns import path_match
from typing import Callable, Sequence

from .errors import ModelError
from .gates import GUARD_OPS
from .places import LocalView

__all__ = [
    "Affine",
    "Indicator",
    "RateReward",
    "ImpulseReward",
    "RewardResult",
]


def _validate_guards(owner: str, guards) -> tuple:
    """Normalize/validate a guard list.

    Each guard is ``(place, cmp, value)`` — the guard holds when
    ``marking[place] cmp value`` — or ``((place_a, place_b), cmp, value)``
    for the difference form ``marking[place_a] - marking[place_b] cmp
    value`` (the shape the covered-pairs availability condition needs).
    Comparisons are integer-exact, so guard evaluation can never drift
    from the Python expression.
    """
    out = []
    for g in guards:
        try:
            place, cmp, value = g
        except (TypeError, ValueError):
            raise ModelError(
                f"{owner}: each guard must be (place, cmp, value), got {g!r}"
            ) from None
        if isinstance(place, (tuple, list)):
            if len(place) != 2 or not all(isinstance(p, str) for p in place):
                raise ModelError(
                    f"{owner}: a difference guard needs two place paths, "
                    f"got {place!r}"
                )
            place = (str(place[0]), str(place[1]))
        elif not isinstance(place, str):
            raise ModelError(
                f"{owner}: guard place must be a path string or a "
                f"(path, path) pair, got {place!r}"
            )
        if cmp not in GUARD_OPS:
            raise ModelError(
                f"{owner}: guard comparison must be one of {tuple(GUARD_OPS)}, "
                f"got {cmp!r}"
            )
        out.append((place, cmp, float(value) if value % 1 else int(value)))
    return tuple(out)


def _validate_terms(owner: str, terms) -> tuple:
    """Normalize/validate affine terms to ``(place, coef, divisor)``.

    A term contributes ``coef * marking[place] / divisor`` (division by
    the normalized divisor ``1.0`` is exact, so the two-element shape
    ``(place, coef)`` loses nothing).
    """
    out = []
    for t in terms:
        if len(t) == 2:
            place, coef = t
            div = 1.0
        elif len(t) == 3:
            place, coef, div = t
        else:
            raise ModelError(
                f"{owner}: each term must be (place, coef) or "
                f"(place, coef, divisor), got {t!r}"
            )
        if not isinstance(place, str):
            raise ModelError(
                f"{owner}: term place must be a path string, got {place!r}"
            )
        div = float(div)
        if div == 0.0:
            raise ModelError(f"{owner}: term divisor must be nonzero")
        out.append((place, float(coef), div))
    return tuple(out)


class Affine:
    """Guarded slot-affine reward form.

    The reward's value is ``0.0`` unless every guard holds, in which case
    it is ``base + Σ coef_i · marking[place_i] / div_i`` accumulated left
    to right (the canonical arithmetic order — the compiled kernel and
    the synthesized Python function both evaluate exactly this, so they
    are bit-identical by construction).

    Parameters
    ----------
    base:
        Constant part of the value.
    terms:
        ``(place, coef)`` or ``(place, coef, divisor)`` tuples; each
        contributes ``coef * marking[place] / divisor``.
    guards:
        ``(place, cmp, value)`` or ``((place_a, place_b), cmp, value)``
        conditions (see :func:`_validate_guards`); all must hold for the
        value to be nonzero.
    """

    __slots__ = ("base", "terms", "guards")

    def __init__(self, base: float, terms=(), guards=()) -> None:
        self.base = float(base)
        self.terms = _validate_terms("Affine form", terms)
        self.guards = _validate_guards("Affine form", guards)

    def places(self) -> tuple[str, ...]:
        """Every place path the form reads, in first-mention order."""
        seen: dict[str, None] = {}
        for place, _cmp, _v in self.guards:
            for p in (place if isinstance(place, tuple) else (place,)):
                seen.setdefault(p)
        for place, _coef, _div in self.terms:
            seen.setdefault(place)
        return tuple(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Affine(base={self.base!r}, terms={self.terms!r}, "
            f"guards={self.guards!r})"
        )


class Indicator(Affine):
    """Guarded constant reward form: ``value`` while every guard holds.

    The availability-measure shape: ``Indicator(guards=[("a", "==", 0),
    ("b", "<=", 0)])`` is 1.0 exactly when the marking satisfies every
    condition.  Equivalent to :class:`Affine` with no terms.
    """

    __slots__ = ()

    def __init__(self, guards, value: float = 1.0) -> None:
        super().__init__(base=value, terms=(), guards=guards)
        if not self.guards:
            raise ModelError("Indicator form needs at least one guard")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Indicator(guards={self.guards!r}, value={self.base!r})"


def _synthesize_form_function(form: Affine) -> Callable:
    """Build the Python evaluation of a declared form.

    Reads places by path through the view (so tracked discovery and the
    declared-reads verification see every read) and computes exactly the
    canonical guard/affine arithmetic the compiled kernel uses —
    bit-identical by construction.
    """
    base = form.base
    terms = form.terms
    compiled_guards = tuple(
        (place, GUARD_OPS[cmp], value) for place, cmp, value in form.guards
    )

    def evaluate(m) -> float:
        for place, cmp_fn, value in compiled_guards:
            if isinstance(place, tuple):
                lhs = m[place[0]] - m[place[1]]
            else:
                lhs = m[place]
            if not cmp_fn(lhs, value):
                return 0.0
        acc = base
        for place, coef, div in terms:
            acc += coef * m[place] / div
        return acc

    return evaluate


def _validate_window(
    name: str, window: tuple[float, float] | None
) -> tuple[float, float] | None:
    if window is None:
        return None
    try:
        start, end = window
    except (TypeError, ValueError):
        raise ModelError(
            f"reward {name!r}: window must be a (start, end) pair, got {window!r}"
        ) from None
    start, end = float(start), float(end)
    if not 0.0 <= start < end:
        raise ModelError(
            f"reward {name!r}: window must satisfy 0 <= start < end, "
            f"got ({start}, {end})"
        )
    return (start, end)


class RateReward:
    """Time-integrated function of the marking.

    Parameters
    ----------
    name:
        Result key.
    function:
        ``f(global_view) -> float`` evaluated whenever a place it reads
        changes.  The simulator discovers the read set automatically
        unless ``reads`` declares it.
    reads:
        Optional declared read set: place paths (or globs) covering
        *every* place the function may ever read.  Declared rewards are
        wired into per-slot observer lists up front and evaluated without
        read tracking; the simulator verifies the initial evaluation
        against the declaration and raises on undeclared *name-addressed*
        reads (``m["path"]``).  Raw slot reads (``m.raw[slot]``) are
        invisible to that check, so a function using them must keep its
        declaration complete by construction.  No shipped measure reads
        ``m.raw``: each declares a ``form`` and takes its reads from it.
    window:
        Optional ``(start, end)`` interval-of-time window; accumulation
        is restricted to the window intersected with ``[warmup, until]``.
    probe_times:
        Optional instant-of-time sample points (hours, finite and
        ``>= 0``); each run records ``(time, value)`` pairs in
        :attr:`RewardResult.instants`.  The recorded value is the left
        limit: the reward value just before any event at that instant.
    form:
        Optional declared :class:`Indicator` / :class:`Affine` form, the
        reward's only definition: ``function`` is synthesized from it
        and ``reads`` derived from its places, so neither may be passed
        beside it.  The simulator compiles a declared form into an
        incremental update kernel: events that write one of the form's
        places refresh the reward inline (exact integer guard
        bookkeeping plus the canonical affine arithmetic, the same the
        synthesized function computes) instead of re-calling
        ``function``.  ``engine="reference"`` ignores forms.
    """

    kind = "rate"

    def __init__(
        self,
        name: str,
        function: Callable[[LocalView], float] | None = None,
        *,
        reads: Sequence[str] | None = None,
        window: tuple[float, float] | None = None,
        probe_times: Sequence[float] | None = None,
        form: Affine | None = None,
    ) -> None:
        if form is not None and not isinstance(form, Affine):
            raise ModelError(
                f"rate reward {name!r}: form must be an Indicator or "
                f"Affine, got {form!r}"
            )
        if form is not None:
            if function is not None or reads is not None:
                raise ModelError(
                    f"rate reward {name!r}: a form is the reward's only "
                    "definition; pass no function or reads beside it"
                )
            function = _synthesize_form_function(form)
            # A degenerate constant form (no guards, no terms) reads
            # nothing: leave reads undeclared — the value never needs a
            # refresh after t=0.
            reads = form.places() or None
        elif function is None:
            raise ModelError(
                f"rate reward {name!r}: function must be callable "
                "(or a form declared to synthesize it from)"
            )
        elif not callable(function):
            raise ModelError(f"rate reward {name!r}: function must be callable")
        self.name = name
        self.function = function
        self.form = form
        self.reads = None if reads is None else tuple(reads)
        if self.reads is not None and not self.reads:
            raise ModelError(f"rate reward {name!r}: reads must not be empty")
        self.window = _validate_window(name, window)
        if probe_times is None:
            self.probe_times = None
        else:
            times = tuple(float(t) for t in probe_times)
            for t in times:
                if not 0.0 <= t < math.inf:  # also rejects NaN
                    raise ModelError(
                        f"rate reward {name!r}: probe times must be finite "
                        f"and >= 0, got {t}"
                    )
            self.probe_times = tuple(sorted(times)) or None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RateReward({self.name!r})"


class ImpulseReward:
    """Accumulates a value each time a matching activity completes.

    Parameters
    ----------
    name:
        Result key.
    activity_pattern:
        :mod:`repro.core.patterns` glob over activity paths (``*``, ``?``;
        brackets are literal: ``"*/tier[*]/replace_disk"``) or a
        predicate over the path.
    value:
        Constant increment, or ``f(global_view) -> float`` evaluated on the
        post-completion marking.
    window:
        Optional ``(start, end)`` interval-of-time window; completions are
        counted only inside the window (intersected with ``[warmup,
        until]``).
    """

    kind = "impulse"

    def __init__(
        self,
        name: str,
        activity_pattern: str | Callable[[str], bool],
        value: float | Callable[[LocalView], float] = 1.0,
        *,
        window: tuple[float, float] | None = None,
    ) -> None:
        self.name = name
        self.activity_pattern = activity_pattern
        self.value = value
        self.window = _validate_window(name, window)

    def matches(self, activity_path: str) -> bool:
        """True if this reward observes the given activity instance."""
        if callable(self.activity_pattern):
            return bool(self.activity_pattern(activity_path))
        return path_match(activity_path, self.activity_pattern)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ImpulseReward({self.name!r}, {self.activity_pattern!r})"


@dataclass
class RewardResult:
    """Accumulated outcome of one reward variable over one run.

    Attributes
    ----------
    name / kind:
        Identity of the reward.
    integral:
        For rate rewards: ``∫ value dt`` over the observation window.
    impulse_sum:
        For impulse rewards: sum of impulse values.
    count:
        For impulse rewards: number of matching completions.
    duration:
        Length of the observation window (after warm-up; for windowed
        rewards, the effective window length).
    instants:
        Instant-of-time samples, ``(time, value)`` pairs in time order
        (rate rewards with ``probe_times`` only).  Probes beyond an early
        stop are not recorded.
    """

    name: str
    kind: str
    integral: float = 0.0
    impulse_sum: float = 0.0
    count: int = 0
    duration: float = 0.0
    instants: list[tuple[float, float]] = field(default_factory=list)

    def instant(self, time: float) -> float:
        """Probed value at ``time`` (must be one of the probe times)."""
        for t, v in self.instants:
            if t == time:
                return v
        raise KeyError(
            f"reward {self.name!r}: no instant-of-time sample at t={time}; "
            f"recorded times: {[t for t, _ in self.instants]}"
        )

    @property
    def time_average(self) -> float:
        """Mean rate-reward value over the window (rate rewards)."""
        if self.duration <= 0.0:
            return 0.0
        return self.integral / self.duration

    @property
    def rate(self) -> float:
        """Impulses per hour over the window (impulse rewards)."""
        if self.duration <= 0.0:
            return 0.0
        return self.impulse_sum / self.duration

    @property
    def value(self) -> float:
        """The headline scalar: time average for rate, sum for impulse."""
        return self.time_average if self.kind == "rate" else self.impulse_sum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "rate":
            return f"RewardResult({self.name!r}, time_average={self.time_average:.6g})"
        return (
            f"RewardResult({self.name!r}, sum={self.impulse_sum:.6g}, "
            f"count={self.count})"
        )
