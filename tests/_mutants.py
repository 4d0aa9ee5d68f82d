"""Mutation corpus for the model-integrity sanitizer.

Each :class:`Mutant` is a pair of models built from the same factory:
``build(False)`` is the clean twin, ``build(True)`` injects exactly one
declaration defect.  ``channel`` names the detector that must flag the
mutated model (``"sanitize"`` — the instrumented ``engine="sanitize"``
run — ``"lint"`` — the static :func:`repro.core.lint_model` pass — or
``"construction"`` — the model build itself, which rejects a function
passed beside a declared effect or reward form) and ``expect`` is the
:class:`SanitizerViolation` kind / :class:`LintFinding` code it must
produce, or the owner its ``ModelError`` must name.  Clean twins must
come back spotless on both the lint and the sanitize channel; mutants
flagged only at runtime (short-circuit reads, mid-run case sums)
additionally assert the lint pass stays clean, pinning down which layer
owns the catch.

``tests/test_mutants.py`` sweeps the whole corpus; the CI ``sanitize``
job runs it as the blocking mutation suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core import (
    SAN,
    Affine,
    Case,
    Exponential,
    Indicator,
    RateReward,
    Simulator,
    flatten,
)


@dataclass(frozen=True)
class Mutant:
    """One corrupted-declaration scenario plus its clean twin."""

    name: str
    channel: str  # "sanitize" | "lint" | "construction"
    expect: str  # SanitizerViolation.kind, LintFinding.code or owner named
    build: Callable[[bool], tuple]  # mutate -> (san, rewards)
    hours: float = 400.0
    #: Defects only an instrumented run can see (short-circuit reads,
    #: mid-run case sums): the mutated model must still lint clean.
    lint_clean_when_mutated: bool = False


def run_sanitize(san, rewards: Sequence = (), hours: float = 400.0, seed: int = 7):
    """Run the instrumented engine over a corpus model, return the report."""
    sim = Simulator(
        flatten(san), base_seed=seed, sample_batch=None, engine="sanitize"
    )
    with warnings.catch_warnings():
        # The report is inspected directly; the advisory warning is noise.
        warnings.simplefilter("ignore", RuntimeWarning)
        result = sim.run(hours, rewards=tuple(rewards))
    return result.sanitizer_report


# ---------------------------------------------------------------------------
# Shared factories
# ---------------------------------------------------------------------------


def _machine(fail_kw: dict | None = None, repair_kw: dict | None = None) -> SAN:
    """Repairable machine: the standard declared-dependency base model."""
    s = SAN("m")
    s.place("up", 1)
    s.place("down", 0)
    s.place("count", 0)
    fk = dict(
        enabled=lambda m: m["up"] == 1,
        reads=["up"],
        writes=[("up", "set", 0), ("down", "set", 1)],
    )
    fk.update(fail_kw or {})
    s.timed("fail", Exponential(0.1), **fk)
    rk = dict(
        enabled=lambda m: m["down"] == 1,
        reads=["down"],
        writes=[("down", "set", 0), ("up", "set", 1), ("count", "add", 1)],
    )
    rk.update(repair_kw or {})
    s.timed("repair", Exponential(1.0), **rk)
    return s


def _coin(case_a: Case, case_b: Case) -> SAN:
    """Two-outcome spinner used by the case mutants."""
    s = SAN("coin")
    s.place("heads", 0)
    s.place("tails", 0)
    s.timed(
        "flip",
        Exponential(1.0),
        enabled=lambda m: m["heads"] >= 0,
        reads=["heads"],
        cases=[case_a, case_b],
    )
    return s


# ---------------------------------------------------------------------------
# Sanitize-channel mutants: instrumented execution catches the defect
# ---------------------------------------------------------------------------


def _m_initial_undeclared_read(mutate: bool):
    if mutate:
        enabled = lambda m: m["up"] == 1 and m["count"] >= 0  # noqa: E731
    else:
        enabled = lambda m: m["up"] == 1  # noqa: E731
    san = _machine(fail_kw=dict(enabled=enabled))
    return san, ()


def _m_short_circuit_read(mutate: bool):
    # The extra read hides behind ``down == 1``: false on the initial
    # marking, so the static pass cannot see it — only the shadow run.
    if mutate:
        enabled = lambda m: m["down"] == 1 and m["count"] >= 0  # noqa: E731
    else:
        enabled = lambda m: m["down"] == 1  # noqa: E731
    san = _machine(repair_kw=dict(enabled=enabled))
    return san, ()


def _m_distribution_read(mutate: bool):
    if mutate:
        reads = ["down"]
    else:
        reads = ["down", "count"]
    # Hand-built machine: "repair" gets a marking-dependent rate that
    # reads count, declared (clean) or omitted (mutant).
    s = SAN("m")
    s.place("up", 1)
    s.place("down", 0)
    s.place("count", 0)
    s.timed(
        "fail",
        Exponential(0.1),
        enabled=lambda m: m["up"] == 1,
        reads=["up"],
        writes=[("up", "set", 0), ("down", "set", 1)],
    )
    s.timed(
        "repair",
        lambda m: Exponential(1.0 + 0.01 * m["count"]),
        enabled=lambda m: m["down"] == 1,
        reads=reads,
        writes=[("down", "set", 0), ("up", "set", 1), ("count", "add", 1)],
    )
    return s, ()


def _m_reward_short_circuit(mutate: bool):
    def value(m):
        if m["m/down"]:
            return float(m["m/count"])
        return float(m["m/up"])

    reads = ["m/down", "m/up"] if mutate else ["m/down", "m/up", "m/count"]
    reward = RateReward("probe", value, reads=reads)
    return _machine(), (reward,)


def _m_midrun_case_sum(mutate: bool):
    bump = 0.6 if mutate else 0.5

    def p_heads(m):
        return 0.5 if m["heads"] + m["tails"] == 0 else bump

    def p_tails(m):
        return 0.5

    def heads(m, rng):
        m["heads"] = m["heads"] + 1

    def tails(m, rng):
        m["tails"] = m["tails"] + 1

    san = _coin(
        Case(p_heads, heads, name="heads"),
        Case(p_tails, tails, name="tails"),
    )
    return san, ()


def _m_reward_nan(mutate: bool):
    def value(m):
        if m["m/count"] >= 1:
            return float("nan") if mutate else 1.0
        return 1.0

    return _machine(), (RateReward("haz", value),)


# ---------------------------------------------------------------------------
# Lint-channel mutants: the static pass catches the defect
# ---------------------------------------------------------------------------


def _m_unresolved_read(mutate: bool):
    reads = ["up", "ghost"] if mutate else ["up"]
    return _machine(fail_kw=dict(reads=reads)), ()


def _m_unresolved_write(mutate: bool):
    target = "ghost" if mutate else "down"
    san = _machine(
        fail_kw=dict(writes=[("up", "set", 0), (target, "set", 1)])
    )
    return san, ()


def _m_unresolved_guard(mutate: bool):
    place = "ghost" if mutate else "tokens"
    s = SAN("g")
    s.place("tokens", 0)
    s.timed(
        "tick",
        Exponential(1.0),
        enabled=lambda m: m["tokens"] >= 0,
        reads=["tokens"],
        writes=[("tokens", "add", 1)],
        when=(place, "<", 3),
    )
    return s, ()


def _m_nan_dist_param(mutate: bool):
    dist = Exponential(0.1)
    if mutate:
        # The constructor rejects NaN rates, so model corruption has to
        # sneak past it — exactly what the lint parameter walk is for.
        object.__setattr__(dist, "rate", float("nan"))
    s = SAN("m")
    s.place("up", 1)
    s.place("down", 0)
    s.timed(
        "fail",
        dist,
        enabled=lambda m: m["up"] == 1,
        reads=["up"],
        writes=[("up", "set", 0), ("down", "set", 1)],
    )
    s.timed(
        "repair",
        Exponential(1.0),
        enabled=lambda m: m["down"] == 1,
        reads=["down"],
        writes=[("down", "set", 0), ("up", "set", 1)],
    )
    return s, ()


def _m_non_distribution_callable(mutate: bool):
    if mutate:
        draw = lambda m: 1.5  # noqa: E731 - not a Distribution
    else:
        draw = lambda m: Exponential(1.5)  # noqa: E731
    s = SAN("m")
    s.place("tokens", 0)
    s.timed(
        "tick",
        draw,
        enabled=lambda m: m["tokens"] >= 0,
        reads=["tokens"],
        writes=[("tokens", "add", 1)],
    )
    return s, ()


def _m_initial_case_sum(mutate: bool):
    p = 0.6 if mutate else 0.5

    def heads(m, rng):
        m["heads"] = m["heads"] + 1

    def tails(m, rng):
        m["tails"] = m["tails"] + 1

    san = _coin(
        Case(lambda m: p, heads, name="heads"),
        Case(lambda m: p, tails, name="tails"),
    )
    return san, ()


def _m_unreachable_activity(mutate: bool):
    san = _machine()
    if mutate:
        san.place("never", 0)
        san.timed(
            "ghost",
            Exponential(1.0),
            enabled=lambda m: m["never"] >= 1,
            reads=["never"],
            writes=[("count", "add", 1)],
        )
    return san, ()


def _m_dead_place(mutate: bool):
    san = _machine()
    if mutate:
        san.place("orphan", 0)
    return san, ()


def _m_instant_cycle(mutate: bool):
    s = SAN("relay")
    s.place("a", 1)
    s.place("b", 0)
    s.place("sink", 0)
    s.instant(
        "ping",
        enabled=lambda m: m["a"] >= 1,
        reads=["a"],
        writes=[("a", "add", -1), ("b", "add", 1)],
    )
    if mutate:
        # pong feeds a back: ping and pong re-enable each other forever.
        s.instant(
            "pong",
            enabled=lambda m: m["b"] >= 1,
            reads=["b"],
            writes=[("b", "add", -1), ("a", "add", 1)],
        )
    else:
        s.instant(
            "pong",
            enabled=lambda m: m["b"] >= 1,
            reads=["b"],
            writes=[("b", "add", -1), ("sink", "add", 1)],
        )
    return s, ()


def _m_bad_predicate(mutate: bool):
    if mutate:
        enabled = lambda m: 1 // m["down"] > 0  # noqa: E731 - raises at down=0
    else:
        enabled = lambda m: m["down"] == 1  # noqa: E731
    san = _machine(repair_kw=dict(enabled=enabled))
    return san, ()


# ---------------------------------------------------------------------------
# Construction-channel mutants: the model build rejects the defect
# ---------------------------------------------------------------------------
#
# Each passes, beside a declared effect or reward form, a function that
# disagrees with it.  The declaration is the only definition, so no run
# can follow the function: building the pair raises ``ModelError``
# naming its owner.  The clean twin is the declaration alone.


def _beside(mutate: bool, effect) -> dict:
    """``effect=`` passed beside an activity's declared writes when mutating."""
    return dict(effect=effect) if mutate else {}


def _m_wrong_add_amount(mutate: bool):
    def effect(m, rng):
        m["down"] = 0
        m["up"] = 1
        m["count"] = m["count"] + 2

    return _machine(repair_kw=_beside(mutate, effect)), ()


def _m_extra_undeclared_write(mutate: bool):
    def effect(m, rng):
        m["up"] = 0
        m["down"] = 1
        m["count"] = m["count"] + 1

    return _machine(fail_kw=_beside(mutate, effect)), ()


def _m_wrong_set_value(mutate: bool):
    def effect(m, rng):
        m["up"] = 0
        m["down"] = 2

    return _machine(fail_kw=_beside(mutate, effect)), ()


def _m_declared_write_skipped(mutate: bool):
    def effect(m, rng):
        m["down"] = 0
        m["up"] = 1

    return _machine(repair_kw=_beside(mutate, effect)), ()


def _m_guard_comparison(mutate: bool):
    def effect(m, rng):
        if m["tokens"] < 2:
            m["tokens"] = m["tokens"] + 1

    s = SAN("g")
    s.place("tokens", 0)
    s.timed(
        "tick",
        Exponential(1.0),
        enabled=lambda m: m["tokens"] >= 0,
        reads=["tokens"],
        writes=[("tokens", "add", 1)],
        when=("tokens", "<", 3),
        **_beside(mutate, effect),
    )
    return s, ()


def _m_case_branch0(mutate: bool):
    def heads(m, rng):
        m["heads"] = m["heads"] + 2

    san = _coin(
        Case(0.7, heads if mutate else None, name="heads", writes=[("heads", "add", 1)]),
        Case(0.3, name="tails", writes=[("tails", "add", 1)]),
    )
    return san, ()


def _m_case_branch1(mutate: bool):
    def tails(m, rng):
        m["tails"] = m["tails"] + 2

    san = _coin(
        Case(0.7, name="heads", writes=[("heads", "add", 1)]),
        Case(0.3, tails if mutate else None, name="tails", writes=[("tails", "add", 1)]),
    )
    return san, ()


def _m_noop_case_writes(mutate: bool):
    def skip(m, rng):
        m["heads"] = m["heads"] + 1

    san = _coin(
        Case(0.5, skip if mutate else None, name="skip", writes=()),
        Case(0.5, name="tails", writes=[("tails", "add", 1)]),
    )
    return san, ()


def _m_rng_in_declared_effect(mutate: bool):
    def effect(m, rng):
        rng.uniform()  # entropy a compiled kernel would never draw
        m["down"] = 0
        m["up"] = 1
        m["count"] = m["count"] + 1

    return _machine(repair_kw=_beside(mutate, effect)), ()


def _m_indicator_mismatch(mutate: bool):
    def value(m):
        return 0.5 if m["m/up"] >= 1 else 0.0

    reward = RateReward(
        "avail",
        value if mutate else None,
        form=Indicator([("m/up", ">=", 1)], value=1.0),
    )
    return _machine(), (reward,)


def _m_affine_mismatch(mutate: bool):
    def value(m):
        return 2.0 * m["m/count"]

    reward = RateReward(
        "repairs",
        value if mutate else None,
        form=Affine(0.0, terms=[("m/count", 1.0)]),
    )
    return _machine(), (reward,)


MUTANTS: tuple[Mutant, ...] = (
    # instrumented-run channel
    Mutant("initial-undeclared-read", "sanitize", "undeclared-read", _m_initial_undeclared_read),
    Mutant(
        "short-circuit-read",
        "sanitize",
        "undeclared-read",
        _m_short_circuit_read,
        lint_clean_when_mutated=True,
    ),
    Mutant("distribution-read", "sanitize", "undeclared-read", _m_distribution_read),
    Mutant(
        "reward-short-circuit",
        "sanitize",
        "undeclared-read",
        _m_reward_short_circuit,
        lint_clean_when_mutated=True,
    ),
    Mutant(
        "midrun-case-sum",
        "sanitize",
        "case-sum",
        _m_midrun_case_sum,
        lint_clean_when_mutated=True,
    ),
    Mutant(
        "reward-nan",
        "sanitize",
        "non-finite-reward",
        _m_reward_nan,
        lint_clean_when_mutated=True,
    ),
    # static-lint channel
    Mutant("unresolved-read", "lint", "unresolved-read", _m_unresolved_read),
    Mutant("unresolved-write", "lint", "unresolved-write", _m_unresolved_write),
    Mutant("unresolved-guard", "lint", "unresolved-guard", _m_unresolved_guard),
    Mutant("nan-dist-param", "lint", "nan-distribution-param", _m_nan_dist_param),
    Mutant("non-distribution-callable", "lint", "bad-distribution", _m_non_distribution_callable),
    Mutant("initial-case-sum", "lint", "case-sum", _m_initial_case_sum),
    Mutant("unreachable-activity", "lint", "unreachable-activity", _m_unreachable_activity),
    Mutant("dead-place", "lint", "dead-place", _m_dead_place),
    Mutant("instant-cycle", "lint", "instant-cycle", _m_instant_cycle),
    Mutant("bad-predicate", "lint", "bad-predicate", _m_bad_predicate),
    # construction channel: expect is the owner the ModelError names
    Mutant("wrong-add-amount", "construction", "activity 'repair'", _m_wrong_add_amount),
    Mutant("extra-undeclared-write", "construction", "activity 'fail'", _m_extra_undeclared_write),
    Mutant("wrong-set-value", "construction", "activity 'fail'", _m_wrong_set_value),
    Mutant("declared-write-skipped", "construction", "activity 'repair'", _m_declared_write_skipped),
    Mutant("guard-comparison", "construction", "activity 'tick'", _m_guard_comparison),
    Mutant("case-branch0-mismatch", "construction", "case 'heads'", _m_case_branch0),
    Mutant("case-branch1-mismatch", "construction", "case 'tails'", _m_case_branch1),
    Mutant("noop-case-writes", "construction", "case 'skip'", _m_noop_case_writes),
    Mutant("rng-in-declared-effect", "construction", "activity 'repair'", _m_rng_in_declared_effect),
    Mutant("indicator-mismatch", "construction", "rate reward 'avail'", _m_indicator_mismatch),
    Mutant("affine-mismatch", "construction", "rate reward 'repairs'", _m_affine_mismatch),
)
