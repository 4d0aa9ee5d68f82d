"""Mutation suite: every corrupted declaration in the corpus is flagged.

The sanitizer's whole value is *sensitivity* (a wrong declaration never
slips through) with *specificity* (a correct model never trips it).
This suite pins both sides over the ``tests/_mutants.py`` corpus:

* every mutant is detected by its owning channel with the expected
  violation kind / lint code, or (a function passed beside a declared
  effect or reward form) rejected when built, naming its owner;
* every clean twin comes back spotless on **both** the lint and the
  sanitize channel;
* runtime-only defects (short-circuit reads, mid-run case sums,
  marking-dependent NaN rewards) stay invisible to the static pass —
  documenting why the instrumented engine exists at all.
"""

from __future__ import annotations

import re

import pytest

from repro.core import ModelError, lint_model

from _mutants import MUTANTS, Mutant, run_sanitize

SANITIZE = [m for m in MUTANTS if m.channel == "sanitize"]
LINT = [m for m in MUTANTS if m.channel == "lint"]
CONSTRUCTION = [m for m in MUTANTS if m.channel == "construction"]
_IDS = [m.name for m in MUTANTS]


def test_corpus_size_floor():
    """At least twenty corrupted-declaration scenarios with unique names,
    among them one for every violation kind a sanitized run reports and
    one for every owner a declaration has (activity, case, reward)."""
    assert len(MUTANTS) >= 20
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    assert {m.expect for m in SANITIZE} == {
        "undeclared-read",
        "case-sum",
        "non-finite-reward",
    }
    assert {m.expect.rsplit(" ", 1)[0] for m in CONSTRUCTION} == {
        "activity",
        "case",
        "rate reward",
    }


@pytest.mark.parametrize("mutant", MUTANTS, ids=_IDS)
def test_clean_twin_is_spotless(mutant: Mutant):
    """The uncorrupted twin passes lint AND a full sanitized run."""
    san, rewards = mutant.build(False)
    lint = lint_model(san)
    assert lint.ok, f"clean twin of {mutant.name}:\n{lint.format()}"
    report = run_sanitize(san, rewards, hours=mutant.hours)
    assert report.ok, f"clean twin of {mutant.name}:\n{report.format()}"
    assert report.n_events > 0


@pytest.mark.parametrize("mutant", SANITIZE, ids=[m.name for m in SANITIZE])
def test_sanitize_channel_flags_mutant(mutant: Mutant):
    san, rewards = mutant.build(True)
    report = run_sanitize(san, rewards, hours=mutant.hours)
    kinds = {v.kind for v in report.violations}
    assert mutant.expect in kinds, (
        f"{mutant.name}: expected {mutant.expect!r}, got {sorted(kinds)}\n"
        f"{report.format()}"
    )


@pytest.mark.parametrize("mutant", LINT, ids=[m.name for m in LINT])
def test_lint_channel_flags_mutant(mutant: Mutant):
    san, _rewards = mutant.build(True)
    report = lint_model(san)
    codes = {f.code for f in report.findings}
    assert mutant.expect in codes, (
        f"{mutant.name}: expected {mutant.expect!r}, got {sorted(codes)}\n"
        f"{report.format()}"
    )


@pytest.mark.parametrize(
    "mutant", CONSTRUCTION, ids=[m.name for m in CONSTRUCTION]
)
def test_construction_channel_flags_mutant(mutant: Mutant):
    """A function beside a declaration never reaches a run: whatever it
    would have done differently, the build rejects the pair."""
    with pytest.raises(ModelError, match=re.escape(mutant.expect)):
        mutant.build(True)


@pytest.mark.parametrize(
    "mutant",
    [m for m in MUTANTS if m.lint_clean_when_mutated],
    ids=[m.name for m in MUTANTS if m.lint_clean_when_mutated],
)
def test_runtime_only_defects_evade_static_lint(mutant: Mutant):
    """These defects are structurally invisible; only the shadow run sees them."""
    san, _rewards = mutant.build(True)
    report = lint_model(san)
    assert report.ok, f"{mutant.name} unexpectedly caught statically:\n{report.format()}"


@pytest.mark.parametrize("mutant", MUTANTS, ids=_IDS)
def test_violations_carry_provenance(mutant: Mutant):
    """Every detection names its subject; runtime ones localize the event."""
    if mutant.channel == "construction":
        with pytest.raises(ModelError) as info:
            mutant.build(True)
        message = str(info.value)
        # The owner and the declaration the function collides with.
        assert mutant.expect in message
        assert "writes" in message or "form" in message
        return
    san, rewards = mutant.build(True)
    if mutant.channel == "sanitize":
        report = run_sanitize(san, rewards, hours=mutant.hours)
        hits = [v for v in report.violations if v.kind == mutant.expect]
        assert hits
        for v in hits:
            assert v.subject
            assert v.message
            if v.event_index is not None:
                assert v.event_index >= 0
                assert v.sim_time is not None and v.sim_time >= 0.0
    else:
        report = lint_model(san)
        hits = [f for f in report.findings if f.code == mutant.expect]
        assert hits
        for f in hits:
            assert f.subject
            assert f.message
            assert f.severity in ("error", "warning")
