"""Model-integrity sanitizer: bit-identity, reports, lint, hardening.

The contract under test, in three layers:

* ``engine="sanitize"`` is the per-draw reference engine with shadow
  declaration checking bolted on: its trajectories, rewards, traces and
  final markings are **bit-identical** to ``engine="reference"`` with
  ``sample_batch=None`` on the same stream — on toy models and on the
  paper's shipped cluster/storage models;
* ``strict`` escalates recorded violations to :class:`SanitizerError`
  carrying the full report;
* the fast path refuses to report a non-finite reward accumulation as
  a result.

``tests/test_mutants.py`` owns detection coverage; this file owns the
engine-integration semantics.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.cfs import ClusterModel, StorageModel
from repro.cfs.parameters import abe_parameters, petascale_parameters
from repro.core import (
    BinaryTrace,
    CompiledProgram,
    EventTrace,
    Exponential,
    ImpulseReward,
    LocalView,
    RateReward,
    SAN,
    SanitizerError,
    SimulationBudgetError,
    SimulationError,
    Simulator,
    flatten,
    lint_model,
)

from _mutants import (
    _m_initial_undeclared_read,
    _m_short_circuit_read,
    _m_unresolved_read,
    _machine,
    run_sanitize,
)


def assert_runs_identical(a, b):
    """Full bit-identity between two RunResults."""
    assert a.final_time == b.final_time
    assert a.duration == b.duration
    assert a.n_events == b.n_events
    assert a.stopped_early == b.stopped_early
    assert a.final_marking == b.final_marking
    assert set(a.rewards) == set(b.rewards)
    for name, ra in a.rewards.items():
        rb = b.rewards[name]
        assert ra.integral == rb.integral, name
        assert ra.impulse_sum == rb.impulse_sum, name
        assert ra.count == rb.count, name
        assert ra.duration == rb.duration, name
        assert ra.instants == rb.instants, name
    assert set(a.traces) == set(b.traces)
    for name, ta in a.traces.items():
        tb = b.traces[name]
        if hasattr(ta, "intervals_where"):
            assert ta.intervals_where(True) == tb.intervals_where(True), name
            assert ta.intervals_where(False) == tb.intervals_where(False), name


def _sanitize_sim(model, seed=11):
    return Simulator(model, base_seed=seed, sample_batch=None, engine="sanitize")


def _reference_sim(model, seed=11):
    return Simulator(model, base_seed=seed, sample_batch=None, engine="reference")


class TestBitIdentity:
    def test_machine_differential(self):
        san, _ = _machine(), None
        model = flatten(san)
        rewards = (
            RateReward("avail", lambda m: float(m["m/up"])),
            RateReward("repairs", lambda m: float(m["m/count"])),
        )
        for seed in (0, 11, 404):
            got = _sanitize_sim(model, seed).run(3000.0, rewards=rewards)
            want = _reference_sim(model, seed).run(3000.0, rewards=rewards)
            assert_runs_identical(got, want)
            assert got.sanitizer_report is not None
            assert got.sanitizer_report.ok
            # Each reward is checked at t=0 and after every event, not
            # only after the events that change its places.
            checks = got.sanitizer_report.checks
            assert checks["reward_evals"] == 2 * (got.n_events + 1)

    def test_warmup_stop_and_restart(self):
        model = flatten(_machine())
        kw = dict(
            warmup=250.0,
            rewards=(RateReward("avail", lambda m: float(m["m/up"])),),
            stop_predicate=lambda m: m["m/count"] >= 5,
        )
        got = _sanitize_sim(model).run(2000.0, **kw)
        want = _reference_sim(model).run(2000.0, **kw)
        assert_runs_identical(got, want)
        assert got.stopped_early
        # Restart both engines from the stop marking: still lock-step.
        got2 = _sanitize_sim(model, seed=5).run(
            500.0, initial_marking=got.final_marking
        )
        want2 = _reference_sim(model, seed=5).run(
            500.0, initial_marking=want.final_marking
        )
        assert_runs_identical(got2, want2)

    @staticmethod
    def _observers():
        """Windowed and probed rate rewards, windowed and marking-valued
        impulse rewards and both trace kinds (fresh objects per run)."""
        return dict(
            warmup=100.0,
            rewards=(
                RateReward(
                    "avail_w", lambda m: float(m["m/up"]), window=(300.0, 1500.0)
                ),
                RateReward(
                    "avail_p",
                    lambda m: float(m["m/up"]),
                    probe_times=(0.0, 250.0, 999.5, 2000.0),
                ),
                ImpulseReward("repairs_w", "m/repair", window=(200.0, 1200.0)),
                ImpulseReward("fails", "m/fail", lambda m: 2.0 * m["m/count"]),
            ),
            traces=(
                BinaryTrace("up", lambda m: m["m/up"] == 1),
                EventTrace("events", "m/*", payload=lambda m: m["m/count"]),
            ),
        )

    def test_windows_probes_and_traces(self):
        model = flatten(_machine())
        for seed in (0, 11):
            got = _sanitize_sim(model, seed).run(2000.0, **self._observers())
            want = _reference_sim(model, seed).run(2000.0, **self._observers())
            assert_runs_identical(got, want)
            assert got.sanitizer_report.ok
            assert len(got["avail_p"].instants) == 4
            assert got["repairs_w"].count > 0
            events = got.trace("events").events
            assert events and events == want.trace("events").events

    def test_tripped_max_events_snapshot(self):
        model = flatten(_machine())
        errors = []
        for engine in ("sanitize", "reference"):
            sim = Simulator(
                model, base_seed=3, sample_batch=None, engine=engine, max_events=25
            )
            with pytest.raises(SimulationBudgetError) as info:
                sim.run(2000.0, **self._observers())
            errors.append(info.value)
        got, want = errors
        assert got.n_events == want.n_events == 25
        assert got.sim_time == want.sim_time
        assert got.marking == want.marking
        assert got.rewards == want.rewards

    def test_aggregate_tier_restart_segments(self):
        """The deep-tail workload's aggregate tier, restarted from marked
        states as RESTART segments are (up to the next level, or at the
        loss level, where ``lose`` fires at t=0): the report is clean and
        the trajectory is the per-draw reference's."""
        from repro.experiments.rare import aggregate_tier_san

        model = aggregate_tier_san(480, 6, 1e-3, 0.02)
        slot = model.paths["tier/failed"]
        for seed, k in ((1, 0), (2, 3), (3, 6), (4, 7)):
            marking = list(model.initial)
            marking[slot] = k
            kw = dict(
                initial_marking=marking,
                stop_predicate=lambda m, k=k: m["tier/failed"] > max(k, 6),
                rewards=(RateReward("lost", lambda m: float(m["tier/lost"])),),
            )
            got = _sanitize_sim(model, seed).run(400.0, **kw)
            want = _reference_sim(model, seed).run(400.0, **kw)
            assert_runs_identical(got, want)
            report = got.sanitizer_report
            assert report.ok, report.format()
            assert got.n_events > 0

    @pytest.mark.slow
    def test_abe_cluster_differential(self):
        cluster = ClusterModel(abe_parameters())
        meas = cluster.measures
        kw = dict(rewards=meas.rewards, traces=meas.traces_factory())
        got = _sanitize_sim(cluster.model, seed=2008).run(
            2000.0,
            rewards=meas.rewards,
            traces=meas.traces_factory(),
        )
        want = _reference_sim(cluster.model, seed=2008).run(2000.0, **kw)
        assert_runs_identical(got, want)
        assert got.sanitizer_report.ok, got.sanitizer_report.format()
        # The shadow checker actually exercised every checker family.
        checks = got.sanitizer_report.checks
        assert checks["predicate_evals"] > 0
        assert checks["case_selections"] > 0
        assert checks["reward_evals"] > 0

    @pytest.mark.slow
    def test_storage_model_differential(self):
        storage = StorageModel(abe_parameters())
        got = _sanitize_sim(storage.model, seed=96).run(4000.0)
        want = _reference_sim(storage.model, seed=96).run(4000.0)
        assert_runs_identical(got, want)


class TestSharedProgram:
    """A sanitized run leaves a shared CompiledProgram as it found it:
    its checks use local declaration flags and never touch the
    program's kernels, memos or dependency map."""

    @staticmethod
    def _sanitize(program, hours=2000.0):
        sim = Simulator(program, base_seed=7, engine="sanitize")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return sim.run(hours).sanitizer_report

    def test_sanitize_then_auto_equals_fresh_auto(self):
        model = flatten(_machine())
        reward = RateReward("avail", lambda m: float(m["m/up"]))
        shared = CompiledProgram(model)
        before = shared.fastpath_report()
        assert self._sanitize(shared).ok
        assert shared.fastpath_report() == before
        got = Simulator(shared, base_seed=7).run(3000.0, rewards=(reward,))
        want = Simulator(CompiledProgram(model), base_seed=7).run(
            3000.0, rewards=(reward,)
        )
        assert_runs_identical(got, want)

    def test_initial_undeclared_read_raises_at_auto_run_entry(self):
        san, _ = _m_initial_undeclared_read(True)
        shared = CompiledProgram(flatten(san))
        report = self._sanitize(shared, hours=400.0)
        first = [v for v in report.violations if v.kind == "undeclared-read"]
        assert first and first[0].place == "m/count"
        assert (first[0].event_index, first[0].sim_time) == (0, 0.0)
        # The undeclared read was reported, never wired as a dependency.
        fresh = CompiledProgram(shared.model)
        fresh.tables()
        assert shared._act_deps == fresh._act_deps
        sim = Simulator(shared, base_seed=7)
        with pytest.raises(SimulationError, match="count") as info:
            sim.run(400.0)
        assert "outside its declared read set" in str(info.value)
        # Rejected at run entry: the stream index stayed unused.
        assert sim._run_counter == 0

    def test_unresolved_read_raises_under_sanitize(self):
        san, _ = _m_unresolved_read(True)
        sim = Simulator(flatten(san), base_seed=7, engine="sanitize")
        with pytest.raises(SimulationError, match="'ghost'"):
            sim.run(400.0)
        assert sim._run_counter == 0


class TestReportAndStrict:
    def test_plain_runs_have_no_report(self):
        model = flatten(_machine())
        res = Simulator(model, base_seed=3).run(500.0)
        assert res.sanitizer_report is None
        res = _reference_sim(model, seed=3).run(500.0)
        assert res.sanitizer_report is None

    def test_violation_provenance(self):
        san, _ = _m_short_circuit_read(True)
        report = run_sanitize(san, hours=400.0)
        assert not report.ok
        v = report.violations[0]
        assert v.kind == "undeclared-read"
        assert v.subject == "m/repair"
        assert v.place == "m/count"
        assert v.event_index is not None and v.event_index > 0
        assert v.sim_time is not None and v.sim_time > 0.0
        assert "outside the declared read set" in v.message
        # and the report self-describes
        text = report.format()
        assert "undeclared-read" in text and "m/count" in text

    def test_dedup_one_violation_per_site(self):
        # The machine fails/repairs dozens of times; the same defect is
        # reported once, with first-occurrence provenance.
        san, _ = _m_short_circuit_read(True)
        report = run_sanitize(san, hours=2000.0)
        reads = [v for v in report.violations if v.kind == "undeclared-read"]
        assert len(reads) == 1

    def test_default_warns_strict_raises(self):
        san, _ = _m_short_circuit_read(True)
        model = flatten(san)
        with pytest.warns(RuntimeWarning, match="sanitizer violations"):
            res = _sanitize_sim(model).run(400.0)
        assert not res.sanitizer_report.ok

        strict = Simulator(
            model, base_seed=11, sample_batch=None, sanitize=True, strict=True
        )
        with pytest.raises(SanitizerError) as exc_info:
            strict.run(400.0)
        assert exc_info.value.report is not None
        assert not exc_info.value.report.ok

    def test_sanitize_flag_conflicts(self):
        model = flatten(_machine())
        with pytest.raises(SimulationError, match="conflicts"):
            Simulator(model, sanitize=True, engine="reference")
        sim = Simulator(model, sanitize=True)
        assert sim.engine == "sanitize"


class TestNonFiniteRewardGuard:
    def test_fast_path_refuses_nan_integral(self):
        model = flatten(_machine())
        bad = RateReward(
            "haz",
            lambda m: float("nan") if m["m/count"] >= 1 else 1.0,
        )
        with pytest.raises(SimulationError, match="non-finite"):
            Simulator(model, base_seed=7).run(2000.0, rewards=(bad,))

    def test_sanitize_reports_instead(self):
        san = _machine()
        bad = RateReward(
            "haz",
            lambda m: float("nan") if m["m/count"] >= 1 else 1.0,
        )
        report = run_sanitize(san, rewards=(bad,), hours=2000.0)
        kinds = {v.kind for v in report.violations}
        assert "non-finite-reward" in kinds


class TestShippedModelsLintClean:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ClusterModel(abe_parameters()),
            lambda: ClusterModel(abe_parameters().with_spare_oss(1)),
            lambda: StorageModel(abe_parameters()),
        ],
        ids=["abe", "abe-spare", "abe-storage"],
    )
    def test_abe_family(self, build):
        report = lint_model(build())
        assert report.ok, report.format()
        assert report.coverage["n_activities"] > 0
        assert report.coverage["declared_reads"] > 0

    @pytest.mark.slow
    def test_petascale(self):
        report = lint_model(ClusterModel(petascale_parameters()))
        assert report.ok, report.format()

    def test_deep_tail_tier(self):
        """The tier's repair law raises with no disk failed, where repair
        is disabled and the engine never asks for it: not a finding."""
        from repro.experiments.rare import aggregate_tier_san

        model = aggregate_tier_san(480, 6, 1e-5, 0.02)
        report = lint_model(model)
        assert report.ok, report.format()
        assert report.coverage["declared_effects"] == 3
        repair = model.activities[1]
        assert repair.path == "tier/repair"
        view = LocalView(model.new_marking(), repair.index)
        assert not repair.definition.is_enabled(view)
        with pytest.raises(KeyError):
            repair.definition.distribution(view)

    def test_lint_accepts_san_node_flat_and_facade(self):
        san = _machine()
        for form in (san, flatten(san)):
            assert lint_model(form).ok
        with pytest.raises(SimulationError, match="lint_model expects"):
            lint_model(object())
