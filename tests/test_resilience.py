"""Fault-tolerant execution: retry/backoff, chaos, budgets, checkpoints.

The headline assertions are *bit-identical recovery*: a run disturbed by
injected faults — worker kills, transient failures, timeouts, a mid-grid
abort — must reproduce the undisturbed results float-for-float, because
every task is a pure function of its seeded payload.  Chaos injection is
deterministic (:class:`~repro.core.resilience.ChaosPolicy`), so these
suites are reproducible, not flaky-by-design.
"""

from __future__ import annotations

import os
import pickle
import re
import warnings

import pytest

from repro.cfs import abe_parameters
from repro.cfs.cluster import StorageModel
from repro.core import (
    SAN,
    CellFailure,
    ChaosError,
    ChaosPolicy,
    Exponential,
    RetryPolicy,
    SimulationBudgetError,
    SimulationError,
    Simulator,
    TaskFailure,
    TaskTimeoutError,
    flatten,
    replicate_runs,
    run_tasks_supervised,
)
from repro.core.errors import InstantaneousLoopError, ReproError
from repro.core.rewards import RateReward
from repro.experiments import SweepCell, replication_cell, run_sweep
from repro.experiments.runner import format_cell_failures
from repro.experiments.sweep import SweepResult, cell_digest

from _helpers import build_two_state_san, square_cell_fn

HOURS = 1200.0


@pytest.fixture(autouse=True)
def _isolate_chaos_env(monkeypatch):
    """Attempt-count assertions assume no ambient fault injection (the CI
    chaos job exports ``REPRO_CHAOS`` process-wide; the env-specific
    tests below re-set it explicitly)."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


# ----------------------------------------------------------------------
# module-level task/cell functions (workers unpickle them by name)
# ----------------------------------------------------------------------
def _square_task(x: int) -> int:
    return x * x


def _poisoned_cell(x: int) -> int:
    raise ValueError(f"poisoned cell {x}")


def _journaled_cell(x: int, log_dir: str) -> int:
    """Square ``x``, appending one line to a per-cell execution log."""
    with open(os.path.join(log_dir, f"{x}.log"), "a") as fh:
        fh.write("ran\n")
    return x * x


def _executions(log_dir: str, x: int) -> int:
    try:
        with open(os.path.join(log_dir, f"{x}.log")) as fh:
            return len(fh.readlines())
    except FileNotFoundError:
        return 0


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_defaults_retry_transient_not_model_bugs(self):
        policy = RetryPolicy()
        assert policy.should_retry(ChaosError("x"), 1)
        assert policy.should_retry(TaskTimeoutError("x"), 2)
        assert policy.should_retry(OSError("x"), 1)
        assert not policy.should_retry(SimulationError("model bug"), 1)
        assert not policy.should_retry(ValueError("model bug"), 1)

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry(ChaosError("x"), 1)
        assert not policy.should_retry(ChaosError("x"), 2)

    def test_delay_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, backoff=2.0, max_delay_s=0.5)
        assert policy.delay_s("k", 1) == 0.0
        d2 = policy.delay_s("k", 2)
        d3 = policy.delay_s("k", 3)
        assert policy.delay_s("k", 2) == d2  # pure function of (key, attempt)
        assert policy.delay_s("other", 2) != d2  # jitter varies by key
        assert 0.0 < d2 < d3 <= 0.5 * 1.1

    def test_no_jitter_is_exact_exponential(self):
        policy = RetryPolicy(base_delay_s=0.1, backoff=3.0, jitter=0.0)
        assert policy.delay_s("k", 2) == 0.1
        assert policy.delay_s("k", 3) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(SimulationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SimulationError, match="timeout_s"):
            RetryPolicy(timeout_s=0.0)


# ----------------------------------------------------------------------
# ChaosPolicy
# ----------------------------------------------------------------------
class TestChaosPolicy:
    def test_fail_first_n_attempts(self):
        chaos = ChaosPolicy(fail_tasks={"t": 2})
        with pytest.raises(ChaosError):
            chaos.apply("t", 1, in_worker=False)
        with pytest.raises(ChaosError):
            chaos.apply("t", 2, in_worker=False)
        chaos.apply("t", 3, in_worker=False)  # clean from attempt 3

    def test_fail_forever_with_minus_one(self):
        chaos = ChaosPolicy(fail_tasks={"t": -1})
        for attempt in (1, 2, 7):
            with pytest.raises(ChaosError):
                chaos.apply("t", attempt, in_worker=False)

    def test_wildcard_matches_every_task(self):
        chaos = ChaosPolicy(fail_tasks={"*": 1})
        with pytest.raises(ChaosError):
            chaos.apply(("reps", 0, 3), 1, in_worker=False)
        chaos.apply(("reps", 0, 3), 2, in_worker=False)

    def test_serial_kill_raises_instead_of_exiting(self):
        chaos = ChaosPolicy(kill_tasks=frozenset({"t"}))
        with pytest.raises(ChaosError, match="serial"):
            chaos.apply("t", 1, in_worker=False)
        chaos.apply("t", 2, in_worker=False)  # kill fires on attempt 1 only

    def test_untargeted_task_untouched(self):
        chaos = ChaosPolicy(fail_tasks={"t": -1}, kill_tasks=frozenset({"t"}))
        chaos.apply("other", 1, in_worker=False)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            '{"kill": ["a"], "fail": {"*": 2}, "delay": {"b": 0.5}}',
        )
        chaos = ChaosPolicy.from_env()
        assert chaos.kill_tasks == frozenset({"a"})
        assert chaos.fail_tasks == {"*": 2}
        assert chaos.delay_tasks == {"b": 0.5}

    def test_from_env_absent_or_invalid(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert ChaosPolicy.from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "not json")
        with pytest.raises(SimulationError, match="JSON"):
            ChaosPolicy.from_env()
        monkeypatch.setenv("REPRO_CHAOS", "[1]")
        with pytest.raises(SimulationError, match="object"):
            ChaosPolicy.from_env()


# ----------------------------------------------------------------------
# run_tasks_supervised
# ----------------------------------------------------------------------
class TestSupervisedExecutor:
    TASKS = [(i, i) for i in range(6)]
    WANT = {i: i * i for i in range(6)}

    def test_serial_plain(self):
        out = run_tasks_supervised(self.TASKS, _square_task, n_jobs=1)
        assert out == self.WANT

    def test_parallel_plain(self):
        out = run_tasks_supervised(self.TASKS, _square_task, n_jobs=3)
        assert out == self.WANT

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            run_tasks_supervised([("a", 1), ("a", 2)], _square_task, n_jobs=1)

    def test_chaos_failures_recovered_serial(self):
        chaos = ChaosPolicy(fail_tasks={"*": 1})
        out = run_tasks_supervised(
            self.TASKS,
            _square_task,
            n_jobs=1,
            chaos=chaos,
            retry=RetryPolicy(base_delay_s=0.0),
        )
        assert out == self.WANT

    def test_chaos_failures_recovered_parallel(self):
        chaos = ChaosPolicy(fail_tasks={"*": 1})
        out = run_tasks_supervised(
            self.TASKS,
            _square_task,
            n_jobs=2,
            chaos=chaos,
            retry=RetryPolicy(base_delay_s=0.0),
        )
        assert out == self.WANT

    def test_worker_kill_recovered(self):
        """A hard worker kill breaks the pool; supervision rebuilds it and
        resubmits only the unfinished tasks."""
        chaos = ChaosPolicy(kill_tasks=frozenset({"3"}))
        out = run_tasks_supervised(
            self.TASKS,
            _square_task,
            n_jobs=2,
            chaos=chaos,
            retry=RetryPolicy(base_delay_s=0.0),
        )
        assert out == self.WANT

    def test_exhausted_raises_with_cause(self):
        chaos = ChaosPolicy(fail_tasks={"2": -1})
        with pytest.raises(SimulationError, match="ChaosError") as info:
            run_tasks_supervised(
                self.TASKS,
                _square_task,
                n_jobs=1,
                chaos=chaos,
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            )
        assert isinstance(info.value.__cause__, ChaosError)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_collect_partial_results(self, n_jobs):
        chaos = ChaosPolicy(fail_tasks={"2": -1})
        out = run_tasks_supervised(
            self.TASKS,
            _square_task,
            n_jobs=n_jobs,
            chaos=chaos,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            on_error="collect",
        )
        failure = out[2]
        assert isinstance(failure, TaskFailure)
        assert failure.attempts == 2
        assert failure.error_type == "ChaosError"
        for i in (0, 1, 3, 4, 5):
            assert out[i] == i * i

    def test_nonretryable_fails_fast(self):
        out = run_tasks_supervised(
            [("a", 1)], _poisoned_cell, n_jobs=1, on_error="collect"
        )
        assert out["a"].attempts == 1
        assert out["a"].error_type == "ValueError"

    def test_timeout_kills_and_retries(self):
        """A hung attempt trips the watchdog; the retry runs undelayed
        (chaos delays fire on attempt 1 only) and completes."""
        chaos = ChaosPolicy(delay_tasks={"1": 5.0})
        out = run_tasks_supervised(
            self.TASKS,
            _square_task,
            n_jobs=2,
            chaos=chaos,
            retry=RetryPolicy(timeout_s=0.5, base_delay_s=0.0),
        )
        assert out == self.WANT

    def test_on_complete_sees_every_success(self):
        seen = {}
        run_tasks_supervised(
            self.TASKS,
            _square_task,
            n_jobs=1,
            on_complete=lambda key, result: seen.__setitem__(key, result),
        )
        assert seen == self.WANT

    def test_env_chaos_applies_and_explicit_empty_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", '{"fail": {"0": -1}}')
        out = run_tasks_supervised(
            [(0, 0)],
            _square_task,
            n_jobs=1,
            retry=RetryPolicy(max_attempts=1),
            on_error="collect",
        )
        assert isinstance(out[0], TaskFailure)
        # An explicit (empty) policy wins over the environment.
        out = run_tasks_supervised(
            [(0, 0)], _square_task, n_jobs=1, chaos=ChaosPolicy()
        )
        assert out == {0: 0}

    def test_invalid_on_error(self):
        with pytest.raises(SimulationError, match="on_error"):
            run_tasks_supervised([("a", 1)], _square_task, n_jobs=1, on_error="x")


# ----------------------------------------------------------------------
# Simulator run budgets
# ----------------------------------------------------------------------
class TestRunBudgets:
    def test_max_events_terminates_with_state(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=7, max_events=50)
        with pytest.raises(SimulationBudgetError) as info:
            sim.run(1e12)
        err = info.value
        assert err.budget == "max_events"
        assert err.limit == 50
        assert err.n_events == 50
        assert err.sim_time > 0.0
        assert err.marking.get("comp/up") in (0, 1)

    def test_max_wall_terminates(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=7, max_wall_s=0.05)
        with pytest.raises(SimulationBudgetError) as info:
            sim.run(1e15)
        err = info.value
        assert err.budget == "max_wall_s"
        assert err.limit == 0.05
        assert err.n_events > 0

    def test_reference_engine_honors_budget(self, two_state_model):
        sim = Simulator(
            two_state_model, base_seed=7, engine="reference", max_events=10
        )
        with pytest.raises(SimulationBudgetError) as info:
            sim.run(1e12)
        assert info.value.n_events == 10

    def test_budget_under_limit_is_bit_identical(self, two_state_model):
        """An untripped budget must not perturb the trajectory."""
        rw = RateReward("up", lambda m: float(m["comp/up"] == 1))
        plain = Simulator(two_state_model, base_seed=9)
        r1 = plain.run(2000.0, rewards=[rw])
        budgeted = Simulator(two_state_model, base_seed=9, max_events=10**9)
        r2 = budgeted.run(2000.0, rewards=[rw])
        assert r1.n_events == r2.n_events
        assert r1["up"].time_average == r2["up"].time_average

    def test_plain_loop_untouched_without_budget(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=3)
        sim.run(500.0)
        assert sim.last_loop == "observed"
        sim2 = Simulator(two_state_model, base_seed=3, max_events=10**9)
        sim2.run(500.0)
        assert sim2.last_loop == "observed"

    def test_validation(self, two_state_model):
        with pytest.raises(SimulationError, match="max_events"):
            Simulator(two_state_model, max_events=0)
        with pytest.raises(SimulationError, match="max_wall_s"):
            Simulator(two_state_model, max_wall_s=-1.0)

    def test_budget_error_survives_pickling(self, two_state_model):
        """Budget errors cross process boundaries (sweep workers)."""
        sim = Simulator(two_state_model, base_seed=7, max_events=5)
        with pytest.raises(SimulationBudgetError) as info:
            sim.run(1e12)
        clone = pickle.loads(pickle.dumps(info.value))
        assert isinstance(clone, SimulationBudgetError)


# ----------------------------------------------------------------------
# instantaneous-loop cap (regression for Simulator(max_instant_chain=...))
# ----------------------------------------------------------------------
def _vanishing_loop_model():
    """Two instantaneous activities that re-enable each other forever."""
    san = SAN("loop")
    san.place("a", 0)
    san.place("trigger", 0)

    def arm(m, rng):
        m["trigger"] = 1

    san.timed(
        "start",
        Exponential(1.0),
        enabled=lambda m: m["trigger"] == 0,
        effect=arm,
    )
    san.instant(
        "flip_up",
        enabled=lambda m: m["trigger"] == 1 and m["a"] == 0,
        effect=lambda m, rng: m.__setitem__("a", 1),
    )
    san.instant(
        "flip_down",
        enabled=lambda m: m["trigger"] == 1 and m["a"] == 1,
        effect=lambda m, rng: m.__setitem__("a", 0),
    )
    return flatten(san)


def _finite_cascade_model(depth: int):
    """One instant that re-enables itself ``depth`` times, then stops."""
    san = SAN("cascade")
    san.place("todo", 0)

    def load(m, rng):
        m["todo"] = depth

    san.timed(
        "start", Exponential(1.0), enabled=lambda m: m["todo"] == 0, effect=load
    )
    san.instant(
        "step",
        enabled=lambda m: m["todo"] > 0,
        effect=lambda m, rng: m.__setitem__("todo", m["todo"] - 1),
    )
    return flatten(san)


class TestInstantChainCap:
    def test_vanishing_loop_trips_configured_cap(self):
        sim = Simulator(_vanishing_loop_model(), base_seed=1, max_instant_chain=30)
        with pytest.raises(InstantaneousLoopError):
            sim.run(10.0)

    def test_cap_is_configurable(self):
        """A legitimate deep cascade passes once the cap clears its depth."""
        model = _finite_cascade_model(depth=50)
        with pytest.raises(InstantaneousLoopError):
            Simulator(model, base_seed=1, max_instant_chain=30).run(0.5)
        Simulator(model, base_seed=1, max_instant_chain=100).run(0.5)

    def test_cap_attribute_exposed(self, two_state_model):
        assert Simulator(two_state_model).max_instant_chain == 100_000
        assert Simulator(two_state_model, max_instant_chain=7).max_instant_chain == 7


# ----------------------------------------------------------------------
# replication pools under chaos (bit-identical recovery)
# ----------------------------------------------------------------------
def _replication_samples(n_jobs, chaos=None, retry=None, n_replications=6):
    model = flatten(build_two_state_san())
    sim = Simulator(model, base_seed=2008)
    rw = RateReward("avail", lambda m: float(m["comp/up"] == 1))
    result = replicate_runs(
        sim,
        HOURS,
        n_replications=n_replications,
        rewards=[rw],
        n_jobs=n_jobs,
        chaos=chaos,
        retry=retry,
    )
    return {m: result.samples(m) for m in result.metrics}


class TestReplicationRecovery:
    def test_worker_kill_bit_identical_to_serial(self):
        """An OOM-style worker kill mid-pool recovers to exactly the
        serial samples (replication k always draws stream k)."""
        serial = _replication_samples(1)
        chaos = ChaosPolicy(kill_tasks=frozenset({"('reps', 2, 2)"}))
        recovered = _replication_samples(
            2, chaos=chaos, retry=RetryPolicy(base_delay_s=0.0)
        )
        assert recovered == serial

    def test_transient_failures_bit_identical_to_serial(self):
        serial = _replication_samples(1)
        chaos = ChaosPolicy(fail_tasks={"*": 1})
        recovered = _replication_samples(
            2, chaos=chaos, retry=RetryPolicy(base_delay_s=0.0)
        )
        assert recovered == serial

    def test_exhausted_chunk_raises(self):
        chaos = ChaosPolicy(fail_tasks={"*": -1})
        with pytest.raises(SimulationError, match="replication chunk"):
            _replication_samples(
                2, chaos=chaos, retry=RetryPolicy(max_attempts=2, base_delay_s=0.0)
            )


# ----------------------------------------------------------------------
# fork-unavailable degradation
# ----------------------------------------------------------------------
class TestSerialDegradation:
    @pytest.fixture(autouse=True)
    def _no_fork(self, monkeypatch):
        from repro.core import parallel

        monkeypatch.setattr(parallel, "_fork_context", lambda: None)
        monkeypatch.setattr(parallel, "_FALLBACK_WARNED", False)

    def test_pool_context_warns_once(self):
        from repro.core.parallel import pool_context

        with pytest.warns(RuntimeWarning, match="fork"):
            pool_context()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pool_context()  # second call is silent

    def test_inherit_mode_degrades_to_serial_with_warning(self):
        serial = _replication_samples(1)
        with pytest.warns(RuntimeWarning, match="serial"):
            degraded = _replication_samples(2)
        assert degraded == serial


# ----------------------------------------------------------------------
# sweeps: partial results, chaos recovery, checkpoint/resume
# ----------------------------------------------------------------------
def _storage_cells(n=3, reps=2):
    params = abe_parameters()
    return [
        replication_cell(
            ("cell", i), StorageModel.spec(params, 96 + i), HOURS, reps
        )
        for i in range(n)
    ]


def _sweep_samples(result):
    return {
        key: {m: result[key].samples(m) for m in result[key].metrics}
        for key in result
    }


class TestSweepResilience:
    def test_collect_keeps_healthy_cells(self):
        cells = [SweepCell(i, square_cell_fn, (i,)) for i in range(4)]
        cells[2] = SweepCell(2, _poisoned_cell, (2,))
        result = run_sweep(cells, n_jobs=2, on_error="collect")
        assert list(result.failures) == [2]
        assert result.completed == {0: 0, 1: 1, 3: 9}
        failure = result.failures[2]
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "ValueError"
        with pytest.raises(SimulationError, match="failed after"):
            result[2]
        assert "FAILED CELLS (1)" in format_cell_failures(result.failures)

    def test_raise_mode_aborts(self):
        cells = [SweepCell("ok", square_cell_fn, (1,)), SweepCell("bad", _poisoned_cell, (0,))]
        with pytest.raises(SimulationError, match="sweep cell"):
            run_sweep(cells, n_jobs=1)

    def test_worker_kill_recovery_bit_identical(self):
        """A chaos-killed sweep worker recovers to the serial results."""
        serial = run_sweep(_storage_cells(), n_jobs=1)
        chaos = ChaosPolicy(kill_tasks=frozenset({str(("cell", 1))}))
        recovered = run_sweep(
            _storage_cells(),
            n_jobs=2,
            chaos=chaos,
            retry=RetryPolicy(base_delay_s=0.0),
        )
        assert _sweep_samples(recovered) == _sweep_samples(serial)

    def test_checkpoint_journal_written_and_loaded(self, tmp_path):
        d = str(tmp_path / "ckpt")
        log = str(tmp_path / "log")
        os.makedirs(log)
        cells = [
            SweepCell(i, _journaled_cell, (i,), {"log_dir": log}) for i in range(3)
        ]
        first = run_sweep(cells, n_jobs=1, checkpoint_dir=d)
        assert dict(first) == {0: 0, 1: 1, 2: 4}
        assert all(_executions(log, i) == 1 for i in range(3))
        # Resume: every cell loads from the journal, none re-executes.
        second = run_sweep(cells, n_jobs=1, checkpoint_dir=d)
        assert dict(second) == dict(first)
        assert all(_executions(log, i) == 1 for i in range(3))

    def test_resume_after_midgrid_kill_equals_uninterrupted(self, tmp_path):
        """Kill the grid mid-way (worker kill + no retries), rerun with
        --resume: completed cells load from the journal, only unfinished
        cells execute, and the final grid equals an uninterrupted run."""
        d = str(tmp_path / "ckpt")
        log = str(tmp_path / "log")
        os.makedirs(log)
        cells = [
            SweepCell(i, _journaled_cell, (i,), {"log_dir": log}) for i in range(5)
        ]
        uninterrupted = run_sweep(cells, n_jobs=1)
        runs_before = {i: _executions(log, i) for i in range(5)}

        chaos = ChaosPolicy(kill_tasks=frozenset({"3"}))
        with pytest.raises(SimulationError):
            run_sweep(
                cells,
                n_jobs=2,
                chaos=chaos,
                retry=RetryPolicy(max_attempts=1),
                checkpoint_dir=d,
            )
        journaled = len(list((tmp_path / "ckpt").glob("*.pkl")))
        assert 0 < journaled < 5  # partial progress survived the abort

        resumed = run_sweep(cells, n_jobs=2, checkpoint_dir=d)
        assert dict(resumed) == dict(uninterrupted)
        # Total executions across kill + resume: journaled cells ran once
        # more in the aborted run OR loaded from the journal on resume —
        # either way nobody ran after being journaled.
        for i in range(5):
            assert _executions(log, i) <= runs_before[i] + 2

    def test_resume_tolerates_different_worker_split(self, tmp_path):
        """The checkpoint digest excludes the inner-jobs split, so a grid
        checkpointed serially resumes under nested parallelism."""
        d = str(tmp_path / "ckpt")
        serial = run_sweep(_storage_cells(n=2), n_jobs=1, checkpoint_dir=d)
        resumed = run_sweep(_storage_cells(n=2), n_jobs=8, checkpoint_dir=d)
        assert _sweep_samples(resumed) == _sweep_samples(serial)

    def test_cell_digest_excludes_inner_jobs(self):
        cell = _storage_cells(n=1)[0]
        assert cell_digest(cell) == cell_digest(cell.with_inner_jobs(4))
        other = _storage_cells(n=2)[1]
        assert cell_digest(cell) != cell_digest(other)

    def test_failed_cells_not_journaled(self, tmp_path):
        d = tmp_path / "ckpt"
        cells = [SweepCell("bad", _poisoned_cell, (1,))]
        result = run_sweep(cells, n_jobs=1, on_error="collect", checkpoint_dir=str(d))
        assert list(result.failures) == ["bad"]
        assert list(d.glob("*.pkl")) == []
        # ... so a resumed run retries them.
        fixed = [SweepCell("bad", square_cell_fn, (1,))]
        # (different fn -> different digest; the point is the journal has
        # no poisoned entry to satisfy any lookup)
        assert dict(run_sweep(fixed, n_jobs=1, checkpoint_dir=str(d))) == {"bad": 1}

    def test_corrupt_journal_entry_recomputed(self, tmp_path):
        d = tmp_path / "ckpt"
        cells = [SweepCell("a", square_cell_fn, (3,))]
        run_sweep(cells, n_jobs=1, checkpoint_dir=str(d))
        (entry,) = d.glob("*.pkl")
        entry.write_bytes(b"truncated garbage")
        result = run_sweep(cells, n_jobs=1, checkpoint_dir=str(d))
        assert dict(result) == {"a": 9}

    @pytest.mark.parametrize("blocked", ["file/ckpt", "file"])
    def test_unusable_checkpoint_dir_raises_before_any_cell(
        self, tmp_path, monkeypatch, blocked
    ):
        """A path under (or at) a regular file is a ReproError naming the
        argument, the path and the reason; no cell runs."""
        (tmp_path / "file").write_text("")
        d = tmp_path / blocked

        def refuse(cell):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(SweepCell, "execute", refuse)
        reason = "Not a directory" if "/" in blocked else "is not a directory"
        message = f"^checkpoint_dir {re.escape(repr(str(d)))}: .*{reason}$"
        with pytest.raises(ReproError, match=message):
            run_sweep([SweepCell("a", square_cell_fn, (2,))], checkpoint_dir=d)

    def test_sweep_result_failures_empty_on_clean_run(self):
        result = run_sweep([SweepCell("a", square_cell_fn, (2,))])
        assert result.failures == {}
        assert result.completed == {"a": 4}
        assert isinstance(result, SweepResult)


# ----------------------------------------------------------------------
# checkpoint-journal integrity (digest framing; PR 6 resume semantics)
# ----------------------------------------------------------------------
class TestJournalCorruption:
    """A damaged journal entry is detected, reported once, and recomputed.

    The journal frames every entry with a SHA-256 of the pickled payload,
    so even corruption that still unpickles cleanly cannot smuggle a
    wrong result into a resumed grid.
    """

    def _journal_one(self, tmp_path):
        d = str(tmp_path / "ckpt")
        log = str(tmp_path / "log")
        os.makedirs(log, exist_ok=True)
        cells = [SweepCell(7, _journaled_cell, (7,), {"log_dir": log})]
        first = run_sweep(cells, n_jobs=1, checkpoint_dir=d)
        assert dict(first) == {7: 49}
        assert _executions(log, 7) == 1
        (entry,) = (tmp_path / "ckpt").glob("*.pkl")
        return d, log, cells, entry

    def _assert_recomputed(self, d, log, cells, reason):
        with pytest.warns(RuntimeWarning, match=reason) as caught:
            result = run_sweep(cells, n_jobs=1, checkpoint_dir=d)
        hits = [w for w in caught if "recomputing the cell" in str(w.message)]
        assert len(hits) == 1
        assert "cell 7" in str(hits[0].message)
        assert dict(result) == {7: 49}

    def test_bitflip_payload_digest_mismatch(self, tmp_path):
        d, log, cells, entry = self._journal_one(tmp_path)
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0xFF  # single bit-level corruption deep in the payload
        entry.write_bytes(bytes(blob))
        self._assert_recomputed(d, log, cells, "payload digest mismatch")
        assert _executions(log, 7) == 2

    def test_truncated_entry(self, tmp_path):
        d, log, cells, entry = self._journal_one(tmp_path)
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) - 3])  # lose the payload tail
        self._assert_recomputed(d, log, cells, "payload digest mismatch")

    def test_header_only_entry(self, tmp_path):
        d, log, cells, entry = self._journal_one(tmp_path)
        header = entry.read_bytes().partition(b"\n")[0]
        entry.write_bytes(header)  # lost everything after the header line
        self._assert_recomputed(d, log, cells, "truncated header")

    def test_garbage_entry_unpicklable(self, tmp_path):
        d, log, cells, entry = self._journal_one(tmp_path)
        entry.write_bytes(b"\x00\xff not a journal entry")
        self._assert_recomputed(d, log, cells, "unpicklable")

    def test_recompute_repairs_the_entry(self, tmp_path):
        d, log, cells, entry = self._journal_one(tmp_path)
        entry.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            run_sweep(cells, n_jobs=1, checkpoint_dir=d)
        # The recomputed result was re-journaled: the next resume is silent
        # and loads without executing.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_sweep(cells, n_jobs=1, checkpoint_dir=d)
        assert dict(result) == {7: 49}
        assert _executions(log, 7) == 2

    def test_legacy_headerless_entry_still_loads(self, tmp_path):
        """Journals written before the digest framing read transparently."""
        d, log, cells, entry = self._journal_one(tmp_path)
        payload = entry.read_bytes().partition(b"\n")[2]
        entry.write_bytes(payload)  # strip the header: pre-framing format
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_sweep(cells, n_jobs=1, checkpoint_dir=d)
        assert dict(result) == {7: 49}
        assert _executions(log, 7) == 1  # loaded, not recomputed


# ----------------------------------------------------------------------
# wall-clock sanity: budgets and watchdogs ride time.monotonic()
# ----------------------------------------------------------------------
class TestMonotonicClocks:
    """System-clock jumps (NTP step, manual reset) must not trip budgets.

    Both the simulator's ``max_wall_s`` budget and the supervised
    executor's task-timeout watchdog are specified against
    ``time.monotonic()``; these regressions pin that by yanking
    ``time.time`` forward thirty years mid-run.
    """

    @pytest.fixture
    def jumped_wall_clock(self, monkeypatch):
        import time as time_module

        real = time_module.time
        monkeypatch.setattr(time_module, "time", lambda: real() + 1e9)

    def test_simulator_wall_budget_ignores_wall_jump(
        self, two_state_model, jumped_wall_clock
    ):
        sim = Simulator(two_state_model, base_seed=7, max_wall_s=60.0)
        result = sim.run(2000.0)  # finishes in milliseconds of real time
        assert result.final_time == 2000.0
        assert result.n_events > 0

    def test_supervised_timeout_ignores_wall_jump(self, jumped_wall_clock):
        out = run_tasks_supervised(
            [(i, i) for i in range(4)],
            _square_task,
            n_jobs=2,
            retry=RetryPolicy(timeout_s=120.0, base_delay_s=0.0),
        )
        assert out == {i: i * i for i in range(4)}


# ----------------------------------------------------------------------
# serial-fallback warning: once per process, results unchanged
# ----------------------------------------------------------------------
class TestSerialFallbackWarning:
    def test_nested_pool_failure_warns_once_and_matches_serial(
        self, monkeypatch, tmp_path
    ):
        """When pool creation breaks at *both* nesting levels (outer sweep
        pool and inner replication pool), the degradation warning fires
        exactly once per process and the results are bit-identical to a
        plain serial run."""
        from repro.core import resilience

        def no_pool(*args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        want = run_sweep(_storage_cells(n=2), n_jobs=1)

        monkeypatch.setattr(resilience, "_SERIAL_FALLBACK_WARNED", False)
        monkeypatch.setattr(resilience, "ProcessPoolExecutor", no_pool)
        cells = [c.with_inner_jobs(2) for c in _storage_cells(n=2)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run_sweep(cells, n_jobs=2)
        fallbacks = [
            w for w in caught if "worker pool unavailable" in str(w.message)
        ]
        assert len(fallbacks) == 1
        assert issubclass(fallbacks[0].category, RuntimeWarning)
        assert _sweep_samples(got) == _sweep_samples(want)

    def test_flag_suppresses_repeat_warnings(self, monkeypatch):
        from repro.core import resilience

        monkeypatch.setattr(resilience, "_SERIAL_FALLBACK_WARNED", False)
        monkeypatch.setattr(
            resilience,
            "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no pool")),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                out = run_tasks_supervised(
                    [(i, i) for i in range(3)], _square_task, n_jobs=2
                )
                assert out == {0: 0, 1: 1, 2: 4}
        fallbacks = [
            w for w in caught if "worker pool unavailable" in str(w.message)
        ]
        assert len(fallbacks) == 1
