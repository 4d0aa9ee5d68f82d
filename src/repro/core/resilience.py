"""Fault-tolerant execution: retries, timeouts, chaos injection, supervision.

The execution stack (replication pools in :mod:`repro.core.parallel`,
sweep grids in :mod:`repro.experiments.sweep`) is built on process pools,
and process pools fail in ways a long grid run must survive: a worker
segfaults or is OOM-killed (``BrokenProcessPool`` poisons every in-flight
future), a worker hangs forever, a single cell raises while 59 others are
healthy.  This module supplies the supervision layer those callers wrap
around every pool submission:

* :class:`RetryPolicy` — bounded retries with exponential backoff,
  **deterministic** jitter (a pure function of the task key and attempt
  number, so reruns schedule identically) and an exception allowlist, plus
  an optional per-attempt wall-clock timeout.
* :class:`ChaosPolicy` — deterministic fault injection (kill the worker
  process, raise inside the task, delay the task), injectable per call or
  process-wide through the ``REPRO_CHAOS`` environment variable.  The
  fault-injection suites use it to *prove* that recovery reproduces the
  undisturbed results bit-for-bit.
* :func:`run_tasks_supervised` — the supervised executor: submits keyed
  tasks to a process pool, applies the retry policy per task, rebuilds a
  broken pool and resubmits **only** the incomplete tasks, kills and
  rebuilds the pool when a task exceeds its timeout, and degrades to
  in-process serial execution (with a structured warning) when a pool
  cannot be created at all.

Recovery is bit-identical by construction, not best effort: every task in
this codebase is a pure function of its payload (replication ``k`` draws
from seed-tree stream ``k``; a sweep cell seeds itself from its
arguments), so re-executing an interrupted task — in a rebuilt pool, a
different worker, or serially in the parent — yields exactly the result
the uninterrupted run would have produced.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from . import composition
from .errors import ChaosError, SimulationError, TaskTimeoutError

__all__ = [
    "CHAOS_ENV",
    "CellFailure",
    "ChaosPolicy",
    "RetryPolicy",
    "TaskFailure",
    "run_tasks_supervised",
]

CHAOS_ENV = "REPRO_CHAOS"

#: Exceptions the default policy treats as transient.  Model bugs
#: (``SimulationError`` and friends) are deliberately absent: retrying a
#: deterministic failure re-raises the identical error, so they fail fast.
DEFAULT_RETRY_ON: tuple[type[BaseException], ...] = (
    BrokenProcessPool,
    ChaosError,
    TaskTimeoutError,
    OSError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Attributes
    ----------
    max_attempts:
        Total attempts per task (1 = no retry).
    base_delay_s / backoff / max_delay_s:
        Attempt ``n`` (n >= 2) waits ``base_delay_s * backoff**(n - 2)``
        seconds, capped at ``max_delay_s``, before resubmission.
    jitter:
        Fractional jitter applied to each delay.  The jitter is a pure
        function of ``(task key, attempt)`` — no global RNG — so a rerun
        of the same grid backs off on an identical schedule.
    timeout_s:
        Per-attempt wall-clock timeout measured from the moment a worker
        starts the task (queue time excluded).  A task that overruns is
        failed with :class:`~repro.core.errors.TaskTimeoutError` and its
        pool is killed and rebuilt (a hung worker cannot be cancelled any
        other way).  ``None`` disables the watchdog.
    retry_on:
        Exception allowlist; anything else fails the task on first raise.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff: float = 2.0
    max_delay_s: float = 5.0
    jitter: float = 0.1
    timeout_s: float | None = None
    retry_on: tuple[type[BaseException], ...] = DEFAULT_RETRY_ON

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SimulationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether a task that just failed its ``attempt``-th try reruns."""
        return attempt < self.max_attempts and isinstance(exc, self.retry_on)

    def delay_s(self, key: object, attempt: int) -> float:
        """Backoff before attempt ``attempt`` (2-based), jitter included.

        Deterministic: equal ``(key, attempt)`` pairs always produce the
        same delay, so recovery schedules are reproducible.
        """
        if attempt <= 1 or self.base_delay_s <= 0.0:
            return 0.0
        raw = min(
            self.base_delay_s * self.backoff ** (attempt - 2),
            self.max_delay_s,
        )
        if self.jitter:
            digest = hashlib.sha256(f"{key!r}#{attempt}".encode()).digest()
            unit = int.from_bytes(digest[:8], "big") / 2.0**64  # [0, 1)
            raw *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return raw


def _task_label(key: object) -> str:
    return key if isinstance(key, str) else str(key)


@dataclass(frozen=True)
class ChaosPolicy:
    """Deterministic fault injection for the supervised executor.

    Faults are keyed by ``str(task key)`` (the literal ``"*"`` matches
    every task).  Kill and delay faults fire only on a task's **first**
    attempt, so a policy under the default retry settings always proves
    recovery: attempt 2 of the same task runs clean and must reproduce
    the undisturbed result exactly.  ``fail`` faults raise
    :class:`~repro.core.errors.ChaosError` on the first ``n`` attempts
    (``-1`` = every attempt, for permanently poisoned tasks).

    Attributes
    ----------
    kill_tasks:
        Task labels whose first attempt hard-kills its worker process
        (``os._exit``, no cleanup — indistinguishable from a segfault or
        OOM kill, and it poisons the whole pool).  Applied serially (no
        worker process to kill), the fault raises ``ChaosError`` instead.
    fail_tasks:
        ``label -> n``: raise ``ChaosError`` on attempts ``1..n``.
    delay_tasks:
        ``label -> seconds``: sleep before the first attempt executes
        (drives the timeout watchdog in tests).
    """

    kill_tasks: frozenset = frozenset()
    fail_tasks: Mapping[str, int] = field(default_factory=dict)
    delay_tasks: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def from_env(cls, env: str = CHAOS_ENV) -> "ChaosPolicy | None":
        """Build the process-wide policy from a JSON environment variable.

        ``REPRO_CHAOS='{"kill": ["('reps', 0, 1)"], "fail": {"*": 1},
        "delay": {"cell-3": 0.2}}'`` — absent/empty means no chaos.
        """
        raw = os.environ.get(env)
        if not raw:
            return None
        try:
            spec = json.loads(raw)
        except ValueError as exc:
            raise SimulationError(f"{env} is not valid JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise SimulationError(f"{env} must be a JSON object, got {spec!r}")
        return cls(
            kill_tasks=frozenset(spec.get("kill", ())),
            fail_tasks={str(k): int(v) for k, v in spec.get("fail", {}).items()},
            delay_tasks={str(k): float(v) for k, v in spec.get("delay", {}).items()},
        )

    def _lookup(self, table: Mapping, key: object):
        label = _task_label(key)
        if label in table:
            return table[label]
        return table.get("*")

    def apply(self, key: object, attempt: int, *, in_worker: bool) -> None:
        """Inject this policy's faults for one task attempt.

        Called by the supervised executor at the start of every attempt —
        inside the worker process when pooled (``in_worker=True``), in the
        parent when executing serially.
        """
        if attempt == 1:
            delay = self._lookup(self.delay_tasks, key)
            if delay:
                time.sleep(delay)
        fail_n = self._lookup(self.fail_tasks, key)
        if fail_n is not None and (fail_n < 0 or attempt <= fail_n):
            raise ChaosError(
                f"injected failure for task {_task_label(key)!r} "
                f"(attempt {attempt})"
            )
        label = _task_label(key)
        if attempt == 1 and (label in self.kill_tasks or "*" in self.kill_tasks):
            if in_worker:
                os._exit(87)  # hard kill: no unwinding, pool breaks
            raise ChaosError(
                f"injected kill for task {label!r} (serial execution: "
                "raised instead of killing the parent process)"
            )


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of a task that exhausted its retry budget.

    Attributes
    ----------
    key:
        The task's key in its grid.
    attempts:
        Attempts consumed (a pool crash charges one attempt to every
        in-flight task — the parent cannot attribute the crash).
    error_type / message:
        Class name and text of the final causal exception.
    cause:
        The final exception object itself (kept in the parent; may be
        ``None`` after a journal round-trip).
    """

    key: object
    attempts: int
    error_type: str
    message: str
    cause: BaseException | None = None


class CellFailure(TaskFailure):
    """A failed sweep cell inside a partial :class:`SweepResult`."""


def _supervised_task(item: tuple) -> tuple:
    """Worker-side wrapper: apply chaos, then run the real task."""
    key, payload, attempt, chaos, fn = item
    if chaos is not None:
        chaos.apply(key, attempt, in_worker=True)
    return key, fn(payload)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: hung workers never drain a graceful shutdown."""
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass


_SERIAL_FALLBACK_WARNED = False


def _warn_serial_fallback(label: str, cause: BaseException) -> None:
    global _SERIAL_FALLBACK_WARNED
    if _SERIAL_FALLBACK_WARNED:
        return
    _SERIAL_FALLBACK_WARNED = True
    warnings.warn(
        f"worker pool unavailable ({type(cause).__name__}: {cause}); "
        f"executing remaining {label}s serially in-process.  Results are "
        "bit-identical to pooled execution — only wall-clock changes.",
        RuntimeWarning,
        stacklevel=3,
    )


def _start_worker(initializer: Callable | None, initargs: tuple) -> None:
    """Pool-worker start-up: freeze each finished model build out of the
    collector's generations (see ``composition._gc_paused``), then run
    the caller's initializer."""
    composition._FREEZE_BUILDS = True
    if initializer is not None:
        initializer(*initargs)


def _raise_exhausted(label: str, key: object, attempts: int, exc: BaseException):
    raise SimulationError(
        f"{label} {key!r} failed after {attempts} attempt(s): "
        f"{type(exc).__name__}: {exc}"
    ) from exc


def run_tasks_supervised(
    tasks: Sequence[tuple[object, object]],
    worker_fn: Callable[[object], object],
    *,
    n_jobs: int,
    mp_context=None,
    initializer: Callable | None = None,
    initargs: tuple = (),
    retry: RetryPolicy | None = None,
    chaos: ChaosPolicy | None = None,
    on_error: str = "raise",
    on_complete: Callable[[object, object], None] | None = None,
    failure_cls: type[TaskFailure] = TaskFailure,
    label: str = "task",
) -> dict[object, object]:
    """Execute keyed tasks under retry/timeout/crash supervision.

    Parameters
    ----------
    tasks:
        ``(key, payload)`` pairs; keys must be unique.  Each task must be
        a pure function of its payload (the bit-identical-recovery
        contract: a retried or resubmitted task reproduces exactly the
        result of an undisturbed execution).
    worker_fn:
        Module-level callable ``payload -> result`` (workers unpickle it
        by name; serial execution calls it directly, unpickled).
    n_jobs:
        Worker processes; ``<= 1`` executes serially in-process (no
        pickling requirements, chaos/retry still applied).
    mp_context / initializer / initargs:
        Pool configuration, as for :class:`ProcessPoolExecutor`.  Each
        pool worker runs ``initializer`` after :func:`_start_worker` has
        set it to freeze its model builds; serial execution does not.
    retry:
        Policy applied per task; default :class:`RetryPolicy`.
    chaos:
        Fault injection; ``None`` falls back to the process-wide
        ``REPRO_CHAOS`` environment policy (pass an empty
        ``ChaosPolicy()`` to explicitly disable both).
    on_error:
        ``"raise"`` — first exhausted task aborts the run (pool killed,
        exception chained).  ``"collect"`` — exhausted tasks become
        ``failure_cls`` records in the result mapping and every healthy
        task still completes.
    on_complete:
        Parent-side callback ``(key, result)`` fired as each task
        completes (checkpoint journaling hook); completion order is
        scheduling-dependent even though results are not.
    failure_cls:
        Record type for collected failures (e.g. :class:`CellFailure`).
    label:
        Human noun for messages ("sweep cell", "replication chunk").

    Returns
    -------
    dict
        ``key -> result`` (or ``key -> failure_cls`` under
        ``"collect"``), one entry per task, in task order.

    Supervision semantics: a ``BrokenProcessPool`` rebuilds the pool and
    resubmits only tasks without a recorded result; a timeout kills the
    pool, charges the overdue task, and requeues in-flight innocents
    without charging them; pool creation failure degrades to serial
    execution with a one-time :class:`RuntimeWarning`.
    """
    if on_error not in ("raise", "collect"):
        raise SimulationError(
            f"on_error must be 'raise' or 'collect', got {on_error!r}"
        )
    retry = retry if retry is not None else RetryPolicy()
    if chaos is None:
        chaos = ChaosPolicy.from_env()

    tasks = list(tasks)
    keys = [key for key, _payload in tasks]
    if len(set(keys)) != len(keys):
        raise SimulationError(f"duplicate {label} keys in supervised run")
    payloads = dict(tasks)
    attempts: dict[object, int] = {key: 0 for key in keys}
    outcomes: dict[object, object] = {}

    def record_failure(key: object, exc: BaseException) -> None:
        failure = failure_cls(
            key=key,
            attempts=attempts[key],
            error_type=type(exc).__name__,
            message=str(exc),
            cause=exc,
        )
        outcomes[key] = failure

    def run_serial(serial_keys: Sequence[object]) -> None:
        if initializer is not None:
            initializer(*initargs)
        for key in serial_keys:
            while True:
                attempts[key] += 1
                try:
                    if chaos is not None:
                        chaos.apply(key, attempts[key], in_worker=False)
                    _k, result = _supervised_task(
                        (key, payloads[key], attempts[key], None, worker_fn)
                    )
                except KeyboardInterrupt:
                    raise
                except BaseException as exc:
                    if retry.should_retry(exc, attempts[key]):
                        time.sleep(retry.delay_s(key, attempts[key] + 1))
                        continue
                    if on_error == "raise":
                        _raise_exhausted(label, key, attempts[key], exc)
                    record_failure(key, exc)
                    break
                outcomes[key] = result
                if on_complete is not None:
                    on_complete(key, result)
                break

    if n_jobs <= 1 or len(tasks) <= 1:
        run_serial(keys)
        return {key: outcomes[key] for key in keys}

    timeout_s = retry.timeout_s
    monotonic = time.monotonic
    pending: deque = deque(keys)
    ready_at: dict[object, float] = {}
    inflight: dict[object, list] = {}  # future -> [key, deadline | None]
    pool: ProcessPoolExecutor | None = None

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(n_jobs, len(tasks)),
            mp_context=mp_context,
            initializer=_start_worker,
            initargs=(initializer, initargs),
        )

    def drain_to_serial(cause: BaseException) -> None:
        """Pool machinery is unusable: finish everything in-process."""
        nonlocal pool
        if pool is not None:
            _terminate_pool(pool)
            pool = None
        for entry in inflight.values():
            pending.append(entry[0])
            attempts[entry[0]] -= 1  # the attempt never ran
        inflight.clear()
        _warn_serial_fallback(label, cause)
        run_serial([key for key in pending if key not in outcomes])
        pending.clear()

    def handle_exception(key: object, exc: BaseException) -> None:
        """Retry bookkeeping for one failed pooled attempt."""
        if retry.should_retry(exc, attempts[key]):
            ready_at[key] = monotonic() + retry.delay_s(key, attempts[key] + 1)
            pending.append(key)
        elif on_error == "raise":
            if pool is not None:
                _terminate_pool(pool)
            _raise_exhausted(label, key, attempts[key], exc)
        else:
            record_failure(key, exc)

    try:
        while pending or inflight:
            now = monotonic()
            # (Re)build the pool, degrading to serial when impossible.
            if pool is None and pending:
                try:
                    pool = make_pool()
                except (OSError, ValueError, ImportError) as exc:
                    drain_to_serial(exc)
                    continue
            # Submit every task whose backoff has elapsed.
            requeue = []
            while pending:
                key = pending.popleft()
                if ready_at.get(key, 0.0) > now:
                    requeue.append(key)
                    continue
                attempts[key] += 1
                item = (key, payloads[key], attempts[key], chaos, worker_fn)
                try:
                    fut = pool.submit(_supervised_task, item)
                except BaseException as exc:  # broken/unusable pool
                    attempts[key] -= 1
                    pending.appendleft(key)
                    pending.extend(requeue)
                    if isinstance(exc, BrokenProcessPool):
                        _terminate_pool(pool)
                        pool = None
                        break
                    drain_to_serial(exc)
                    break
                inflight[fut] = [key, None]
            else:
                pending.extend(requeue)
            if not inflight:
                if pending:
                    soonest = min(ready_at.get(k, 0.0) for k in pending)
                    time.sleep(max(0.0, min(soonest - monotonic(), 0.05)))
                continue

            # Wait for a completion; wake early to arm/poll deadlines or
            # to resubmit a backed-off task.
            wait_for = None
            candidates = []
            if timeout_s is not None:
                armed = [e[1] for e in inflight.values() if e[1] is not None]
                candidates.append(
                    min(armed) - now if armed else min(0.05, timeout_s / 4.0)
                )
                candidates.append(min(0.05, timeout_s / 4.0))
            if pending:
                soonest = min(ready_at.get(k, 0.0) for k in pending)
                candidates.append(soonest - now)
            if candidates:
                wait_for = max(0.0, min(candidates))
            done, _not_done = wait(
                inflight, timeout=wait_for, return_when=FIRST_COMPLETED
            )

            broken = False
            for fut in done:
                key, _deadline = inflight.pop(fut)
                try:
                    _k, result = fut.result()
                except BaseException as exc:
                    if isinstance(exc, BrokenProcessPool):
                        broken = True
                    handle_exception(key, exc)
                else:
                    outcomes[key] = result
                    if on_complete is not None:
                        on_complete(key, result)

            if broken:
                # Every surviving in-flight future is poisoned too; the
                # executor has already failed them all.  Charge each its
                # attempt, run retry bookkeeping, rebuild on next loop.
                for fut, (key, _deadline) in list(inflight.items()):
                    try:
                        _k, result = fut.result(timeout=0)
                    except BaseException as exc:
                        handle_exception(key, exc)
                    else:  # pragma: no cover - completed before the break
                        outcomes[key] = result
                        if on_complete is not None:
                            on_complete(key, result)
                inflight.clear()
                if pool is not None:
                    _terminate_pool(pool)
                    pool = None
                continue

            if timeout_s is not None and inflight:
                now = monotonic()
                overdue = []
                for fut, entry in inflight.items():
                    if entry[1] is None:
                        if fut.running():
                            entry[1] = now + timeout_s
                    elif now >= entry[1]:
                        overdue.append(fut)
                if overdue:
                    # A hung worker cannot be cancelled: kill the pool,
                    # charge the overdue tasks, requeue the innocents
                    # without charging them.
                    _terminate_pool(pool)
                    pool = None
                    overdue_set = set(overdue)
                    for fut, (key, _deadline) in list(inflight.items()):
                        if fut in overdue_set:
                            handle_exception(
                                key,
                                TaskTimeoutError(
                                    f"{label} {key!r} exceeded "
                                    f"timeout_s={timeout_s} "
                                    f"(attempt {attempts[key]})"
                                ),
                            )
                        else:
                            attempts[key] -= 1
                            pending.append(key)
                    inflight.clear()
    except KeyboardInterrupt:
        if pool is not None:
            _terminate_pool(pool)
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    return {key: outcomes[key] for key in keys}
