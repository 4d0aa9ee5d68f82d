"""Sweep-cell orchestration: schedule independent experiment cells.

Every figure and table of the paper is a *grid* of independent cells —
one (configuration, scale-step) point of a storage sweep, one composed
cluster study, one synthesized-log analysis.  PR 1 parallelized the
replications *inside* one cell; this module parallelizes the cells
themselves, which is where the real wall-clock of a whole-figure
regeneration lives (a Figure 2 run is 50 cells of 8 replications each).

A :class:`SweepCell` names a module-level function plus picklable
arguments; :func:`run_sweep` executes the cells of a grid either
serially (in grid order) or across a supervised worker pool
(:func:`~repro.core.resilience.run_tasks_supervised`: per-cell
retry/backoff, worker-crash recovery, timeout watchdog, optional
``on_error="collect"`` partial results and a ``checkpoint_dir``
journal for resume-after-kill).  The determinism contract mirrors
:mod:`repro.core.parallel`:

* a cell function must be a **pure function of its arguments** — any
  randomness must come from seeds passed in the arguments (the
  regenerators derive one base seed per cell from the seed tree, e.g.
  ``base_seed + 1000 * config_index + step``), never from global state;
* therefore a cell's result does not depend on *where* or *in what
  order* cells execute, and ``run_sweep(cells, n_jobs=k)`` returns
  results **bit-identical to serial execution for any k** (asserted
  float-for-float by ``tests/test_sweep.py``);
* with more cells than workers, cells run their replications serially
  (``n_jobs=1`` inside the cell): cell-level scheduling already
  saturates the pool.  With more workers than cells (cores >> grid),
  :func:`run_sweep` splits the surplus *into* the cells — two-level
  (cells × replications) parallelism from the same grid, still
  bit-identical to serial because replication ``k`` always draws from
  stream ``k`` (see the ``nested`` parameter).

:func:`replication_cell` builds the most common cell shape — one
:class:`~repro.core.parallel.ReplicationSpec` study summarized as an
:class:`~repro.core.experiment.ExperimentResult` — and each regenerator
module exposes a ``*_cells()`` builder so whole-report runs
(:func:`repro.experiments.run_all`, ``python -m repro all --jobs -1``)
can flatten every table and figure into one grid and schedule it as a
single pool of ~60 cells.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ..core.errors import ReproError, SimulationError
from ..core.experiment import ExperimentResult, replicate_runs
from ..core.parallel import (
    ReplicationSpec,
    build_setup_cached,
    pool_context,
    resolve_n_jobs,
)
from ..core.resilience import (
    CellFailure,
    ChaosPolicy,
    RetryPolicy,
    run_tasks_supervised,
)

__all__ = [
    "SweepCell",
    "SweepResult",
    "cell_digest",
    "replication_cell",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepCell:
    """One independent cell of an experiment grid.

    Attributes
    ----------
    key:
        Hashable identifier, unique within a grid (e.g.
        ``("figure2", config_index, step)``).  Results are addressed by
        key, so scheduling order never leaks into assembly.
    fn:
        Module-level callable executing the cell.  It must be importable
        (workers unpickle it by qualified name) and a pure function of
        its arguments — all randomness seeded through ``args``/``kwargs``.
    args / kwargs:
        Picklable call arguments.
    inner_jobs_arg:
        Name of the keyword argument through which the cell accepts
        *within-cell* parallelism (e.g. ``"n_jobs"`` for replication
        cells), or ``None`` when the cell is indivisible.  The cell's
        result must not depend on that argument's value — only its
        wall-clock does — which is what lets :func:`run_sweep` split
        surplus workers into the cells (nested parallelism) without
        perturbing results.
    """

    key: object
    fn: Callable
    args: tuple = ()
    kwargs: Mapping = field(default_factory=dict)
    inner_jobs_arg: str | None = None

    def execute(self) -> object:
        """Run the cell in the current process."""
        return self.fn(*self.args, **dict(self.kwargs))

    def with_inner_jobs(self, n_jobs: int) -> "SweepCell":
        """A copy of this cell using ``n_jobs`` within-cell workers.

        Returns ``self`` unchanged when the cell is indivisible or its
        inner parallelism was set explicitly (anything but the serial
        default) by the grid builder.
        """
        if self.inner_jobs_arg is None:
            return self
        if self.kwargs.get(self.inner_jobs_arg, 1) != 1:
            return self
        kwargs = {**dict(self.kwargs), self.inner_jobs_arg: int(n_jobs)}
        return replace(self, kwargs=kwargs)


class SweepResult(dict):
    """Results of one sweep: a dict keyed by cell key, in grid order.

    Plain mapping semantics (indexing, iteration, ``values()`` — all in
    grid order, since insertion order is grid order) with a lookup error
    that names the available cells.

    Under ``run_sweep(..., on_error="collect")`` a failed cell is stored
    as a :class:`~repro.core.resilience.CellFailure` record instead of a
    result.  Indexing a failed cell raises a
    :class:`~repro.core.errors.SimulationError` naming the underlying
    error (so assembly code cannot silently treat a failure record as
    data); iteration and ``values()`` expose the records as stored.  Use
    :attr:`failures` / :attr:`completed` to split a partial sweep.
    """

    def __getitem__(self, key: object) -> object:
        try:
            value = super().__getitem__(key)
        except KeyError:
            raise KeyError(
                f"no sweep cell {key!r}; available: {list(self)}"
            ) from None
        if isinstance(value, CellFailure):
            raise SimulationError(
                f"sweep cell {key!r} failed after {value.attempts} "
                f"attempt(s): {value.error_type}: {value.message}"
            )
        return value

    @property
    def failures(self) -> dict:
        """``key -> CellFailure`` for every cell that exhausted retries."""
        return {
            k: v
            for k, v in self.items()
            if isinstance(v, CellFailure)
        }

    @property
    def completed(self) -> dict:
        """``key -> result`` for every cell that produced a result."""
        return {
            k: v
            for k, v in self.items()
            if not isinstance(v, CellFailure)
        }


def _run_replication_cell(
    spec: ReplicationSpec,
    hours: float,
    n_replications: int,
    warmup: float,
    confidence: float,
    n_jobs: int = 1,
    stopping=None,
) -> ExperimentResult:
    """Execute one replication-study cell (in whatever process hosts it).

    The spec rebuilds the simulator/rewards/metrics — through the
    per-process setup cache
    (:func:`~repro.core.parallel.build_setup_cached`), so a worker that
    already compiled this spec's program (an earlier cell of the same
    study, or a pool that forked off it) reuses it instead of paying
    model construction + table compilation again.  Replication ``k``
    draws from stream ``(base_seed, "run", k)`` exactly as a direct
    serial :func:`~repro.core.experiment.replicate_runs` call would —
    cache reuse resets the stream counter — so the cell's samples are
    bit-identical however the cell is scheduled, wherever its setup was
    built, and for any inner ``n_jobs``.
    """
    setup, _metrics = build_setup_cached(spec)
    return replicate_runs(
        setup.simulator,
        hours,
        n_replications=n_replications,
        warmup=warmup,
        rewards=setup.rewards,
        traces_factory=setup.traces_factory,
        extra_metrics=setup.extra_metrics,
        confidence=confidence,
        n_jobs=n_jobs,
        spec=spec if n_jobs != 1 else None,
        stopping=stopping,
    )


def replication_cell(
    key: object,
    spec: ReplicationSpec,
    hours: float,
    n_replications: int,
    *,
    warmup: float = 0.0,
    confidence: float = 0.95,
    n_jobs: int = 1,
    stopping=None,
) -> SweepCell:
    """Build the standard cell: one replicated study from a picklable spec.

    The cell result is an :class:`~repro.core.experiment.ExperimentResult`
    carrying the per-replication samples of every metric the spec's
    rewards define.  ``n_jobs`` parallelizes the replications *inside*
    the cell (default serial): useful when a grid has fewer cells than
    the host has cores (e.g. the 3-cell ``calibrate`` command), since
    cell-level scheduling alone cannot use the spare workers.

    ``stopping`` (a :class:`~repro.core.stopping.StoppingRule`) makes
    the cell adaptive: replications run in deterministic rounds until
    the watched metrics' relative CI half-widths reach the rule's
    target, with ``n_replications`` as the cap.  The stopping point is
    a pure function of the cell's samples, so the cell stays
    bit-identical however it is scheduled, and its digest still
    excludes only the inner worker split.  The kwarg is added to the
    cell only when set, so grids without a rule keep their existing
    checkpoint digests (resume compatibility across versions).
    """
    kwargs: dict[str, object] = {"n_jobs": int(n_jobs)}
    if stopping is not None:
        kwargs["stopping"] = stopping
    return SweepCell(
        key,
        _run_replication_cell,
        (
            spec,
            float(hours),
            int(n_replications),
            float(warmup),
            float(confidence),
        ),
        kwargs,
        inner_jobs_arg="n_jobs",
    )


def _execute_cell(cell: SweepCell) -> object:
    """Supervised worker entry: run one cell in whatever process hosts it."""
    return cell.execute()


def cell_digest(cell: SweepCell) -> str:
    """Content digest identifying a cell's *result*, for checkpointing.

    Hashes the key, the cell function's qualified name and the seeded
    arguments — everything the result depends on — but **excludes** the
    ``inner_jobs_arg`` keyword: a cell's result is independent of its
    within-cell worker split by contract, so a grid checkpointed under
    ``--jobs 8`` resumes cleanly under ``--jobs 1`` (and vice versa).
    Argument identity goes through :mod:`pickle` (functions hash by
    qualified name, not by object address), so equal cells built by
    separate processes produce equal digests.
    """
    kwargs = dict(cell.kwargs)
    kwargs.pop(cell.inner_jobs_arg, None)
    fn = cell.fn
    payload = pickle.dumps(
        (
            "sweep-cell-v1",
            cell.key,
            f"{fn.__module__}.{getattr(fn, '__qualname__', fn.__name__)}",
            cell.args,
            sorted(kwargs.items()),
        )
    )
    return hashlib.sha256(payload).hexdigest()


def _make_dir(directory: str | os.PathLike, argument: str) -> Path:
    """``directory`` as a :class:`Path`, created with its parents if
    missing.  An ``OSError`` becomes a :class:`ReproError` that names
    ``argument``, the path and the OS's reason."""
    path = Path(directory)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = (
            "it exists and is not a directory"
            if isinstance(exc, FileExistsError) else exc.strerror or str(exc)
        )
        raise ReproError(
            f"{argument} {str(path)!r}: cannot create directory: {reason}"
        ) from None
    return path


class _CheckpointJournal:
    """Per-cell result journal backing ``run_sweep(checkpoint_dir=...)``.

    One file per completed cell, named by :func:`cell_digest`: a header
    line carrying the SHA-256 of the pickled payload, then the payload.
    Writes are atomic (temp file + :func:`os.replace`), so a run killed
    mid-write never leaves a truncated entry.  ``load`` verifies the
    payload digest before unpickling, so a truncated or garbled entry —
    including bit corruption that would still unpickle — is detected,
    reported with one :class:`RuntimeWarning`, and treated as absent:
    the cell recomputes, which is bit-identical by the pure-cell
    contract.  Headerless files are read as legacy plain-pickle entries
    (journals written before the digest framing).  Failed cells are
    never journaled: a resumed run retries them.
    """

    _MISS = object()
    _MAGIC = b"repro-ckpt/sha256:"

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = _make_dir(directory, "checkpoint_dir")

    def _path(self, cell: SweepCell) -> Path:
        return self.directory / f"{cell_digest(cell)}.pkl"

    def _corrupt(self, cell: SweepCell, path: Path, reason: str) -> object:
        warnings.warn(
            f"checkpoint entry {path.name} for cell {cell.key!r} is "
            f"corrupt ({reason}); recomputing the cell",
            RuntimeWarning,
            stacklevel=4,
        )
        return self._MISS

    def load(self, cell: SweepCell) -> object:
        """The journaled result, or ``_MISS`` when absent/unreadable."""
        path = self._path(cell)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return self._MISS
        except OSError as exc:
            return self._corrupt(cell, path, f"unreadable: {exc}")
        if blob.startswith(self._MAGIC):
            header, sep, payload = blob.partition(b"\n")
            digest = header[len(self._MAGIC):].decode("ascii", "replace")
            if not sep:
                return self._corrupt(cell, path, "truncated header")
            if hashlib.sha256(payload).hexdigest() != digest:
                return self._corrupt(cell, path, "payload digest mismatch")
        else:
            payload = blob
        try:
            return pickle.loads(payload)
        except Exception as exc:
            # Unreadable entry (corrupt payload, stale class): recompute.
            return self._corrupt(
                cell, path, f"unpicklable: {type(exc).__name__}: {exc}"
            )

    def store(self, cell: SweepCell, result: object) -> None:
        path = self._path(cell)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        payload = pickle.dumps(result)
        header = self._MAGIC + hashlib.sha256(payload).hexdigest().encode()
        with open(tmp, "wb") as fh:
            fh.write(header + b"\n" + payload)
        os.replace(tmp, path)


def run_sweep(
    cells: Sequence[SweepCell],
    *,
    n_jobs: int | None = 1,
    nested: bool = True,
    on_error: str = "raise",
    retry: RetryPolicy | None = None,
    chaos: ChaosPolicy | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
) -> SweepResult:
    """Execute a grid of independent cells, serially or across processes.

    Parameters
    ----------
    cells:
        The grid.  Keys must be unique; cells must be picklable when
        ``n_jobs > 1`` (module-level ``fn``, picklable arguments).
    n_jobs:
        Worker processes scheduling whole cells (1 = serial in grid
        order, -1 = all cores).  Because every cell is a pure function
        of its seeded arguments, results are bit-identical for any
        value; only wall-clock changes.  Cells are dispatched one future
        at a time so a grid mixing cheap ABE points with expensive
        petascale points load-balances dynamically.
    nested:
        Nested parallelism policy for hosts with more workers than
        cells: when ``n_jobs`` exceeds the grid size, the surplus is
        split *into* the cells — each divisible cell (one that names an
        ``inner_jobs_arg``, e.g. every :func:`replication_cell`) runs
        its replications across ``n_jobs // len(cells)`` workers of its
        own, from the same grid, while cell-level scheduling uses one
        worker per cell.  Replication ``k`` draws from stream ``k``
        whatever the split, so results stay **bit-identical to serial
        execution for any (outer, inner) division**
        (``tests/test_sweep.py``).  Pass ``nested=False`` to keep the
        historical cap of one worker per cell.
    on_error:
        ``"raise"`` (default) — the first cell that exhausts its retries
        aborts the sweep with a chained
        :class:`~repro.core.errors.SimulationError`.  ``"collect"`` —
        failed cells become :class:`~repro.core.resilience.CellFailure`
        records inside the returned :class:`SweepResult` while every
        healthy cell still completes (partial-result semantics for long
        overnight grids).
    retry:
        Per-cell :class:`~repro.core.resilience.RetryPolicy` (bounded
        retries, exponential backoff with deterministic jitter, optional
        per-attempt ``timeout_s``).  Default: 3 attempts.  Retried and
        crash-resubmitted cells reproduce the undisturbed result exactly
        (cells are pure functions of their seeded arguments).
    chaos:
        Deterministic fault injection
        (:class:`~repro.core.resilience.ChaosPolicy`) for the
        fault-injection suites; ``None`` honors the process-wide
        ``REPRO_CHAOS`` environment policy.
    checkpoint_dir:
        Directory for the per-cell checkpoint journal.  As each cell
        completes, its result is journaled (atomically) under a content
        digest of the cell; a later ``run_sweep`` over the same grid and
        the same directory loads journaled cells instead of re-executing
        them — resume-after-kill for whole-figure regenerations (CLI:
        ``--checkpoint-dir`` / ``--resume``).  The digest excludes the
        within-cell worker split, so a grid may resume under a different
        ``n_jobs``.

    Execution is supervised (:mod:`repro.core.resilience`) for every
    ``n_jobs``: a worker crash (``BrokenProcessPool``) rebuilds the pool
    and resubmits only the unfinished cells; pool-creation failure
    degrades to serial in-process execution with a ``RuntimeWarning``.
    Results — full or resumed, serial or pooled, crashed-and-recovered
    or undisturbed — are bit-identical by the pure-cell contract.
    """
    cells = list(cells)
    keys = [c.key for c in cells]
    if len(set(keys)) != len(keys):
        dupes = sorted({repr(k) for k in keys if keys.count(k) > 1})
        raise SimulationError(f"duplicate sweep cell keys: {dupes}")

    jobs = resolve_n_jobs(n_jobs)
    if nested and cells and jobs > len(cells):
        inner = jobs // len(cells)
        if inner > 1:
            cells = [c.with_inner_jobs(inner) for c in cells]

    journal = (
        _CheckpointJournal(checkpoint_dir) if checkpoint_dir is not None else None
    )
    done: dict[object, object] = {}
    todo = cells
    if journal is not None:
        todo = []
        for cell in cells:
            hit = journal.load(cell)
            if hit is _CheckpointJournal._MISS:
                todo.append(cell)
            else:
                done[cell.key] = hit

    outcomes: dict[object, object] = {}
    if todo:
        by_key = {c.key: c for c in todo}
        on_complete = (
            (lambda key, result: journal.store(by_key[key], result))
            if journal is not None
            else None
        )
        pooled = jobs > 1 and len(todo) > 1
        outcomes = run_tasks_supervised(
            [(c.key, c) for c in todo],
            _execute_cell,
            n_jobs=min(jobs, len(todo)),
            # Serial grids never build a pool; don't probe start methods
            # (and possibly warn about fork) on their behalf.
            mp_context=pool_context() if pooled else None,
            retry=retry,
            chaos=chaos,
            on_error=on_error,
            on_complete=on_complete,
            failure_cls=CellFailure,
            label="sweep cell",
        )

    return SweepResult(
        (c.key, done[c.key] if c.key in done else outcomes[c.key]) for c in cells
    )
