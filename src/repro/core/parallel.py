"""Parallel replication execution across processes.

Replications are embarrassingly parallel: replication ``k`` draws from
the independent stream ``(base_seed, "run", k)`` of the seed tree
(:mod:`repro.core.rng`), so results do not depend on *where* or *in what
order* replications execute.  This module exploits that with a
:class:`concurrent.futures.ProcessPoolExecutor`: stream ``k`` is always
assigned to replication ``k`` regardless of worker scheduling, which
makes the per-metric sample lists **bit-identical to serial execution
for any number of jobs**.  RESTART root trees
(:func:`repro.experiments.rare.splitting_probability`) are independent
by index in the same way, and both kinds of study reach the pool
through one chunked, supervised dispatch (:func:`_run_chunked`).

Workers get the study's setup one way per start method:

* **fork** — the parent stores its live :class:`ReplicationSetup` (the
  simulator it already compiled, its reward objects and metric
  closures) in a module global before the pool forks, and the workers
  read it through copy-on-write memory.  Nothing is rebuilt or pickled,
  so this also parallelizes ad-hoc models whose gate functions and
  reward lambdas cannot be pickled.
* **no fork** — a :class:`ReplicationSpec` (a module-level factory plus
  picklable arguments) makes each worker rebuild the setup once, through
  :func:`build_setup_cached`;
  :meth:`repro.cfs.cluster.ClusterModel.replication_spec` is the
  canonical example.  Without a spec the study runs serially
  in-process, after a once-per-process :class:`RuntimeWarning`.

A built setup is **reused, never rebuilt**, within one process:
:func:`build_setup_cached` keeps a small per-process LRU of setups keyed
by their spec, so the sweep cells one worker executes and the spawned
workers of repeated pools pay model construction + table compilation
once per process (compile-once/replicate-many, see
``docs/performance.md`` Layer 6).  Reuse is bit-identical to fresh
construction: a cache hit resets the simulator's stream counter
(:meth:`~repro.core.simulation.Simulator.reset_streams`), and every
other carry-over (declared-read checks, predicate memos, discovered
dependencies) is trajectory-neutral by the engine's contracts.

Use via :func:`repro.core.experiment.replicate_runs` with ``n_jobs``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import SimulationError
from .resilience import ChaosPolicy, RetryPolicy, run_tasks_supervised
from .rng import make_generator
from .simulation import _check_number

__all__ = [
    "ReplicationSetup",
    "ReplicationSpec",
    "build_setup_cached",
    "pool_context",
    "resolve_n_jobs",
    "run_replications_parallel",
]


@dataclass(frozen=True)
class ReplicationSetup:
    """Everything a worker needs to execute replications of one study.

    Attributes
    ----------
    simulator:
        A :class:`~repro.core.simulation.Simulator` (its ``base_seed`` and
        ``sample_batch`` configuration define the study).
    rewards:
        Reward observers applied to every replication.
    traces_factory:
        Optional factory for per-replication trace observers.
    extra_metrics:
        Additional ``name -> f(RunResult)`` scalars.
    """

    simulator: object
    rewards: Sequence = ()
    traces_factory: Callable | None = None
    extra_metrics: Mapping[str, Callable] | None = None

    def metrics(self) -> dict[str, Callable]:
        """Full metric table (defaults derived from the rewards)."""
        from .experiment import build_metrics

        return build_metrics(self.rewards, self.extra_metrics)


@dataclass(frozen=True)
class ReplicationSpec:
    """Picklable recipe for rebuilding a :class:`ReplicationSetup`.

    ``factory`` must be an importable module-level callable returning a
    :class:`ReplicationSetup`; ``args``/``kwargs`` must be picklable.
    A worker started without ``fork`` calls ``factory(*args, **kwargs)``
    exactly once and reuses the result for all replications it executes.
    """

    factory: Callable[..., ReplicationSetup]
    args: tuple = ()
    kwargs: Mapping = field(default_factory=dict)

    def build(self) -> ReplicationSetup:
        """Materialize the setup (called in the worker process)."""
        setup = self.factory(*self.args, **dict(self.kwargs))
        if not isinstance(setup, ReplicationSetup):
            raise SimulationError(
                f"replication spec factory {self.factory!r} returned "
                f"{type(setup).__name__}, expected ReplicationSetup"
            )
        return setup


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request (``None``/1 serial, -1 = all cores)."""
    n = _check_number(n_jobs, "n_jobs", optional=True)
    if n is None:
        return 1
    if n == -1:
        return max(os.cpu_count() or 1, 1)
    if n < 1:
        raise SimulationError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n


# ----------------------------------------------------------------------
# per-process setup reuse (compile-once/replicate-many)
# ----------------------------------------------------------------------
# Small LRU of built setups keyed by their pickled spec.  Lives at module
# level so it survives across pools within one process (sweep workers
# execute many cells).  Bounded: petascale setups hold a ~12k-place
# compiled program each.
_SETUP_CACHE: OrderedDict[bytes, tuple[ReplicationSetup, dict]] = OrderedDict()
_SETUP_CACHE_MAX = 4


def _spec_key(spec: ReplicationSpec) -> bytes:
    """Deterministic per-process cache key for a spec.

    Specs are picklable by contract; equal specs built the same way
    pickle to equal bytes within one interpreter, and a spurious
    mismatch merely costs a rebuild.
    """
    return pickle.dumps(
        (spec.factory, spec.args, sorted(spec.kwargs.items()))
    )


def build_setup_cached(
    spec: ReplicationSpec,
) -> tuple[ReplicationSetup, dict[str, Callable]]:
    """Build a spec's setup (and metric table), reusing a prior build.

    On a cache hit the setup's simulator stream counter is reset, so the
    returned setup replays exactly the runs a freshly built one would —
    reuse-equals-fresh is what lets sweep cells and replication pools
    share one compiled program per process without perturbing results
    (every other carried-over state is trajectory-neutral; see
    :meth:`~repro.core.simulation.Simulator.reset_streams`).
    """
    key = _spec_key(spec)
    entry = _SETUP_CACHE.get(key)
    if entry is None:
        setup = spec.build()
        entry = (setup, setup.metrics())
        _SETUP_CACHE[key] = entry
        while len(_SETUP_CACHE) > _SETUP_CACHE_MAX:
            _SETUP_CACHE.popitem(last=False)
    else:
        _SETUP_CACHE.move_to_end(key)
        entry[0].simulator.reset_streams()
    return entry


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
# The parent stores the study's live setup here before the pool starts:
# forked workers read it through copy-on-write memory, and chunks run
# in-process read it directly.  A spawned worker starts with None and
# rebuilds the setup from the spec.
_WORKER_SETUP: ReplicationSetup | None = None


def _init_worker(spec: ReplicationSpec | None) -> None:
    global _WORKER_SETUP
    if _WORKER_SETUP is None:
        _WORKER_SETUP = build_setup_cached(spec)[0]


def _run_chunk(payload: tuple) -> list:
    """Execute one contiguous chunk of a study in this worker.

    A chunk is the supervised unit of work: the RNG streams of each
    item are derived positionally from its index ``k``, never from
    execution history, so a chunk rerun after a worker crash — in a
    rebuilt pool or serially in the parent — reproduces exactly the
    items the uninterrupted run would have produced.
    """
    fn, args, ks = payload
    return fn(_WORKER_SETUP, ks, *args)


def _replication_chunk(setup, ks, base_seed, until, warmup) -> list:
    """Replications ``ks``, replication ``k`` on stream ``(base_seed,
    'run', k)``: one ``{metric: value}`` dict each."""
    sim = setup.simulator
    metrics = setup.metrics()
    out = []
    for k in ks:
        traces = (
            tuple(setup.traces_factory())
            if setup.traces_factory is not None
            else ()
        )
        result = sim.run(
            until,
            warmup=warmup,
            rewards=setup.rewards,
            traces=traces,
            rng=make_generator(base_seed, "run", k),
        )
        out.append({name: float(fn(result)) for name, fn in metrics.items()})
    return out


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


_FALLBACK_WARNED = False


def _warn_no_fork(default_method: str) -> None:
    """Once per process: the silent fork->default fallback is now loud."""
    global _FALLBACK_WARNED
    if _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED = True
    warnings.warn(
        "the 'fork' start method is unavailable on this platform; worker "
        f"pools use the {default_method!r} start method instead.  Workers "
        "therefore rebuild their model from the pickled spec (no "
        "copy-on-write inheritance of the parent's compiled program or of "
        "in-process caches), and a study without a ReplicationSpec — "
        "whose closures only fork can hand to workers — runs serially "
        "in-process.",
        RuntimeWarning,
        stacklevel=3,
    )


def pool_context():
    """Multiprocessing context for worker pools over picklable tasks.

    Prefers the ``fork`` start method for cheap start-up and falls back
    to the platform default — with a once-per-process
    :class:`RuntimeWarning` naming the active start method and its
    consequences (no copy-on-write program inheritance; a study without
    a spec runs serially).  Used by the chunked study dispatch and by
    the sweep-cell scheduler (:mod:`repro.experiments.sweep`).
    """
    ctx = _fork_context()
    if ctx is None:
        ctx = multiprocessing.get_context()
        _warn_no_fork(ctx.get_start_method())
    return ctx


def _run_chunked(
    fn: Callable,
    args: tuple,
    first: int,
    count: int,
    *,
    tag: str,
    label: str,
    n_jobs: int,
    setup: ReplicationSetup,
    spec: ReplicationSpec | None,
    retry: RetryPolicy | None,
    chaos: ChaosPolicy | None,
) -> list:
    """Items ``first .. first + count - 1`` of one study, in index order.

    ``fn(setup, ks, *args)`` is a module-level function returning the
    items of the contiguous chunk ``ks``.  Each worker gets ~4 chunks,
    so fast and slow items load-balance while per-task dispatch stays
    amortized.  Chunk ``ks`` is the supervised task ``(tag, ks[0],
    ks[-1])``, the key ``REPRO_CHAOS`` addresses; ``label`` names it in
    messages.  Under ``fork`` the workers read the parent's live
    ``setup``; otherwise ``spec`` makes each rebuild it, and without a
    spec the chunks run serially in-process after a warning.
    """
    global _WORKER_SETUP
    ctx = _fork_context()
    if ctx is None:
        ctx = pool_context()
        if spec is None:
            n_jobs = 1  # run_tasks_supervised executes serially in-process
    n_jobs = min(n_jobs, count)
    chunk = max(1, count // (n_jobs * 4))
    ks = range(first, first + count)
    chunks = [tuple(ks[i : i + chunk]) for i in range(0, count, chunk)]
    tasks = [((tag, c[0], c[-1]), (fn, args, c)) for c in chunks]
    _WORKER_SETUP = setup  # inherited by forked workers (or read in-process)
    try:
        outcomes = run_tasks_supervised(
            tasks,
            _run_chunk,
            n_jobs=n_jobs,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(spec,),
            retry=retry,
            chaos=chaos,
            on_error="raise",
            label=label,
        )
    finally:
        _WORKER_SETUP = None
    return [item for key, _payload in tasks for item in outcomes[key]]


def run_replications_parallel(
    *,
    until: float,
    warmup: float,
    base_seed: int,
    counter_base: int,
    n_replications: int,
    n_jobs: int,
    spec: ReplicationSpec | None = None,
    setup: ReplicationSetup | None = None,
    retry: RetryPolicy | None = None,
    chaos: ChaosPolicy | None = None,
) -> dict[str, list[float]]:
    """Run replications ``counter_base .. counter_base + n - 1`` in a pool.

    Returns per-metric sample lists in replication order — bit-identical
    to running the same streams serially.  Under ``fork`` the workers
    read ``setup`` from the parent (built here from ``spec`` when not
    given); without ``fork`` each worker rebuilds it from ``spec``, and
    with no spec the replications run serially in-process after a
    once-per-process :class:`RuntimeWarning`.  With both, the caller
    vouches that ``setup`` realizes ``spec`` (the same contract as
    ``replicate_runs(spec=...)``); a worker whose metric set differs
    from ``setup``'s raises :class:`SimulationError`.

    Execution is supervised (:mod:`repro.core.resilience`): replications
    are submitted as contiguous chunks; a chunk whose worker crashes or
    times out is retried per ``retry`` (default :class:`RetryPolicy`) in
    a rebuilt pool, and completed chunks are never re-executed.  Because
    replication ``k`` always draws from seed-tree stream ``k``, recovery
    is bit-identical to an uninterrupted run.  ``chaos`` injects
    deterministic faults for testing (``None`` = honor ``REPRO_CHAOS``).
    """
    if setup is None:
        if spec is None:
            raise SimulationError("pass spec=, setup=, or both")
        setup = build_setup_cached(spec)[0]
    items = _run_chunked(
        _replication_chunk,
        (base_seed, until, warmup),
        counter_base,
        n_replications,
        tag="reps",
        label="replication chunk",
        n_jobs=n_jobs,
        setup=setup,
        spec=spec,
        retry=retry,
        chaos=chaos,
    )
    samples: dict[str, list[float]] = {name: [] for name in setup.metrics()}
    for metric_values in items:
        if metric_values.keys() != samples.keys():
            raise SimulationError(
                "workers returned inconsistent metric sets "
                f"({sorted(metric_values)} vs {sorted(samples)})"
            )
        for name, value in metric_values.items():
            samples[name].append(value)
    return samples
