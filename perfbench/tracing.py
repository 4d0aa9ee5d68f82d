"""Outside-in span tracing for the benchmark.

Wrappers installed from outside the program record one span per call of
each layer's public entry points: name, start, end, the enclosing span in
the same process, and (through the per-process record) the pid.  Nothing
in ``src/`` is edited; :func:`install` rebinds the functions at run time.

* A plain function is rebound in **every** ``repro`` module that holds it,
  because ``from x import f`` copies the binding and patching only the
  defining module would miss those callers.  A method is rebound once, on
  its class.
* Pool workers are forked from the traced process and inherit the
  wrappers.  :class:`ProcessLog` registers an after-fork hook that clears
  the spans a worker inherited, notes the parent span that was open at the
  fork, and registers an exit hook that writes the worker's record.
* Spans stay in memory and are written once per process, at its end, as
  ``proc-<pid>.json``; :func:`layer_metrics` and :func:`process_table`
  merge the records after the run.

The same :class:`ProcessLog` runs with tracing off, so the untraced run
still learns every process's peak RSS; it then records no spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import statistics
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

monotonic = time.monotonic

#: (defining module, attribute path, layer) of every traced entry point.
#: A layer's self time is the sum over its spans of the span's duration
#: minus the time its direct child spans cover.
TARGETS = (
    ("repro.core.composition", "flatten", "composition"),
    ("repro.cfs.cluster", "build_cluster_node", "cfs.node"),
    ("repro.cfs.components", "build_storage_node", "cfs.node"),
    ("repro.cfs.measures", "build_measures", "cfs.measures"),
    ("repro.cfs.measures", "build_storage_measures", "cfs.measures"),
    ("repro.core.simulation", "CompiledProgram.tables", "simulation.compile"),
    ("repro.core.simulation", "Simulator.run", "simulation.run"),
    ("repro.core.parallel", "build_setup_cached", "parallel"),
    ("repro.core.parallel", "ReplicationSpec.build", "parallel"),
    ("repro.core.resilience", "run_tasks_supervised", "resilience"),
    ("repro.core.resilience", "RetryPolicy.delay_s", "resilience"),
    ("repro.experiments.sweep", "SweepCell.execute", "sweep"),
    ("repro.loggen.abe", "generate_abe_logs", "loggen"),
    ("repro.loggen.disks", "disk_survival_dataset", "loggen"),
    ("repro.analysis.filtering", "pair_outages", "analysis"),
    ("repro.analysis.filtering", "mount_failures_by_day", "analysis"),
    ("repro.analysis.availability", "availability_from_outages", "analysis"),
    ("repro.analysis.availability", "availability_range", "analysis"),
    ("repro.analysis.availability", "downtime_table", "analysis"),
    ("repro.analysis.jobs", "job_statistics", "analysis"),
    ("repro.analysis.survival", "fit_weibull_censored", "analysis"),
    ("repro.experiments.rare", "splitting_probability", "rare"),
    ("repro.core.stopping", "StoppingRule.satisfied", "stopping"),
)

#: Span name -> layer.
LAYER_OF = {"import": "import", **{path: layer for _, path, layer in TARGETS}}


class Recorder:
    """Spans of one process: ``[name, start, end, parent index, attrs]``.

    ``stack`` holds the indices of the open spans above a ``-1`` sentinel.
    The program calls the traced functions from one thread per process,
    so the recorder takes no lock.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]

    def reset(self) -> None:
        self.spans.clear()
        del self.stack[1:]

    def call(self, name, fn, args, kwargs, attrs=None):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        span = [name, 0.0, 0.0, stack[-1], None]
        spans.append(span)
        stack.append(idx)
        span[1] = monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = monotonic()
            stack.pop()
        if attrs is not None:
            span[4] = attrs(args, kwargs, result)
        return result


def _supervised_attrs(args, kwargs, result):
    from repro.core.resilience import TaskFailure

    tasks = args[0] if args else kwargs["tasks"]
    return {
        "jobs": max(1, min(int(kwargs.get("n_jobs", 1)), len(tasks))),
        "failed": sum(isinstance(v, TaskFailure) for v in result.values()),
    }


#: Span name -> ``attrs(args, kwargs, result)`` kept with the span.
ATTRS = {
    "Simulator.run": lambda a, k, r: {"events": r.n_events},
    "run_tasks_supervised": _supervised_attrs,
    "SweepCell.execute": lambda a, k, r: {"key": str(a[0].key)},
    "splitting_probability": lambda a, k, r: {
        "roots": r.n_roots, "segments": r.n_segments, "hits": r.n_hits
    },
}


def _wrapper(rec: Recorder, name: str, fn):
    attrs = ATTRS.get(name)
    if name == "CompiledProgram.tables":
        # Only the first call per program compiles; later calls return the
        # cached tables and are not spans of the compile layer.
        @functools.wraps(fn)
        def tables(self):
            if self._compiled is not None:
                return fn(self)
            return rec.call(name, fn, (self,), {})

        return tables

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, attrs)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target in :data:`TARGETS`."""
    for module_name, path, _layer in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrapper(rec, path, getattr(cls, meth)))
            continue
        original = getattr(module, path)
        wrapped = _wrapper(rec, path, original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


class ProcessLog:
    """Writes one record per process of a repetition into ``out_dir``.

    Created in the repetition's main process.  Forked pool workers run
    :meth:`_after_fork` (through :mod:`multiprocessing`'s after-fork
    registry) and write their own record when they exit normally.
    """

    def __init__(self, out_dir: Path, recorder: Recorder | None) -> None:
        self.out_dir = Path(out_dir)
        self.recorder = recorder
        self.role = "main"
        self.t_start = monotonic()
        self.fork_parent: list | None = None
        mp_util.register_after_fork(self, ProcessLog._after_fork)

    def _after_fork(self) -> None:
        self.role = "worker"
        self.t_start = monotonic()
        if self.recorder is not None:
            self.fork_parent = [os.getppid(), self.recorder.stack[-1]]
            self.recorder.reset()
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def flush(self, t_end: float | None = None) -> None:
        t_end = monotonic() if t_end is None else t_end
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record = {
            "pid": os.getpid(),
            "ppid": os.getppid(),
            "role": self.role,
            "t_start": self.t_start,
            "t_end": t_end,
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "fork_parent": self.fork_parent,
            "spans": self.recorder.spans if self.recorder is not None else [],
        }
        path = self.out_dir / f"proc-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        os.replace(tmp, path)


def read_processes(out_dir: Path) -> list[dict]:
    """Every process record of one repetition, main process first."""
    procs = [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("proc-*.json"))]
    procs.sort(key=lambda p: (p["role"] != "main", p["t_start"]))
    return procs


def _self_times(spans: list) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def process_table(procs: list[dict]) -> list[dict]:
    """Per process: wall time, layer self times and the untraced remainder.

    ``remainder`` is the wall time no top-level span covers.  ``gap_frac``
    is how far the self times plus the remainder miss the wall time, or
    how far the spans overrun it, as a share of wall; it is 0 when spans
    nest properly inside the process's lifetime.
    """
    rows = []
    for proc in procs:
        spans = proc["spans"]
        wall = proc["t_end"] - proc["t_start"]
        layers: dict[str, float] = {}
        for span, own in zip(spans, _self_times(spans)):
            layer = LAYER_OF[span[0]]
            layers[layer] = layers.get(layer, 0.0) + own
        covered = sum(s[2] - s[1] for s in spans if s[3] < 0)
        remainder = wall - covered
        gap = abs(wall - (sum(layers.values()) + remainder)) + max(0.0, -remainder)
        rows.append(
            {
                "pid": proc["pid"],
                "role": proc["role"],
                "wall_s": wall,
                "layers_s": dict(sorted(layers.items())),
                "remainder_s": remainder,
                "gap_frac": gap / wall if wall > 0 else 0.0,
            }
        )
    return rows


def layer_metrics(procs: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (all processes)."""
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    inclusive: dict[str, list[float]] = {}
    attrs: dict[str, list[dict]] = {}
    supervised_s = 0.0
    supervised_capacity = 0.0
    failed_tasks = 0
    import_s = 0.0
    for proc in procs:
        spans = proc["spans"]
        for span, own in zip(spans, _self_times(spans)):
            name = span[0]
            self_s[name] = self_s.get(name, 0.0) + own
            count[name] = count.get(name, 0) + 1
            inclusive.setdefault(name, []).append(span[2] - span[1])
            if span[4] is not None:
                attrs.setdefault(name, []).append(span[4])
            if name == "import":
                import_s += span[2] - span[1]
            elif name == "run_tasks_supervised":
                failed_tasks += span[4]["failed"] if span[4] else 0
                # Outermost supervision only: a nested pool inside a cell
                # is part of that cell's busy time.
                parent = span[3]
                while parent >= 0 and spans[parent][0] != "run_tasks_supervised":
                    parent = spans[parent][3]
                if parent < 0:
                    dur = span[2] - span[1]
                    supervised_s += dur
                    supervised_capacity += dur * (span[4]["jobs"] if span[4] else 1)

    def s(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def n(name: str) -> int:
        return count.get(name, 0)

    def attr_sum(name: str, key: str) -> int:
        return sum(a[key] for a in attrs.get(name, ()))

    run_s = s("Simulator.run")
    events = attr_sum("Simulator.run", "events")
    cells = inclusive.get("SweepCell.execute", [])
    segments = attr_sum("splitting_probability", "segments")
    rare_inclusive = sum(inclusive.get("splitting_probability", []))
    return {
        "import.s": import_s,
        "composition.flatten_calls": n("flatten"),
        "composition.flatten_s": s("flatten"),
        "cfs.node_s": s("build_cluster_node", "build_storage_node"),
        "cfs.measures_s": s("build_measures", "build_storage_measures"),
        "simulation.compile_calls": n("CompiledProgram.tables"),
        "simulation.compile_s": s("CompiledProgram.tables"),
        "simulation.run_calls": n("Simulator.run"),
        "simulation.events": events,
        "simulation.run_s": run_s,
        "simulation.events_per_s": events / run_s if run_s > 0 else 0.0,
        "simulation.us_per_run": 1e6 * run_s / n("Simulator.run") if run_s > 0 else 0.0,
        "parallel.setup_requests": n("build_setup_cached"),
        "parallel.setup_builds": n("ReplicationSpec.build"),
        "sweep.cells": len(cells),
        "sweep.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "sweep.cell_s_max": max(cells) if cells else 0.0,
        "resilience.supervised_s": supervised_s,
        "resilience.worker_busy_frac": (
            sum(cells) / supervised_capacity if supervised_capacity > 0 else 0.0
        ),
        "resilience.retries": n("RetryPolicy.delay_s"),
        "resilience.failed_tasks": failed_tasks,
        "loggen.generate_s": s("generate_abe_logs", "disk_survival_dataset"),
        "analysis.s": s(*(k for k, v in LAYER_OF.items() if v == "analysis")),
        "rare.roots": attr_sum("splitting_probability", "roots"),
        "rare.segments": segments,
        "rare.hits": attr_sum("splitting_probability", "hits"),
        "rare.tree_self_s": s("splitting_probability"),
        "rare.us_per_segment": 1e6 * rare_inclusive / segments if segments else 0.0,
        "stopping.rounds": n("StoppingRule.satisfied"),
    }
