"""Benchmark of the repro package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Each repetition of a workload runs in a
fresh interpreter (``rep.py``), so ``wall_s`` spans interpreter start to
verified result.  A run repeats the workload until ``--seconds`` is used
up and reports medians:

* ``--trace 0`` measures the end-to-end metrics: full repetitions, then
  set-up-only repetitions until at least three set-up times are known.
* ``--trace 1`` alternates untraced and traced full repetitions and
  reports the per-layer metrics of the traced ones, plus the tracing
  overhead.  It also prints each process's layer self times.
* ``--self-test`` runs a traced paper-report repetition with injected
  cell failures and checks that ``fail_frac`` and the retry count are
  both nonzero.

The metric names and units come from ``BENCHMARK.json``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Notes on the metrics are in README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
REPS = TMP / f"reps-{os.getpid()}"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: A run must end within 180 s; repetitions still running at this point
#: are killed and the run fails.
HARD_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 3
_rep_ids = itertools.count()


class BenchError(RuntimeError):
    pass


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a repetition's process group and wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_rep(workload: str, seed: int, mode: str, *, trace=False, chaos=False,
            deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its measurements."""
    out = REPS / str(next(_rep_ids))
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "rep.py"), workload, "--seed", str(seed),
           "--mode", mode, "--out", str(out)]
    cmd += ["--trace"] * trace + ["--chaos"] * chaos
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CHAOS"}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.wait()
        raise BenchError(f"{workload} {mode} repetition exceeded the time limit")
    finally:
        _stop_group(proc.pid)
    t_exit = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if code != 0:
        raise BenchError(f"{workload} {mode} repetition exited with {code}")
    result = json.loads((out / "result.json").read_text())
    procs = tracing.read_processes(out)
    shutil.rmtree(out)
    procs[0]["t_start"] = t_spawn  # the main process's wall starts at spawn
    print(f"[rep {workload} {mode}{' traced' * trace}] "
          f"{t_exit - t_spawn:.3f}s", file=sys.stderr)
    rep = {
        "setup_s": result["t_setup"] - t_spawn,
        "elapsed_s": t_exit - t_spawn,
        "procs": procs,
    }
    if mode == "full":
        rep["wall_s"] = result["t_done"] - t_spawn
        rep["cpu_s"] = (after.ru_utime + after.ru_stime) - (
            before.ru_utime + before.ru_stime
        )
        rep["peak_rss_mb"] = sum(p["maxrss_kb"] for p in procs) / 1024.0
        rep["outcome"] = result["outcome"]
    return rep


def check_outcome(workload: str, seed: int, outcome: dict) -> list[str]:
    problems = list(outcome["problems"])
    if seed == workloads.DEFAULT_SEED:
        expected = workloads.DIGESTS[workload]
        if outcome["digest"] != expected:
            problems.append(
                f"result digest {outcome['digest']} differs from the recorded "
                f"{expected}"
            )
    return problems


def trace_problems(rows: list[dict]) -> list[str]:
    """Layer self times plus remainder must account for each wall time."""
    return [
        f"pid {r['pid']} ({r['role']}): spans miss its wall time by "
        f"{r['gap_frac']:.1%}"
        for r in rows
        if r["gap_frac"] > 0.10
    ]


def print_trace(workload: str, rows: list[dict]) -> None:
    for r in rows:
        parts = " ".join(f"{k}={v:.3f}" for k, v in r["layers_s"].items())
        print(
            f"[trace {workload}] pid {r['pid']} {r['role']}: wall "
            f"{r['wall_s']:.3f}s = {parts} + remainder={r['remainder_s']:.3f}"
        )
    workers = [r for r in rows if r["role"] == "worker"]
    scope, pool = ("worker", workers) if workers else ("process", rows)
    layers: dict[str, float] = {}
    for r in pool:
        for k, v in r["layers_s"].items():
            layers[k] = layers.get(k, 0.0) + v
    build = sum(layers.get(k, 0.0) for k in (
        "composition", "cfs.node", "cfs.measures", "simulation.compile"))
    run = layers.get("simulation.run", 0.0)
    busy = sum(layers.values())
    if busy > 0:
        verdict = "model construction" if build > run else "simulation.run"
        print(
            f"[trace {workload}] {scope} span time {busy:.3f}s: "
            f"composition+cfs+compile {build:.3f}s "
            f"({build / busy:.0%}), simulation.run {run:.3f}s "
            f"({run / busy:.0%}); the larger share is {verdict}"
        )


def measure(args, deadline: float) -> tuple[dict, int, int, list]:
    """The end-to-end run (``--trace 0``)."""
    end = time.monotonic() + args.seconds
    fulls, setups, problems = [], [], []
    while not fulls or (
        time.monotonic() + statistics.median([r["elapsed_s"] for r in fulls]) <= end
    ):
        rep = run_rep(args.workload, args.seed, "full", deadline=deadline)
        fulls.append(rep)
        setups.append(rep["setup_s"])
        problems += check_outcome(args.workload, args.seed, rep["outcome"])
    setup_cost = statistics.median(setups)
    while len(setups) < MIN_SETUP_SAMPLES or time.monotonic() + setup_cost <= end:
        rep = run_rep(args.workload, args.seed, "setup", deadline=deadline)
        setups.append(rep["setup_s"])
        setup_cost = rep["elapsed_s"]
    values = {
        "wall_s": statistics.median([r["wall_s"] for r in fulls]),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median([r["cpu_s"] for r in fulls]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in fulls]),
    }
    attempted = sum(r["outcome"]["attempted"] for r in fulls)
    failed = sum(r["outcome"]["failed"] for r in fulls)
    return values, attempted, failed, problems


def measure_traced(args, deadline: float):
    """The per-layer run (``--trace 1``)."""
    end = time.monotonic() + args.seconds
    plain, traced, problems = [], [], []
    while not plain or (
        time.monotonic() + plain[-1]["elapsed_s"] + traced[-1]["elapsed_s"] <= end
    ):
        for reps, trace in ((plain, False), (traced, True)):
            rep = run_rep(args.workload, args.seed, "full", trace=trace, deadline=deadline)
            reps.append(rep)
            problems += check_outcome(args.workload, args.seed, rep["outcome"])
    rows = tracing.process_table(traced[-1]["procs"])
    print_trace(args.workload, rows)
    problems += trace_problems(rows)
    per_rep = [tracing.layer_metrics(r["procs"]) for r in traced]
    values = {k: statistics.median([m[k] for m in per_rep]) for k in per_rep[0]}
    values["trace.overhead_frac"] = statistics.median(
        [r["wall_s"] for r in traced]) / statistics.median([r["wall_s"] for r in plain]) - 1.0
    (TMP / f"trace-{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "processes": rows,
         "records": traced[-1]["procs"]}))
    reps = plain + traced
    attempted = sum(r["outcome"]["attempted"] for r in reps)
    failed = sum(r["outcome"]["failed"] for r in reps)
    return values, attempted, failed, problems


def self_test(deadline: float) -> int:
    """Injected cell failures must show as fail_frac > 0 and retries > 0."""
    rep = run_rep("paper-report", workloads.DEFAULT_SEED, "full", trace=True,
                  chaos=True, deadline=deadline)
    print_trace("paper-report", tracing.process_table(rep["procs"]))
    values = tracing.layer_metrics(rep["procs"])
    outcome = rep["outcome"]
    report = {
        "self_test": "chaos",
        "fail_frac": outcome["failed"] / outcome["attempted"],
        "resilience.retries": values["resilience.retries"],
        "resilience.failed_tasks": values["resilience.failed_tasks"],
    }
    report["ok"] = report["fail_frac"] > 0 and report["resilience.retries"] > 0
    print(json.dumps(report))
    return 0 if report["ok"] else 1


def main(argv=None) -> int:
    started = time.monotonic()
    # A terminated benchmark still stops its repetitions (see run_rep).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (args.self_test or args.workload):
        parser.error("--workload or --self-test is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = started + HARD_LIMIT_S
    if not (ROOT / "src" / "repro" / "__pycache__").is_dir():
        # First run in a fresh checkout: byte-compile once, untimed.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                       check=True, stdout=subprocess.DEVNULL)
    try:
        if args.self_test:
            return self_test(deadline)
        if args.trace:
            values, attempted, failed, problems = measure_traced(args, deadline)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed, problems = measure(args, deadline)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(REPS, ignore_errors=True)
    if set(values) != {m["name"] for m in wanted}:
        print(f"run.py: metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for problem in problems:
        print(f"[check {args.workload} seed {args.seed}] {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
