"""Bytecode census of one RESTART segment: where ``Simulator.run``'s work goes.

    PYTHONPATH=src python benchmarks/census.py

A deep-tail segment is one ``Simulator.run`` call that fires about one
event, so its cost is mostly the engine's fixed work per call.  This
script runs ``bench_restart_run``'s set-up (benchmarks/bench_rare.py:
the deep-tail tier, 480 disks and f=6, restarted from ``[2, 0]`` with
its bracket's stop predicate), warms the simulator with one run, then
traces one one-event run (a mission-year horizon; either event leaves
the bracket) and one zero-event run (a 1e-6 h horizon) with
``sys.settrace`` opcode events.

For each run it prints the bytecodes executed and the calls made per
function defined in ``core/simulation.py``, their total, the bytecodes
of every other file, and the calls into ``abc.__instancecheck__``.
Counts depend on the interpreter version (docs/performance.md quotes
Python 3.11); the streams are seeded, so a count repeats exactly.
"""

from __future__ import annotations

import collections
import sys
from bisect import bisect_right
from pathlib import Path

from repro.core import Simulator
from repro.core.rng import make_generator
from repro.experiments.rare import (
    _make_stop_predicate,
    aggregate_tier_san,
    tier_splitting_policy,
)

#: The deep-tail tier and the marking its restart segments start from.
DEEP_TAIL_TIER = (480, 6, 1e-5, 0.02)
RESTART_MARKING = [2, 0]
ENGINE = "simulation.py"


def restart_setup():
    """``(simulator, stop predicate)`` of ``bench_restart_run``."""
    sim = Simulator(aggregate_tier_san(*DEEP_TAIL_TIER), base_seed=2008)
    policy = tier_splitting_policy(*DEEP_TAIL_TIER)
    level_fn = policy.level.resolve(sim.model)
    thresholds = policy.thresholds
    bracket = bisect_right(thresholds, level_fn(RESTART_MARKING))
    stop = _make_stop_predicate(
        level_fn, thresholds[bracket], thresholds[bracket - 1]
    )
    return sim, stop


def trace(fn) -> tuple[collections.Counter, collections.Counter]:
    """Opcodes and calls per ``(file name, function name)`` while ``fn()``
    runs."""
    ops: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            ops[Path(code.co_filename).name, code.co_qualname] += 1
        return local

    def on_call(frame, event, arg):
        if event != "call":
            return None
        frame.f_trace_opcodes = True
        code = frame.f_code
        calls[Path(code.co_filename).name, code.co_qualname] += 1
        return local

    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return ops, calls


def main() -> None:
    sim, stop = restart_setup()
    rngs = [make_generator(2008, "restart", i) for i in range(3)]

    def segment(until: float, events: int) -> None:
        result = sim.run(
            until, rng=rngs.pop(), stop_predicate=stop,
            initial_marking=RESTART_MARKING,
        )
        assert result.n_events == events, result.n_events

    segment(8760.0, 1)  # warm-up: builds the tables and the run plan
    runs = [
        ("one-event", *trace(lambda: segment(8760.0, 1))),
        ("zero-event", *trace(lambda: segment(1e-6, 0))),
    ]
    print(f"Python {sys.version.split()[0]}; bytecodes (calls) per function")
    names = sorted(
        {k for _, ops, _ in runs for k in ops if k[0] == ENGINE},
        key=lambda k: -runs[0][1].get(k, 0),
    )
    print(f"\n| `core/{ENGINE}` | " + " | ".join(r[0] for r in runs) + " |")
    print("|---|" + "---|" * len(runs))
    for key in names:
        cells = [f"{ops.get(key, 0)} ({calls.get(key, 0)})" for _, ops, calls in runs]
        print(f"| `{key[1]}` | " + " | ".join(cells) + " |")
    totals = [
        (sum(v for k, v in ops.items() if k[0] == ENGINE),
         sum(v for k, v in calls.items() if k[0] == ENGINE))
        for _, ops, calls in runs
    ]
    print("| **engine total** | " + " | ".join(
        f"**{o} in {c} calls**" for o, c in totals) + " |")
    files = sorted(
        {k[0] for _, ops, _ in runs for k in ops} - {ENGINE, Path(__file__).name}
    )
    for name in files:
        cells = [str(sum(v for k, v in ops.items() if k[0] == name)) for _, ops, _ in runs]
        print(f"| {name} | " + " | ".join(cells) + " |")
    cells = [
        str(sum(v for k, v in calls.items() if k[1] == "ABCMeta.__instancecheck__"))
        for _, _, calls in runs
    ]
    print("| `abc.__instancecheck__` calls | " + " | ".join(cells) + " |")
    everything = [
        sum(v for k, v in ops.items() if k[0] != Path(__file__).name)
        for _, ops, _ in runs
    ]
    print("| all bytecodes | " + " | ".join(map(str, everything)) + " |")


if __name__ == "__main__":
    main()
