"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD --seed N --mode full|setup \
        --out DIR [--trace] [--chaos]

``--mode setup`` stops where the workload's first operation would start.
The repetition writes ``DIR/result.json`` (monotonic timestamps of the end
of set-up and of the verified result, plus the outcome) and one
``DIR/proc-<pid>.json`` per process (see ``tracing.ProcessLog``).
``run.py`` starts repetitions; this file is not meant to be run by hand.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Faults injected by ``--chaos``: one cell fails on every attempt (so it
#: is collected as failed), one fails once (so it is retried).
CHAOS_FAIL = {"table5": -1, "('figure2', 0, 1)": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["full", "setup"], required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--chaos", action="store_true")
    args = parser.parse_args(argv)

    recorder = tracing.Recorder() if args.trace else None
    log = tracing.ProcessLog(args.out, recorder)
    workload = workloads.WORKLOADS[args.workload]
    if recorder is not None:
        recorder.call("import", workload.load, (), {})
        tracing.install(recorder)
    else:
        workload.load()
    state = workload.setup(args.seed)
    result = {"t_setup": time.monotonic()}
    if args.mode == "full":
        chaos = None
        if args.chaos:
            from repro.core.resilience import ChaosPolicy

            chaos = ChaosPolicy(fail_tasks=CHAOS_FAIL)
        outcome = workload.run(state, chaos)
        result["t_done"] = time.monotonic()
        result["outcome"] = outcome.__dict__
    log.flush(result.get("t_done", result["t_setup"]))
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
