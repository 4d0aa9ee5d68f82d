"""A/B comparison on the repository benchmark: this checkout against a base commit.

    python benchmarks/ab.py --workload paper-report --seed 0
    python benchmarks/ab.py --base HEAD~1     # every workload

Run from anywhere inside the checkout.  The script

* checks out ``--base`` (default ``HEAD``, i.e. an uncommitted change is
  compared with the commit it sits on) in a temporary ``git worktree``,
  placed under ``$TMPDIR`` and removed on exit;
* byte-compiles ``src`` in both trees with ``compileall -f`` before any
  timed run: where ``PYTHONDONTWRITEBYTECODE`` is set, a module whose
  ``__pycache__`` entry is stale is recompiled at every interpreter
  start, which shows up as set-up time and memory;
* runs ``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s
  ``run_seconds`` alternately in the two trees, in ten order-balanced
  pairs (even pairs run the base first, odd pairs the change first),
  each run in its own tree;
* stops with exit code 1 at the first result line that is not
  ``correct`` or reports a failed operation;
* prints, per workload and end-to-end metric of ``BENCHMARK.json``, each
  side's median with quartiles, the median of the per-pair ratios
  change / base, the pairs the change won (ties count for neither) and
  a verdict.  ``gain`` means the benchmark's rule for claiming one holds:
  the change won at least nine tenths of the pairs and the medians
  differ, in the better direction, by more than the base's quartile
  spread.  ``REGRESSION`` means the change's median is worse than the
  base's by more than the metric's bound; ``unresolved`` means a side's
  quartile spread exceeds that bound; otherwise ``within bound``.

The last line of standard output is one JSON object with every run's
metrics, for the record.  Nothing under ``perfbench/`` is modified.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
GAIN_SHARE = 0.9


class RunFailed(RuntimeError):
    pass


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _compile(tree: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "-f", "src"],
        cwd=tree, check=True, stdout=subprocess.DEVNULL,
    )


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``; its metric values by name."""
    with subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            # SIGTERM, not SIGKILL: run.py then stops its repetitions.
            proc.terminate()
            proc.wait()
            raise
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        raise RunFailed(
            f"{tree}: run.py exited {proc.returncode}\n{stderr[-2000:]}"
        )
    if not result["correct"] or result["failed"] > 0:
        raise RunFailed(
            f"{tree}: correct={result['correct']} failed={result['failed']} "
            f"of {result['attempted']}\n{stderr[-2000:]}"
        )
    return {k: v["value"] for k, v in result["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(metrics: list[dict], base: list[dict], change: list[dict]) -> list[dict]:
    """Per-metric medians, quartiles, pairs won and verdict; ``metrics``
    are ``BENCHMARK.json``'s end-to-end entries."""
    rows = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        a = [run[name] for run in base]
        b = [run[name] for run in change]
        med_a, med_b = statistics.median(a), statistics.median(b)
        qa, qb = _quartiles(a), _quartiles(b)
        won = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        gap = sign * (med_a - med_b)  # > 0: the change is better
        if won >= GAIN_SHARE * len(a) and gap > qa[1] - qa[0]:
            verdict = "gain"
        elif -gap > bound * med_a:
            verdict = "REGRESSION"
        elif max((qa[1] - qa[0]) / med_a, (qb[1] - qb[0]) / med_b) > bound:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append({
            "metric": name, "unit": metric["unit"],
            "base": med_a, "base_q": qa, "change": med_b, "change_q": qb,
            "ratio": statistics.median(y / x for x, y in zip(a, b)),
            "won": won, "pairs": len(a), "verdict": verdict,
        })
    return rows


def _print_table(workload: str, seed: int, rows: list[dict]) -> None:
    print(f"\n{workload}, seed {seed}")
    print("| metric | base | change | change / base | pairs won | verdict |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        print(
            f"| `{r['metric']}` "
            f"| {r['base']:.2f} [{r['base_q'][0]:.2f}, {r['base_q'][1]:.2f}] "
            f"| {r['change']:.2f} [{r['change_q'][0]:.2f}, {r['change_q'][1]:.2f}] "
            f"| {r['ratio']:.3f} | {r['won']}/{r['pairs']} | {r['verdict']} |"
        )


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="commit to compare against (default HEAD)")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeat for several (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")

    # A terminated run still removes its worktree (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    base_tree = scratch / "base"
    record = {"base": base_rev, "seed": args.seed, "seconds": seconds,
              "workloads": {}}
    try:
        _git("worktree", "add", "--detach", str(base_tree), base_rev)
        for tree in (base_tree, ROOT):
            _compile(tree)
        for workload in workloads:
            runs = {"base": [], "change": []}
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    runs[side].append(_run(tree, workload, args.seed, seconds))
                print(
                    f"[ab {workload} pair {i + 1}/{PAIRS}] " + ", ".join(
                        f"{side} wall_s {runs[side][-1]['wall_s']:.2f}"
                        for side in order
                    ),
                    file=sys.stderr, flush=True,
                )
            rows = summarize(spec["end_to_end"], runs["base"], runs["change"])
            _print_table(workload, args.seed, rows)
            record["workloads"][workload] = {"runs": runs, "summary": rows}
    except RunFailed as exc:
        print(f"ab.py: {exc}", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"ab.py: {' '.join(exc.cmd)} failed\n{exc.stderr or ''}", file=sys.stderr)
        return 1
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)],
                       cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
