"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``        regenerate Tables 1-5
``figures``       regenerate Figures 2-4 (``--full`` for paper fidelity)
``all``           everything
``calibrate``     print the Figure 4 anchors (ABE / petascale / spare)
``simulate``      simulate one preset and print its measures
``logs``          synthesize the ABE logs into a directory
``rare``          estimate a tier's deep-tail data-loss probability
                  (RESTART importance splitting vs. brute force, checked
                  against the Markov closed form)
``lint``          statically check the shipped models' declarations
                  (see ``docs/robustness.md``, "Model integrity")
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Dependability analysis of petascale cluster file systems "
            "(reproduction of Gaonkar et al., DSN 2008)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def jobs_value(text: str) -> int:
        value = int(text)
        if value == 0 or value < -1:
            raise argparse.ArgumentTypeError(
                f"must be >= 1 or -1 (all cores), got {value}"
            )
        return value

    def seed_value(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    def count_value(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def hours_value(text: str) -> float:
        value = float(text)
        if not 0.0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and positive, got {text}"
            )
        return value

    def add_jobs(p: argparse.ArgumentParser, unit: str = "sweep cells") -> None:
        p.add_argument(
            "--jobs",
            type=jobs_value,
            default=1,
            metavar="N",
            help=f"worker processes scheduling {unit} (-1 = all cores); "
            "results are identical for any value",
        )

    def add_checkpoint(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--checkpoint-dir",
            "--resume",
            dest="checkpoint_dir",
            default=None,
            metavar="DIR",
            help="journal each completed sweep cell into DIR; rerunning "
            "with the same DIR resumes, re-executing only unfinished "
            "cells (results are bit-identical to an uninterrupted run)",
        )

    p_tables = sub.add_parser("tables", help="regenerate Tables 1-5")
    p_tables.add_argument("--seed", type=seed_value, default=2013)
    p_tables.add_argument(
        "--on-error",
        choices=["raise", "collect"],
        default="raise",
        help="'raise' aborts on the first failed cell; 'collect' prints "
        "every healthy table plus a failure report (exit code 1)",
    )
    add_jobs(p_tables)
    add_checkpoint(p_tables)

    p_figures = sub.add_parser("figures", help="regenerate Figures 2-4")
    p_figures.add_argument("--full", action="store_true", help="paper fidelity")
    add_jobs(p_figures)

    p_all = sub.add_parser("all", help="regenerate every table and figure")
    p_all.add_argument("--full", action="store_true")
    p_all.add_argument("--seed", type=seed_value, default=2013)
    add_jobs(p_all)
    add_checkpoint(p_all)

    def rel_ci_value(text: str) -> float:
        value = float(text)
        if not 0.0 < value < 1.0:
            raise argparse.ArgumentTypeError(
                f"must be in (0, 1), got {value}"
            )
        return value

    def add_rel_ci(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--rel-ci",
            type=rel_ci_value,
            default=None,
            metavar="R",
            help="stop replicating once the CFS-availability CI "
            "half-width falls below R x the mean (--replications becomes "
            "the cap); the stopping point is identical for any --jobs",
        )

    p_cal = sub.add_parser("calibrate", help="print the Figure 4 anchors")
    p_cal.add_argument("--replications", type=count_value, default=8)
    p_cal.add_argument("--hours", type=hours_value, default=8760.0)
    add_rel_ci(p_cal)
    add_jobs(p_cal)
    add_checkpoint(p_cal)

    p_sim = sub.add_parser("simulate", help="simulate a preset")
    p_sim.add_argument("preset", choices=["abe", "petascale", "petascale-spare"])
    p_sim.add_argument("--replications", type=count_value, default=8)
    p_sim.add_argument("--hours", type=hours_value, default=8760.0)
    p_sim.add_argument("--seed", type=seed_value, default=2008)
    p_sim.add_argument(
        "--sanitize",
        action="store_true",
        help="run one instrumented replication instead of the study: "
        "every declared read/write is cross-checked against actual "
        "behavior and violations are reported with full provenance "
        "(exit 1 when any are found)",
    )
    add_rel_ci(p_sim)
    add_jobs(p_sim, unit="replications (one study, no grid)")

    p_rare = sub.add_parser(
        "rare",
        help="estimate a storage tier's data-loss probability "
        "(importance splitting)",
    )
    p_rare.add_argument("--disks", type=int, default=480, metavar="N")
    p_rare.add_argument(
        "--tolerance", type=int, default=6, metavar="F",
        help="disk failures the tier survives (loss at F+1 concurrent)",
    )
    p_rare.add_argument("--fail-rate", type=float, default=1e-5, metavar="L")
    p_rare.add_argument("--repair-rate", type=float, default=0.02, metavar="M")
    p_rare.add_argument("--hours", type=hours_value, default=8760.0)
    p_rare.add_argument(
        "--roots", type=int, default=256, metavar="K",
        help="root replications (the cap when --rel-ci is set)",
    )
    p_rare.add_argument(
        "--rel-ci", type=rel_ci_value, default=None, metavar="R",
        help="stop once the estimate's CI half-width falls below "
        "R x the estimate",
    )
    def splitting_value(text: str) -> tuple[float, ...]:
        try:
            thresholds = tuple(float(x) for x in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"thresholds must be comma-separated numbers, got {text!r}"
            )
        for lo, hi in zip(thresholds, thresholds[1:]):
            if not lo < hi:
                raise argparse.ArgumentTypeError(
                    f"thresholds must be strictly increasing, got {text!r}"
                )
        return thresholds

    p_rare.add_argument(
        "--splitting",
        nargs="?",
        const=True,
        default=False,
        type=splitting_value,
        metavar="T1,T2,...",
        help="RESTART importance splitting; with no value, one level per "
        "concurrently failed disk with near-optimal factors, or pass a "
        "strictly increasing comma-separated threshold ladder ending at "
        "the loss level (tolerance + 1). Default is crude Monte Carlo "
        "with early stopping at the loss event",
    )
    p_rare.add_argument("--seed", type=seed_value, default=2008)
    add_jobs(p_rare, unit="root replications (one study, no grid)")

    p_logs = sub.add_parser("logs", help="synthesize the ABE logs")
    p_logs.add_argument("output_dir")
    p_logs.add_argument("--seed", type=seed_value, default=2013)

    p_lint = sub.add_parser(
        "lint",
        help="statically check shipped models' declarations and structure",
    )
    p_lint.add_argument(
        "models",
        nargs="*",
        metavar="MODEL",
        help="models to lint: abe, petascale, petascale-spare, "
        "abe-storage, petascale-storage (default: all)",
    )
    return parser


def _cmd_tables(args: argparse.Namespace) -> int:
    from .experiments import (
        run_sweep,
        table1_cell,
        table2_cell,
        table3_cell,
        table4_cell,
        table5_cell,
    )

    cells = [
        table1_cell(seed=args.seed),
        table2_cell(seed=args.seed),
        table3_cell(seed=args.seed),
        table4_cell(),
        table5_cell(),
    ]
    from .experiments import format_cell_failures
    from .loggen.abe import warm_logs_cache_for_pool

    warm_logs_cache_for_pool(args.seed, args.jobs)
    results = run_sweep(
        cells,
        n_jobs=args.jobs,
        on_error=args.on_error,
        checkpoint_dir=args.checkpoint_dir,
    )
    failures = results.failures
    sections = [results[key].format() for key in results if key not in failures]
    if failures:
        sections.append(format_cell_failures(failures))
    print("\n\n".join(sections))
    return 1 if failures else 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .experiments import run_figure2, run_figure3, run_figure4

    if args.full:
        fig_kwargs: dict = {"n_jobs": args.jobs}
        fig4_kwargs: dict = {"n_jobs": args.jobs}
    else:
        fig_kwargs = {
            "n_steps": 4, "n_replications": 3, "hours": 4380.0,
            "n_jobs": args.jobs,
        }
        fig4_kwargs = {
            "n_steps": 3, "n_replications": 3, "hours": 4380.0,
            "n_jobs": args.jobs,
        }
    for result in (
        run_figure2(**fig_kwargs),
        run_figure3(**fig_kwargs),
        run_figure4(**fig4_kwargs),
    ):
        print(result.format())
        print()
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from .experiments import run_all

    print(
        run_all(
            full=args.full,
            seed=args.seed,
            n_jobs=args.jobs,
            checkpoint_dir=args.checkpoint_dir,
        )
    )
    return 0


def _stopping_rule(rel_ci: float | None):
    """CLI ``--rel-ci`` to a CFS-availability stopping rule (or None)."""
    if rel_ci is None:
        return None
    from .core import StoppingRule

    return StoppingRule(rel_ci=rel_ci, metrics=("cfs_availability",))


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .cfs import ClusterModel, abe_parameters, petascale_parameters
    from .experiments import replication_cell, run_sweep

    presets = [
        ("ABE (paper: 0.972)", abe_parameters()),
        ("petascale (paper: 0.909)", petascale_parameters()),
        ("petascale + spare (paper: +3%)", petascale_parameters().with_spare_oss(1)),
    ]
    from .core.parallel import resolve_n_jobs

    t0 = time.time()
    # Only 3 cells: run_sweep's nested policy splits surplus workers
    # into within-cell replication parallelism, so e.g. --jobs 12 runs
    # 3 cells x 4 replication workers (results are bit-identical for
    # every split).
    jobs = resolve_n_jobs(args.jobs)
    stopping = _stopping_rule(args.rel_ci)
    cells = [
        replication_cell(
            label,
            ClusterModel.spec(params, 2008),
            args.hours,
            args.replications,
            stopping=stopping,
        )
        for label, params in presets
    ]
    results = run_sweep(cells, n_jobs=jobs, checkpoint_dir=args.checkpoint_dir)
    for label, _params in presets:
        est = results[label].estimate("cfs_availability")
        n = results[label].n_replications
        saved = f" [{n}/{args.replications} replications]" if stopping else ""
        print(f"{label:<32} CFS availability {est}{saved}")
    inner = max(1, jobs // len(cells))
    print(
        f"[{time.time() - t0:.0f}s, {min(jobs, len(cells))} cell worker(s) "
        f"x {inner} replication worker(s)]"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .cfs import ClusterModel, abe_parameters, petascale_parameters

    params = {
        "abe": abe_parameters,
        "petascale": petascale_parameters,
        "petascale-spare": lambda: petascale_parameters().with_spare_oss(1),
    }[args.preset]()
    model = ClusterModel(params, base_seed=args.seed)
    if args.sanitize:
        from .core import Simulator

        meas = model.measures
        sim = Simulator(
            model.model,
            base_seed=args.seed,
            sample_batch=None,
            engine="sanitize",
        )
        traces = meas.traces_factory() if meas.traces_factory else ()
        import warnings

        with warnings.catch_warnings():
            # The report below is the user-facing output; the run-level
            # RuntimeWarning would duplicate it.
            warnings.simplefilter("ignore", RuntimeWarning)
            result = sim.run(args.hours, rewards=meas.rewards, traces=traces)
        report = result.sanitizer_report
        print(report.format())
        return 0 if report.ok else 1
    stopping = _stopping_rule(args.rel_ci)
    result = model.simulate(
        hours=args.hours,
        n_replications=args.replications,
        n_jobs=args.jobs,
        stopping=stopping,
    )
    if stopping is not None:
        n = result.experiment.n_replications
        print(f"[adaptive stopping: {n}/{args.replications} replications]")
    print(result.summary())
    return 0


def _cmd_rare(args: argparse.Namespace) -> int:
    from .core import SimulationError, StoppingRule
    from .experiments import (
        brute_force_probability,
        splitting_probability,
        tier_level,
        tier_replication_spec,
        tier_splitting_policy,
    )
    from .experiments.rare import SplittingPolicy, _stage_odds
    from .markov.raid_markov import RAIDTierMarkov

    t0 = time.time()
    # Checks the tier's arguments before any root starts.
    odds = _stage_odds(args.disks, args.tolerance, args.fail_rate, args.repair_rate)
    spec = tier_replication_spec(
        args.disks, args.tolerance, args.fail_rate, args.repair_rate,
        args.seed,
    )
    stopping = (
        StoppingRule(rel_ci=args.rel_ci) if args.rel_ci is not None else None
    )
    if isinstance(args.splitting, tuple):
        # Custom threshold ladder: each rung splits by the product of the
        # per-disk odds it spans (suggested_splits rounds them one by one).
        if args.splitting[-1] > args.tolerance + 1:
            raise SimulationError(
                f"--splitting thresholds must not exceed the loss level "
                f"{args.tolerance + 1} (tolerance + 1), got {args.splitting[-1]:g}"
            )
        factors = []
        for lo, hi in zip(args.splitting, args.splitting[1:]):
            acc = 1.0
            for j in range(max(1, int(lo)), int(hi)):
                acc *= odds[j - 1]
            factors.append(max(1, min(32, round(acc))))
        policy = SplittingPolicy(
            tier_level(), args.splitting, tuple(factors)
        )
    else:
        policy = tier_splitting_policy(
            args.disks, args.tolerance, args.fail_rate, args.repair_rate
        )
    if args.splitting:
        est = splitting_probability(
            spec, args.hours, policy,
            n_roots=args.roots, stopping=stopping, n_jobs=args.jobs,
        )
    else:
        from .core.parallel import build_setup_cached

        setup, _metrics = build_setup_cached(spec)
        est = brute_force_probability(
            setup.simulator, args.hours, tier_level(),
            float(args.tolerance + 1),
            n_replications=args.roots, stopping=stopping, n_jobs=args.jobs,
        )
    chain = RAIDTierMarkov(
        n_disks=args.disks,
        fault_tolerance=args.tolerance,
        disk_failure_rate=args.fail_rate,
        disk_repair_rate=args.repair_rate,
    ).absorbing_chain()
    exact = chain.transient(0, args.hours)[args.tolerance + 1]
    print(
        f"P(data loss within {args.hours:g} h), {args.disks} disks, "
        f"tolerance {args.tolerance}:"
    )
    print(f"  estimate     {est}")
    print(f"  closed form  {exact:.6g} (Markov transient)")
    if est.probability > 0.0:
        inside = "inside" if est.estimate().contains(exact) else "OUTSIDE"
        print(f"  closed form is {inside} the estimate's CI")
    elif not args.splitting:
        print(
            "  no events observed — the tail is out of brute-force reach; "
            "rerun with --splitting"
        )
    print(f"  [{time.time() - t0:.1f}s]")
    return 0


def _cmd_logs(args: argparse.Namespace) -> int:
    from .experiments.sweep import _make_dir
    from .loggen import generate_abe_logs, write_log

    out = _make_dir(args.output_dir, "output_dir")
    logs = generate_abe_logs(seed=args.seed)
    n_san = write_log(logs.san_log.events, str(out / "san.log"))
    n_compute = write_log(logs.compute_log.events, str(out / "compute.log"))
    print(f"wrote {n_san} SAN-log lines and {n_compute} compute-log lines to {out}")
    print(f"ground-truth CFS availability: {logs.ground_truth.cfs_availability:.4f}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .cfs import (
        ClusterModel,
        StorageModel,
        abe_parameters,
        petascale_parameters,
    )
    from .core import lint_model

    builders = {
        "abe": lambda: ClusterModel(abe_parameters()),
        "petascale": lambda: ClusterModel(petascale_parameters()),
        "petascale-spare": lambda: ClusterModel(
            petascale_parameters().with_spare_oss(1)
        ),
        "abe-storage": lambda: StorageModel(abe_parameters()),
        "petascale-storage": lambda: StorageModel(petascale_parameters()),
    }
    names = args.models or list(builders)
    for name in names:
        if name not in builders:
            print(
                f"repro lint: unknown model {name!r} "
                f"(choose from {', '.join(builders)})",
                file=sys.stderr,
            )
            return 2
    n_bad = 0
    for name in names:
        report = lint_model(builders[name]())
        print(f"{name:<20} {'clean' if report.ok else 'FINDINGS'}")
        if not report.ok:
            n_bad += 1
            for finding in report.findings:
                print(f"  - {finding}")
    return 1 if n_bad else 0


_COMMANDS = {
    "tables": _cmd_tables,
    "figures": _cmd_figures,
    "all": _cmd_all,
    "calibrate": _cmd_calibrate,
    "simulate": _cmd_simulate,
    "logs": _cmd_logs,
    "rare": _cmd_rare,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    ``Ctrl-C`` exits cleanly with the conventional code 130 (128 +
    SIGINT) instead of a traceback; an interrupted checkpointed run
    (``--checkpoint-dir``) keeps its journal and resumes on rerun.  A
    :class:`~repro.core.errors.ReproError` (bad input a command found)
    ends in one ``repro: <message>`` line on stderr and exit code 2, the
    code argparse uses for a bad flag; any other exception is a bug and
    keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    if os.environ.get("REPRO_CHAOS"):
        # Validate the chaos policy up front: a malformed value would
        # otherwise surface as a traceback from deep inside the first
        # supervised pool.
        from .core.errors import SimulationError
        from .core.resilience import ChaosPolicy

        try:
            ChaosPolicy.from_env()
        except (SimulationError, ValueError, TypeError) as exc:
            print(
                f"repro: invalid REPRO_CHAOS value "
                f"{os.environ['REPRO_CHAOS']!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    from .core.errors import ReproError

    try:
        if getattr(args, "checkpoint_dir", None) is not None:
            # Before any log synthesis or cell: the journal needs it.
            from .experiments.sweep import _make_dir

            _make_dir(args.checkpoint_dir, "--checkpoint-dir")
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
