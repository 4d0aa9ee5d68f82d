"""Figure 4 — availability and utility of ABE scaled to petaflop-petabyte.

Four curves over the ABE → petascale sweep:

* **Storage-availability** — the (0.7, 2.92 %, 8+2, 4 h) fitted disk
  configuration; stays ≈ 1 at every scale;
* **CFS-Availability** — drops from ≈ 0.972 to ≈ 0.909, "mainly due to
  correlated failures in OSS and hardware";
* **CU** — the users' view, lower still, dominated by transient network
  errors;
* **CFS-Availability-spare-OSS** — a standby-spare OSS recovers ≈ 3 %.
"""

from __future__ import annotations

from ..cfs.cluster import ClusterModel
from ..cfs.parameters import CFSParameters, abe_parameters
from ..cfs.scaling import scale_step
from .runner import FigureResult, Series, SeriesPoint
from .sweep import SweepCell, SweepResult, replication_cell, run_sweep

__all__ = ["figure4_cells", "run_figure4"]


def figure4_cells(
    n_steps: int = 6,
    n_replications: int = 8,
    hours: float = 8760.0,
    base_seed: int = 4,
    base: CFSParameters | None = None,
    include_spare: bool = True,
) -> list[SweepCell]:
    """The Figure 4 grid: one full-cluster cell per scale step, plus a
    spare-OSS variant per step when ``include_spare``.

    These are the heaviest cells of the whole report (a petascale
    cluster year costs ~22× an ABE cluster year: 138 ms against 6.2 ms
    in ``benchmarks/bench_engine.py``'s one-year benchmarks on a 1-core
    host), which is exactly why cell-level scheduling pays: the
    spare/no-spare studies at each step are independent and pipeline
    across workers.
    """
    base = base if base is not None else abe_parameters()
    cells: list[SweepCell] = []
    for k in range(1, n_steps + 1):
        params = scale_step(k, n_steps, base)
        cells.append(
            replication_cell(
                ("figure4", k, "main"),
                ClusterModel.spec(params, base_seed + k),
                hours,
                n_replications,
            )
        )
        if include_spare:
            cells.append(
                replication_cell(
                    ("figure4", k, "spare"),
                    ClusterModel.spec(params.with_spare_oss(1), base_seed + 100 + k),
                    hours,
                    n_replications,
                )
            )
    return cells


def _assemble_figure4(
    results: SweepResult,
    n_steps: int,
    base: CFSParameters,
    include_spare: bool,
) -> FigureResult:
    storage_pts: list[SeriesPoint] = []
    cfs_pts: list[SeriesPoint] = []
    cu_pts: list[SeriesPoint] = []
    spare_pts: list[SeriesPoint] = []

    for k in range(1, n_steps + 1):
        x = scale_step(k, n_steps, base).raw_storage_tb
        exp = results[("figure4", k, "main")]
        storage_pts.append(SeriesPoint(x, exp.estimate("storage_availability")))
        cfs_pts.append(SeriesPoint(x, exp.estimate("cfs_availability")))
        cu_pts.append(SeriesPoint(x, exp.estimate("cluster_utility")))
        if include_spare:
            spare_exp = results[("figure4", k, "spare")]
            spare_pts.append(SeriesPoint(x, spare_exp.estimate("cfs_availability")))

    series = [
        Series("Storage-availability", tuple(storage_pts)),
        Series("CFS-Availability", tuple(cfs_pts)),
        Series("CU", tuple(cu_pts)),
    ]
    if include_spare:
        series.append(Series("CFS-Availability-spare-OSS", tuple(spare_pts)))
    return FigureResult(
        figure_id="Figure 4",
        title="Availability and utility of the ABE cluster when scaled to "
        "petaflop-petabyte system",
        x_label="storage (TB)",
        y_label="availability / utility",
        series=tuple(series),
    )


def run_figure4(
    n_steps: int = 6,
    n_replications: int = 8,
    hours: float = 8760.0,
    base_seed: int = 4,
    base: CFSParameters | None = None,
    include_spare: bool = True,
    n_jobs: int | None = 1,
) -> FigureResult:
    """Regenerate Figure 4 (full composed model, all four curves).

    ``n_jobs`` schedules the independent (scale-step, spare-variant)
    cells across worker processes
    (:func:`repro.experiments.sweep.run_sweep`); cells are seeded from
    their grid coordinates, so results are bit-identical for any value.
    """
    base = base if base is not None else abe_parameters()
    cells = figure4_cells(
        n_steps, n_replications, hours, base_seed, base, include_spare
    )
    return _assemble_figure4(
        run_sweep(cells, n_jobs=n_jobs), n_steps, base, include_spare
    )
