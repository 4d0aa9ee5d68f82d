"""Fast-path coverage: the paper workloads must stay on the compiled path.

A model can silently fall off the inlined fast loops — an un-annotated
gate drops its activity back to Python gate functions, a distribution
change drops its draws back to per-draw sampling, an accidental observer
pushes a run onto the reference loop.  None of that is a correctness
bug, so without these assertions it would regress performance quietly.
This suite pins, for the ABE and petascale cluster models (and, for the
first point, for every shipped model):

* which event loop a measured run dispatches to (``Simulator.last_loop``),
* that **every** activity carries a compiled kernel — gate-write or
  case/guard — i.e. ``python_effect_activities`` is empty (since PR 5's
  case kernels closed the last residue: the propagation coins and the
  conditional tier restore),
* the runtime kernel / case-kernel / python completion counters: no
  completion of any run of a shipped model calls a Python effect,
* the sampling mode of every timed activity,
* that **every** rate reward of a measured run declares a compiled form
  — ``python_refresh_rewards`` is empty (since PR 7's reward kernels) —
  so a new or edited cluster measure without a declared form fails CI
  instead of silently re-calling its Python expression per event.

CI runs this file on every push (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import pytest

from repro.cfs import ClusterModel, abe_parameters, petascale_parameters
from repro.cfs.cluster import StorageModel
from repro.core import Simulator
from repro.experiments.rare import aggregate_tier_san

#: Template-level activity names expected on the case/guard-kernel path
#: (probabilistic propagation coins + the guarded tier restore); every
#: other activity must compile a plain gate-write kernel.
EXPECTED_CASE_KERNELS = {
    "fail",       # disk / fail-over member: propagation-coin cases
    "absorb_kill",  # propagated-fault absorption: probabilistic cases
    "restore",    # tier restore: writes guarded by failed_count
}


def _residue_names(report) -> set[str]:
    return {path.rsplit("/", 1)[-1] for path in report["python_effect_activities"]}


@pytest.fixture(scope="module", params=["abe", "petascale"])
def cluster(request):
    params = (
        abe_parameters() if request.param == "abe" else petascale_parameters()
    )
    return ClusterModel(params, base_seed=2008)


#: The shipped models besides the two cluster presets of the fixture
#: below, each with its expected case-kernel set.
OTHER_SHIPPED = {
    "petascale-spare": (
        lambda: ClusterModel(petascale_parameters().with_spare_oss(1)).simulator,
        EXPECTED_CASE_KERNELS,
    ),
    "abe-storage": (
        lambda: StorageModel(abe_parameters()).simulator,
        EXPECTED_CASE_KERNELS,
    ),
    "petascale-storage": (
        lambda: StorageModel(petascale_parameters()).simulator,
        EXPECTED_CASE_KERNELS,
    ),
    # The deep-tail workload's aggregate 480-disk tier: plain gate-write
    # kernels only.
    "deep-tail-tier": (
        lambda: Simulator(aggregate_tier_san(480, 6, 1e-5, 0.02)),
        set(),
    ),
}


@pytest.mark.parametrize("name", sorted(OTHER_SHIPPED))
def test_every_shipped_effect_is_compiled(name):
    """The spare dock's and the aggregate tier's effects are declared
    too, so no shipped model completes through a Python effect, on its
    first run or any later one."""
    make, expected_cases = OTHER_SHIPPED[name]
    sim = make()
    report = sim.fastpath_report()
    assert report["python_effect_activities"] == [], (
        f"activities fell off the compiled kernel paths: "
        f"{sorted(_residue_names(report))}"
    )
    assert len(report["kernel_activities"]) > 0
    case_names = {
        path.rsplit("/", 1)[-1] for path in report["case_kernel_activities"]
    }
    assert case_names == expected_cases
    for seed in (1, 2):
        result = sim.run(20000.0, seed=seed)
        assert result.n_events > 0
        assert sim.last_python_effects == 0


class TestCompiledCoverage:
    def test_zero_python_effect_activities(self, cluster):
        """Every completion in the paper models is compiled: gate-write
        kernels for the unconditional effects, case/guard kernels for
        the propagation coins and the conditional tier restore."""
        report = cluster.simulator.fastpath_report()
        assert report["python_effect_activities"] == [], (
            "activities fell off the compiled kernel paths: "
            f"{sorted(_residue_names(report))}"
        )
        assert len(report["kernel_activities"]) > 0
        case_names = {
            path.rsplit("/", 1)[-1]
            for path in report["case_kernel_activities"]
        }
        assert case_names == EXPECTED_CASE_KERNELS, (
            "unexpected case-kernel set: "
            f"{sorted(case_names ^ EXPECTED_CASE_KERNELS)}"
        )

    def test_every_timed_draw_is_served_fast(self, cluster):
        """No static law may fall back to scalar per-draw sampling."""
        report = cluster.simulator.fastpath_report()
        assert report["sample_batch"] is not None
        assert report["batch_dynamic"] is True
        slow = [
            path
            for path, kind in report["sampling"].items()
            if kind == "scalar"
        ]
        assert slow == [], f"per-draw sampling crept back in: {slow}"
        kinds = set(report["sampling"].values())
        assert kinds == {"const", "batched", "dynamic"}

    def test_measured_run_uses_observed_fast_loop(self, cluster):
        sim = cluster.simulator
        res = sim.run(700.0, rewards=cluster.measures.rewards)
        assert sim.last_loop == "observed"
        # Every rate reward of the paper measure set must compile its
        # declared form into an incremental update kernel — an
        # undeclared reward form here is a CI failure, not a silent
        # per-event Python refresh.
        report = sim.fastpath_report()
        assert report["python_refresh_rewards"] == [], (
            "rate rewards fell back to per-event Python refresh: "
            f"{report['python_refresh_rewards']}"
        )
        assert report["reward_kernel_rewards"] == [
            "cfs_availability",
            "perceived_availability",
            "storage_availability",
        ]
        assert (
            sim.last_kernel_effects
            + sim.last_case_kernels
            + sim.last_python_effects
            == res.n_events
        )
        # every completion is compiled, the first run's included
        assert sim.last_python_effects == 0
        assert sim.last_kernel_effects > 0
        res2 = sim.run(700.0, rewards=cluster.measures.rewards)
        assert sim.last_python_effects == 0
        assert (
            sim.last_kernel_effects
            + sim.last_case_kernels
            + sim.last_python_effects
            == res2.n_events
        )

    def test_reference_engine_is_opt_in_only(self, cluster):
        assert cluster.simulator.engine == "auto"
