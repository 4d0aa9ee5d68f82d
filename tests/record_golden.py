"""Record golden engine trajectories into ``tests/data/*.json``.

Run from the repo root::

    PYTHONPATH=src:tests python tests/record_golden.py

Two fixture files are written:

* ``engine_golden.json`` pins, for fixed seeds, the exact trajectory
  outcomes (``n_events``, final marking, reward accumulators) of the
  simulation engine on three reference models.
  ``tests/test_engine_golden.py`` asserts the current engine reproduces
  them bit-for-bit, so any change that perturbs RNG consumption order or
  event settlement order is caught.
* ``reward_golden.json`` pins reward-*bearing* runs — rate-reward
  integrals, impulse accumulators, binary-trace transitions, warm-up
  clipping and early stops — at bit level.  These entries were recorded
  from the pre-specialization engine (the general ``slow_event`` loop),
  so they prove the compiled reward fast path integrates rewards
  bit-identically to the historical observer path.

Two engine modes are pinned throughout:

* per-draw mode (``sample_batch=None``) — these values were recorded
  from the pre-optimization engine and the compiled engine reproduces
  them exactly, which is the bit-compatibility guarantee;
* the default batched mode — recorded when batching was introduced,
  pinning the default engine's determinism going forward.

One intentional re-record on top of the original recordings: the
``storage_measures`` entries of ``reward_golden.json`` were re-recorded
in PR 5 when ``StorageModel`` adopted ``batch_dynamic=True`` (block
serving its marking-dependent equilibrium draws changes default-mode
stream consumption; per-draw entries were unaffected).

PR 7's ``EquilibriumResidual`` upper-tail fix (exact inversion for
``u > 0.999`` instead of grid interpolation) was audited for golden
impact the same way: re-recording after the fix reproduced both fixture
files byte-for-byte — none of the recorded trajectories' equilibrium
draws landed a uniform in the affected ``(0.999, 1 - 1e-5]`` band — so
no entries were re-recorded.  Lowering that cutoff to ``u > 0.995`` (the
grid exceeded its 2e-4 accuracy class beyond ~0.9967) left both files
byte-identical as well.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _helpers import build_fleet_node, build_two_state_san

from repro.cfs import CFSParameters, StorageModel, abe_parameters
from repro.cfs.cluster import build_cluster_node
from repro.cfs.measures import build_measures
from repro.core import BinaryTrace, ImpulseReward, RateReward, Simulator, flatten

GOLDEN_PATH = Path(__file__).parent / "data" / "engine_golden.json"
REWARD_GOLDEN_PATH = Path(__file__).parent / "data" / "reward_golden.json"


def _snapshot(result) -> dict:
    return {
        "n_events": result.n_events,
        "final_values": list(result._final_values),
        "final_time": float(result.final_time).hex(),
        "rewards": {
            name: {
                "integral": res.integral.hex(),
                "impulse_sum": res.impulse_sum.hex(),
                "count": res.count,
            }
            for name, res in result.rewards.items()
        },
    }


def record() -> dict:
    cases: dict[str, dict] = {}

    params = abe_parameters()
    model = flatten(build_cluster_node(params))
    measures = build_measures(model, params)
    for seed in (2008, 7, 99):
        res = Simulator(model, base_seed=seed, sample_batch=None).run(
            2000.0, rewards=measures.rewards
        )
        cases[f"abe_cluster/seed={seed}"] = _snapshot(res)
    for seed in (2008, 7):
        res = Simulator(model, base_seed=seed).run(
            2000.0, rewards=measures.rewards
        )
        cases[f"abe_cluster_batched/seed={seed}"] = _snapshot(res)

    fleet = flatten(build_fleet_node(500))
    for seed in (2, 42):
        res = Simulator(fleet, base_seed=seed, sample_batch=None).run(1000.0)
        cases[f"fleet500/seed={seed}"] = _snapshot(res)
    for seed in (2, 42):
        res = Simulator(fleet, base_seed=seed).run(1000.0)
        cases[f"fleet500_batched/seed={seed}"] = _snapshot(res)

    two_state = flatten(build_two_state_san())
    rw = RateReward("a", lambda m: float(m["comp/up"]))
    for seed in (9, 123):
        res = Simulator(two_state, base_seed=seed, sample_batch=None).run(
            5000.0, rewards=[rw]
        )
        cases[f"two_state/seed={seed}"] = _snapshot(res)

    return cases


def _snapshot_rewarded(result) -> dict:
    """Superset of :func:`_snapshot` for reward-bearing runs.

    Adds the per-reward observation-window duration, the early-stop flag,
    and every binary-trace transition list at bit level.
    """
    snap = _snapshot(result)
    snap["stopped_early"] = result.stopped_early
    snap["duration"] = float(result.duration).hex()
    for name, res in result.rewards.items():
        snap["rewards"][name]["duration"] = float(res.duration).hex()
    snap["traces"] = {
        name: [(float(t).hex(), bool(v)) for t, v in tr.transitions]
        for name, tr in result.traces.items()
        if isinstance(tr, BinaryTrace)
    }
    return snap


def _fleet_observers(n_units: int):
    """Rate + impulse observers over the shared-counter fleet model."""
    frac = RateReward(
        "frac_down", lambda m, _n=float(n_units): m["fleet/down_count"] / _n
    )
    any_down = RateReward(
        "any_down", lambda m: 1.0 if m["fleet/down_count"] > 0 else 0.0
    )
    repairs = ImpulseReward("repairs", "*/repair")
    weighted_fails = ImpulseReward(
        "weighted_fails",
        lambda path: path.endswith("/fail"),
        value=lambda m: 1.0 + m["fleet/down_count"],
    )
    return [frac, any_down, repairs, weighted_fails]


def iter_reward_cases(engine: str = "auto"):
    """Yield ``(key, RunResult)`` for every reward-bearing golden case.

    Shared by the recorder and by ``tests/test_engine_golden.py`` so the
    pinned configurations cannot drift from the replayed ones.  The
    fixture was recorded with the pre-specialization engine; replaying
    with ``engine="auto"`` proves the specialized loops are
    bit-compatible, with ``engine="reference"`` that the general loop
    stayed so.
    """
    # ABE cluster: rate + impulse rewards plus the cfs_up binary trace,
    # with instantaneous activities in the model (the paper's workload).
    params = abe_parameters()
    model = flatten(build_cluster_node(params))
    measures = build_measures(model, params)
    for batch, tag in ((None, "perdraw"), (256, "batched")):
        for seed in (2008, 7):
            sim = Simulator(model, base_seed=seed, sample_batch=batch, engine=engine)
            res = sim.run(
                2000.0,
                rewards=measures.rewards,
                traces=measures.traces_factory(),
            )
            yield f"abe_measures_{tag}/seed={seed}", res
    # warm-up clipping on the same model
    sim = Simulator(model, base_seed=11, engine=engine)
    res = sim.run(
        2000.0,
        warmup=500.0,
        rewards=measures.rewards,
        traces=measures.traces_factory(),
    )
    yield "abe_measures_warmup/seed=11", res

    # Storage-only model: impulse-heavy (replacements, data-loss instants).
    for seed in (96, 5):
        sm = StorageModel(params, base_seed=seed)
        sm.simulator.engine = engine
        res = sm.simulator.run(4000.0, rewards=sm.measures.rewards)
        yield f"storage_measures/seed={seed}", res

    # Watch-only fleet (rate/impulse observers, no instants): the
    # workload the reward fast path targets most directly.
    fleet = flatten(build_fleet_node(200))
    for batch, tag in ((None, "perdraw"), (256, "batched")):
        for seed in (3, 77):
            sim = Simulator(fleet, base_seed=seed, sample_batch=batch, engine=engine)
            res = sim.run(
                1500.0,
                rewards=_fleet_observers(200),
                traces=[BinaryTrace("dip", lambda m: m["fleet/down_count"] >= 2)],
            )
            yield f"fleet_watch_{tag}/seed={seed}", res
    sim = Simulator(fleet, base_seed=41, engine=engine)
    res = sim.run(1500.0, warmup=300.0, rewards=_fleet_observers(200))
    yield "fleet_watch_warmup/seed=41", res

    # Early stop: rewards must clip at the stop time, bit-for-bit.
    for seed in (6, 123):
        sim = Simulator(fleet, base_seed=seed, engine=engine)
        res = sim.run(
            20_000.0,
            rewards=_fleet_observers(200),
            stop_predicate=lambda m: m["fleet/down_count"] >= 12,
        )
        yield f"fleet_stop/seed={seed}", res


def record_rewards() -> dict:
    """Reward-bearing golden cases (recorded from the pre-change slow path)."""
    return {key: _snapshot_rewarded(res) for key, res in iter_reward_cases()}


def main() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    REWARD_GOLDEN_PATH.write_text(
        json.dumps(record_rewards(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {REWARD_GOLDEN_PATH}")


if __name__ == "__main__":
    main()
