"""Golden-trajectory determinism tests for the simulation engine.

``tests/data/engine_golden.json`` (regenerate with
``tests/record_golden.py``) pins exact trajectory outcomes — event
counts, final markings, and bit-level reward accumulators — for fixed
seeds on three reference models:

* per-draw mode (``sample_batch=None``) entries were recorded from the
  engine *before* the compiled hot path existed, so these tests prove
  the optimized engine is bit-identical to the historical one;
* ``*_batched`` entries pin the default (block-sampling) engine so that
  future changes cannot silently perturb default trajectories either.

PR 7's ``EquilibriumResidual`` upper-tail accuracy fix (exact inversion
for ``u > 0.999``, later ``u > 0.995``) left every entry byte-identical —
verified by re-recording and diffing; see ``record_golden.py`` for the
audit note.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cfs import abe_parameters
from repro.cfs.cluster import build_cluster_node
from repro.cfs.measures import build_measures
from repro.core import RateReward, Simulator, flatten

from _helpers import build_fleet_node, build_two_state_san
from record_golden import _snapshot_rewarded, iter_reward_cases

GOLDEN_PATH = Path(__file__).parent / "data" / "engine_golden.json"
REWARD_GOLDEN_PATH = Path(__file__).parent / "data" / "reward_golden.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def abe_model():
    params = abe_parameters()
    model = flatten(build_cluster_node(params))
    return model, build_measures(model, params)


def assert_matches(result, expected: dict) -> None:
    __tracebackhelper__ = True
    assert result.n_events == expected["n_events"]
    assert list(result._final_values) == expected["final_values"]
    assert float(result.final_time).hex() == expected["final_time"]
    assert set(result.rewards) == set(expected["rewards"])
    for name, exp in expected["rewards"].items():
        res = result.rewards[name]
        assert res.integral.hex() == exp["integral"], name
        assert res.impulse_sum.hex() == exp["impulse_sum"], name
        assert res.count == exp["count"], name


class TestSeedCompatibility:
    """Per-draw mode reproduces pre-optimization trajectories exactly."""

    @pytest.mark.parametrize("seed", [2008, 7, 99])
    def test_abe_cluster(self, golden, abe_model, seed):
        model, measures = abe_model
        res = Simulator(model, base_seed=seed, sample_batch=None).run(
            2000.0, rewards=measures.rewards
        )
        assert_matches(res, golden[f"abe_cluster/seed={seed}"])

    @pytest.mark.parametrize("seed", [2, 42])
    def test_fleet(self, golden, seed):
        fleet = flatten(build_fleet_node(500))
        res = Simulator(fleet, base_seed=seed, sample_batch=None).run(1000.0)
        assert_matches(res, golden[f"fleet500/seed={seed}"])

    @pytest.mark.parametrize("seed", [9, 123])
    def test_two_state(self, golden, seed):
        model = flatten(build_two_state_san())
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        res = Simulator(model, base_seed=seed, sample_batch=None).run(
            5000.0, rewards=[rw]
        )
        assert_matches(res, golden[f"two_state/seed={seed}"])


class TestBatchedDeterminism:
    """The default (batched) engine is pinned by its own golden entries."""

    @pytest.mark.parametrize("seed", [2008, 7])
    def test_abe_cluster_batched(self, golden, abe_model, seed):
        model, measures = abe_model
        res = Simulator(model, base_seed=seed).run(
            2000.0, rewards=measures.rewards
        )
        assert_matches(res, golden[f"abe_cluster_batched/seed={seed}"])

    @pytest.mark.parametrize("seed", [2, 42])
    def test_fleet_batched(self, golden, seed):
        fleet = flatten(build_fleet_node(500))
        res = Simulator(fleet, base_seed=seed).run(1000.0)
        assert_matches(res, golden[f"fleet500_batched/seed={seed}"])


class TestRunToRunDeterminism:
    """The same simulator configuration always retraces its trajectory."""

    @pytest.mark.parametrize("sample_batch", [None, 64, 256])
    def test_same_seed_same_trajectory(self, sample_batch):
        fleet = flatten(build_fleet_node(50))
        r1 = Simulator(fleet, base_seed=5, sample_batch=sample_batch).run(500.0)
        r2 = Simulator(fleet, base_seed=5, sample_batch=sample_batch).run(500.0)
        assert r1.n_events == r2.n_events
        assert r1._final_values == r2._final_values

    def test_warm_simulator_matches_fresh(self):
        # Run k on a reused simulator equals run k on a fresh one whose
        # counter was advanced: the stream depends only on (seed, k).
        fleet = flatten(build_fleet_node(20))
        sim = Simulator(fleet, base_seed=8)
        first = [sim.run(300.0) for _ in range(3)]
        sim2 = Simulator(fleet, base_seed=8)
        second = [sim2.run(300.0) for _ in range(3)]
        for a, b in zip(first, second):
            assert a.n_events == b.n_events
            assert a._final_values == b._final_values

    def test_batched_modes_differ_but_agree_statistically(self):
        fleet = flatten(build_fleet_node(100))
        per_draw = Simulator(fleet, base_seed=3, sample_batch=None).run(2000.0)
        batched = Simulator(fleet, base_seed=3).run(2000.0)
        # different trajectories (block draws consume the stream ahead)...
        assert per_draw.n_events != batched.n_events
        # ...but comparable event volume (both are the same process)
        assert batched.n_events == pytest.approx(per_draw.n_events, rel=0.1)


class TestRewardGolden:
    """Reward-bearing runs are pinned bit-for-bit against fixtures
    recorded from the engine *before* reward integration was specialized
    (``tests/data/reward_golden.json``): rate-reward integrals, impulse
    accumulators, durations, binary-trace transitions, warm-up clipping
    and early stops.

    ``engine="auto"`` proves the specialized observed fast loop is
    bit-compatible with the historical observer path;
    ``engine="reference"`` proves the general loop stayed so too.

    Intentional re-record (PR 5): the two ``storage_measures`` entries
    were re-recorded when :class:`~repro.cfs.cluster.StorageModel`
    adopted ``batch_dynamic=True`` (its dynamic equilibrium-residual
    draws are now block-served, changing default-mode stream
    consumption).  Every other entry — including all per-draw ones — is
    byte-identical to the original recording.
    """

    @pytest.fixture(scope="class")
    def reward_golden(self) -> dict:
        return json.loads(REWARD_GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("engine", ["auto", "reference"])
    def test_all_cases_bit_identical(self, reward_golden, engine):
        seen = set()
        for key, result in iter_reward_cases(engine=engine):
            seen.add(key)
            snap = json.loads(json.dumps(_snapshot_rewarded(result)))
            assert snap == reward_golden[key], f"{engine}: {key}"
        assert seen == set(reward_golden), "recorded cases drifted"


class TestMatchingIdsCache:
    """String and callable activity patterns are both cached."""

    def test_string_pattern_cached(self):
        model = flatten(build_fleet_node(5))
        sim = Simulator(model, base_seed=1)
        ids1 = sim._matching_ids("fleet/unit[*]/fail")
        ids2 = sim._matching_ids("fleet/unit[*]/fail")
        assert ids1 is ids2
        assert len(ids1) == 5

    def test_callable_pattern_cached_per_identity(self):
        model = flatten(build_fleet_node(5))
        sim = Simulator(model, base_seed=1)
        calls = []

        def pattern(path: str) -> bool:
            calls.append(path)
            return path.endswith("/repair")

        ids1 = sim._matching_ids(pattern)
        n_calls = len(calls)
        assert n_calls == len(model.activities)
        ids2 = sim._matching_ids(pattern)
        assert ids2 is ids1
        assert len(calls) == n_calls  # not re-evaluated
        assert len(ids1) == 5

        # a different callable object gets its own evaluation
        other = lambda path: path.endswith("/repair")  # noqa: E731
        ids3 = sim._matching_ids(other)
        assert ids3 == ids1
        assert ids3 is not ids1
