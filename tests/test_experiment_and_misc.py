"""Experiment layer (estimates, replication), RNG streams, path globs."""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import (
    Estimate,
    ImpulseReward,
    RateReward,
    SeedTree,
    SimulationError,
    Simulator,
    StoppingRule,
    derive_seed,
    flatten,
    make_generator,
    replicate_runs,
)
from repro.core.patterns import compile_pattern, filter_matching, path_match
from repro.core.rng import _key_to_int

from _helpers import build_two_state_san


class TestEstimate:
    def test_from_samples_basic(self):
        est = Estimate.from_samples([1.0, 2.0, 3.0, 4.0])
        assert est.mean == pytest.approx(2.5)
        assert est.n == 4
        assert est.lo < 2.5 < est.hi

    def test_single_sample_infinite_halfwidth(self):
        est = Estimate.from_samples([2.0])
        assert math.isinf(est.half_width)
        assert "n=1" in str(est)

    def test_identical_samples_zero_halfwidth(self):
        est = Estimate.from_samples([3.0, 3.0, 3.0])
        assert est.half_width == 0.0

    def test_contains(self):
        est = Estimate.from_samples([1.0, 2.0, 3.0])
        assert est.contains(2.0)
        assert not est.contains(100.0)

    def test_zero_samples_rejected(self):
        with pytest.raises(SimulationError):
            Estimate.from_samples([])

    @pytest.mark.parametrize("bad", [2.0, 1.0, 0.0, -0.5, float("nan"), "x"])
    def test_bad_confidence_rejected(self, bad):
        with pytest.raises(SimulationError, match="confidence") as exc:
            Estimate.from_samples([1.0, 2.0, 3.0], bad)
        assert repr(bad) in str(exc.value)

    def test_coverage_of_known_mean(self):
        # ~95% of intervals should contain the true mean; check loosely.
        rng = np.random.default_rng(0)
        hits = 0
        trials = 200
        for _ in range(trials):
            est = Estimate.from_samples(rng.normal(5.0, 1.0, size=12))
            hits += est.contains(5.0)
        assert hits / trials > 0.85

    def test_str_format(self):
        est = Estimate.from_samples([1.0, 2.0, 3.0])
        assert "95% CI" in str(est)


class TestReplicateRuns:
    def test_replications_independent_and_summarized(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=1)
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        res = replicate_runs(sim, 5_000.0, n_replications=5, rewards=[rw])
        assert res.n_replications == 5
        assert len(set(res.samples("a"))) == 5  # independent streams

    def test_impulse_metrics_included(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=2)
        imp = ImpulseReward("f", "comp/fail")
        res = replicate_runs(sim, 5_000.0, n_replications=3, rewards=[imp])
        assert "f" in res.metrics and "f.per_hour" in res.metrics

    def test_extra_metrics(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=3)
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        res = replicate_runs(
            sim,
            5_000.0,
            n_replications=3,
            rewards=[rw],
            extra_metrics={"u": lambda r: 1.0 - r["a"].time_average},
        )
        assert res.estimate("u").mean == pytest.approx(
            1.0 - res.estimate("a").mean
        )

    def test_extra_metric_shadowing_rejected(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=4)
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        with pytest.raises(SimulationError, match="shadow"):
            replicate_runs(
                sim, 100.0, n_replications=2, rewards=[rw],
                extra_metrics={"a": lambda r: 0.0},
            )

    @pytest.mark.parametrize(
        "stopping, n",
        [
            (None, 3),
            # Never satisfied: rounds of 2, 1, 1 and 1 up to the cap.
            (StoppingRule(rel_ci=1e-12, min_replications=2, batch=1), 5),
        ],
    )
    def test_on_result_callback(self, two_state_model, stopping, n):
        sim = Simulator(two_state_model, base_seed=5)
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        seen = []
        replicate_runs(
            sim, 100.0, n_replications=n, rewards=[rw],
            on_result=lambda k, r: seen.append(k), stopping=stopping,
        )
        assert seen == list(range(n))

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "name, bad",
        [
            ("n_replications", 2.5),
            ("n_replications", "3"),
            ("n_replications", float("nan")),
            ("n_replications", 0),
            ("confidence", 1.5),
            ("confidence", float("nan")),
            ("confidence", 0.0),
            ("confidence", "x"),
            ("n_jobs", 1.5),
            ("n_jobs", "x"),
        ],
    )
    def test_bad_argument_rejected_before_any_run(
        self, two_state_model, name, bad, jobs, monkeypatch
    ):
        from repro.core import parallel

        def forbidden(*args, **kwargs):
            raise AssertionError("a replication ran or a pool started")

        sim = Simulator(two_state_model, base_seed=8)
        monkeypatch.setattr(sim, "run", forbidden)
        monkeypatch.setattr(parallel, "_run_chunked", forbidden)
        kwargs = {"n_replications": 4, "n_jobs": jobs, name: bad}
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        with pytest.raises(SimulationError, match=name) as exc:
            replicate_runs(sim, 100.0, rewards=[rw], **kwargs)
        assert repr(bad) in str(exc.value)

    def test_unknown_metric_lookup(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=6)
        rw = RateReward("a", lambda m: float(m["comp/up"]))
        res = replicate_runs(sim, 100.0, n_replications=2, rewards=[rw])
        with pytest.raises(KeyError):
            res.samples("nope")

    def test_no_metrics_rejected(self, two_state_model):
        sim = Simulator(two_state_model, base_seed=7)
        with pytest.raises(SimulationError, match="no metrics"):
            replicate_runs(sim, 100.0, n_replications=2)


class TestSeedTree:
    def test_same_path_same_stream(self):
        a = SeedTree(42).child("rep", 3).generator().uniform()
        b = SeedTree(42).child("rep", 3).generator().uniform()
        assert a == b

    def test_sibling_streams_differ(self):
        a = SeedTree(42).child("rep", 0).generator().uniform()
        b = SeedTree(42).child("rep", 1).generator().uniform()
        assert a != b

    def test_string_keys_stable(self):
        a = derive_seed(1, "alpha").generate_state(2)
        b = derive_seed(1, "alpha").generate_state(2)
        assert (a == b).all()

    def test_children_iterator(self):
        kids = list(SeedTree(7).children("rep", 3))
        assert len(kids) == 3
        assert kids[0].path == ("rep", 0)

    def test_make_generator_independent_paths(self):
        x = make_generator(5, "a").uniform()
        y = make_generator(5, "b").uniform()
        assert x != y


#: Base seeds across numpy's word boundaries: one word, the largest one
#: word, two words, three words, and beyond the 4-word entropy pool.
_BASE_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**128 + 3]),
    st.integers(min_value=0, max_value=2**140),
    st.integers(min_value=0, max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
)
_PATH_KEYS = st.one_of(
    st.sampled_from([-1, 0, 2**32 - 1, 2**32, 2**64 + 1, "rare", "run"]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=255).map(np.uint8),
    st.booleans(),
    st.text(max_size=6),
    st.tuples(st.integers(min_value=-5, max_value=5), st.text(max_size=3)),
)
#: Key paths of every depth from 0 (the bare base seed) to 140, deeper
#: than the splitting trees' lineages (up to 137 keys in the deep-tier
#: benchmark).
_PATHS = st.integers(min_value=0, max_value=140).flatmap(
    lambda n: st.lists(_PATH_KEYS, min_size=n, max_size=n)
)


class TestStreamDerivation:
    """``SeedTree`` nodes and ``make_generator`` carry the entropy words
    numpy assembles for ``derive_seed``'s ``(entropy, spawn_key)`` pair;
    their streams must stay bit-identical to that oracle, at any depth
    and under any numpy that changes how it assembles entropy."""

    @settings(max_examples=150, deadline=None)
    @given(base=_BASE_SEEDS, path=_PATHS, data=st.data())
    def test_bit_identical_to_derive_seed(self, base, path, data):
        cuts = sorted(
            data.draw(st.sets(st.integers(0, len(path)), max_size=8))
        )
        node = SeedTree(base)
        start = 0
        for cut in cuts + [len(path)]:
            node = node.child(*path[start:cut])
            start = cut
        assert node.path == tuple(path)

        oracle = np.random.default_rng(derive_seed(base, *path))
        routes = [
            node.generator(),
            make_generator(base, *path),
            np.random.default_rng(node.seed_sequence()),
        ]
        for gen in routes:
            assert gen.bit_generator.state == oracle.bit_generator.state
        expected = oracle.integers(0, 2**63, size=4).tolist()
        for gen in routes:
            assert gen.integers(0, 2**63, size=4).tolist() == expected

    @pytest.mark.parametrize(
        "base", [-1, np.int64(-1), -(2**70), 1.5, np.float64(2.0), "x", "5"]
    )
    @pytest.mark.parametrize("path", [(), ("rare", 3, 0, -1)])
    def test_rejected_base_seed_raises_numpy_type(self, base, path):
        with pytest.raises((TypeError, ValueError)) as oracle:
            np.random.default_rng(derive_seed(base, *path))
        with pytest.raises(oracle.type):
            SeedTree(base).child(*path).generator()
        with pytest.raises(oracle.type):
            make_generator(base, *path)


#: Base seeds on both sides of every 32-bit word boundary up to six
#: words, so the pool sees one to four seed words and seeds past the
#: 4-word pool fold their extra words in after the cross-mix.
_WORD_BOUNDARY_SEEDS = st.one_of(
    st.sampled_from(
        [0, 1] + [2 ** (32 * k) + d for k in range(1, 6) for d in (-1, 0, 1)]
    ),
    st.integers(min_value=2**128, max_value=2**200),
)


class TestSeedTreePool:
    """A node carries numpy's mixed pool and hash constant; generators
    are seeded from it without a ``SeedSequence``."""

    @settings(max_examples=100, deadline=None)
    @given(base=_WORD_BOUNDARY_SEEDS, path=_PATHS)
    def test_pool_of_every_prefix_equals_numpy(self, base, path):
        # A wrong hash constant leaves its own key's pool right and shows
        # in the next key's, so every prefix is checked.
        node = SeedTree(base)
        for depth in range(len(path) + 1):
            if depth:
                node = node.child(path[depth - 1])
            oracle = derive_seed(base, *path[:depth])
            assert list(node._pool) == oracle.pool.tolist()

    @pytest.mark.parametrize("base", [0, 2008, 2**64 + 5, 2**130 + 7])
    @pytest.mark.parametrize("path", [(), ("rare", 3), ("rare", 3, *range(60))])
    def test_spawn_keeps_numpy_streams(self, base, path):
        # Built the way numpy seeds from a node's packed entropy words:
        # the base seed's 32-bit words, zero-padded to four, then one
        # word per key.
        words, n = [], base
        while True:
            words.append(n & 0xFFFFFFFF)
            n >>= 32
            if not n:
                break
        words += [0] * (4 - len(words)) + [_key_to_int(k) for k in path]
        packed = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        node = SeedTree(base).child(*path)
        oracles = [
            np.random.default_rng(packed),
            np.random.default_rng(node.seed_sequence()),
        ]
        gen = node.generator()
        for k in (2, 3):  # the second spawn continues the first's count
            kids = gen.spawn(k)
            for oracle in oracles:
                for kid, want in zip(kids, oracle.spawn(k), strict=True):
                    assert kid.bit_generator.state == want.bit_generator.state
        # A node's first spawned child draws what its child(0) draws.
        first = node.generator().spawn(1)[0]
        assert first.random(3).tolist() == node.child(0).generator().random(3).tolist()

    @pytest.mark.parametrize("n_words", [1, 4, 9])
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64, "u4", np.dtype("u8")])
    def test_seed_seq_generate_state_matches_numpy(self, n_words, dtype):
        node = SeedTree(2**70 + 3).child("rare", 5, -1)
        seed_seq = node.generator().bit_generator.seed_seq
        want = node.seed_sequence().generate_state(n_words, dtype)
        got = seed_seq.generate_state(n_words, dtype)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        with pytest.raises(ValueError):
            seed_seq.generate_state(2, np.float64)

    def test_generator_pickles_with_its_stream(self):
        gen = SeedTree(7).child("rare", 1, 0).generator()
        gen.random(5)
        copy = pickle.loads(pickle.dumps(gen))
        assert copy.random(5).tolist() == gen.random(5).tolist()
        assert copy.spawn(1)[0].random() == gen.spawn(1)[0].random()


#: Paths and globs over brackets, wildcards (literal in a path) and the
#: pieces of the shipped models' activity paths.
_GLOB_TEXT = st.lists(
    st.sampled_from(["a", "b", "/", "[", "]", "?", "*", "0", "disk[", "replace"]),
    max_size=8,
).map("".join)


class TestPathGlobs:
    def test_brackets_are_literal(self):
        assert path_match("tier[3]/disk[7]/fail", "tier[*]/disk[*]/fail")
        assert not path_match("tier3/disk7/fail", "tier[*]/disk[*]/fail")

    def test_star_crosses_slashes(self):
        assert path_match("a/b/c/d", "a/*/d")

    def test_question_mark(self):
        assert path_match("ab", "a?")
        assert not path_match("abc", "a?")

    def test_anchored(self):
        assert not path_match("xab", "ab")
        assert not path_match("abx", "ab")

    def test_compile_cached(self):
        assert compile_pattern("a*") is compile_pattern("a*")

    def test_regex_specials_escaped(self):
        assert path_match("a.b", "a.b")
        assert not path_match("axb", "a.b")

    @settings(max_examples=300, deadline=None)
    @given(
        paths=st.lists(_GLOB_TEXT, max_size=12),
        pattern=st.one_of(
            _GLOB_TEXT,
            st.sampled_from(["*/disks/disk[*]/replace", "*/tierctl/data_loss"]),
        ),
    )
    def test_filter_matching_equals_path_match_scan(self, paths, pattern):
        pairs = [(path, i) for i, path in enumerate(paths)]
        assert list(filter_matching(pattern, pairs)) == [
            i for path, i in pairs if path_match(path, pattern)
        ]


class TestStudentTCritical:
    """Student-t critical values come from ``scipy.special.stdtrit``, so
    that importing the package does not pay for ``scipy.stats``."""

    @pytest.mark.parametrize(
        "confidence", [0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 0.9999]
    )
    def test_stdtrit_equals_t_ppf(self, confidence):
        from scipy import special, stats

        q = 0.5 + confidence / 2.0
        df = np.arange(1, 5001)
        assert np.array_equal(special.stdtrit(df, q), stats.t.ppf(q, df))

    def test_imports_leave_scipy_stats_unloaded(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, repro, repro.cli, repro.experiments; "
            "print('scipy.stats' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.strip() == "False"
