"""Distribution laws: moments, survival functions, conversions, sampling."""

from __future__ import annotations

import math
import multiprocessing
import re
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import distributions
from repro.core import (
    Deterministic,
    Empirical,
    EquilibriumResidual,
    Erlang,
    Exponential,
    Gamma,
    LogNormal,
    ModelError,
    Shifted,
    Uniform,
    Weibull,
    afr_to_mtbf,
    make_generator,
    mtbf_to_afr,
)
from repro.core.distributions import BatchedSampler

RNG = make_generator(7)


class TestConversions:
    def test_afr_mtbf_roundtrip(self):
        assert afr_to_mtbf(mtbf_to_afr(300_000.0)) == pytest.approx(300_000.0)

    def test_paper_pairing(self):
        # AFR 2.92% <-> MTBF 300000 h is the exact pairing the paper quotes.
        assert mtbf_to_afr(300_000.0) == pytest.approx(0.0292, rel=1e-3)

    def test_invalid_inputs(self):
        with pytest.raises(ModelError):
            afr_to_mtbf(0.0)
        with pytest.raises(ModelError):
            mtbf_to_afr(-1.0)


class TestExponential:
    def test_mean(self):
        assert Exponential(0.25).mean() == pytest.approx(4.0)

    def test_survival(self):
        d = Exponential(0.5)
        assert d.survival(0.0) == 1.0
        assert d.survival(2.0) == pytest.approx(math.exp(-1.0))

    def test_per_period(self):
        d = Exponential.per_period(1.5, 720.0)
        assert d.rate == pytest.approx(1.5 / 720.0)

    def test_from_mean(self):
        assert Exponential.from_mean(20.0).rate == pytest.approx(0.05)

    def test_is_exponential_flag(self):
        assert Exponential(1.0).is_exponential
        assert not Weibull(0.7, 100.0).is_exponential
        assert not Deterministic(1.0).is_exponential

    def test_sample_mean_matches(self):
        d = Exponential(0.1)
        xs = d.sample_many(make_generator(1), 20_000)
        assert xs.mean() == pytest.approx(10.0, rel=0.05)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ModelError):
            Exponential(0.0)


class TestWeibull:
    def test_from_mtbf_mean(self):
        w = Weibull.from_mtbf(0.7, 300_000.0)
        assert w.mean() == pytest.approx(300_000.0, rel=1e-9)

    def test_from_afr(self):
        w = Weibull.from_afr(0.7, 0.0292)
        assert w.afr == pytest.approx(0.0292, rel=1e-9)
        assert w.mtbf == pytest.approx(300_000.0, rel=1e-3)

    def test_shape_one_is_exponential_law(self):
        w = Weibull(1.0, 100.0)
        assert w.survival(50.0) == pytest.approx(math.exp(-0.5))

    def test_decreasing_hazard_for_shape_below_one(self):
        w = Weibull.from_mtbf(0.7, 1000.0)
        assert w.hazard(1.0) > w.hazard(10.0) > w.hazard(100.0)

    def test_hazard_at_zero_limits(self):
        assert Weibull(0.7, 100.0).hazard(0.0) == math.inf
        assert Weibull(2.0, 100.0).hazard(0.0) == 0.0
        assert Weibull(1.0, 100.0).hazard(0.0) == pytest.approx(0.01)

    def test_residual_sample_exceeds_zero(self):
        w = Weibull.from_mtbf(0.7, 1000.0)
        samples = [w.residual_sample(500.0, make_generator(i)) for i in range(50)]
        assert all(s >= 0.0 for s in samples)

    def test_residual_age_zero_equals_plain_sampling_law(self):
        w = Weibull.from_mtbf(0.7, 1000.0)
        xs = np.array([w.residual_sample(0.0, make_generator(i)) for i in range(2000)])
        assert xs.mean() == pytest.approx(1000.0, rel=0.15)

    def test_sample_mean(self):
        w = Weibull.from_mtbf(0.7, 300.0)
        xs = w.sample_many(make_generator(2), 40_000)
        assert xs.mean() == pytest.approx(300.0, rel=0.05)

    def test_rejects_bad_params(self):
        with pytest.raises(ModelError):
            Weibull(0.0, 1.0)
        with pytest.raises(ModelError):
            Weibull(1.0, 0.0)


class TestDeterministic:
    def test_sample_is_constant(self):
        d = Deterministic(4.0)
        assert d.sample(RNG) == 4.0
        assert d.mean() == 4.0

    def test_survival_step(self):
        d = Deterministic(4.0)
        assert d.survival(3.9) == 1.0
        assert d.survival(4.0) == 0.0

    def test_zero_allowed(self):
        assert Deterministic(0.0).sample(RNG) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ModelError):
            Deterministic(-1.0)


class TestUniform:
    def test_mean(self):
        assert Uniform(12.0, 36.0).mean() == pytest.approx(24.0)

    def test_bounds(self):
        d = Uniform(2.0, 6.0)
        xs = d.sample_many(make_generator(3), 1000)
        assert xs.min() >= 2.0 and xs.max() <= 6.0

    def test_survival(self):
        d = Uniform(10.0, 20.0)
        assert d.survival(5.0) == 1.0
        assert d.survival(15.0) == pytest.approx(0.5)
        assert d.survival(25.0) == 0.0

    def test_rejects_inverted(self):
        with pytest.raises(ModelError):
            Uniform(5.0, 2.0)


class TestLogNormal:
    def test_from_mean_cv(self):
        d = LogNormal.from_mean_cv(100.0, 0.5)
        assert d.mean() == pytest.approx(100.0)

    def test_sample_mean(self):
        d = LogNormal.from_mean_cv(10.0, 1.0)
        xs = d.sample_many(make_generator(4), 50_000)
        assert xs.mean() == pytest.approx(10.0, rel=0.07)

    def test_survival_median(self):
        d = LogNormal(math.log(10.0), 0.8)
        assert d.survival(10.0) == pytest.approx(0.5, abs=1e-9)


class TestGammaErlang:
    def test_gamma_mean(self):
        assert Gamma(3.0, 2.0).mean() == pytest.approx(6.0)

    def test_erlang_is_gamma(self):
        e = Erlang(3, 0.5)
        assert e.mean() == pytest.approx(6.0)
        assert e.stages == 3

    def test_erlang_survival_vs_sum_of_exponentials(self):
        e = Erlang(2, 1.0)
        # P(X > t) = e^-t (1 + t) for a 2-stage Erlang of rate 1.
        assert e.survival(1.5) == pytest.approx(math.exp(-1.5) * 2.5, rel=1e-6)

    def test_erlang_rejects_fractional_stages(self):
        with pytest.raises(ModelError):
            Erlang(0, 1.0)


class TestEmpiricalShifted:
    def test_empirical_resamples_observed(self):
        d = Empirical([1.0, 2.0, 3.0])
        xs = {d.sample(make_generator(i)) for i in range(50)}
        assert xs <= {1.0, 2.0, 3.0}
        assert d.mean() == pytest.approx(2.0)

    def test_empirical_survival(self):
        d = Empirical([1.0, 2.0, 3.0, 4.0])
        assert d.survival(2.5) == pytest.approx(0.5)

    def test_empirical_rejects_empty(self):
        with pytest.raises(ModelError):
            Empirical([])

    def test_shifted(self):
        d = Shifted(5.0, Exponential(1.0))
        assert d.mean() == pytest.approx(6.0)
        assert d.survival(4.0) == 1.0
        assert all(d.sample(make_generator(i)) >= 5.0 for i in range(20))


class TestEquilibriumResidual:
    def test_exponential_is_its_own_equilibrium(self):
        eq = EquilibriumResidual(Exponential(0.1))
        assert eq.mean() == pytest.approx(10.0)
        xs = np.array([eq.sample(make_generator(i)) for i in range(3000)])
        assert xs.mean() == pytest.approx(10.0, rel=0.1)

    def test_deterministic_equilibrium_is_uniform(self):
        eq = EquilibriumResidual(Deterministic(10.0))
        assert eq.mean() == pytest.approx(5.0)
        assert eq.cdf(5.0) == pytest.approx(0.5)

    def test_weibull_mean_formula(self):
        # E[residual] = E[X^2] / (2 E[X]) with E[X^2] = eta^2 Gamma(1+2/beta).
        w = Weibull.from_mtbf(0.7, 1000.0)
        eq = EquilibriumResidual(w)
        from scipy.special import gamma as G

        expected = (w.scale**2 * G(1 + 2 / 0.7)) / (2 * 1000.0)
        assert eq.mean() == pytest.approx(expected, rel=1e-9)

    def test_table_matches_exact_inversion(self):
        eq = EquilibriumResidual(Weibull.from_mtbf(0.7, 1000.0))
        for i in range(40):
            a = eq.sample(make_generator(900 + i))
            b = eq.sample_exact(make_generator(900 + i))
            assert a == pytest.approx(b, rel=1e-4, abs=1e-6)

    def test_sample_mean_matches_analytic(self):
        eq = EquilibriumResidual(Weibull.from_mtbf(0.7, 1000.0))
        xs = np.array([eq.sample(make_generator(i)) for i in range(4000)])
        assert xs.mean() == pytest.approx(eq.mean(), rel=0.1)

    def test_survival_monotone(self):
        eq = EquilibriumResidual(Weibull.from_mtbf(0.7, 100.0))
        values = [eq.survival(t) for t in (0.0, 1.0, 10.0, 100.0, 1000.0)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize(
        "inner", [Weibull(2.0, 1e-10), Weibull(0.7, 1e-7)], ids=repr
    )
    def test_quantiles_below_a_nanohour_are_resolved(self, monkeypatch, inner):
        """Every quantile of these laws lies below 1e-9 h, the root
        finders' tolerance for a mean of 1 h or more; theirs scales with
        the mean, so each grid point and draw inverts the CDF."""
        monkeypatch.setattr(distributions, "_GRID_CACHE", OrderedDict())
        law = EquilibriumResidual(inner)
        probs, quantiles = law._build_quantile_grid()
        assert max(
            abs(law.cdf(q) - p) for q, p in zip(quantiles.tolist(), probs.tolist())
        ) <= 1e-9
        scalar = np.array([law._invert(p) for p in probs])
        assert quantiles.tobytes() == scalar.tobytes()
        draws = law.sample_many(np.random.default_rng(0), 64)
        u = np.random.default_rng(0).uniform(size=64)
        assert max(abs(law.cdf(x) - v) for x, v in zip(draws, u)) < 1e-3

    @pytest.mark.parametrize("route", ["sample", "sample_many", "grid", "scalar"])
    @pytest.mark.parametrize(
        "inner, needle",
        [
            # Quantiles beyond the 1e16 h bracket cap: 4,139 of the 4,160
            # grid points, and u = 0.637 (the CDF at 4.87e18 h is 0.0006).
            (Weibull(0.05, 1.0), "lies beyond 1e+16 h"),
            # (t/η)**β overflows at the first bracket, t = 1 h.
            (Weibull(3.0, 1e-300), "overflows a float"),
        ],
        ids=["heavy-tail", "tiny-scale"],
    )
    def test_unsamplable_law_raises_model_error(
        self, monkeypatch, inner, needle, route
    ):
        monkeypatch.setattr(distributions, "_GRID_CACHE", OrderedDict())
        law = EquilibriumResidual(inner)
        calls = {
            "sample": lambda: law.sample(np.random.default_rng(0)),
            "sample_many": lambda: law.sample_many(np.random.default_rng(0), 8),
            "grid": law._build_quantile_grid,
            "scalar": lambda: law._invert(0.637),
        }
        message = re.escape(repr(law)) + ".*" + re.escape(needle)
        with pytest.raises(ModelError, match=message):
            calls[route]()


class TestParameterValidation:
    """Bad parameters fail at construction with a ModelError naming them."""

    # case -> (construction, text the message must contain)
    CASES = {
        "Weibull.from_mtbf(0.0, 1000)": (
            lambda: Weibull.from_mtbf(0.0, 1000.0), "shape must be positive "
            "and finite, got 0.0"),
        "Weibull(0.7, inf)": (lambda: Weibull(0.7, math.inf), "got inf"),
        "Weibull(inf, 100)": (lambda: Weibull(math.inf, 100.0), "got inf"),
        "Exponential(inf)": (lambda: Exponential(math.inf), "got inf"),
        "Exponential.from_mean(inf)": (
            lambda: Exponential.from_mean(math.inf), "got inf"),
        "Deterministic(nan)": (lambda: Deterministic(math.nan), "got nan"),
        "Uniform(0, inf)": (lambda: Uniform(0.0, math.inf), "got [0.0, inf]"),
        "LogNormal(inf, 1)": (lambda: LogNormal(math.inf, 1.0), "got inf"),
        "Gamma(nan, 1)": (lambda: Gamma(math.nan, 1.0), "got nan"),
        "Erlang(inf, 1)": (lambda: Erlang(math.inf, 1.0), "got inf"),
        "Empirical([1, nan])": (
            lambda: Empirical([1.0, math.nan]), "got nan"),
        "Shifted(inf, Exponential(1))": (
            lambda: Shifted(math.inf, Exponential(1.0)), "got inf"),
        "EquilibriumResidual(Weibull(0.7, inf))": (
            lambda: EquilibriumResidual(Weibull(0.7, math.inf)), "got inf"),
        "EquilibriumResidual(Deterministic(inf))": (
            lambda: EquilibriumResidual(Deterministic(math.inf)), "got inf"),
        "EquilibriumResidual(Gamma(1e300, 1e300))": (
            lambda: EquilibriumResidual(Gamma(1e300, 1e300)), "mean, got inf"),
        "EquilibriumResidual(LogNormal(0, 40))": (
            lambda: EquilibriumResidual(LogNormal(0.0, 40.0)), "mean, got inf"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_at_construction(self, case):
        build, message = self.CASES[case]
        with pytest.raises(ModelError, match=re.escape(message)):
            build()

    def test_lognormal_mean_overflows_to_inf(self):
        assert LogNormal(0.0, 40.0).mean() == math.inf


@pytest.fixture
def stub_builds(monkeypatch):
    """An empty grid cache, and grid builds stubbed by a cheap stand-in
    for the ~4k root finds; returns the inner laws built, in order."""
    monkeypatch.setattr(distributions, "_GRID_CACHE", OrderedDict())
    built = []

    def build(self):
        built.append(self.inner)
        probs = np.linspace(0.0, 1.0, self._TABLE_SIZE + 1)
        return probs, probs * self._mean_inner

    monkeypatch.setattr(EquilibriumResidual, "_build_quantile_grid", build)
    return built


class _CoarseResidual(EquilibriumResidual):
    _TABLE_SIZE = 64


class _OwnWeibull(Weibull):
    pass


def _draws(law, route, seed, n):
    rng = np.random.default_rng(seed)
    if route == "sample":
        return [law.sample(rng) for _ in range(n)]
    if route == "sample_many":
        return law.sample_many(rng, n).tolist()
    sampler = BatchedSampler(law, batch_size=256)
    return [sampler.sample(rng) for _ in range(n)]


def _draw_in_forked_worker(shape, scale, seed, n):
    """Draws from an equal law in a pool worker that must not rebuild."""

    def refuse(self):
        raise AssertionError("the worker rebuilt the grid")

    EquilibriumResidual._build_quantile_grid = refuse
    return EquilibriumResidual(Weibull(shape, scale)).sample_many(
        np.random.default_rng(seed), n
    ).tolist()


class TestGridCache:
    """Equal laws share one per-process quantile grid."""

    def test_equal_laws_share_one_grid(self, stub_builds):
        a = EquilibriumResidual(Weibull(0.7, 1000.0))
        b = EquilibriumResidual(Weibull(0.7, 1000.0))
        probs_a, quantiles_a = a._grid()
        probs_b, quantiles_b = b._grid()
        assert probs_a is probs_b and quantiles_a is quantiles_b
        a.sample(RNG)
        b.sample(RNG)
        assert a._grid_lists is b._grid_lists
        assert len(stub_builds) == 1

    def test_cached_arrays_are_read_only(self, stub_builds):
        for arr in EquilibriumResidual(Weibull(0.7, 1000.0))._grid():
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_key_separates_parameters_type_and_table_size(self, stub_builds):
        keyed = [
            EquilibriumResidual(Weibull(0.7, 1000.0)),
            EquilibriumResidual(Weibull(0.8, 1000.0)),
            EquilibriumResidual(Weibull(0.7, 1001.0)),
            _CoarseResidual(Weibull(0.7, 1000.0)),
        ]
        # Other inner types never hit a Weibull entry.
        laws = keyed + [
            EquilibriumResidual(_OwnWeibull(0.7, 1000.0)),
            EquilibriumResidual(Exponential(1 / 1000.0)),
        ]
        grids = [law._grid()[1] for law in laws]
        assert len(stub_builds) == len(laws)
        assert len({id(g) for g in grids}) == len(laws)
        assert len(grids[3]) == _CoarseResidual._TABLE_SIZE + 1
        assert len(distributions._GRID_CACHE) == len(keyed)

    def test_lru_bound_evicts(self, stub_builds, monkeypatch):
        monkeypatch.setattr(distributions, "_GRID_CACHE_MAX", 2)

        def grid(scale):
            return EquilibriumResidual(Weibull(0.7, scale))._grid()

        grid(1.0)
        grid(2.0)
        grid(1.0)  # hit: 2.0 is now the least recently used
        grid(3.0)  # evicts 2.0
        assert len(distributions._GRID_CACHE) == 2
        grid(1.0)
        grid(2.0)  # rebuilt, evicting 3.0
        assert [d.scale for d in stub_builds] == [1.0, 2.0, 3.0, 2.0]

    @pytest.mark.parametrize(
        "make_inner",
        [lambda: Gamma(2.0, 3.0), lambda: Shifted(1.0, Exponential(0.5)),
         lambda: Empirical([1.0, 2.0, 4.0]), lambda: _OwnWeibull(0.7, 1000.0),
         lambda: Exponential(0.01), lambda: Deterministic(12.0)],
        ids=["gamma", "shifted", "empirical", "weibull-subclass",
             "exponential", "deterministic"],
    )
    def test_unkeyed_inner_laws_build_per_instance(
        self, stub_builds, make_inner
    ):
        a = EquilibriumResidual(make_inner())
        b = EquilibriumResidual(make_inner())
        assert a._grid()[1] is not b._grid()[1]
        assert a._grid()[1] is a._grid()[1]
        assert len(stub_builds) == 2
        assert not distributions._GRID_CACHE

    @pytest.mark.parametrize("route", ["sample", "sample_many", "batched"])
    def test_warm_draws_equal_cold_draws(self, monkeypatch, route):
        """A cache hit serves bit-identical draws, including the exact
        inversions beyond ``_EXACT_TAIL_U``."""
        monkeypatch.setattr(distributions, "_GRID_CACHE", OrderedDict())
        seed, n = 11, 3000
        u = np.random.default_rng(seed).uniform(size=n)
        assert (u > EquilibriumResidual._EXACT_TAIL_U).sum() >= 2
        cold_law = EquilibriumResidual(Weibull(0.7, 300_000.0))
        cold = _draws(cold_law, route, seed, n)
        warm_law = EquilibriumResidual(Weibull(0.7, 300_000.0))
        warm = _draws(warm_law, route, seed, n)
        assert warm_law._grid()[1] is cold_law._grid()[1]
        assert warm == cold
        np.testing.assert_array_equal(
            cold_law._grid()[1], cold_law._build_quantile_grid()[1]
        )

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_worker_inherits_parent_entry(self, monkeypatch):
        monkeypatch.setattr(distributions, "_GRID_CACHE", OrderedDict())
        law = EquilibriumResidual(Weibull(0.7, 4321.0))
        expected = law.sample_many(np.random.default_rng(5), 50).tolist()
        with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            drawn = pool.submit(
                _draw_in_forked_worker, 0.7, 4321.0, 5, 50
            ).result(timeout=120)
        assert drawn == expected


@given(
    shape=st.floats(0.5, 3.0),
    mtbf=st.floats(10.0, 1e6),
)
@settings(max_examples=50, deadline=None)
def test_weibull_from_mtbf_mean_property(shape: float, mtbf: float):
    """from_mtbf must invert the mean for any (shape, mtbf)."""
    w = Weibull.from_mtbf(shape, mtbf)
    assert w.mean() == pytest.approx(mtbf, rel=1e-9)


@given(rate=st.floats(1e-6, 1e3), t=st.floats(0.0, 1e4))
@settings(max_examples=50, deadline=None)
def test_exponential_survival_bounds_property(rate: float, t: float):
    s = Exponential(rate).survival(t)
    assert 0.0 <= s <= 1.0


@given(
    low=st.floats(0.0, 100.0),
    width=st.floats(0.001, 100.0),
    q=st.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_uniform_survival_is_linear_property(low, width, q):
    d = Uniform(low, low + width)
    t = low + q * width
    assert d.survival(t) == pytest.approx(1.0 - q, abs=1e-9)
