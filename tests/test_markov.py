"""CTMC solver, birth-death chains, repairable-system formulas."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ModelError
from repro.markov import (
    CTMC,
    birth_death_ctmc,
    birth_death_steady_state,
    failover_pair_unavailability,
    k_of_n_availability,
    mm1_queue_length,
    parallel_pair_availability,
    two_state_availability,
)


class TestCTMCConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ModelError):
            CTMC(2).add_rate(0, 0, 1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ModelError):
            CTMC(2).add_rate(0, 5, 1.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ModelError):
            CTMC(2).add_rate(0, 1, -1.0)

    def test_rates_accumulate(self):
        c = CTMC(2).add_rate(0, 1, 1.0).add_rate(0, 1, 2.0)
        assert c.transitions[(0, 1)] == pytest.approx(3.0)

    def test_generator_rows_sum_to_zero(self):
        c = CTMC(3).add_rate(0, 1, 2.0).add_rate(1, 2, 3.0).add_rate(2, 0, 1.0)
        q = c.generator()
        assert np.allclose(q.sum(axis=1), 0.0)


class TestSteadyState:
    def test_two_state(self):
        lam, mu = 0.01, 0.1
        c = CTMC(2).add_rate(0, 1, lam).add_rate(1, 0, mu)
        pi = c.steady_state()
        assert pi[0] == pytest.approx(mu / (lam + mu))

    def test_matches_birth_death_product_form(self):
        births = [1.0, 0.8, 0.6]
        deaths = [2.0, 2.0, 2.0]
        pi_closed = birth_death_steady_state(births, deaths)
        pi_ctmc = birth_death_ctmc(births, deaths).steady_state()
        assert np.allclose(pi_closed, pi_ctmc, atol=1e-10)

    def test_reward_weighting(self):
        c = CTMC(2).add_rate(0, 1, 1.0).add_rate(1, 0, 1.0)
        assert c.steady_state_reward([1.0, 0.0]) == pytest.approx(0.5)

    def test_single_absorbing_state_gets_all_mass(self):
        c = CTMC(2).add_rate(0, 1, 1.0)
        assert np.allclose(c.steady_state(), [0.0, 1.0])

    def test_multiple_recurrent_classes_rejected(self):
        # Two absorbing states: the stationary distribution is not unique.
        c = CTMC(3).add_rate(0, 1, 1.0).add_rate(0, 2, 1.0)
        with pytest.raises(ModelError):
            c.steady_state()


class TestTransient:
    def test_convergence_to_steady_state(self):
        lam, mu = 0.2, 1.0
        c = CTMC(2).add_rate(0, 1, lam).add_rate(1, 0, mu)
        p = c.transient(0, 200.0)
        assert p[0] == pytest.approx(mu / (lam + mu), abs=1e-6)

    def test_two_state_closed_form(self):
        # p00(t) = mu/(lam+mu) + lam/(lam+mu) e^{-(lam+mu)t}
        lam, mu = 0.3, 0.7
        c = CTMC(2).add_rate(0, 1, lam).add_rate(1, 0, mu)
        for t in (0.0, 0.5, 2.0, 10.0):
            expected = mu / (lam + mu) + lam / (lam + mu) * math.exp(-(lam + mu) * t)
            assert c.transient(0, t)[0] == pytest.approx(expected, abs=1e-8)

    def test_distribution_normalized(self):
        c = CTMC(3).add_rate(0, 1, 1.0).add_rate(1, 2, 1.0).add_rate(2, 0, 1.0)
        p = c.transient(0, 3.7)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_initial_distribution_input(self):
        c = CTMC(2).add_rate(0, 1, 1.0).add_rate(1, 0, 1.0)
        p = c.transient([0.5, 0.5], 0.0)
        assert np.allclose(p, [0.5, 0.5])

    def test_transient_reward(self):
        c = CTMC(2).add_rate(0, 1, 1.0).add_rate(1, 0, 1.0)
        v = c.transient_reward(0, 100.0, [1.0, 0.0])
        assert v == pytest.approx(0.5, abs=1e-6)


class TestUniformizationBound:
    """A series that could not finish is refused up front, by both the
    transient distribution and the interval reward, naming Λ, t and the
    number of Poisson terms it would take."""

    @staticmethod
    def _solvers(chain):
        return {
            "transient": lambda t: chain.transient(0, t),
            "interval": lambda t: chain.interval_reward(0, t, [1.0, 0.0]),
        }

    @pytest.mark.parametrize("solver", ["transient", "interval"])
    @pytest.mark.parametrize(
        "rate, t, needle",
        [
            (1e300, 8760.0, "Λ=1e+300 (Λt=8.76e+303) needs 8.76e+303"),
            (1.0, 1e308, "Λ=1 (Λt=1e+308) needs 1e+308"),
            (1e300, 1e300, "Λ=1e+300 (Λt=inf) needs inf"),
            (1.0, math.inf, "Λ=1 (Λt=inf) needs inf"),
            (1.0, math.nan, "Λ=1 (Λt=nan) needs nan"),
            (1.0, 1e7, "Λ=1 (Λt=1e+07) needs 1.004e+07"),
        ],
        ids=["huge-rate", "huge-t", "overflow", "inf-t", "nan-t", "just-over"],
    )
    def test_unfinishable_series_raises(self, solver, rate, t, needle):
        chain = CTMC(2).add_rate(0, 1, rate).add_rate(1, 0, 1.0)
        with pytest.raises(ModelError, match="uniformization over t=") as info:
            self._solvers(chain)[solver](t)
        assert needle in str(info.value)
        assert str(info.value).endswith("Poisson terms, more than the 10,000,000 allowed")

    def test_series_just_below_the_bound_is_accepted(self):
        # Λt = 9.9e6 needs 9,937,807 terms: the prologue lets it through
        # (summing them would take minutes, so only the prologue runs).
        from repro.markov.ctmc import MAX_UNIFORMIZATION_TERMS

        chain = CTMC(2).add_rate(0, 1, 1.0).add_rate(1, 0, 1.0)
        _p, lam, mean, max_k = chain._uniformized(9.9e6)
        assert (lam, mean) == (1.0, 9.9e6)
        assert max_k == 9_937_807 <= MAX_UNIFORMIZATION_TERMS


class TestAbsorption:
    def test_exponential_mtta(self):
        c = CTMC(2).add_rate(0, 1, 0.5)
        assert c.mean_time_to_absorption(0) == pytest.approx(2.0)

    def test_series_stages(self):
        c = CTMC(3).add_rate(0, 1, 1.0).add_rate(1, 2, 0.5)
        assert c.mean_time_to_absorption(0) == pytest.approx(1.0 + 2.0)

    def test_absorption_probabilities_split(self):
        c = CTMC(3).add_rate(0, 1, 1.0).add_rate(0, 2, 3.0)
        probs = c.absorption_probabilities(0)
        assert probs[1] == pytest.approx(0.25)
        assert probs[2] == pytest.approx(0.75)

    def test_no_absorbing_state_rejected(self):
        c = CTMC(2).add_rate(0, 1, 1.0).add_rate(1, 0, 1.0)
        with pytest.raises(ModelError):
            c.mean_time_to_absorption(0)


class TestBirthDeath:
    def test_mm1k_queue_length(self):
        # rho=0.5, K=20 is close to the infinite M/M/1: L = rho/(1-rho) = 1.
        assert mm1_queue_length(0.5, 1.0, 60) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ModelError):
            birth_death_steady_state([1.0], [1.0, 2.0])

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ModelError):
            birth_death_steady_state([0.0], [1.0])


class TestRepairableFormulas:
    def test_two_state(self):
        assert two_state_availability(100.0, 10.0) == pytest.approx(100.0 / 110.0)

    def test_parallel_pair(self):
        a = two_state_availability(100.0, 10.0)
        assert parallel_pair_availability(100.0, 10.0) == pytest.approx(
            1 - (1 - a) ** 2
        )

    def test_k_of_n_reduces_to_series_and_parallel(self):
        a = two_state_availability(100.0, 10.0)
        assert k_of_n_availability(3, 3, 100.0, 10.0) == pytest.approx(a**3)
        assert k_of_n_availability(2, 1, 100.0, 10.0) == pytest.approx(
            1 - (1 - a) ** 2
        )

    def test_failover_pair_no_propagation_equals_independent(self):
        lam, mu = 0.01, 0.1
        u = failover_pair_unavailability(lam, mu, 0.0)
        # independent 2-unit parallel: pi2 = (lam/mu)^2 / (1 + 2 lam/mu + (lam/mu)^2)...
        # exact from the 3-state chain with rates 2lam, lam / mu, 2mu:
        r = lam / mu
        pi0 = 1.0
        pi1 = 2 * r
        pi2 = r * pi1 / 2.0 * 1.0  # balance: pi1*lam = pi2*2mu
        total = pi0 + pi1 + pi2
        assert u == pytest.approx(pi2 / total, rel=1e-9)

    def test_failover_pair_propagation_increases_unavailability(self):
        lam, mu = 0.01, 0.1
        u0 = failover_pair_unavailability(lam, mu, 0.0)
        u5 = failover_pair_unavailability(lam, mu, 0.05)
        u50 = failover_pair_unavailability(lam, mu, 0.5)
        assert u0 < u5 < u50

    def test_failover_pair_input_validation(self):
        with pytest.raises(ModelError):
            failover_pair_unavailability(0.0, 1.0)
        with pytest.raises(ModelError):
            failover_pair_unavailability(1.0, 1.0, 1.5)


@given(
    lam=st.floats(1e-4, 1.0),
    mu=st.floats(1e-4, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_steady_state_balance_property(lam: float, mu: float):
    """pi Q = 0 within numerical tolerance for random 2-state chains."""
    c = CTMC(2).add_rate(0, 1, lam).add_rate(1, 0, mu)
    pi = c.steady_state()
    assert np.allclose(pi @ c.generator(), 0.0, atol=1e-10)
    assert pi.sum() == pytest.approx(1.0)


@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_random_irreducible_chain_properties(n: int, seed: int):
    """Random ring-connected chains: valid stationary distribution."""
    rng = np.random.default_rng(seed)
    c = CTMC(n)
    for i in range(n):
        c.add_rate(i, (i + 1) % n, float(rng.uniform(0.1, 2.0)))
        if n > 2:
            j = int(rng.integers(0, n))
            if j != i:
                c.add_rate(i, j, float(rng.uniform(0.01, 1.0)))
    pi = c.steady_state()
    assert np.all(pi >= -1e-12)
    assert pi.sum() == pytest.approx(1.0)
    assert np.allclose(pi @ c.generator(), 0.0, atol=1e-9)
