"""Continuous-time Markov chain solver.

Used as the exact-numerical oracle for the simulator: small dependability
models (repairable components, RAID tiers, fail-over pairs) are expressed
as CTMCs here and as SANs in :mod:`repro.core`, and the two must agree.

Solutions implemented:

* steady-state distribution (null space of the generator, dense);
* transient distribution via uniformization (numerically robust, no
  matrix exponential overflow);
* mean time to absorption and absorption probabilities;
* reward-weighted expectations (steady-state availability etc.).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.errors import ModelError

__all__ = ["CTMC"]

#: The most Poisson terms a uniformization series may sum.  The largest
#: ``Λt`` the package's tests use is 9,000 (an interval reward over
#: 10,000 h at Λ = 0.9, ~10,200 terms), and ``repro rare``'s default
#: tier has Λt = 350.6.
MAX_UNIFORMIZATION_TERMS = 10**7


class CTMC:
    """A finite CTMC built incrementally from transition rates.

    States are integers ``0..n-1``.  Rates between the same ordered pair
    accumulate, so parallel transitions can be added independently.
    """

    def __init__(self, n_states: int) -> None:
        if n_states < 1:
            raise ModelError(f"CTMC needs at least one state, got {n_states}")
        self.n = int(n_states)
        self._rates: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_rate(self, source: int, target: int, rate: float) -> "CTMC":
        """Add a transition; returns self for chaining."""
        if not (0 <= source < self.n and 0 <= target < self.n):
            raise ModelError(
                f"transition ({source}->{target}) outside state range 0..{self.n - 1}"
            )
        if source == target:
            raise ModelError("self-loop rates are not allowed in a CTMC")
        if rate < 0.0:
            raise ModelError(f"negative rate {rate} for ({source}->{target})")
        if rate > 0.0:
            key = (source, target)
            self._rates[key] = self._rates.get(key, 0.0) + float(rate)
        return self

    @property
    def transitions(self) -> dict[tuple[int, int], float]:
        """Accumulated (source, target) → rate map."""
        return dict(self._rates)

    def generator(self) -> np.ndarray:
        """Dense generator matrix Q (rows sum to zero)."""
        q = np.zeros((self.n, self.n))
        for (s, t), r in self._rates.items():
            q[s, t] += r
            q[s, s] -= r
        return q

    # ------------------------------------------------------------------
    # steady state
    # ------------------------------------------------------------------
    def steady_state(self) -> np.ndarray:
        """Stationary distribution π with πQ = 0, Σπ = 1.

        Requires the chain to have a single recurrent class reachable from
        everywhere (checked indirectly: the linear system must have a
        unique solution).
        """
        q = self.generator()
        # Replace one balance equation with the normalization constraint.
        a = q.T.copy()
        a[-1, :] = 1.0
        b = np.zeros(self.n)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise ModelError(
                "steady-state system is singular; the chain likely has "
                "multiple recurrent classes or absorbing states"
            ) from exc
        if np.any(pi < -1e-9):
            raise ModelError("steady-state solution has negative probabilities")
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()

    def steady_state_reward(self, reward: Sequence[float]) -> float:
        """Expected steady-state value of a per-state rate reward."""
        r = np.asarray(reward, dtype=float)
        if r.shape != (self.n,):
            raise ModelError(f"reward vector must have length {self.n}")
        return float(self.steady_state() @ r)

    # ------------------------------------------------------------------
    # transient analysis (uniformization)
    # ------------------------------------------------------------------
    def transient(
        self, initial: Sequence[float] | int, t: float, tol: float = 1e-12
    ) -> np.ndarray:
        """State distribution at time ``t`` from an initial distribution.

        Uses uniformization: ``p(t) = Σ_k Poisson(Λt; k) · p0 Pᵏ`` with
        ``P = I + Q/Λ``; the series is truncated when the remaining Poisson
        mass falls below ``tol``.
        """
        if t < 0.0:
            raise ModelError(f"time must be >= 0, got {t}")
        p0 = self._as_distribution(initial)
        if t == 0.0:
            return p0
        p_matrix, _lam, mean, max_k = self._uniformized(t)
        # Poisson series over k.
        result = np.zeros(self.n)
        term_vec = p0.copy()
        log_weight = -mean  # log Poisson(mean; 0)
        weight = math.exp(log_weight) if log_weight > -700 else 0.0
        cumulative = weight
        result += weight * term_vec
        k = 0
        while cumulative < 1.0 - tol and k < max_k:
            k += 1
            term_vec = term_vec @ p_matrix
            if weight == 0.0:
                log_weight += math.log(mean) - math.log(k)
                weight = math.exp(log_weight) if log_weight > -700 else 0.0
            else:
                weight *= mean / k
            result += weight * term_vec
            cumulative += weight
        # Renormalize the truncated series.
        s = result.sum()
        if s <= 0.0:
            raise ModelError("uniformization series vanished; check rates")
        return result / s

    def transient_reward(
        self, initial: Sequence[float] | int, t: float, reward: Sequence[float]
    ) -> float:
        """Expected instantaneous reward at time ``t``."""
        r = np.asarray(reward, dtype=float)
        return float(self.transient(initial, t) @ r)

    def interval_reward(
        self,
        initial: Sequence[float] | int,
        t: float,
        reward: Sequence[float],
        tol: float = 1e-12,
    ) -> float:
        """Time-averaged expected reward over ``[0, t]``.

        ``(1/t) E[∫₀ᵗ r(X_s) ds]`` via the uniformization identity
        ``∫₀ᵗ p(s) ds = (1/Λ) Σ_k (p₀Pᵏ) P(N(Λt) > k)`` where ``N`` is
        Poisson with mean ``Λt``.  This is the *interval-of-time* reward
        of the Möbius formalism — exactly what a simulation run over
        ``[0, t]`` estimates, warm-up excluded.
        """
        if t <= 0.0:
            raise ModelError(f"interval length must be positive, got {t}")
        r = np.asarray(reward, dtype=float)
        if r.shape != (self.n,):
            raise ModelError(f"reward vector must have length {self.n}")
        p0 = self._as_distribution(initial)
        p_matrix, lam, mean, max_k = self._uniformized(t)
        # survivor function of the Poisson: P(N > k)
        integral = 0.0
        vec = p0.copy()
        log_pmf = -mean
        pmf = math.exp(log_pmf) if log_pmf > -700 else 0.0
        survivor = 1.0 - pmf
        k = 0
        while k <= max_k and survivor > tol:
            integral += float(vec @ r) * survivor
            vec = vec @ p_matrix
            k += 1
            if pmf == 0.0:
                log_pmf += math.log(mean) - math.log(k)
                pmf = math.exp(log_pmf) if log_pmf > -700 else 0.0
            else:
                pmf *= mean / k
            survivor = max(survivor - pmf, 0.0)
        return integral / lam / t

    # ------------------------------------------------------------------
    # absorption
    # ------------------------------------------------------------------
    def absorbing_states(self) -> list[int]:
        """States with no outgoing rate."""
        out = {s for (s, _t) in self._rates}
        return [s for s in range(self.n) if s not in out]

    def mean_time_to_absorption(self, initial: Sequence[float] | int) -> float:
        """Expected time to reach any absorbing state.

        Solves ``(-Q_TT) m = 1`` on the transient subset T.  The classic
        dependability use is MTTDL: mean time to the data-loss state of a
        RAID tier model.
        """
        absorbing = set(self.absorbing_states())
        if not absorbing:
            raise ModelError("chain has no absorbing states")
        transient = [s for s in range(self.n) if s not in absorbing]
        if not transient:
            return 0.0
        pos = {s: i for i, s in enumerate(transient)}
        q = self.generator()
        qtt = q[np.ix_(transient, transient)]
        ones = np.ones(len(transient))
        m = np.linalg.solve(-qtt, ones)
        p0 = self._as_distribution(initial)
        return float(sum(p0[s] * m[pos[s]] for s in transient))

    def absorption_probabilities(
        self, initial: Sequence[float] | int
    ) -> dict[int, float]:
        """Probability of ending in each absorbing state."""
        absorbing = self.absorbing_states()
        if not absorbing:
            raise ModelError("chain has no absorbing states")
        transient = [s for s in range(self.n) if s not in set(absorbing)]
        p0 = self._as_distribution(initial)
        result = {a: float(p0[a]) for a in absorbing}
        if transient:
            q = self.generator()
            qtt = q[np.ix_(transient, transient)]
            for a in absorbing:
                qta = q[np.ix_(transient, [a])].ravel()
                h = np.linalg.solve(-qtt, qta)
                result[a] += float(
                    sum(p0[s] * h[i] for i, s in enumerate(transient))
                )
        return result

    # ------------------------------------------------------------------
    def _uniformized(self, t: float) -> tuple[np.ndarray, float, float, int]:
        """The uniformization of this chain over ``[0, t]``: the jump
        matrix ``P = I + Q/Λ``, the rate ``Λ``, the Poisson mean ``Λt``
        and the last term the series may need.  A series that cannot
        finish — ``Λt`` not finite, or more than
        :data:`MAX_UNIFORMIZATION_TERMS` terms — raises a
        :class:`ModelError` naming ``Λ``, ``t`` and the term count."""
        q = self.generator()
        lam = float(max(-np.diag(q).min(), 1e-300))
        mean = lam * t
        terms = mean + 12.0 * math.sqrt(mean) + 50
        if not terms <= MAX_UNIFORMIZATION_TERMS:  # also NaN and inf
            raise ModelError(
                f"uniformization over t={t:g} at rate Λ={lam:g} (Λt={mean:g}) "
                f"needs {terms:.4g} Poisson terms, more than the "
                f"{MAX_UNIFORMIZATION_TERMS:,} allowed"
            )
        return np.eye(self.n) + q / lam, lam, mean, int(terms)

    def _as_distribution(self, initial: Sequence[float] | int) -> np.ndarray:
        if isinstance(initial, (int, np.integer)):
            if not 0 <= int(initial) < self.n:
                raise ModelError(f"initial state {initial} out of range")
            p0 = np.zeros(self.n)
            p0[int(initial)] = 1.0
            return p0
        p0 = np.asarray(initial, dtype=float)
        if p0.shape != (self.n,):
            raise ModelError(f"initial distribution must have length {self.n}")
        if np.any(p0 < -1e-12) or abs(p0.sum() - 1.0) > 1e-9:
            raise ModelError("initial distribution must be a probability vector")
        return np.clip(p0, 0.0, None) / p0.sum()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CTMC(states={self.n}, transitions={len(self._rates)})"
