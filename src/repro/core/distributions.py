"""Probability distributions used by activity timing and failure models.

All distributions measure time in **hours**, the unit used throughout the
paper ("Average time to replace disks 1-12 hours", MTBF 100000-3000000 hours,
rates per 720 hours, ...).

Two constructors mirror how the paper parameterizes disk reliability:

* :meth:`Weibull.from_mtbf` — shape plus mean time between failures, e.g.
  ``Weibull.from_mtbf(shape=0.7, mtbf_hours=300_000)`` is the fitted ABE
  disk model of Section 5.1.
* :meth:`Weibull.from_afr` — shape plus annualized failure rate, using the
  paper's annualization ``AFR = 8760 / MTBF`` (so AFR 2.92 % ⇔ MTBF
  300000 h, exactly the pairing quoted in the paper).

:class:`EquilibriumResidual` provides the stationary residual-life
distribution of a renewal process, used to initialize an in-service disk
fleet: ABE's 480 disks were not factory-fresh when the observation window
opened, so their time-to-next-failure follows the renewal equilibrium
distribution rather than the bare lifetime law.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from collections import OrderedDict
from typing import Callable, Sequence

import numpy as np
from scipy import optimize, special

from .errors import ModelError

__all__ = [
    "HOURS_PER_YEAR",
    "BatchedSampler",
    "Distribution",
    "Exponential",
    "Deterministic",
    "Uniform",
    "Weibull",
    "LogNormal",
    "Gamma",
    "Erlang",
    "Empirical",
    "Shifted",
    "EquilibriumResidual",
    "afr_to_mtbf",
    "mtbf_to_afr",
]

HOURS_PER_YEAR = 8760.0


def _positive(name: str, value: float) -> float:
    """``value`` as a float; a :class:`ModelError` naming it unless it is
    positive and finite (NaN fails too)."""
    if not 0.0 < value < math.inf:
        raise ModelError(f"{name} must be positive and finite, got {value}")
    return float(value)


def _non_negative(name: str, value: float) -> float:
    """``value`` as a float; a :class:`ModelError` naming it unless it is
    finite and ``>= 0`` (NaN fails too)."""
    if not 0.0 <= value < math.inf:
        raise ModelError(f"{name} must be >= 0 and finite, got {value}")
    return float(value)


def afr_to_mtbf(afr: float) -> float:
    """Convert an annualized failure rate (fraction, e.g. 0.0292) to MTBF hours.

    Uses the simple annualization the paper uses: ``MTBF = 8760 / AFR``
    (AFR 2.92 % ⇔ MTBF 300000 h).
    """
    return HOURS_PER_YEAR / _positive("AFR", afr)


def mtbf_to_afr(mtbf_hours: float) -> float:
    """Convert MTBF in hours to an annualized failure rate fraction."""
    return HOURS_PER_YEAR / _positive("MTBF", mtbf_hours)


class Distribution(ABC):
    """A positive continuous distribution for activity firing delays."""

    #: True when :meth:`sample_many` fills its whole output with a single
    #: vectorized numpy call **and** consumes the RNG stream exactly like
    #: ``size`` successive :meth:`sample` calls (stream equivalence,
    #: asserted by ``tests/test_batched_sampling.py``).  The simulator
    #: only serves a law from :class:`BatchedSampler` blocks when this is
    #: set.  The flag never survives an override silently: a subclass
    #: that redefines ``sample`` or ``sample_many`` without declaring
    #: ``batchable`` in its own body is reset to ``False`` (see
    #: ``__init_subclass__``), so only classes that explicitly vouch for
    #: their own stream equivalence are block-served.
    batchable: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        overrides_sampling = (
            "sample" in cls.__dict__ or "sample_many" in cls.__dict__
        )
        if overrides_sampling and "batchable" not in cls.__dict__:
            cls.batchable = False

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one variate."""

    @abstractmethod
    def mean(self) -> float:
        """Expected value, in hours."""

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. variates (vectorized where possible)."""
        return np.array([self.sample(rng) for _ in range(size)])

    def survival(self, t: float) -> float:
        """``P(X > t)``.  Subclasses with closed forms override this."""
        raise NotImplementedError(
            f"{type(self).__name__} does not provide a survival function"
        )

    # Exponential-ness is what the state-space generator needs to know.
    @property
    def is_exponential(self) -> bool:
        """True only for the memoryless exponential distribution."""
        return False


class BatchedSampler:
    """Serves single variates from vectorized blocks of a distribution.

    One ``rng.<law>(size=n)`` call replaces ``n`` scalar draws, amortizing
    the per-call overhead of :class:`numpy.random.Generator` across a
    block.  Any law whose :meth:`Distribution.sample_many` is a single
    vectorized call (``Distribution.batchable``) can be served this way —
    including :class:`EquilibriumResidual`, whose batch is one
    ``np.interp`` over its quantile grid (built at the first draw, and
    shared within a process by all laws over equal Weibull inner laws).
    Because a whole block is consumed from the stream at refill time,
    trajectories differ from per-draw sampling (both are fully
    deterministic for a fixed seed); the simulator therefore only uses
    batched sampling when explicitly enabled.

    The buffer must be :meth:`reset` at the start of every run so that a
    run's draws come exclusively from that run's generator (this is what
    keeps replications independent and serial/parallel execution
    identical).
    """

    __slots__ = ("distribution", "batch_size", "_buffer", "_pos")

    def __init__(self, distribution: "Distribution", batch_size: int = 256) -> None:
        if batch_size < 1:
            raise ModelError(f"batch_size must be >= 1, got {batch_size}")
        self.distribution = distribution
        self.batch_size = int(batch_size)
        self._buffer: list[float] | None = None
        self._pos = 0

    def reset(self) -> None:
        """Discard buffered draws (call at the start of each run)."""
        self._buffer = None
        self._pos = 0

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one variate, refilling the block buffer as needed."""
        buf = self._buffer
        pos = self._pos
        if buf is None or pos >= self.batch_size:
            # tolist() converts to Python floats in one C pass, so the
            # per-draw path below never touches numpy scalars.
            buf = self.distribution.sample_many(rng, self.batch_size).tolist()
            self._buffer = buf
            pos = 0
        self._pos = pos + 1
        return buf[pos]


class Exponential(Distribution):
    """Exponential distribution with rate ``rate`` (events per hour)."""

    __slots__ = ("rate",)
    batchable = True

    def __init__(self, rate: float) -> None:
        self.rate = _positive("Exponential rate", rate)

    @classmethod
    def from_mean(cls, mean_hours: float) -> "Exponential":
        """Construct from the mean delay in hours."""
        return cls(1.0 / _positive("mean", mean_hours))

    @classmethod
    def per_period(cls, events: float, period_hours: float) -> "Exponential":
        """Construct from "N events per period", e.g. ``per_period(1.5, 720)``
        for the paper's "1-2 per 720 hours" hardware error rate."""
        return cls(_positive("events", events) / _positive("period", period_hours))

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=size)

    def mean(self) -> float:
        return 1.0 / self.rate

    def survival(self, t: float) -> float:
        return math.exp(-self.rate * max(t, 0.0))

    @property
    def is_exponential(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate!r})"


class Deterministic(Distribution):
    """A fixed, deterministic delay.

    The paper models disk replacement and software/hardware repair times as
    deterministic events swept over a range (Table 5).
    """

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = _non_negative("Deterministic delay", value)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def mean(self) -> float:
        return self.value

    def survival(self, t: float) -> float:
        return 1.0 if t < self.value else 0.0

    def __repr__(self) -> str:
        return f"Deterministic({self.value!r})"


class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    __slots__ = ("low", "high")
    batchable = True

    def __init__(self, low: float, high: float) -> None:
        if not 0.0 <= low <= high < math.inf:
            raise ModelError(f"need 0 <= low <= high < inf, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def survival(self, t: float) -> float:
        if t <= self.low:
            return 1.0
        if t >= self.high:
            return 0.0
        return (self.high - t) / (self.high - self.low)

    def __repr__(self) -> str:
        return f"Uniform({self.low!r}, {self.high!r})"


class Weibull(Distribution):
    """Weibull distribution with ``shape`` (β) and ``scale`` (η) in hours.

    Survival function ``S(t) = exp(-(t/η)^β)``.  Shape β < 1 gives a
    decreasing hazard (infant mortality), the regime the paper fits for
    ABE's disks (β ≈ 0.7, Table 4).
    """

    __slots__ = ("shape", "scale")
    batchable = True

    def __init__(self, shape: float, scale: float) -> None:
        self.shape = _positive("Weibull shape", shape)
        self.scale = _positive("Weibull scale", scale)

    @classmethod
    def from_mtbf(cls, shape: float, mtbf_hours: float) -> "Weibull":
        """Weibull with given shape whose **mean** equals ``mtbf_hours``.

        ``mean = η Γ(1 + 1/β)``, so ``η = MTBF / Γ(1 + 1/β)``.
        """
        shape = _positive("Weibull shape", shape)
        scale = _positive("MTBF", mtbf_hours) / special.gamma(1.0 + 1.0 / shape)
        return cls(shape, scale)

    @classmethod
    def from_afr(cls, shape: float, afr: float) -> "Weibull":
        """Weibull with given shape and annualized failure rate ``afr``
        (fraction, e.g. ``0.0292`` for the paper's fitted 2.92 %)."""
        return cls.from_mtbf(shape, afr_to_mtbf(afr))

    @property
    def mtbf(self) -> float:
        """Mean time between failures implied by (shape, scale)."""
        return self.mean()

    @property
    def afr(self) -> float:
        """Annualized failure rate implied by the mean."""
        return mtbf_to_afr(self.mean())

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.scale * rng.weibull(self.shape))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=size)

    def mean(self) -> float:
        return self.scale * special.gamma(1.0 + 1.0 / self.shape)

    def survival(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        return math.exp(-((t / self.scale) ** self.shape))

    def hazard(self, t: float) -> float:
        """Instantaneous hazard rate ``h(t) = (β/η)(t/η)^(β-1)``."""
        if t <= 0.0:
            return math.inf if self.shape < 1.0 else (
                0.0 if self.shape > 1.0 else 1.0 / self.scale
            )
        return (self.shape / self.scale) * (t / self.scale) ** (self.shape - 1.0)

    def residual_sample(self, age: float, rng: np.random.Generator) -> float:
        """Sample remaining life given survival to ``age`` (inverse-CDF).

        ``P(X > age + t | X > age) = S(age + t)/S(age)``; inverting gives
        ``t = η (( (age/η)^β - ln U )^(1/β)) - age`` for ``U ~ U(0,1)``.
        """
        if age < 0.0:
            raise ModelError(f"age must be >= 0, got {age}")
        u = rng.uniform()
        base = (age / self.scale) ** self.shape
        return float(self.scale * (base - math.log(u)) ** (1.0 / self.shape) - age)

    def __repr__(self) -> str:
        return f"Weibull(shape={self.shape!r}, scale={self.scale!r})"


class LogNormal(Distribution):
    """Log-normal distribution parameterized by the underlying normal's μ, σ."""

    __slots__ = ("mu", "sigma")
    batchable = True

    def __init__(self, mu: float, sigma: float) -> None:
        if not math.isfinite(mu):
            raise ModelError(f"LogNormal mu must be finite, got {mu}")
        self.mu = float(mu)
        self.sigma = _positive("LogNormal sigma", sigma)

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "LogNormal":
        """Construct from the distribution mean and coefficient of variation."""
        mean = _positive("mean", mean)
        cv = _positive("cv", cv)
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - 0.5 * sigma2
        return cls(mu, math.sqrt(sigma2))

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=size)

    def mean(self) -> float:
        try:
            return math.exp(self.mu + 0.5 * self.sigma * self.sigma)
        except OverflowError:  # past the largest float: inf, like Weibull.mean()
            return math.inf

    def survival(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        z = (math.log(t) - self.mu) / self.sigma
        return float(special.ndtr(-z))

    def __repr__(self) -> str:
        return f"LogNormal(mu={self.mu!r}, sigma={self.sigma!r})"


class Gamma(Distribution):
    """Gamma distribution with ``shape`` k and ``scale`` θ (mean kθ)."""

    __slots__ = ("shape", "scale")
    batchable = True

    def __init__(self, shape: float, scale: float) -> None:
        self.shape = _positive("Gamma shape", shape)
        self.scale = _positive("Gamma scale", scale)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self.shape, self.scale))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size=size)

    def mean(self) -> float:
        return self.shape * self.scale

    def survival(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        return float(special.gammaincc(self.shape, t / self.scale))

    def __repr__(self) -> str:
        return f"Gamma(shape={self.shape!r}, scale={self.scale!r})"


class Erlang(Gamma):
    """Erlang distribution: sum of ``stages`` i.i.d. exponentials of ``rate``."""

    def __init__(self, stages: int, rate: float) -> None:
        if not (1 <= stages < math.inf and stages == int(stages)):
            raise ModelError(f"Erlang stages must be a positive integer, got {stages}")
        super().__init__(float(int(stages)), 1.0 / _positive("Erlang rate", rate))
        self.stages = int(stages)
        self.rate = float(rate)

    def __repr__(self) -> str:
        return f"Erlang(stages={self.stages!r}, rate={self.rate!r})"


class Empirical(Distribution):
    """Resampling distribution over observed delays (bootstrap style)."""

    __slots__ = ("values",)
    batchable = True

    def __init__(self, values: Sequence[float]) -> None:
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise ModelError("Empirical distribution needs at least one value")
        bad = arr[~((arr >= 0.0) & (arr < math.inf))]
        if bad.size:
            raise ModelError(
                f"Empirical delays must be >= 0 and finite, got {bad[0]}"
            )
        self.values = arr

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.choice(self.values))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self.values, size=size)

    def mean(self) -> float:
        return float(self.values.mean())

    def survival(self, t: float) -> float:
        return float(np.mean(self.values > t))

    def __repr__(self) -> str:
        return f"Empirical(n={self.values.size})"


class Shifted(Distribution):
    """``offset + X`` for an inner distribution ``X`` (e.g. minimum repair time)."""

    __slots__ = ("offset", "inner")

    def __init__(self, offset: float, inner: Distribution) -> None:
        self.offset = _non_negative("Shift offset", offset)
        self.inner = inner

    @property
    def batchable(self) -> bool:  # type: ignore[override]
        """Batchable exactly when the inner law is (the shift is free)."""
        return self.inner.batchable

    def sample(self, rng: np.random.Generator) -> float:
        return self.offset + self.inner.sample(rng)

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.offset + self.inner.sample_many(rng, size)

    def mean(self) -> float:
        return self.offset + self.inner.mean()

    def survival(self, t: float) -> float:
        if t <= self.offset:
            return 1.0
        return self.inner.survival(t - self.offset)

    def __repr__(self) -> str:
        return f"Shifted(offset={self.offset!r}, inner={self.inner!r})"


def _brentq_lanes(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    xa: np.ndarray,
    xb: np.ndarray,
    xtol: float = 1e-9,
    rtol: float = 1e-12,
    maxiter: int = 100,
) -> np.ndarray:
    """Roots of ``f`` in the brackets ``[xa[i], xb[i]]``, all lanes at once.

    A numpy transcription of scipy's C ``brentq`` (Brent, *Algorithms
    for Minimization without Derivatives*, 1973, as ``brentq.c`` runs
    it).  ``f(x, lanes)`` returns lane ``lanes[k]``'s function at
    ``x[k]``.  Brent's method steps each lane on its own values only,
    so when ``f`` computes every value exactly as the scalar function
    does, each root has the bits ``optimize.brentq`` returns for that
    lane; a lane retires at the iteration scipy would return.  Errors
    keep scipy's types: ``ValueError`` for a NaN function value or for
    ends of the same sign, ``RuntimeError`` when a lane has not
    converged after ``maxiter`` iterations.
    """

    def evaluate(x: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        fx = f(x, lanes)
        nan = np.isnan(fx)
        if nan.any():
            raise ValueError(
                f"The function value at x={x[nan][0]} is NaN; "
                "solver cannot continue."
            )
        return fx

    xpre = np.array(xa, dtype=float)
    xcur = np.array(xb, dtype=float)
    lanes = np.arange(len(xpre))
    roots = np.empty(len(xpre))
    fpre = evaluate(xpre, lanes)
    fcur = evaluate(xcur, lanes)
    # An end where f is 0 is the root (xa first); the rest need a sign change.
    at_a = fpre == 0
    at_b = (fcur == 0) & ~at_a
    roots[at_a] = xpre[at_a]
    roots[at_b] = xcur[at_b]
    live = ~(at_a | at_b)
    if (np.signbit(fpre[live]) == np.signbit(fcur[live])).any():
        raise ValueError("f(a) and f(b) must have different signs")
    lanes, xpre, xcur, fpre, fcur = (a[live] for a in (lanes, xpre, xcur, fpre, fcur))
    xblk = fblk = spre = scur = np.zeros(len(lanes))
    # Steps a lane does not take may divide by zero; np.where drops them.
    with np.errstate(all="ignore"):
        for _ in range(maxiter):
            if not lanes.size:
                break
            flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk = np.where(flip, xpre, xblk)
            fblk = np.where(flip, fpre, fblk)
            span = xcur - xpre
            spre = np.where(flip, span, spre)
            scur = np.where(flip, span, scur)
            # Keep the best estimate in xcur: swap it with the block end.
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (
                np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                np.where(swap, xcur, xblk),
            )
            fpre, fcur, fblk = (
                np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                np.where(swap, fcur, fblk),
            )
            delta = (xtol + rtol * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            if done.any():
                roots[lanes[done]] = xcur[done]
                keep = ~done
                (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                 delta, sbis) = (
                    a[keep] for a in (lanes, xpre, xcur, xblk, fpre, fcur,
                                      fblk, spre, scur, delta, sbis)
                )
                if not lanes.size:
                    break
            # Interpolate (secant) when xpre is the block end, else
            # extrapolate (inverse quadratic); keep the step only if it
            # is short enough, else bisect.
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),
            )
            aspre = np.abs(spre)
            bound = 3 * np.abs(sbis) - delta
            short = (
                (aspre > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < np.where(aspre < bound, aspre, bound))
            )
            spre = np.where(short, scur, sbis)
            scur = np.where(short, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(
                np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta)
            )
            fcur = evaluate(xcur, lanes)
    if lanes.size:
        raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
    return roots


#: Brackets stop doubling here: ``EquilibriumResidual`` raises rather
#: than return a quantile beyond it (shipped laws stay below ~1e8 h).
_BRACKET_CAP = 1e16

#: Per-process LRU of equilibrium quantile grids, keyed by the law's value
#: (:meth:`EquilibriumResidual._grid_key`), so that equal laws built by
#: different sweep cells share one table.  Module level like
#: ``parallel._SETUP_CACHE``: it outlives the models of one cell, and
#: ``fork`` children inherit the parent's entries.  Each entry is a
#: ``[(probs, quantiles), lists]`` pair: read-only arrays, and their
#: plain-list copies for the scalar path (``None`` until first needed).
_GRID_CACHE: OrderedDict[tuple, list] = OrderedDict()
_GRID_CACHE_MAX = 16


class EquilibriumResidual(Distribution):
    """Stationary residual-life distribution of a renewal process.

    If components fail with lifetime law ``X`` (mean μ) and are renewed on
    failure, then at a random inspection time the **remaining life** of the
    in-service component has density ``S_X(t)/μ``.  Sampling inverts the
    CDF ``F_e(t) = (1/μ)∫₀ᵗ S_X(u) du`` numerically.

    This is how the ABE disk fleet is initialized: the fleet is in service,
    so time-to-first-failure per disk follows this law rather than the raw
    Weibull (using the raw law would overstate early failures for β < 1).

    The inverse-CDF grid is built on the first draw.  For a
    :class:`Weibull` inner law it is solved in lanes and comes from a
    per-process cache shared by every equal law, and its arrays are
    read-only; any other inner law tabulates its own grid.  A quantile
    beyond 1e16 h, or a survival integral that overflows, is a
    :class:`ModelError` naming the law.
    """

    __slots__ = ("inner", "_mean_inner", "_table", "_grid_lists")

    batchable = True

    #: Resolution of the cached inverse-CDF table used by :meth:`sample`.
    _TABLE_SIZE = 4096

    #: Grid interpolation serves draws only for ``u <= _EXACT_TAIL_U``;
    #: deeper upper-tail draws invert the CDF exactly.  Up to this point
    #: the uniform core keeps the grid accurate to 2e-4 relative (worst
    #: about half of that near 0.995 for Weibull shapes 0.5–2.5), but
    #: beyond ~0.9967 the inverse CDF of heavy-tailed inner laws curves
    #: too fast for linear interpolation on the core's 1/4096 spacing
    #: (≈1.2e-3 relative at u ≈ 0.999 for shape 0.7, ≈1.4e-2 in the
    #: geometric tail).  Exact inversion beyond 0.995 costs one brentq
    #: per ~200 draws — ~24 over the 4800 initial petascale disk draws.
    _EXACT_TAIL_U = 0.995

    def __init__(self, inner: Distribution) -> None:
        self.inner = inner
        mean = inner.mean()
        if not 0.0 < mean < math.inf:
            raise ModelError(
                f"inner distribution must have a positive finite mean, "
                f"got {mean} for {inner!r}"
            )
        self._mean_inner = mean
        # Fail fast if the inner law cannot report survival probabilities.
        inner.survival(0.0)
        self._table: list | None = None
        self._grid_lists: tuple[list[float], list[float]] | None = None

    def _integrated_survival(self, t: float) -> float:
        """``∫₀ᵗ S(u) du`` via adaptive quadrature (closed form for Weibull)."""
        if t <= 0.0:
            return 0.0
        inner = self.inner
        if isinstance(inner, Weibull):
            # ∫₀ᵗ exp(-(u/η)^β) du = (η/β) γ(1/β, (t/η)^β) with γ the lower
            # incomplete gamma; gammainc is the regularized form.
            beta, eta = inner.shape, inner.scale
            try:
                x = (t / eta) ** beta
            except OverflowError:
                raise self._overflow() from None
            return float(
                (eta / beta) * special.gamma(1.0 / beta) * special.gammainc(1.0 / beta, x)
            )
        if isinstance(inner, Exponential):
            return (1.0 - math.exp(-inner.rate * t)) / inner.rate
        if isinstance(inner, Deterministic):
            return min(t, inner.value)
        from scipy import integrate

        value, _err = integrate.quad(inner.survival, 0.0, t, limit=200)
        return float(value)

    def cdf(self, t: float) -> float:
        """Equilibrium CDF ``F_e(t)``."""
        if t <= 0.0:
            return 0.0
        return min(1.0, self._integrated_survival(t) / self._mean_inner)

    def survival(self, t: float) -> float:
        return 1.0 - self.cdf(t)

    def sample_exact(self, rng: np.random.Generator) -> float:
        """Inverse-CDF sample via root finding (slow, arbitrarily accurate)."""
        return self._invert(rng.uniform())

    def _overflow(self) -> ModelError:
        return ModelError(
            f"{self!r}: its survival integral overflows a float "
            f"(the inner law's scale is too small)"
        )

    def _beyond_cap(self, u: float) -> ModelError:
        return ModelError(
            f"{self!r}: the quantile of u = {u!r} lies beyond "
            f"{_BRACKET_CAP:g} h (the inner law's tail is too heavy to sample)"
        )

    def _invert(self, u: float) -> float:
        """The ``u`` quantile by one scalar ``brentq``."""
        target = u * self._mean_inner

        def g(t: float) -> float:
            return self._integrated_survival(t) - target

        # Bracket the root: integrated survival is increasing, bounded by μ.
        hi = max(self._mean_inner, 1.0)
        while g(hi) < 0.0:
            hi *= 2.0
            if hi > _BRACKET_CAP:
                raise self._beyond_cap(u)
        return float(optimize.brentq(g, 0.0, hi, xtol=1e-9, rtol=1e-12))

    def _invert_lanes(self, probs: np.ndarray) -> np.ndarray:
        """``_invert`` of every probability at once, bit for bit, for a
        plain :class:`Weibull` inner law: the same bracket doubling per
        lane, then :func:`_brentq_lanes`.
        """
        beta, eta = self.inner.shape, self.inner.scale
        a = 1.0 / beta
        factor = (eta / beta) * special.gamma(a)
        targets = probs * self._mean_inner

        def g(t: np.ndarray, lanes: np.ndarray) -> np.ndarray:
            # _integrated_survival(t) - target per lane.  (t/η)**β goes
            # through Python floats, i.e. libm's pow: numpy's SIMD power
            # differs from it in the last bit on some inputs.
            try:
                x = [(v / eta) ** beta if v > 0.0 else 0.0 for v in t.tolist()]
            except OverflowError:
                raise self._overflow() from None
            value = np.where(t > 0.0, factor * special.gammainc(a, x), 0.0)
            return value - targets[lanes]

        hi = np.full(len(probs), max(self._mean_inner, 1.0))
        low = np.arange(len(probs))
        while low.size:
            low = low[g(hi[low], low) < 0.0]
            hi[low] *= 2.0
            if low.size and hi[low[0]] > _BRACKET_CAP:
                raise self._beyond_cap(float(probs[low[0]]))
        return _brentq_lanes(g, np.zeros(len(probs)), hi)

    def _build_quantile_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Tabulate the inverse CDF on a fine probability grid.

        The grid is dense near both tails; between grid points the inverse
        is interpolated linearly in t, which is accurate to well below the
        resolution any availability measure can resolve.  Upper-tail
        samples (u beyond ``_EXACT_TAIL_U``) fall back to exact
        inversion, where the inverse CDF curves too fast for the linear
        interpolant.  A plain :class:`Weibull` inner law solves all
        points in lanes; any other law runs one ``brentq`` per point.
        """
        n = self._TABLE_SIZE
        # Uniformly spaced core plus geometrically refined tails.
        core = np.linspace(0.0, 1.0, n, endpoint=False)[1:]
        low_tail = np.geomspace(1e-7, core[0], 32, endpoint=False)
        high_tail = 1.0 - np.geomspace(1e-5, 1.0 - core[-1], 32, endpoint=False)[::-1]
        probs = np.unique(np.concatenate(([0.0], low_tail, core, high_tail)))
        if type(self.inner) is Weibull:
            return probs, self._invert_lanes(probs)
        return probs, np.array([self._invert(p) for p in probs])

    def _grid_key(self) -> tuple | None:
        """The grid's cache key, or ``None`` unless the inner law is a
        plain :class:`Weibull`: with this class and ``_TABLE_SIZE``, its
        exact shape and scale determine the grid (a subclass could
        override its survival function, so it is not keyed).
        """
        inner = self.inner
        if type(inner) is not Weibull:
            return None
        return (type(self), self._TABLE_SIZE, Weibull, inner.shape, inner.scale)

    def _cached_table(self) -> list:
        """This law's ``[(probs, quantiles), lists]`` entry (built on first use)."""
        if self._table is None:
            key = self._grid_key()
            entry = None if key is None else _GRID_CACHE.get(key)
            if entry is None:
                grid = self._build_quantile_grid()
                for arr in grid:
                    arr.flags.writeable = False
                entry = [grid, None]
                if key is not None:
                    _GRID_CACHE[key] = entry
                    while len(_GRID_CACHE) > _GRID_CACHE_MAX:
                        _GRID_CACHE.popitem(last=False)
            else:
                _GRID_CACHE.move_to_end(key)
            self._table = entry
        return self._table

    def _grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The quantile grid as read-only ndarrays (built on first use)."""
        return self._cached_table()[0]

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vectorized grid-interpolated draws: one ``np.interp`` per batch.

        Consumes the stream exactly like ``size`` successive
        :meth:`sample` calls (one uniform per draw, identical
        interpolation arithmetic), so per-draw and batched serving of
        this law follow the same variates given the same uniforms.
        Draws beyond ``_EXACT_TAIL_U`` fall back to exact inversion,
        as in :meth:`sample`.
        """
        probs, quantiles = self._grid()
        u = rng.uniform(size=size)
        out = np.interp(u, probs, quantiles)
        tail = u > self._EXACT_TAIL_U
        if tail.any():
            for i in np.flatnonzero(tail):
                out[i] = self._invert(u[i])
        return out

    def sample(self, rng: np.random.Generator) -> float:
        if self._grid_lists is None:
            entry = self._cached_table()
            if entry[1] is None:
                # plain-list copy for the scalar path: bisect + float
                # indexing on lists avoids numpy scalar overhead per draw
                entry[1] = (entry[0][0].tolist(), entry[0][1].tolist())
            self._grid_lists = entry[1]
        probs, quantiles = self._grid_lists
        u = rng.uniform()
        if u > self._EXACT_TAIL_U:
            return self._invert(u)
        # Inline linear interpolation on the cached grid: same arithmetic
        # (and bit-identical results) as ``np.interp(u, probs, quantiles)``
        # at a fraction of the scalar-call overhead.  u is in
        # [0, _EXACT_TAIL_U] here and probs[0] == 0, so j-1 indexes the
        # grid cell containing u.
        j = bisect_right(probs, u)
        if j >= len(probs):
            return quantiles[-1]
        p0 = probs[j - 1]
        q0 = quantiles[j - 1]
        slope = (quantiles[j] - q0) / (probs[j] - p0)
        return slope * (u - p0) + q0

    def mean(self) -> float:
        """``E[X²] / (2μ)`` — closed form where the inner law allows it."""
        inner = self.inner
        if isinstance(inner, Weibull):
            second_moment = inner.scale**2 * special.gamma(1.0 + 2.0 / inner.shape)
            return float(second_moment / (2.0 * self._mean_inner))
        if isinstance(inner, Exponential):
            return 1.0 / inner.rate
        if isinstance(inner, Deterministic):
            return inner.value / 2.0
        from scipy import integrate

        # Find an upper limit where the survival mass is negligible, then
        # integrate t·S(t) on a bounded interval (the improper form is
        # numerically fragile for heavy-tailed laws).
        upper = max(self._mean_inner, 1.0)
        while inner.survival(upper) > 1e-14 and upper < 1e15:
            upper *= 2.0
        second_moment_half, _err = integrate.quad(
            lambda t: t * inner.survival(t), 0.0, upper, limit=400
        )
        return float(second_moment_half / self._mean_inner)

    def __repr__(self) -> str:
        return f"EquilibriumResidual({self.inner!r})"
