"""Rare-event estimation: RESTART importance splitting over level functions.

The paper's deep-tail quantities — a petascale tier's probability of
data loss within a mission time — sit far below what fixed-count brute
replication can resolve: at :math:`p \\approx 10^{-7}` a thousand
replications almost surely observe zero events.  This module makes such
probabilities estimable with **RESTART-style importance splitting**: a
declared :class:`LevelFunction` maps the marking to a degradation level
(e.g. failed disks in a tier), a :class:`SplittingPolicy` places
thresholds between the initial state and the rare set, and trajectories
are *split* into retrials whenever they cross a threshold upward
(weight divided among the offspring) and retrials are *killed* when
they fall back below their birth threshold.  Paths that drift toward
the rare set are therefore multiplied while their statistical weight is
conserved, which concentrates simulation effort exactly where the rare
event lives.

Estimator contract
------------------
* **Unbiased**: an up-crossing through thresholds ``s..s'-1`` with
  splitting factors ``R_j`` spawns ``F = prod R_j`` branches of weight
  ``w / F`` (weight conservation, property-tested); a branch reaching
  the top threshold contributes its weight; killed retrials contribute
  nothing, and the surviving original re-splits on every later upward
  crossing — classical RESTART, whose estimator
  ``p_hat = mean_k(sum of weights hitting the top in tree k)`` is
  unbiased for ``P(level reaches top before the horizon)``.
* **Exact restarts**: branches continue from the parent's stopped
  marking via ``Simulator.run(..., initial_marking=...)``.  For
  memoryless (exponential, ``reactivate=True``) models the continuation
  is distributed exactly as the suspended trajectory, which is also the
  regime where the :mod:`repro.markov` closed forms apply — the
  statistical acceptance suite (``tests/test_rare_stats.py``) checks
  splitting and crude estimates against
  :class:`~repro.markov.raid_markov.RAIDTierMarkov` transients.
* **Deterministic**: the branch at tree path ``path`` of root ``k``
  draws from seed-tree stream ``(base_seed, "rare", k, *path)`` — a
  pure function of its position, never of execution order — so any
  split schedule is reproducible and serial == parallel bit-for-bit
  (roots are scheduled over the same supervised pools as replications).

Crude Monte Carlo is the degenerate policy with no intermediate
thresholds (:meth:`SplittingPolicy.crude`); with splitting disabled
entirely, :func:`brute_force_probability` routes through
:func:`~repro.core.experiment.replicate_runs` unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..core.errors import SimulationError
from ..core.experiment import Estimate, replicate_runs
from ..core.parallel import (
    ReplicationSetup,
    ReplicationSpec,
    _run_chunked,
    build_setup_cached,
    resolve_n_jobs,
)
from ..core.resilience import ChaosPolicy, RetryPolicy
from ..core.rng import SeedTree
from ..core.simulation import _check_number
from ..core.stopping import StoppingRule, _check_confidence, _run_rounds

__all__ = [
    "LevelFunction",
    "SplittingPolicy",
    "RareEventEstimate",
    "splitting_probability",
    "brute_force_probability",
    "child_weights",
    "aggregate_tier_san",
    "tier_setup_factory",
    "tier_replication_spec",
    "tier_level",
    "tier_splitting_policy",
    "suggested_splits",
]


# ----------------------------------------------------------------------
# level functions and policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LevelFunction:
    """A monotone degradation level over the marking.

    ``level(marking) = sum(weight * tokens(place))`` over the declared
    places.  Weights must be strictly positive so the level is monotone
    in every degradation token — the importance-splitting correctness
    argument needs "more tokens = closer to the rare set", and a
    non-positive weight would silently invert a dimension.  Violations
    raise :class:`~repro.core.errors.SimulationError` at construction.

    Parameters
    ----------
    name:
        Label used in diagnostics and results.
    places:
        ``{place_path: weight}`` mapping (or an iterable of paths, all
        weighted 1.0).  Paths are resolved against the flattened model
        when the estimator compiles the policy.
    """

    name: str
    places: tuple[tuple[str, float], ...]

    def __init__(
        self,
        name: str,
        places: Mapping[str, float] | Sequence[str],
    ) -> None:
        if isinstance(places, Mapping):
            items = tuple((str(p), float(w)) for p, w in places.items())
        else:
            items = tuple((str(p), 1.0) for p in places)
        if not items:
            raise SimulationError(
                f"level function {name!r} declares no places"
            )
        seen = set()
        for path, weight in items:
            if path in seen:
                raise SimulationError(
                    f"level function {name!r}: duplicate place {path!r}"
                )
            seen.add(path)
            if not math.isfinite(weight) or weight <= 0.0:
                raise SimulationError(
                    f"level function {name!r}: weight for {path!r} must be "
                    f"a positive finite number, got {weight!r} (levels must "
                    "be monotone in every degradation token)"
                )
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "places", items)

    def resolve(self, model) -> Callable[[Sequence[int]], float]:
        """Compile an evaluator over slot-indexed marking vectors."""
        pairs = []
        for path, weight in self.places:
            try:
                pairs.append((model.paths[path], weight))
            except KeyError:
                raise SimulationError(
                    f"level function {self.name!r}: unknown place "
                    f"{path!r}; available: {sorted(model.paths)}"
                ) from None
        pairs = tuple(pairs)

        def value(values, _pairs=pairs):
            total = 0.0
            for slot, weight in _pairs:
                total += weight * values[slot]
            return total

        return value


@dataclass(frozen=True)
class SplittingPolicy:
    """Thresholds and splitting factors for a :class:`LevelFunction`.

    ``thresholds`` must be finite and strictly increasing; reaching
    ``thresholds[-1]`` *is* the rare event.  ``splits[j]`` is the
    RESTART splitting factor applied on upward crossings of
    ``thresholds[j]`` — one entry per threshold except the last (the
    top is absorbing for the estimator, nothing splits there), each an
    integer >= 1.  ``SplittingPolicy(level, (top,),())`` is crude Monte
    Carlo with early stopping at the event.
    """

    level: LevelFunction
    thresholds: tuple[float, ...]
    splits: tuple[int, ...] = ()
    max_segments: int = 1_000_000

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "thresholds", tuple(float(t) for t in self.thresholds)
        )
        object.__setattr__(self, "splits", tuple(int(r) for r in self.splits))
        if not self.thresholds:
            raise SimulationError("splitting policy needs >= 1 threshold")
        for t in self.thresholds:
            if not math.isfinite(t):
                raise SimulationError(
                    f"splitting thresholds must be finite, got {t!r} in "
                    f"{self.thresholds}"
                )
        for lo, hi in zip(self.thresholds, self.thresholds[1:]):
            if not lo < hi:
                raise SimulationError(
                    f"thresholds must be strictly increasing, got "
                    f"{self.thresholds}"
                )
        if len(self.splits) != len(self.thresholds) - 1:
            raise SimulationError(
                f"need one splitting factor per threshold below the top: "
                f"{len(self.thresholds)} thresholds require "
                f"{len(self.thresholds) - 1} factors, got {len(self.splits)}"
            )
        if any(r < 1 for r in self.splits):
            raise SimulationError(
                f"splitting factors must be >= 1, got {self.splits}"
            )
        if self.max_segments < 1:
            raise SimulationError(
                f"max_segments must be >= 1, got {self.max_segments}"
            )

    def crude(self) -> "SplittingPolicy":
        """The no-splitting policy for the same event (crude MC)."""
        return SplittingPolicy(
            self.level, (self.thresholds[-1],), (), self.max_segments
        )


def child_weights(weight: float, factor: int) -> list[float]:
    """Offspring weights for one split: ``factor`` copies of ``w/factor``.

    Conserves the parent's expected weight (``sum == weight`` up to
    float rounding) — the invariant the unbiasedness of the RESTART
    estimator rests on (region weights satisfy exactly this relation at
    every up-crossing: ``prod(R) * W(b') == W(b)``), property-tested in
    ``tests/test_stopping_properties.py``.
    """
    if factor < 1:
        raise SimulationError(f"splitting factor must be >= 1, got {factor}")
    return [weight / factor] * factor


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RareEventEstimate:
    """Probability estimate from a rare-event study.

    ``samples[k]`` is root ``k``'s contribution (total weight that
    reached the top level in its splitting tree; a 0/1 indicator for
    crude MC), so ``probability`` is their mean and the CI is the
    ordinary Student-t interval over i.i.d. roots.
    """

    probability: float
    half_width: float
    confidence: float
    n_roots: int
    n_hits: int
    n_segments: int
    samples: tuple[float, ...]
    method: str

    @property
    def rel_half_width(self) -> float:
        """Half-width relative to the point estimate (inf at zero)."""
        if self.probability == 0.0:
            return float("inf")
        return self.half_width / abs(self.probability)

    def estimate(self) -> Estimate:
        """The underlying Student-t :class:`~repro.core.experiment.Estimate`."""
        return Estimate.from_samples(self.samples, self.confidence)

    def __str__(self) -> str:
        return (
            f"p = {self.probability:.4g} ± {self.half_width:.2g} "
            f"({int(self.confidence * 100)}% CI, {self.n_roots} roots, "
            f"{self.n_hits} hits, {self.n_segments} segments, {self.method})"
        )


# ----------------------------------------------------------------------
# the RESTART tree
# ----------------------------------------------------------------------
def _make_stop_predicate(level_fn, up: float, down: float | None):
    """Segment stop: level reaches ``up``, or falls below ``down``."""
    if down is None:

        def pred(m, _fn=level_fn, _up=up):
            return _fn(m.raw) >= _up

    else:

        def pred(m, _fn=level_fn, _up=up, _down=down):
            lvl = _fn(m.raw)
            return lvl >= _up or lvl < _down

    return pred


def _run_root_tree(
    simulator,
    level_fn,
    policy: SplittingPolicy,
    horizon: float,
    base_seed: int,
    k: int,
) -> tuple[float, int, int]:
    """One root replication's full splitting tree.

    Returns ``(weight_hitting_top, n_segments, n_hits)``.  The tree is
    walked depth-first with an explicit stack; each segment's RNG
    stream is ``(base_seed, "rare", k, *path)`` where ``path`` encodes
    its position (child index at splits, ``-1`` for a downward
    continuation), so the whole tree is a pure function of ``k``.  The
    stack carries each branch's :class:`~repro.core.rng.SeedTree` node,
    so deriving a segment's stream costs the same at any depth.

    Weights are *region-determined*, the classical RESTART accounting:
    every branch in bracket ``b`` carries ``W(b) = 1 / prod(R_j, j < b)``
    (relative to the root's starting bracket).  An up-crossing into
    bracket ``b'`` splits into ``prod(R_j, b <= j < b')`` branches of
    weight ``W(b')``; a *surviving* down-crossing restores the branch to
    the lower region's larger weight.  The restoration is load-bearing:
    with lineage-multiplied weights the kill rule (retrials die below
    their birth threshold) strictly loses probability mass and the
    estimator is biased low, whereas region weights make the expected
    number of branches in region ``b`` exactly ``1/W(b)`` times the
    crude occupancy (excursions above a threshold are regenerated
    ``R_j``-fold each time the surviving branch re-crosses it), so
    ``E[sum of hit weights] = P(top before horizon)`` exactly.
    """
    thresholds = policy.thresholds
    splits = policy.splits
    top = len(thresholds)

    level0 = level_fn(simulator.model.initial)
    bracket0 = bisect_right(thresholds, level0)
    if bracket0 >= top:
        raise SimulationError(
            f"initial marking already at the top level "
            f"({policy.level.name} = {level0} >= {thresholds[-1]})"
        )
    # Region weights, relative to the root's bracket.
    region_w = [1.0] * top  # brackets 0..top-1; no branch lives at top
    for b in range(bracket0 + 1, top):
        region_w[b] = region_w[b - 1] / splits[b - 1]
    preds = [
        _make_stop_predicate(
            level_fn, thresholds[b], thresholds[b - 1] if b > 0 else None
        )
        for b in range(top)
    ]

    # (marking, t0, bracket, kill_bracket, seed node); marking None
    # means the model's own initial marking.
    stack = [(None, 0.0, bracket0, 0, SeedTree(base_seed).child("rare", k))]
    hit_weight = 0.0
    n_segments = 0
    n_hits = 0
    while stack:
        marking, t0, bracket, kill, node = stack.pop()
        remaining = horizon - t0
        if remaining <= 0.0:
            continue
        n_segments += 1
        if n_segments > policy.max_segments:
            raise SimulationError(
                f"splitting tree for root {k} exceeded max_segments="
                f"{policy.max_segments}; lower the splitting factors or "
                "raise SplittingPolicy.max_segments"
            )
        result = simulator.run(
            remaining,
            rng=node.generator(),
            stop_predicate=preds[bracket],
            initial_marking=marking,
        )
        if not result.stopped_early:
            continue  # horizon reached below the top: contributes 0
        final = result.final_marking
        level = level_fn(final)
        new_bracket = bisect_right(thresholds, level)
        t1 = t0 + result.final_time
        if new_bracket > bracket:
            if new_bracket >= top:
                # A jump straight through the remaining thresholds would
                # split at each and land every offspring in the top
                # region, so the contribution is the full region weight
                # of the crossing segment.
                hit_weight += region_w[bracket]
                n_hits += 1
                continue
            radices = splits[bracket:new_bracket]
            factor = 1
            for r in radices:
                factor *= r
            # Child i's kill bracket comes from the sequential-split
            # picture of a multi-threshold jump: decompose i in mixed
            # radix (most significant digit = the lowest threshold
            # crossed); a retrial spawned at threshold j dies below
            # bracket j+1, and the highest nonzero digit names the
            # spawning threshold.  Child 0 is the continuing original
            # and inherits the ancestor kill bracket.  Reversed push so
            # child 0 pops first; the order is fixed purely for
            # reproducible accounting.
            for i in reversed(range(factor)):
                kill_i = kill
                rem = i
                for idx in range(len(radices) - 1, -1, -1):
                    digit = rem % radices[idx]
                    rem //= radices[idx]
                    if digit != 0:
                        kill_i = bracket + idx + 1
                        break
                stack.append((final, t1, new_bracket, kill_i, node.child(i)))
        else:
            # Downward crossing.  Retrials die below their birth
            # threshold; survivors continue at the lower bracket's
            # restored weight and re-split on any later upward crossing
            # (classical RESTART resplitting — this regeneration is
            # what keeps the killed retrials from biasing the
            # estimator).
            if new_bracket < kill:
                continue
            stack.append((final, t1, new_bracket, kill, node.child(-1)))
    return hit_weight, n_segments, n_hits


def _root_chunk(setup, ks, horizon, policy, base_seed) -> list:
    """Root trees ``ks``, in whichever process hosts the chunk."""
    simulator = setup.simulator
    level_fn = policy.level.resolve(simulator.model)
    return [
        _run_root_tree(simulator, level_fn, policy, horizon, base_seed, k)
        for k in ks
    ]


# ----------------------------------------------------------------------
# public estimators
# ----------------------------------------------------------------------
def splitting_probability(
    source,
    horizon: float,
    policy: SplittingPolicy,
    *,
    n_roots: int = 256,
    stopping: StoppingRule | None = None,
    confidence: float = 0.95,
    base_seed: int | None = None,
    n_jobs: int | None = 1,
    retry: RetryPolicy | None = None,
    chaos: ChaosPolicy | None = None,
) -> RareEventEstimate:
    """Estimate ``P(level reaches the top threshold within horizon)``.

    Parameters
    ----------
    source:
        A :class:`~repro.core.simulation.Simulator`, or a
        :class:`~repro.core.parallel.ReplicationSpec` (required for
        ``n_jobs > 1``; it is built once here through the per-process
        setup cache, forked workers read that build, and workers
        without ``fork`` rebuild it from the spec).
    horizon:
        Mission time in hours (finite and positive).
    policy:
        Level function, thresholds and splitting factors.  Pass
        ``policy.crude()`` for plain Monte Carlo with early stopping.
    n_roots:
        Root replications (the cap, when ``stopping`` is given).
    confidence:
        CI level, strictly between 0 and 1.
    stopping:
        Optional :class:`~repro.core.stopping.StoppingRule` over the
        per-root contributions: roots run in deterministic rounds until
        the estimate's relative CI half-width reaches the rule's
        target.  Root ``k`` always derives its tree from streams
        ``(base_seed, "rare", k, ...)``, so the stopping point is
        identical for serial, any ``n_jobs``, and resumed runs.
    base_seed:
        Root entropy (default: the simulator's own ``base_seed``).
    n_jobs:
        Worker processes over root trees (-1 = all cores); results are
        bit-identical for every value.
    """
    horizon = _check_number(horizon, "horizon", integer=False)
    if not 0.0 < horizon < math.inf:  # also rejects NaN
        raise SimulationError(
            f"horizon must be finite and positive, got {horizon}"
        )
    n_roots = _check_number(n_roots, "n_roots", low=1)
    confidence = _check_confidence(confidence)
    jobs = resolve_n_jobs(n_jobs)

    spec: ReplicationSpec | None = None
    if isinstance(source, ReplicationSpec):
        spec = source
        setup, _metrics = build_setup_cached(spec)
        simulator = setup.simulator
    else:
        simulator = source
    if base_seed is None:
        base_seed = simulator.base_seed
    try:
        SeedTree(base_seed)
    except (TypeError, ValueError):
        raise SimulationError(
            f"base_seed must be a non-negative integer, got {base_seed!r}"
        ) from None
    if jobs > 1 and spec is None:
        raise SimulationError(
            "parallel splitting requires a ReplicationSpec source (worker "
            "processes rebuild the model from the picklable recipe); pass "
            "the spec, or n_jobs=1"
        )
    level_fn = policy.level.resolve(simulator.model)

    samples: list[float] = []
    n_segments = 0
    n_hits = 0

    def run_roots(k0: int, count: int) -> None:
        nonlocal n_segments, n_hits
        if jobs > 1 and count > 1:
            trees = _run_chunked(
                _root_chunk,
                (horizon, policy, base_seed),
                k0,
                count,
                tag="rare",
                label="splitting chunk",
                n_jobs=jobs,
                setup=setup,
                spec=spec,
                retry=retry,
                chaos=chaos,
            )
        else:
            trees = (
                _run_root_tree(simulator, level_fn, policy, horizon, base_seed, k)
                for k in range(k0, k0 + count)
            )
        for weight, segs, hits in trees:
            samples.append(weight)
            n_segments += segs
            n_hits += hits

    _run_rounds(run_roots, n_roots, stopping, lambda: {"probability": samples})

    est = Estimate.from_samples(samples, confidence)
    return RareEventEstimate(
        probability=est.mean,
        half_width=est.half_width,
        confidence=confidence,
        n_roots=len(samples),
        n_hits=n_hits,
        n_segments=n_segments,
        samples=tuple(samples),
        method=(
            "crude" if len(policy.thresholds) == 1 else
            f"splitting[{len(policy.thresholds)} levels]"
        ),
    )


def brute_force_probability(
    simulator,
    horizon: float,
    level: LevelFunction,
    threshold: float,
    *,
    n_replications: int,
    stopping: StoppingRule | None = None,
    confidence: float = 0.95,
    n_jobs: int | None = 1,
) -> RareEventEstimate:
    """Fixed-budget brute-force estimate through ``replicate_runs``.

    Each replication runs the model to the horizon and scores the
    indicator ``level(final marking) >= threshold`` — valid when the
    event is *sticky* (an absorbing loss place keeps the level up, as
    in :func:`aggregate_tier_san`).  This is literally
    :func:`~repro.core.experiment.replicate_runs` with one extra
    metric: with ``stopping=None`` the replication streams, counts and
    samples are byte-identical to a plain ``replicate_runs`` call — the
    differential tests pin that equivalence — so "splitting disabled"
    costs nothing over the estimator the repo always had.
    """
    level_fn = level.resolve(simulator.model)
    metric = {
        "rare_event": lambda res, _fn=level_fn, _thr=float(threshold): (
            1.0 if _fn(res._final_values) >= _thr else 0.0
        )
    }
    experiment = replicate_runs(
        simulator,
        horizon,
        n_replications=n_replications,
        extra_metrics=metric,
        confidence=confidence,
        n_jobs=n_jobs,
        stopping=stopping,
    )
    samples = experiment.samples("rare_event")
    est = Estimate.from_samples(samples, confidence)
    return RareEventEstimate(
        probability=est.mean,
        half_width=est.half_width,
        confidence=confidence,
        n_roots=len(samples),
        n_hits=int(sum(samples)),
        n_segments=len(samples),
        samples=tuple(samples),
        method="brute-force",
    )


# ----------------------------------------------------------------------
# the aggregate RAID-tier twin (the acceptance suite's workhorse)
# ----------------------------------------------------------------------
def _tier_args(n_disks, fault_tolerance, disk_failure_rate, disk_repair_rate):
    """The aggregate tier's ``(n, f, lambda, mu)``, checked before any
    arithmetic: integers with ``1 <= f < n`` and finite positive rates."""
    n = _check_number(n_disks, "n_disks")
    f = _check_number(fault_tolerance, "fault_tolerance")
    if not 1 <= f < n:
        raise SimulationError(
            f"fault tolerance must be in [1, n_disks), got {f} of {n}"
        )
    rates = []
    for name, rate in (
        ("disk_failure_rate", disk_failure_rate),
        ("disk_repair_rate", disk_repair_rate),
    ):
        if not 0.0 < _check_number(rate, name, integer=False) < math.inf:
            raise SimulationError(f"{name} must be finite and positive, got {rate!r}")
        rates.append(float(rate))
    return n, f, rates[0], rates[1]


def aggregate_tier_san(
    n_disks: int,
    fault_tolerance: int,
    disk_failure_rate: float,
    disk_repair_rate: float,
):
    """Aggregate birth-death SAN twin of ``RAIDTierMarkov.absorbing_chain``.

    Places ``tier/failed`` (concurrently failed disks) and ``tier/lost``
    (sticky data-loss flag); exponential failure at marking-dependent
    rate ``(n - failed) * lambda`` and repair at ``failed * mu``, both
    ``reactivate=True``, so the SAN is a CTMC identical state-for-state
    to :meth:`~repro.markov.raid_markov.RAIDTierMarkov.absorbing_chain`
    — the closed-form transient is the *exact* distribution of the
    simulated loss time, which is what lets the statistical acceptance
    suite test the rare-event estimators against truth.

    Each activity's laws are built once, one per count of failed disks
    at which it is enabled, and its distribution callable returns the
    prebuilt law, so no draw constructs one.  Under
    ``Simulator(batch_dynamic=True)`` a run's sampler cache then serves
    every later draw of a law, from one block instead of one per draw.
    """
    from ..core import SAN, Exponential, flatten

    n, f, lam, mu = _tier_args(
        n_disks, fault_tolerance, disk_failure_rate, disk_repair_rate
    )
    fail_laws = {k: Exponential((n - k) * lam) for k in range(f + 1)}
    repair_laws = {k: Exponential(k * mu) for k in range(1, f + 1)}
    san = SAN("tier")
    san.place("failed", 0)
    san.place("lost", 0)
    san.timed(
        "fail",
        lambda m: fail_laws[m["failed"]],
        enabled=lambda m: m["failed"] <= f and m["lost"] == 0,
        writes=[("failed", "add", 1)],
        reads=["failed", "lost"],
        reactivate=True,
    )
    san.timed(
        "repair",
        lambda m: repair_laws[m["failed"]],
        enabled=lambda m: 1 <= m["failed"] <= f and m["lost"] == 0,
        writes=[("failed", "add", -1)],
        reads=["failed", "lost"],
        reactivate=True,
    )
    san.instant(
        "lose",
        enabled=lambda m: m["failed"] == f + 1 and m["lost"] == 0,
        writes=[("lost", "set", 1)],
        reads=["failed", "lost"],
    )
    return flatten(san)


def tier_setup_factory(
    n_disks: int,
    fault_tolerance: int,
    disk_failure_rate: float,
    disk_repair_rate: float,
    base_seed: int,
) -> ReplicationSetup:
    """Module-level setup factory, so a spec can rebuild tier studies in
    workers started without ``fork``."""
    from ..core import RateReward, Simulator

    model = aggregate_tier_san(
        n_disks, fault_tolerance, disk_failure_rate, disk_repair_rate
    )
    simulator = Simulator(model, base_seed=base_seed)
    rewards = [
        RateReward(
            "lost", lambda m: float(m["tier/lost"]), reads=["tier/lost"]
        )
    ]
    return ReplicationSetup(simulator, rewards)


def tier_replication_spec(
    n_disks: int,
    fault_tolerance: int,
    disk_failure_rate: float,
    disk_repair_rate: float,
    base_seed: int,
) -> ReplicationSpec:
    """Picklable recipe for :func:`tier_setup_factory` workers."""
    return ReplicationSpec(
        tier_setup_factory,
        (
            int(n_disks),
            int(fault_tolerance),
            float(disk_failure_rate),
            float(disk_repair_rate),
            int(base_seed),
        ),
    )


def tier_level() -> LevelFunction:
    """Degradation level of the aggregate tier: failed disks + loss flag.

    The sticky ``lost`` place is weighted so the level stays at the top
    once the tier is lost even though repairs are frozen — the event is
    absorbing for both estimators.
    """
    return LevelFunction("tier-degradation", {"tier/failed": 1.0})


def suggested_splits(
    n_disks: int,
    fault_tolerance: int,
    disk_failure_rate: float,
    disk_repair_rate: float,
    cap: int = 32,
) -> tuple[int, ...]:
    """Near-optimal splitting factors for the aggregate tier.

    RESTART effort is balanced when each factor approximates the
    inverse of its stage's conditional up-probability; for the tier's
    birth-death dynamics the probability of a (j+1)-th failure before a
    repair from ``j`` failed disks is
    ``(n-j)·lambda / ((n-j)·lambda + j·mu)``.  Factors are rounded and
    clipped to ``[1, cap]`` to bound the branching.
    """
    cap = _check_number(cap, "cap", low=1)
    odds = _stage_odds(n_disks, fault_tolerance, disk_failure_rate, disk_repair_rate)
    return tuple(max(1, min(cap, round(x))) for x in odds)


def _stage_odds(
    n_disks: int,
    fault_tolerance: int,
    disk_failure_rate: float,
    disk_repair_rate: float,
) -> tuple[float, ...]:
    """Unrounded splitting factors: ``1 / p_up`` for each stage ``j`` in
    ``1..f``, where ``p_up`` is the probability of a (j+1)-th failure
    before a repair (see :func:`suggested_splits`).  A stage spanning
    several failures splits by the product of their odds.  Rates whose
    stage rates or odds overflow raise a :class:`SimulationError`
    naming both."""
    n, f, lam, mu = _tier_args(
        n_disks, fault_tolerance, disk_failure_rate, disk_repair_rate
    )
    odds = []
    for j in range(1, f + 1):
        up = (n - j) * lam
        p_up = up / (up + j * mu)  # NaN or 0 when a stage rate overflows
        if not 0.0 < p_up or 1.0 / p_up == math.inf:
            raise SimulationError(
                f"disk_failure_rate {lam!r} and disk_repair_rate {mu!r} "
                f"give no finite splitting odds at {j} of {n} disks failed"
            )
        odds.append(1.0 / p_up)
    return tuple(odds)


def tier_splitting_policy(
    n_disks: int,
    fault_tolerance: int,
    disk_failure_rate: float,
    disk_repair_rate: float,
    *,
    splits: Sequence[int] | None = None,
    max_segments: int = 1_000_000,
) -> SplittingPolicy:
    """Splitting policy for the aggregate tier: one level per failed disk.

    Thresholds sit at 1..f+1 concurrently failed disks (the top is data
    loss); ``splits`` defaults to :func:`suggested_splits`.
    """
    f = _tier_args(
        n_disks, fault_tolerance, disk_failure_rate, disk_repair_rate
    )[1]
    if splits is None:
        splits = suggested_splits(
            n_disks, f, disk_failure_rate, disk_repair_rate
        )
    return SplittingPolicy(
        tier_level(),
        tuple(float(j) for j in range(1, f + 2)),
        tuple(splits),
        max_segments,
    )
