"""Discrete-event simulator for flattened stochastic activity networks.

The engine executes the standard SAN semantics:

* a timed activity is *activated* when its input-gate predicates become
  true: its delay is sampled and a completion event is scheduled;
* if the activity becomes disabled before completing, the event is
  cancelled (lazy cancellation via activation tokens);
* on completion the input-gate functions run, a case is selected, and the
  output-gate functions run;
* instantaneous activities fire, highest priority first, until none is
  enabled, before simulated time advances again.

Enabling checks are *incremental*: the simulator learns which marking slots
each predicate reads (the views track reads) and re-evaluates an activity
only when one of those slots changes.  This makes large replicated models
(the 4800-disk petascale fleet) cheap to simulate: an event touches a few
places and therefore re-evaluates a few activities, independent of model
size.  Activities may also *declare* their dependency set up front
(``SAN.timed(..., reads=[...])``, the activity analogue of
``RateReward(..., reads=[...])``): declared activities are wired into the
slot → activity dependency map at compile time, their predicates and
marking-dependent distribution callables run with read tracking skipped,
and the initial evaluation is verified against the declaration.

Hot-path design (see ``docs/performance.md`` for measurements):

* the model is *compiled* once per simulator: enabling predicates, gate
  functions, case tables and delay samplers are pre-resolved into flat
  per-activity arrays, and the slot → activity dependency map is a flat
  list-of-lists indexed by slot.  The part of that work that depends
  only on the SAN template is done once per activity definition and
  shared by its replicated instances (``_ActivityPlan``);
* per-event bookkeeping uses epoch-stamped integer scratch buffers and a
  reusable dirty list instead of freshly allocated sets; dirty activities
  settle in ascending activity-id order (the canonical deterministic
  order, which reproduces the pre-compiled engine's trajectories
  bit-for-bit — pinned by ``tests/test_engine_golden.py``);
* the initially enabled activity set is pre-computed at compile time
  (the initial marking never varies across runs), and each event's newest
  activation is merged into the pending-event heap with a single
  ``heappushpop`` sift;
* delay draws are served from vectorized per-distribution blocks
  (see :class:`~repro.core.distributions.BatchedSampler`) by default;
  any law advertising ``batchable`` (a single vectorized
  ``sample_many``, stream-equivalent to per-draw sampling) is eligible,
  including :class:`~repro.core.distributions.EquilibriumResidual`,
  whose block is one ``np.interp`` over its cached quantile grid.  Pass
  ``sample_batch=None`` for per-draw sampling, which consumes the RNG
  stream exactly like the pre-optimization engine;
  ``batch_dynamic=True`` extends block serving to the distributions
  returned by marking-dependent distribution callables (off by default
  because it changes the default-mode stream consumption);
* activities whose complete firing effect is *declared*
  (``OutputGate(writes=[...])`` / ``SAN.timed(..., writes=[...])`` —
  no input-gate functions, no cases, every output gate declared) are
  compiled into **gate-write kernels**: the inlined
  loops apply the precomputed slot deltas (and mark the dependent
  activities/observers of each written slot directly) instead of
  calling the Python gate functions through ``LocalView``.  The
  declared ops are the effect's only definition (its gate function is
  built from them), so kernels are bit-identical to the function path
  in both sampling modes (pinned by the goldens and the
  ``engine="reference"`` differential, which never uses kernels);
* *case-bearing* activities whose every case declares its writes
  (``Case(..., writes=[...])``, constant probabilities, no other
  Python gate functions) are compiled into **case kernels**: the loops
  select a branch with the same single uniform the function path
  consumes — identical left-to-right partial-sum thresholds — and
  apply that branch's precomputed slot deltas.  Conditional effects of
  the one declared shape (``OutputGate(..., writes=[...],
  when=(place, cmp, value))``) compile into two-branch **guard
  kernels** selected by the marking instead of a uniform, so the
  cluster models' propagation coins (disk/member ``fail``,
  ``absorb_kill``) and the conditional tier ``restore`` run with zero
  Python-effect activities (see ``fastpath_report``).  Kernels are live
  from compile: every completion of a kernel activity applies its ops.

The compile artifacts live in a :class:`CompiledProgram` — immutable
model structure (tables, dependency maps, kernels, sampler plans) plus
the per-run mutable state (marking vector, discovered-dependency
journal), reset in O(marking) at the start of every run.  The program
also keeps the *run plan* (``_RunPlan``):
what a run derives from the program, the engine and the reward objects
(the rate/impulse split, the kernel tables the loops fire through,
reward views, observer lists, form kernels), built by the first run
and reused while later runs pass the same engine and reward objects,
so a short run (a RESTART segment) pays only for its per-run state.
A program can be built once and shared by many
simulators (``Simulator(program)`` or ``Simulator(model,
program=...)``), which is what lets replicate-many and sweep workloads
compile once per process and reuse the program across replications and
cells — bit-identical to fresh construction, because a run's trajectory
is a pure function of (model, stream).

Reward variables (:mod:`repro.core.rewards`) and traces
(:mod:`repro.core.trace`) are observed with the same dependency machinery,
inside the one *compiled event loop* that every ``engine="auto"`` run
takes, with or without observers:

* rate rewards and binary traces are wired into flat per-slot observer
  lists (the same list-of-lists shape as the activity dependency map;
  pre-populated at wiring time for rewards with declared ``reads``, grown
  by tracked discovery otherwise);
* an event marks the observers of its written slots in epoch-stamped
  "touched" buffers and re-evaluates only those — integration, impulse
  accumulation, window clipping and instant-of-time probes are all inline
  checks in the loop;
* instantaneous activities, stop predicates and run budgets are also
  inline checks (an enabled-instant set / one predicate call per event),
  so the paper's cluster models — instants, rate and impulse rewards
  attached — stay on the compiled path.  A check a run does not use
  costs one flag test per event (``docs/performance.md`` Layer 12).

A run is one ``_Run`` object: :meth:`Simulator.run` checks its
arguments, finds the run plan, builds the run's state, resolves the
stream, initializes t=0, dispatches to an event loop and assembles the
result.  The state holds only what is per run (event state, scalars,
and observer state only when the plan has rewards or the call passes
traces); the tables it never replaces it reads from the plan, whose
compiled-loop tables unpack in one step.  The state's methods are the
one copy of each piece of event semantics.  ``Simulator(...,
engine="reference")`` runs the general event loop, a short loop over
those methods, for every model.  It is
the differential-testing oracle: ``tests/test_properties_rewards.py``
asserts the compiled loop, which inlines the per-event body and calls
the methods on its rare branches only, reproduces it bit-for-bit on
random reward-bearing models, and ``tests/data/reward_golden.json``
pins it against fixtures recorded before the specialization existed.
``engine="sanitize"`` runs the reference loop with the declaration
checks of :mod:`repro.core.sanitizer` swapped into the run's tables:
predicates, distribution callables and rate rewards evaluate through
checking wrappers, every effect fires through its Python function as on
the reference engine, and the faults the other engines raise mid-run (a
case sum other than 1, a non-finite reward) are reported instead.  The
checks only observe, so a sanitized run follows the reference
trajectory bit for bit.
"""

from __future__ import annotations

import copy
import heapq
import math
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .composition import FlatModel, _gc_paused
from .distributions import (
    BatchedSampler,
    Deterministic,
    Distribution,
    Exponential,
)
from .errors import (
    InstantaneousLoopError,
    SimulationBudgetError,
    SimulationError,
)
from .gates import GUARD_OPS, _noop
from .places import FrozenView, LocalView
from .rewards import ImpulseReward, RateReward, RewardResult
from .rng import SeedTree, make_generator
from .san import TIMED, ActivityDef
from .trace import BinaryTrace, EventTrace

__all__ = ["CompiledProgram", "Simulator", "RunResult"]

#: Default block size for batched delay draws.
DEFAULT_SAMPLE_BATCH = 256

#: Sentinel distinguishing "argument not passed" from an explicit value
#: when a Simulator adopts an existing CompiledProgram.
_UNSET = object()

#: The integer types run arguments accept (numpy integers included).
_INTEGERS = (int, np.integer)
#: The exact type of a start-marking entry that needs no conversion.
_INT = frozenset((int,))
_GENERATOR = np.random.Generator

@dataclass
class RunResult:
    """Outcome of one simulation run.

    Index with the reward name: ``result["cfs_availability"].time_average``.
    """

    final_time: float
    duration: float
    n_events: int
    rewards: dict[str, RewardResult]
    traces: dict[str, BinaryTrace | EventTrace]
    stopped_early: bool
    sanitizer_report: "SanitizerReport | None" = None
    _final_values: list[int] = field(default_factory=list, repr=False)
    _paths: dict[str, int] = field(default_factory=dict, repr=False)

    def __getitem__(self, name: str) -> RewardResult:
        try:
            return self.rewards[name]
        except KeyError:
            raise KeyError(
                f"unknown reward {name!r}; available: {sorted(self.rewards)}"
            ) from None

    def place(self, path: str) -> int:
        """Final marking of a place (by path or alias)."""
        try:
            return self._final_values[self._paths[path]]
        except KeyError:
            raise KeyError(f"unknown place path {path!r}") from None

    @property
    def final_marking(self) -> list[int]:
        """Copy of the final marking vector, in slot order.

        For a run that ``stopped_early`` this is the marking at the stop
        instant; feed it back through ``Simulator.run(...,
        initial_marking=...)`` to continue the trajectory from that
        state (exact for memoryless models — the basis of the restart
        segments in :mod:`repro.experiments.rare`).
        """
        return list(self._final_values)

    def trace(self, name: str) -> BinaryTrace | EventTrace:
        """Recorded trace by name."""
        try:
            return self.traces[name]
        except KeyError:
            raise KeyError(
                f"unknown trace {name!r}; available: {sorted(self.traces)}"
            ) from None


# ----------------------------------------------------------------------
# run wiring and result assembly, shared by every engine
# ----------------------------------------------------------------------
def _check_seed(seed, name: str) -> int:
    """``seed`` as an int; a seed :class:`SeedTree` rejects (a float, a
    negative integer, a string) raises a :class:`SimulationError` naming
    it."""
    try:
        SeedTree(seed)
    except (TypeError, ValueError):
        raise SimulationError(
            f"{name} must be a non-negative integer, got {seed!r}"
        ) from None
    return int(seed)


def _check_number(value, name: str, integer=True, low=None, optional=False):
    """``value`` as an argument called ``name``: an integer (numpy
    integers included) or, with ``integer=False``, any real number; at
    least ``low`` when given; ``None`` only when ``optional``.  Anything
    else (a float where an integer belongs, a string, NaN) raises a
    :class:`SimulationError` naming the argument and the value."""
    if value is None and optional:
        return None
    kinds = _INTEGERS if integer else (int, float, np.integer, np.floating)
    if isinstance(value, kinds) and (low is None or value >= low):
        return int(value) if integer else value
    what = "an integer" if integer else "a number"
    if low is not None:
        what += f" >= {low}"
    if optional:
        what += " or None"
    raise SimulationError(f"{name} must be {what}, got {value!r}")


def _form_slot(model: FlatModel, rname: str, place: str) -> int:
    """The slot a reward form's ``place`` path names.  A form names each
    place by its path, as the reward's synthesized function reads it."""
    slot = model.paths.get(place)
    if slot is None:
        raise SimulationError(
            f"rate reward {rname!r}: form place {place!r} resolved "
            f"to {len(model.match(place))} places; expected exactly one path"
        )
    return slot


class _RunPlan:
    """What a run derives from the compiled program, the engine and the
    reward objects, built once and reused.

    The program keeps one plan (``CompiledProgram._plan``), reused by
    every run with the same engine and the same reward objects (by
    identity, in order) and rebuilt by any other.  It holds the rewards
    (so their identities cannot be recycled), checked before the run
    uses up a stream; the kernel tables the engine fires through; the
    reward views, observer lists and form kernels; and the completion
    observers, whose impulse entries each run binds to its fresh
    results.  A run resets what it mutates: tracked discoveries roll
    back to the declared baseline, form guard state is re-initialized at
    t=0, and results, traces, bounds and loop state are built per run.

    A run reads every table it never replaces from the plan (the
    compiled loop's in one tuple, ``loop_tables``).
    """

    def __init__(self, program: CompiledProgram, engine: str, rewards: tuple):
        self.engine = engine
        self.rewards = rewards
        self.model = model = program.model
        n_acts = program._n_acts
        rate_rewards: list[RateReward] = []
        impulse_rewards: list[ImpulseReward] = []
        for r in rewards:
            if isinstance(r, RateReward):
                rate_rewards.append(r)
            elif isinstance(r, ImpulseReward):
                impulse_rewards.append(r)
            else:
                raise SimulationError(f"unsupported reward object: {r!r}")
        names: set[str] = set()
        for r in rate_rewards + impulse_rewards:
            if r.name in names:
                raise SimulationError(f"duplicate reward name {r.name!r}")
            names.add(r.name)
        self.rate_rewards = rate_rewards
        self.impulse_rewards = impulse_rewards

        # One [result, static, fn, lo, hi] entry per impulse reward,
        # shared by every activity it observes; each run binds slot 0 to
        # its fresh RewardResult.
        self.impulse_entries = []
        self.act_watch: list[tuple | None] = [None] * n_acts
        for r in impulse_rewards:
            ids = program._matching_ids(r.activity_pattern)
            if not ids:
                raise SimulationError(
                    f"impulse reward {r.name!r} matches no activity "
                    f"(pattern {r.activity_pattern!r})"
                )
            ilo, ihi = r.window if r.window is not None else (0.0, math.inf)
            entry = (
                [None, None, r.value, ilo, ihi]
                if callable(r.value)
                else [None, float(r.value), None, ilo, ihi]
            )
            self.impulse_entries.append(entry)
            for aid in ids:
                imp, _ = self.act_watch[aid] or ([], None)
                imp.append(entry)
                self.act_watch[aid] = (imp, None)

        self.c = c = program.tables()
        # Only the compiled loop fires kernels; the reference and
        # sanitized runs fire every effect through its Python functions.
        auto = engine == "auto"
        if auto:
            self.kernels = c.kernels
            self.case_kern = c.case_kern
        else:
            self.kernels = [None] * n_acts
            self.case_kern = [None] * n_acts
        # Per-activity "has a case/guard kernel" flags: compile makes
        # plain kernels and case kernels mutually exclusive, so the hot
        # dispatch needs one boolean load, not a second table probe.
        self.has_case = [ck is not None for ck in self.case_kern]

        # Rate rewards: slot -> observer indices, list-of-lists like the
        # dependency map (``None``: unobserved).  Declared reads are wired
        # here; the rest grow by tracked discovery, journaled for
        # reset_observers.  Each reward evaluates through its own view
        # filtered by its known-slot set.
        n_places = model.n_places
        n_rates = len(rate_rewards)
        paths_index = model.paths
        self.rate_fns = [r.function for r in rate_rewards]
        self.rate_declared = [r.reads is not None for r in rate_rewards]
        self.rate_known = [set() for _ in range(n_rates)]
        self.rate_views = [
            LocalView(c.vector, paths_index, known) for known in self.rate_known
        ]
        # The compiled loop inlines the integration body when every
        # reward integrates over [warmup, until]: one clipped span shared
        # by every reward, the same arithmetic as the per-reward clip.
        self.inline_rates = bool(rate_rewards) and all(
            r.window is None for r in rate_rewards
        )
        # Compiled reward-form kernels (declared Indicator/Affine forms).
        # A form-compiled reward is *not* wired into the rate_obs observer
        # lists: every event that writes one of its places refreshes its
        # value inline through ``form_upd`` (exact integer guard
        # bookkeeping + the canonical affine arithmetic) instead of
        # re-calling the Python expression after settlement.  The
        # reference engine never compiles forms — it keeps the tracked
        # observer path, which is the differential oracle for this layer,
        # and so does a sanitized run.
        self.form_compiled = form_compiled = [
            r.form is not None and auto for r in rate_rewards
        ]
        # form_upd[slot]: None, or a list of (reward_i, guard_entries,
        # base, terms) to apply when the slot's value changes.
        # guard_entries is a tuple of (guard_j, cmp_fn, bound, slot_a,
        # slot_b) covering the form guards that read this slot (slot_b
        # == -1 for single-place guards); terms is the full
        # (slot, coef, divisor) tuple of the reward's affine part.
        # form_gstate[i]: reward i's guard flags, re-initialized at t=0.
        self.form_upd = form_upd = [None] * n_places
        self.form_gstate: list[list[bool] | None] = [None] * n_rates
        self.form_guards: list[tuple | None] = [None] * n_rates
        self.form_base: list[float] = [0.0] * n_rates
        self.form_terms: list[tuple | None] = [None] * n_rates
        for i, r in enumerate(rate_rewards):
            if not form_compiled[i]:
                continue
            f = r.form
            terms = tuple(
                (_form_slot(model, r.name, p), coef, div) for p, coef, div in f.terms
            )
            guards = []
            for place, cmp, gval in f.guards:
                if isinstance(place, tuple):
                    sa = _form_slot(model, r.name, place[0])
                    sb = _form_slot(model, r.name, place[1])
                else:
                    sa = _form_slot(model, r.name, place)
                    sb = -1
                guards.append((GUARD_OPS[cmp], gval, sa, sb))
            self.form_guards[i] = tuple(guards)
            self.form_base[i] = f.base
            self.form_terms[i] = terms
            self.form_gstate[i] = [False] * len(guards)
            relevant: dict[int, None] = {}
            for _cmp_fn, _gv, sa, sb in guards:
                relevant.setdefault(sa)
                if sb >= 0:
                    relevant.setdefault(sb)
            for s, _coef, _div in terms:
                relevant.setdefault(s)
            for s in relevant:
                gl = tuple(
                    (gj, cmp_fn, gv, sa, sb)
                    for gj, (cmp_fn, gv, sa, sb) in enumerate(guards)
                    if sa == s or sb == s
                )
                entry = (i, gl, f.base, terms)
                lst = form_upd[s]
                if lst is None:
                    form_upd[s] = [entry]
                else:
                    lst.append(entry)
        self.reward_kernels = sorted(
            r.name for i, r in enumerate(rate_rewards) if form_compiled[i]
        )
        self.python_refresh = sorted(
            r.name for i, r in enumerate(rate_rewards) if not form_compiled[i]
        )

        self.rate_obs = rate_obs = [None] * n_places
        for i, r in enumerate(rate_rewards):
            if r.reads is None:
                continue
            known = self.rate_known[i]
            wire_obs = not form_compiled[i]
            for entry in r.reads:
                slot = paths_index.get(entry)
                slots = [slot] if slot is not None else list(model.match(entry).values())
                if not slots:
                    raise SimulationError(
                        f"rate reward {r.name!r}: declared read {entry!r} "
                        "matches no place"
                    )
                for s in slots:
                    if s not in known:
                        known.add(s)
                        if not wire_obs:
                            continue
                        lst = rate_obs[s]
                        if lst is None:
                            rate_obs[s] = [i]
                        else:
                            lst.append(i)
        # Binary traces come fresh with each run and discover every read.
        self.btrace_obs: list[list[int] | None] = [None] * n_places
        self.tracked_baseline = any(lst is not None for lst in rate_obs)
        # (known, observer lists, slot, index) per tracked discovery.
        self.obs_journal: list[tuple] = []
        # Fused per-slot observer index for the kernel hot paths: one
        # lookup + None check per written slot instead of three, since
        # almost every written slot observes nothing.  Entries alias the
        # live observer lists; a discovery that *replaces* a ``None``
        # entry with a fresh list re-fuses the slot.
        self.slot_obs: list[tuple | None] = [None] * n_places
        for s in range(n_places):
            self.refresh_slot(s)

        # What a run reads and never replaces: the program's tables, not
        # the program, which keeps the plan (no reference cycle).
        self.vector = vector = c.vector
        self.values, self.changed = vector.values, vector.changed
        self.reads = vector.reads
        self.n_acts, self.act_ids, self.pviews = n_acts, range(n_acts), c.pviews
        self.act_deps, self.dep_lists = program._act_deps, program._dep_lists
        self.dep_journal, self.batched_resets = program._dep_journal, c.batched
        self.pred_memo, self.priorities = program._pred_memo, program._priorities
        self.u_batch = program.sample_batch
        self.batch_dynamic = program.sample_batch is not None and program.batch_dynamic
        # A sanitized run reports the undeclared reads others reject and
        # always builds observer state.
        self.sanitize = engine == "sanitize"
        self.init_undeclared = [] if self.sanitize else c.init_undeclared
        self.observed = bool(rewards) or self.sanitize
        # The tables a sanitized run replaces, and its checker (checking()).
        self.checker = None
        self.preds, self.dyn_dists, self.declared = c.preds, c.dyn_dists, c.declared
        self.dyn_verified = program._dyn_verified
        # The exact law types whose instances _Run.dyn_sample accepted.
        self.law_types: set[type] = set()
        # The tables settle() reads, in its order.
        self.settle_tables = (
            self.declared, self.preds, self.values, self.reads, c.memo_slot,
            c.pviews, c.views, c.is_timed, c.reactivate, c.samplers,
            self.pred_memo, self.priorities, heapq.heappush,
        )
        # The compiled loop's tables in its prologue's order, ending with
        # the observer locals of a run without observers.
        self.loop_tables = (
            model, vector, self.values, self.changed, self.reads, c.views, c.pviews,
            c.gview, c.plain1, c.samplers, c.batched_of, c.is_timed, c.memo_slot,
            c.reactivate, self.pred_memo, self.dep_lists, c.preds, c.declared,
            self.kernels, self.has_case, self.slot_obs, self.form_gstate,
            self.inline_rates, range(n_rates), bool(rate_rewards), self.reads.clear, self.changed.pop, heapq.heappush, heapq.heappop,
            heapq.heappushpop, self.act_watch, False, False, (), (), (), (), (), (), (),
            0, 0, 0,
        ) if auto else None

    def checking(self, checker) -> _RunPlan:
        """A copy of this plan for one sanitized run, with ``checker``'s
        wrappers in place of the predicates, distribution callables and
        rate rewards, and the declaration flags of the run's own; every
        other table is this plan's live object.  Every activity
        evaluates on the tracked path (a wrapper reports and drops a
        declared activity's undeclared reads) and every reward evaluates
        through its checking wrapper."""
        plan = copy.copy(self)
        plan.checker = checker
        c, n_acts = self.c, self.n_acts
        plan.preds = [checker.predicate(aid, fn) for aid, fn in enumerate(c.preds)]
        plan.dyn_dists = [
            fn if fn is None else checker.distribution(aid, fn)
            for aid, fn in enumerate(c.dyn_dists)
        ]
        plan.declared = [False] * n_acts
        plan.dyn_verified = [False] * n_acts
        for aid, slots in c.init_undeclared:
            checker.undeclared_reads(c.paths[aid], "enabling predicate", slots)
        plan.rate_fns = [checker.reward(r) for r in self.rate_rewards]
        plan.rate_declared = [False] * len(self.rate_rewards)
        plan.settle_tables = (plan.declared, plan.preds) + self.settle_tables[2:]
        return plan

    def refresh_slot(self, slot: int) -> None:
        """Re-fuse ``slot``'s entry of ``slot_obs``."""
        f, rl, tl = self.form_upd[slot], self.rate_obs[slot], self.btrace_obs[slot]
        self.slot_obs[slot] = (
            None if f is None and rl is None and tl is None else (f, rl, tl)
        )

    def observe_reads(self, known: set, table: list, i: int, reads) -> None:
        """Wire observer ``i`` into ``table`` (``rate_obs`` or
        ``btrace_obs``) for each slot of ``reads`` its tracked evaluation
        newly read, adding it to ``known`` (the slots its view filters);
        journaled for :meth:`reset_observers`."""
        for slot in reads:
            known.add(slot)
            self.obs_journal.append((known, table, slot, i))
            lst = table[slot]
            if lst is None:
                table[slot] = [i]
                self.refresh_slot(slot)
            else:
                lst.append(i)

    def reset_observers(self) -> None:
        """Roll the observer lists back to the declared baseline.

        Tracked discovery only appends, one entry per observer and slot,
        so removal restores the exact baseline; the known-sets mutate in
        place because each view holds a direct reference to its own.
        """
        for known, table, slot, i in self.obs_journal:
            known.discard(slot)
            lst = table[slot]
            lst.remove(i)
            if not lst:
                table[slot] = None
                self.refresh_slot(slot)
        self.obs_journal.clear()


def _slot_place(model: FlatModel, slot: int) -> str:
    for path, s in model.paths.items():
        if s == slot:
            return path
    return f"<slot {slot}>"  # pragma: no cover - defensive


def _kernel_negative(model: FlatModel, aid: int, slot: int, value: int):
    raise SimulationError(
        f"activity {model.activities[aid].path!r}: declared write drives "
        f"place {_slot_place(model, slot)!r} to negative value {value}"
    )


class _Compiled:
    """Per-activity tables pre-resolved against the shared marking vector.

    Built once per simulator and reused by every run: the model structure
    is immutable, so predicates, gate functions, case tables and samplers
    never change — only the marking does.
    """

    __slots__ = (
        "vector",
        "views",
        "pviews",
        "gview",
        "preds",
        "ig_fns",
        "og_fns",
        "case_tab",
        "plain1",
        "kernels",
        "case_kern",
        "samplers",
        "samp_kind",
        "dyn_dists",
        "is_timed",
        "declared",
        "memo_slot",
        "reactivate",
        "paths",
        "batched",
        "batched_of",
        "init_timed",
        "init_instants",
        "init_undeclared",
    )


def _compose_predicates(gates) -> Callable[[LocalView], bool]:
    preds = tuple(g.predicate for g in gates)

    def composed(m, _preds=preds):
        for p in _preds:
            if not p(m):
                return False
        return True

    return composed


def _make_checked_sampler(dist: Distribution, path: str) -> Callable:
    """Per-draw sampling through ``dist.sample`` with delay validation.

    Builtin-law fast samplers cannot produce invalid delays (parameters
    are validated at construction), so only this generic path checks.
    """

    inner = dist.sample

    def sample(rng):
        delay = inner(rng)
        if not delay >= 0.0:  # also catches NaN
            raise SimulationError(
                f"activity {path!r} sampled invalid delay {delay!r}"
            )
        return delay

    return sample


def _write_plan(writes) -> tuple[tuple[str, bool, int], ...]:
    """A declared-writes tuple as ``(local place, is_add, amount)`` ops."""
    return tuple((pname, kind == "add", amount) for pname, kind, amount in writes)


def _unknown_place(act, what: str, pname: str) -> SimulationError:
    return SimulationError(
        f"activity {act.path!r}: {what} {pname!r} is not a place of its "
        f"SAN; visible places: {sorted(act.index)}"
    )


class _ActivityPlan:
    """The compile work that depends only on an :class:`ActivityDef`.

    A replicated template (the Rep construct of Sanders & Meyer) yields
    thousands of activity instances that differ only in their place →
    slot bindings, so :meth:`CompiledProgram._compile` builds one plan
    per definition and shares it across the instances: the composed
    predicate, the gate-function tuples, the kernels' write plans in the
    template's local place names, the case thresholds and the sampler.
    Binding a plan to an instance only maps names to slots.

    Template-level errors are recorded rather than raised (``case_sum``),
    so each instance raises them at the point of its own compile that
    the per-instance order dictates, naming its own path.
    """

    __slots__ = (
        "pred",
        "ig_fns",
        "og_fns",
        "plain1",
        "kernel",
        "guard",
        "case_tab",
        "case_sum",
        "case_kern",
        "sampler",
        "samp_kind",
    )

    def __init__(
        self,
        d: ActivityDef,
        sample_batch: int | None,
        shared_samplers: dict[int, Callable],
        batched_resets: list[Callable],
    ) -> None:
        gates = d.input_gates
        self.pred = (
            gates[0].predicate if len(gates) == 1 else _compose_predicates(gates)
        )
        self.ig_fns = tuple(g.function for g in gates if g.function is not _noop)
        self.og_fns = tuple(og.function for og in d.output_gates)
        plain = not self.ig_fns and not d.cases
        self.plain1 = self.og_fns[0] if plain and len(self.og_fns) == 1 else None
        # Every output gate's unguarded declared writes, in firing order
        # (None unless all of them declare).
        og_writes = None
        if all(og.writes is not None and og.when is None for og in d.output_gates):
            og_writes = tuple(
                op for og in d.output_gates for op in _write_plan(og.writes)
            )
        # kernel: the gate-write kernel's ops; guard: (place, cmp_fn,
        # value, ops) of a guard kernel.  Mutually exclusive.
        self.kernel = None
        self.guard = None
        if plain and d.output_gates and og_writes is not None:
            self.kernel = og_writes
        elif (
            plain
            and len(d.output_gates) == 1
            and d.output_gates[0].writes is not None
            and d.output_gates[0].when is not None
        ):
            og = d.output_gates[0]
            pname, cmp, gval = og.when
            self.guard = (pname, GUARD_OPS[cmp], gval, _write_plan(og.writes))

        # case_tab: None (no cases), (bounds, None) for static
        # probabilities, or (None, cases) for marking-dependent ones.
        # case_sum: the offending total when static probabilities do not
        # sum to 1.  case_kern: (thresholds, output-gate write plan,
        # per-case write plans).
        self.case_tab = None
        self.case_sum = None
        self.case_kern = None
        if d.cases:
            if any(callable(case.probability) for case in d.cases):
                self.case_tab = (None, d.cases)
            else:
                # Left-to-right partial sums, exactly as the firing-time
                # accumulation computes them, so the selection
                # thresholds are bit-identical to per-firing evaluation.
                acc = 0.0
                bounds: list[tuple[float, Callable]] = []
                for case in d.cases:
                    acc += float(case.probability)
                    bounds.append((acc, case.function))
                if not (abs(acc - 1.0) <= 1e-9):
                    self.case_sum = acc
                self.case_tab = (tuple(bounds), None)
                if (
                    not self.ig_fns
                    and all(case.writes is not None for case in d.cases)
                    and og_writes is not None
                ):
                    # Case kernel: branch thresholds are exactly the
                    # case_tab partial sums, so compiled selection is
                    # bit-identical to per-firing accumulation; each
                    # branch's ops are its case writes followed by every
                    # output gate's (output gates run after the case
                    # function on the Python path).
                    self.case_kern = (
                        tuple(acc for acc, _fn in bounds),
                        og_writes,
                        tuple(_write_plan(case.writes) for case in d.cases),
                    )

        # sampler: shared per distribution object for the const,
        # exponential and batched lanes; None with samp_kind "scalar"
        # marks the checked lane, whose errors name the instance.
        self.sampler = None
        self.samp_kind = None
        if d.kind == TIMED:
            dist = d.distribution
            # Exact-type lanes for const/exponential, which draw through
            # the law's own sample (it cannot return an invalid delay);
            # block serving for any law that advertises a vectorized,
            # stream-equivalent sample_many (Distribution.batchable — a
            # subclass overriding sample/sample_many owns the flag).
            if not isinstance(dist, Distribution):
                self.samp_kind = "dynamic"
                return
            if type(dist) is Deterministic:
                self.samp_kind = "const"
            elif sample_batch is not None and dist.batchable:
                self.samp_kind = "batched"
            else:
                self.samp_kind = "scalar"
                if type(dist) is not Exponential:
                    return
            sampler = shared_samplers.get(id(dist))
            if sampler is None:
                if self.samp_kind == "batched":
                    batched = BatchedSampler(dist, sample_batch)
                    batched_resets.append(batched.reset)
                    sampler = batched.sample
                else:
                    sampler = dist.sample
                shared_samplers[id(dist)] = sampler
            self.sampler = sampler


def _bind_writes(act, plan_ops, dep_lists) -> tuple:
    """Resolve a write plan into an instance's slot ops."""
    index = act.index
    ops = []
    for pname, is_add, amount in plan_ops:
        slot = index.get(pname)
        if slot is None:
            raise _unknown_place(act, "declared write", pname)
        ops.append((slot, is_add, amount, dep_lists[slot]))
    return tuple(ops)


class CompiledProgram:
    """Compiled, reusable form of a model plus its sampling configuration.

    The program owns everything :meth:`Simulator.run` needs that is *not*
    per-run: the compiled per-activity tables (:class:`_Compiled`), the
    slot → activity dependency map, the gate-write / case kernels and
    sampler plans, plus the trajectory-neutral warm state (one-shot
    declared-read checks, predicate memos, pattern caches).
    Per-run mutable state — the marking vector, batched-sampler blocks
    and post-compile dependency discoveries — is rolled back in
    O(marking) at the start of every run, so a run's trajectory is a
    pure function of (model, stream) no matter how many runs the
    program served before.

    Build one per process and hand it to any number of simulators
    (``Simulator(program)``), sequentially: the program is bound to one
    marking vector, so at most one run may be in flight across all
    simulators sharing it.  This is the compile-once/replicate-many
    contract used by :func:`repro.core.experiment.replicate_runs`
    workers and :mod:`repro.experiments.sweep` cells (see
    ``docs/performance.md`` Layer 6).

    Parameters
    ----------
    model:
        Flattened model to compile.
    sample_batch / batch_dynamic:
        Sampling configuration; see :class:`Simulator`.  They live on
        the program because the compiled sampler plans depend on them.
    """

    def __init__(
        self,
        model: FlatModel,
        sample_batch: int | None = DEFAULT_SAMPLE_BATCH,
        batch_dynamic: bool = False,
    ) -> None:
        self.model = model
        self.sample_batch = _check_number(
            sample_batch, "sample_batch", low=1, optional=True
        )
        self.batch_dynamic = bool(batch_dynamic)

        acts = model.activities
        self._n_acts = len(acts)
        self._priorities = [a.definition.priority for a in acts]
        # place slot -> activity ids whose enabling may depend on it
        # (flat list-of-lists; each inner list is deduplicated because ids
        # are appended only when first discovered via _act_deps).  Both
        # are allocated by _compile, with the rest of the model-sized
        # structures.
        self._dep_lists: list[list[int]] = []
        self._act_deps: list[set[int]] = []
        # (aid, slot) dependencies discovered after compile time.  They
        # are rolled back at the start of the next run so that every run
        # starts from the same (compile-time) dependency state: a run's
        # trajectory is then a pure function of (model, stream), never of
        # how many runs warmed this simulator before it.  Without this,
        # reactivate=True activities — which resample whenever a dirty
        # wake-up finds them enabled — could fire off extra draws on
        # warm simulators only, breaking serial/parallel bit-equality.
        self._dep_journal: list[tuple[int, int]] = []
        # cache: impulse/trace pattern -> matching activity ids.  String
        # patterns are keyed by value; callable patterns by object identity
        # (the stored strong reference keeps id() values from being
        # recycled and guards against hash collisions after collection).
        self._pattern_cache: dict[str, list[int]] = {}
        self._callable_pattern_cache: dict[int, tuple[object, list[int]]] = {}
        self._compiled: _Compiled | None = None
        # One-shot declared-read checks of the distribution callables,
        # persistent across runs: a checked evaluation is bit-identical to
        # an unchecked one (tracking never touches values or the rng), so
        # warm and fresh simulators follow the same trajectories whether
        # or not the check already happened.
        self._dyn_verified = [False] * self._n_acts
        # Enabling memo for declared single-read activities: the declared
        # contract makes such a predicate a pure function of one slot's
        # value, so its results are cached per value and the hot loops
        # skip the Python call entirely once a value has been seen.
        # Persistent across runs (pure function ⇒ value-transparent).
        self._pred_memo: list[dict | None] = [None] * self._n_acts
        # The run plan of the most recent (engine, rewards) combination
        # (see _RunPlan), built by the first run that needs it.
        self._plan: _RunPlan | None = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _reset_discovered_deps(self) -> None:
        """Roll dependency state back to the compile-time baseline.

        Post-compile discoveries only ever append, so removal restores
        the exact baseline; the sets mutate in place because each
        activity's view holds a direct reference to its known-set.
        """
        for aid, slot in self._dep_journal:
            self._act_deps[aid].discard(slot)
            self._dep_lists[slot].remove(aid)
        self._dep_journal.clear()

    def _matching_ids(self, pattern: str | Callable[[str], bool]) -> list[int]:
        if callable(pattern):
            entry = self._callable_pattern_cache.get(id(pattern))
            if entry is not None and entry[0] is pattern:
                return entry[1]
            ids = [a.ident for a in self.model.activities if pattern(a.path)]
            if len(self._callable_pattern_cache) >= 256:
                # Callers constructing a fresh callable per run would
                # otherwise grow the cache (and pin the callables) forever.
                self._callable_pattern_cache.clear()
            self._callable_pattern_cache[id(pattern)] = (pattern, ids)
            return ids
        cached = self._pattern_cache.get(pattern)
        if cached is None:
            from .patterns import filter_matching

            cached = list(
                filter_matching(
                    pattern, ((a.path, a.ident) for a in self.model.activities)
                )
            )
            self._pattern_cache[pattern] = cached
        return cached

    @_gc_paused()
    def _compile(self) -> _Compiled:
        """Pre-resolve every activity against the shared marking vector."""
        model = self.model
        self._dep_lists = [[] for _ in range(model.n_places)]
        self._act_deps = [set() for _ in range(self._n_acts)]
        c = _Compiled()
        c.vector = model.new_marking()
        # Each activity's view filters read tracking through its known
        # dependency set: converged activities record nothing.
        c.views = [
            LocalView(c.vector, act.index, self._act_deps[act.ident])
            for act in model.activities
        ]
        # Predicate views: declared activities evaluate through a
        # FrozenView (no read tracking, no toggles needed around the
        # call); the rest share the tracked view.  Filled after the
        # declaration pass below.
        c.pviews = list(c.views)
        c.gview = model.global_view(c.vector)
        c.paths = [act.path for act in model.activities]
        c.batched = []

        n = self._n_acts
        c.preds = [None] * n
        c.ig_fns = [()] * n
        c.og_fns = [()] * n
        # case_tab[aid]: None (no cases), (bounds, None) for static
        # probabilities, or (None, cases) for marking-dependent ones.
        c.case_tab = [None] * n
        # plain1[aid]: the single output-gate function when the activity
        # has no input-gate functions, no cases, and exactly one output
        # gate — the dominant shape; lets the hot loop fire it with one
        # load and one call.
        c.plain1 = [None] * n
        # kernels[aid]: the activity's complete firing effect as a tuple
        # of precomputed slot ops (slot, is_add, amount, dep_list) when
        # every output gate declares its writes and there is nothing else
        # to run (no input-gate functions, no cases).  dep_list is the
        # slot's inner list of the dependency map (stable identity: it is
        # only ever mutated in place), so the inlined loops mark
        # dependents without re-indexing.
        c.kernels = [None] * n
        # case_kern[aid]: compiled branch-selecting kernel — (bounds,
        # guard, branch_ops).  Probabilistic mode (bounds: cumulative
        # case thresholds, identical to the case_tab partial sums; guard
        # None) selects a branch with one uniform; guard mode (bounds
        # None; guard (slot, cmp_fn, value)) selects branch 0/1 from the
        # completion marking.  branch_ops[i] is the branch's precomputed
        # slot-op tuple.
        c.case_kern = [None] * n
        c.samplers = [None] * n
        # samp_kind[aid]: how the delay draw is served ("const",
        # "batched", "scalar", "dynamic"; None for instants) — compile
        # metadata for fastpath_report, never read by the event loops.
        c.samp_kind = [None] * n
        c.dyn_dists = [None] * n
        c.is_timed = [False] * n
        c.declared = [False] * n
        # memo_slot[aid]: the single declared read slot when the
        # activity's enabling is a pure function of one place (memoized
        # per value through self._pred_memo); -1 otherwise.
        c.memo_slot = [-1] * n
        c.reactivate = [False] * n

        act_deps = self._act_deps
        dep_lists = self._dep_lists
        plans: dict[int, _ActivityPlan] = {}
        shared_samplers: dict[int, Callable] = {}
        for act in model.activities:
            aid = act.ident
            d = act.definition
            plan = plans.get(id(d))
            if plan is None:
                plan = plans[id(d)] = _ActivityPlan(
                    d, self.sample_batch, shared_samplers, c.batched
                )
            c.is_timed[aid] = d.kind == TIMED
            c.reactivate[aid] = d.reactivate

            if d.reads is not None:
                # Declared dependency set (the activity analogue of
                # RateReward reads): resolve local names to slots and wire
                # them into the dependency map as compile-time baseline —
                # NOT journaled, so it survives the per-run rollback.  The
                # activity's predicates then run without read tracking.
                known = act_deps[aid]
                for pname in d.reads:
                    slot = act.index.get(pname)
                    if slot is None:
                        raise _unknown_place(act, "declared read", pname)
                    if slot not in known:
                        known.add(slot)
                        dep_lists[slot].append(aid)
                c.declared[aid] = True
                c.pviews[aid] = FrozenView(c.vector, act.index, known)
                if len(known) == 1:
                    c.memo_slot[aid] = next(iter(known))
                    self._pred_memo[aid] = {}

            c.preds[aid] = plan.pred
            c.ig_fns[aid] = plan.ig_fns
            c.og_fns[aid] = plan.og_fns
            c.plain1[aid] = plan.plain1
            if plan.kernel is not None:
                c.kernels[aid] = _bind_writes(act, plan.kernel, dep_lists)
            elif plan.guard is not None:
                # Guard kernel: one declared conditional effect.  Branch 0
                # = guard holds (declared ops), branch 1 = it does not (no
                # writes).
                pname, cmp_fn, gval, writes = plan.guard
                slot = act.index.get(pname)
                if slot is None:
                    raise _unknown_place(act, "write guard place", pname)
                c.case_kern[aid] = (
                    None,
                    (slot, cmp_fn, gval),
                    (_bind_writes(act, writes, dep_lists), ()),
                )

            if plan.case_sum is not None:
                raise SimulationError(
                    f"activity {act.path!r}: case probabilities "
                    f"sum to {plan.case_sum}"
                )
            c.case_tab[aid] = plan.case_tab
            if plan.case_kern is not None:
                bounds, og_writes, case_writes = plan.case_kern
                og_ops = _bind_writes(act, og_writes, dep_lists)
                c.case_kern[aid] = (
                    bounds,
                    None,
                    tuple(
                        _bind_writes(act, writes, dep_lists) + og_ops
                        for writes in case_writes
                    ),
                )

            c.samp_kind[aid] = plan.samp_kind
            if plan.sampler is not None:
                c.samplers[aid] = plan.sampler
            elif plan.samp_kind == "scalar":
                c.samplers[aid] = _make_checked_sampler(d.distribution, act.path)
            elif plan.samp_kind == "dynamic":
                c.dyn_dists[aid] = d.distribution
        # batched_of[aid]: the BatchedSampler behind a batched lane, whose
        # common-case buffer pop the compiled loop inlines; an empty or
        # exhausted buffer falls through to the identical sample() call.
        c.batched_of = [
            s.__self__ if kind == "batched" else None
            for s, kind in zip(c.samplers, c.samp_kind)
        ]

        # Pre-evaluate every enabling predicate on the initial marking:
        # the initial marking is identical for every run, so the set of
        # initially enabled activities (and their discovered read
        # dependencies) can be computed once.  Predicates must be pure
        # functions of the marking (SAN semantics).
        vec = c.vector
        c.init_timed = []
        c.init_instants = []
        # (aid, slots) of declared activities whose predicate read places
        # outside the declaration here.  The view filters reads through
        # the declared slot set, so anything recorded is an undeclared
        # read the dependency map would miss.  Recorded, never wired: a
        # run raises it at entry, a sanitized run reports it.
        c.init_undeclared = []
        for act in model.activities:
            aid = act.ident
            vec.begin_tracking()
            try:
                en = c.preds[aid](c.views[aid])
            finally:
                reads = vec.end_tracking()
            if reads and c.declared[aid]:
                c.init_undeclared.append((aid, sorted(reads)))
            elif reads:
                known = act_deps[aid]
                for slot in reads:
                    if slot not in known:
                        known.add(slot)
                        dep_lists[slot].append(aid)
            if c.is_timed[aid]:
                if en:
                    c.init_timed.append(aid)
            else:
                c.init_instants.append((aid, bool(en)))
        vec.reset(model.initial)
        return c

    def tables(self) -> _Compiled:
        """The compiled per-activity tables, built on first use."""
        if self._compiled is None:
            self._compiled = self._compile()
        return self._compiled

    def fastpath_report(self) -> dict:
        """Compile-time fast-path coverage of this program's model.

        Returns a dict mapping out which activities complete by
        compiled kernels versus Python gate functions, and how every
        timed delay draw is served:

        * ``kernel_activities`` — sorted activity paths with a compiled
          gate-write kernel;
        * ``case_kernel_activities`` — sorted paths with a compiled
          case/guard kernel (branch selected per completion, slot
          deltas applied without entering Python);
        * ``python_effect_activities`` — sorted paths with neither: the
          only completions that still call Python gate functions under
          the ``auto`` engine (``engine="reference"`` always calls
          them);
        * ``sampling`` — activity path → ``"const"`` | ``"batched"`` |
          ``"scalar"`` | ``"dynamic"`` for timed activities (dynamic
          draws are additionally block-served when ``batch_dynamic``);
        * ``sample_batch`` / ``batch_dynamic`` — the sampling knobs.
        """
        c = self.tables()
        kernel: list[str] = []
        case_kernel: list[str] = []
        python_effects: list[str] = []
        sampling: dict[str, str] = {}
        for act in self.model.activities:
            aid = act.ident
            if c.kernels[aid] is not None:
                kernel.append(act.path)
            elif c.case_kern[aid] is not None:
                case_kernel.append(act.path)
            else:
                python_effects.append(act.path)
            if c.samp_kind[aid] is not None:
                sampling[act.path] = c.samp_kind[aid]
        return {
            "kernel_activities": sorted(kernel),
            "case_kernel_activities": sorted(case_kernel),
            "python_effect_activities": sorted(python_effects),
            "sampling": sampling,
            "sample_batch": self.sample_batch,
            "batch_dynamic": self.batch_dynamic,
        }


class Simulator:
    """Executes runs of a :class:`~repro.core.composition.FlatModel`.

    The simulator is reusable: dependency maps discovered during one run
    carry over to the next (they are conservative supersets, so correctness
    is unaffected and later runs start warm).  A simulator instance is not
    re-entrant: it owns one marking vector, so at most one :meth:`run` may
    be in flight per instance (use one simulator per process/thread).

    Parameters
    ----------
    model:
        Flattened model to execute, or an existing
        :class:`CompiledProgram` to adopt (compile-once/replicate-many:
        every simulator built on the same program shares its tables,
        dependency maps, kernels and sampler plans instead of
        recompiling; runs on sharing simulators must be sequential).
    base_seed:
        Root entropy, a non-negative integer (numpy integers included);
        run ``k`` (the ``k``-th call to :meth:`run` without an explicit
        seed) uses an independent stream derived from it.  A call that
        :meth:`run` rejects does not count.
    max_instant_chain:
        Fixpoint guard: maximum zero-time firings at a single instant before
        :class:`~repro.core.errors.InstantaneousLoopError` is raised
        (default 100 000).  Raise it for models with legitimately deep
        zero-time cascades; lower it to make a suspected vanishing loop
        fail fast.
    max_events:
        Run budget: maximum events per :meth:`run` before
        :class:`~repro.core.errors.SimulationBudgetError` is raised
        (``None`` = unlimited).  The error carries the partial trajectory
        state (events executed, simulated time, marking snapshot), so a
        runaway model is diagnosable instead of a hang.
    max_wall_s:
        Run budget: wall-clock seconds per :meth:`run`, enforced at event
        granularity, raising the same
        :class:`~repro.core.errors.SimulationBudgetError` (``None`` =
        unlimited).  With both budgets ``None`` (the default) a run pays
        one flag test per event for them.
    sample_batch:
        Block size for vectorized delay draws (default
        :data:`DEFAULT_SAMPLE_BATCH`); one block per distinct distribution
        object, covering every law that advertises
        :attr:`~repro.core.distributions.Distribution.batchable`.
        ``None`` selects per-draw sampling, which consumes the RNG
        stream one variate at a time exactly like the pre-optimization
        engine (use it to reproduce historical trajectories).  Both modes
        are fully deterministic for a fixed seed, but they follow
        different (equally valid) trajectories because blocks consume the
        stream ahead of time.
    batch_dynamic:
        Also serve the distributions *returned by marking-dependent
        distribution callables* from vectorized blocks (one block per
        distinct returned object, cache rebuilt each run so a
        trajectory stays a pure function of (model, stream)).  Off by
        default: enabling it changes default-mode stream consumption —
        historical batched trajectories (e.g. the ``*_batched`` golden
        entries) assume dynamic draws are per-draw.  No effect when
        ``sample_batch`` is ``None``.  The paper-workload facades
        (``ClusterModel``, ``StorageModel``) enable it: the disk fleets
        draw their equilibrium-residual lifetimes through such a
        callable.
    engine:
        ``"auto"`` (default) runs the compiled event loop (kernels,
        inlined observers).  ``"reference"`` forces the general
        un-specialized loop for every model: same features, same
        trajectories, no inlining — the differential-testing oracle for
        the compiled loop.  ``"sanitize"`` runs the reference loop with
        the declaration checks of :mod:`repro.core.sanitizer`; it
        samples per draw unless ``sample_batch`` is given (or an adopted
        program sets it).
    program:
        Existing :class:`CompiledProgram` to adopt (alternative to
        passing it as ``model``).  Must have been compiled for the same
        model object, and any explicitly passed ``sample_batch`` /
        ``batch_dynamic`` must agree with the program's configuration.
    sanitize:
        Shorthand for ``engine="sanitize"``.
    strict:
        Make a sanitized run raise
        :class:`~repro.core.errors.SanitizerError` at its end when it
        recorded violations, instead of warning.
    """

    def __init__(
        self,
        model: FlatModel | CompiledProgram,
        base_seed: int = 0,
        max_instant_chain: int = 100_000,
        sample_batch: int | None = _UNSET,
        batch_dynamic: bool = _UNSET,
        engine: str = "auto",
        program: CompiledProgram | None = None,
        max_events: int | None = None,
        max_wall_s: float | None = None,
        sanitize: bool = False,
        strict: bool = False,
    ) -> None:
        if sanitize:
            if engine not in ("auto", "sanitize"):
                raise SimulationError(
                    f"sanitize=True conflicts with engine={engine!r}"
                )
            engine = "sanitize"
        if engine not in ("auto", "reference", "sanitize"):
            raise SimulationError(
                f"engine must be 'auto', 'reference', or 'sanitize', "
                f"got {engine!r}"
            )
        if isinstance(model, CompiledProgram):
            if program is not None and program is not model:
                raise SimulationError(
                    "pass the compiled program once (positionally or as "
                    "program=..., not two different ones)"
                )
            program = model
            model = program.model
        if program is not None:
            if program.model is not model:
                raise SimulationError(
                    "program= was compiled for a different model object"
                )
            if sample_batch is not _UNSET:
                explicit = _check_number(
                    sample_batch, "sample_batch", low=1, optional=True
                )
                if explicit != program.sample_batch:
                    raise SimulationError(
                        f"sample_batch={sample_batch!r} conflicts with the "
                        f"adopted program's ({program.sample_batch!r})"
                    )
            if batch_dynamic is not _UNSET and bool(batch_dynamic) != program.batch_dynamic:
                raise SimulationError(
                    f"batch_dynamic={batch_dynamic!r} conflicts with the "
                    f"adopted program's ({program.batch_dynamic!r})"
                )
            self.program = program
        else:
            if sample_batch is _UNSET:
                # A sanitized run samples per draw unless told otherwise.
                sample_batch = (
                    None if engine == "sanitize" else DEFAULT_SAMPLE_BATCH
                )
            self.program = CompiledProgram(
                model,
                sample_batch=sample_batch,
                batch_dynamic=(
                    False if batch_dynamic is _UNSET else bool(batch_dynamic)
                ),
            )
        self.model = model
        self.base_seed = _check_seed(base_seed, "base_seed")
        self.max_instant_chain = _check_number(
            max_instant_chain, "max_instant_chain", low=0
        )
        self.max_events = _check_number(
            max_events, "max_events", low=1, optional=True
        )
        max_wall_s = _check_number(
            max_wall_s, "max_wall_s", integer=False, optional=True
        )
        if max_wall_s is not None and not max_wall_s > 0.0:
            raise SimulationError(
                f"max_wall_s must be positive or None, got {max_wall_s}"
            )
        self.max_wall_s = None if max_wall_s is None else float(max_wall_s)
        self.engine = engine
        self.strict = bool(strict)
        self._run_counter = 0
        # Fast-path observability (see fastpath_report): which event loop
        # the last run dispatched to, and how many completions applied a
        # compiled gate-write kernel / case kernel vs. called Python gate
        # functions.
        self.last_loop: str | None = None
        self.last_kernel_effects = 0
        self.last_case_kernels = 0
        self.last_python_effects = 0
        # Reward-form coverage of the last run (see fastpath_report):
        # rate rewards whose declared form compiled to an incremental
        # update kernel vs. those refreshed by re-calling their Python
        # expression after each relevant event.
        self.last_reward_kernels: list[str] = []
        self.last_python_refresh_rewards: list[str] = []

    @property
    def sample_batch(self) -> int | None:
        """Block size for vectorized delay draws (``None`` = per-draw)."""
        return self.program.sample_batch

    @property
    def batch_dynamic(self) -> bool:
        """Whether marking-dependent draws are block-served."""
        return self.program.batch_dynamic

    def reset_streams(self) -> None:
        """Reset the run counter so the next :meth:`run` uses stream 0.

        Everything else a run could observe is already reset at run
        entry (marking, discovered dependencies, sampler blocks) or is
        trajectory-neutral warm state (declared-read checks, predicate
        memos), so after ``reset_streams()`` a reused simulator or
        program replays exactly the runs a freshly constructed one
        would — the reuse-equals-fresh contract of
        compile-once/replicate-many.
        """
        self._run_counter = 0

    def _matching_ids(self, pattern: str | Callable[[str], bool]) -> list[int]:
        return self.program._matching_ids(pattern)

    def fastpath_report(self) -> dict:
        """Compile-time fast-path coverage of this simulator's model.

        See :meth:`CompiledProgram.fastpath_report` for the compile-time
        fields.  On top of those this adds the reward-form coverage of
        the most recent :meth:`run`:

        * ``reward_kernel_rewards`` — sorted names of rate rewards whose
          declared :class:`~repro.core.rewards.Affine` /
          :class:`~repro.core.rewards.Indicator` form compiled into an
          incremental update kernel.
        * ``python_refresh_rewards`` — sorted names of rate rewards
          refreshed by re-calling their Python expression after every
          event that touches a declared read (empty before the first
          run).  Paper-workload models must keep this empty.

        Together with :attr:`last_loop` and the
        :attr:`last_kernel_effects` / :attr:`last_case_kernels` /
        :attr:`last_python_effects` counters this is the CI hook that
        keeps paper-workload models from silently falling off the
        inlined fast path (``tests/test_fastpath_coverage.py``).
        """
        report = self.program.fastpath_report()
        report["reward_kernel_rewards"] = list(self.last_reward_kernels)
        report["python_refresh_rewards"] = list(self.last_python_refresh_rewards)
        return report

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def run(
        self,
        until: float,
        *,
        warmup: float = 0.0,
        rewards: Sequence[RateReward | ImpulseReward] = (),
        traces: Sequence[BinaryTrace | EventTrace] = (),
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        stop_predicate: Callable[[LocalView], bool] | None = None,
        initial_marking: Sequence[int] | None = None,
    ) -> RunResult:
        """Simulate one trajectory on ``[0, until]`` hours.

        Parameters
        ----------
        until:
            End of simulated time (finite and positive).
        warmup:
            Rewards accumulate only on ``[warmup, until]`` (traces record
            the full window).
        rewards / traces:
            Observers for this run.
        seed / rng:
            Explicit stream control (``seed``: a non-negative integer); by
            default run ``k`` uses the stream derived from
            ``(base_seed, "run", k)``.
        stop_predicate:
            Optional early-stop condition evaluated on the global view
            after each event.
        initial_marking:
            Optional marking vector (slot order, e.g. a prior run's
            ``RunResult.final_marking``) to start from instead of the
            model's initial marking.  Every activity's enabling is then
            re-derived from the given marking (the compile-time
            initially-enabled tables only describe the model's own
            initial marking); for memoryless (exponential) models this
            makes ``run`` a restart-from-state primitive — the sampled
            continuation is distributed exactly as the suspended
            trajectory (used by the importance-splitting estimator in
            :mod:`repro.experiments.rare`).  Default ``None`` leaves the
            initialization path byte-identical to previous releases.
        """
        # Check the arguments first; a float horizon and a list of ints
        # skip the general checks.  ``init_values``: the start marking.
        if type(until) is not float:
            until = _check_number(until, "until", integer=False)
        if not 0.0 < until < math.inf:  # also rejects NaN
            raise SimulationError(f"until must be finite and positive, got {until}")
        if type(warmup) is not float:
            warmup = _check_number(warmup, "warmup", integer=False)
        if not 0.0 <= warmup < until:
            raise SimulationError(
                f"warmup must lie in [0, until), got warmup={warmup}, until={until}"
            )
        if stop_predicate is not None and not callable(stop_predicate):
            raise SimulationError(
                f"stop_predicate must be callable or None, got {stop_predicate!r}"
            )
        if rng is not None and not isinstance(rng, _GENERATOR):
            raise SimulationError(
                f"rng must be a numpy.random.Generator or None, got {rng!r}"
            )
        init_values = initial_marking
        if initial_marking is not None:
            if type(initial_marking) is not list or not _INT.issuperset(
                map(type, initial_marking)
            ):
                # An entry's name is formatted only when the entry fails.
                init_values = [
                    int(v)
                    if isinstance(v, _INTEGERS)
                    else _check_number(v, f"initial_marking[{i}]")
                    for i, v in enumerate(initial_marking)
                ]
            if len(init_values) != len(self.model.initial):
                raise SimulationError(
                    f"initial_marking has {len(init_values)} entries, "
                    f"model has {len(self.model.initial)} places"
                )
            if init_values and min(init_values) < 0:
                raise SimulationError("initial_marking entries must be >= 0")
        if seed is not None:
            seed = _check_seed(seed, "seed")
        rewards = tuple(rewards)
        plan = self.program._plan
        if plan is None or plan.engine != self.engine or (
            plan.rewards is not rewards
            and (
                len(plan.rewards) != len(rewards)
                or any(map(operator.is_not, plan.rewards, rewards))
            )
        ):
            p = self.program
            plan = p._plan = _RunPlan(p, self.engine, rewards)
        if plan.obs_journal:
            plan.reset_observers()
        state = _Run(self, plan, until, warmup, traces, stop_predicate, init_values)
        # Everything that can reject this call has passed: resolve the
        # stream and use up its index, so a rejected call leaves the next
        # run on the stream a fresh simulator would use.
        if rng is None:
            if seed is None:
                rng = make_generator(self.base_seed, "run", self._run_counter)
            else:
                rng = make_generator(seed)
        self._run_counter += 1
        state.rng = rng
        state.initialize(init_values)
        if self.engine == "auto":
            self.last_loop = "observed"
            state.compiled_loop()
        else:
            self.last_loop = self.engine
            state.reference_loop()
        return state.result()


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
class _Run:
    """The per-run state of one :meth:`Simulator.run`, shared by its
    parts (see the module docstring); building it checks the run's
    observers and resets the program.  The scalars (``now``, ``seq``,
    ``epoch``, ``n_events``, the effect counters) are read and written by
    the methods and the reference loop; the compiled loop keeps them in
    locals and writes them back around its :meth:`settle` call and at its
    end.  A run without observers (``observed`` false) leaves the
    observer slots unset, and every part that reads them tests
    ``observed`` first.  Everything else comes from the plan, which a
    sanitized run replaces with a copy holding its checking tables.
    """

    __slots__ = (
        "sim", "plan", "until", "warmup", "stop_predicate", "deadline",
        "rng", "act_watch", "observed",
        # results, probes and traces (observed runs only)
        "results", "rate_results", "rate_values", "rate_integrals",
        "rate_lo", "rate_hi", "probe_list", "probe_pos",
        "binary_traces", "btrace_known", "btrace_views", "btrace_values",
        "trace_map", "has_observers", "rstamp", "tstamp", "touched_r",
        "touched_t", "form_viol", "obs_epoch", "last_t",
        # event state
        "token", "enabled_instant", "inst_enabled", "stamp", "heap", "now",
        "seq", "epoch", "n_events", "n_kernel_effects", "n_case_kernels",
        "stopped_early",
        # sampling
        "u_buf", "u_pos", "dyn_samplers",
    )

    def __init__(
        self, sim, plan, until, warmup, traces, stop_predicate, init_values
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.until = until
        self.warmup = warmup
        self.stop_predicate = stop_predicate
        if plan.observed or traces:
            self.observed = True
            # A rate reward integrates over its window intersected with
            # [warmup, until]; probes merge across rewards in time order.
            rate_rewards = plan.rate_rewards
            n_rates = len(rate_rewards)
            self.results = results = {}
            self.rate_results = rate_results = []
            self.rate_values = [0.0] * n_rates
            self.rate_integrals = [0.0] * n_rates
            self.rate_lo = rate_lo = [warmup] * n_rates
            self.rate_hi = rate_hi = [until] * n_rates
            self.probe_list = probe_list = []
            for i, r in enumerate(rate_rewards):
                rate_results.append(RewardResult(r.name, "rate"))
                results[r.name] = rate_results[i]
                if r.window is not None:
                    w0, w1 = r.window
                    rate_lo[i] = warmup if warmup > w0 else w0
                    rate_hi[i] = until if until < w1 else w1
                for t in r.probe_times or ():
                    if t > until:
                        raise SimulationError(
                            f"rate reward {r.name!r}: probe time {t} "
                            f"exceeds until={until}"
                        )
                    probe_list.append((t, i))
            probe_list.sort()
            self.probe_pos = 0
            for r, entry in zip(plan.impulse_rewards, plan.impulse_entries):
                entry[0] = results[r.name] = RewardResult(r.name, "impulse")
            # A binary trace discovers its reads through its own view,
            # filtered by its known-slot set.
            self.binary_traces = binary_traces = []
            self.btrace_known = btrace_known = []
            self.btrace_views = btrace_views = []
            self.trace_map = trace_map = {}
            event_traces: list[EventTrace] = []
            for tr in traces:
                if tr.name in trace_map:
                    raise SimulationError(f"duplicate trace name {tr.name!r}")
                trace_map[tr.name] = tr
                tr.reset()
                if isinstance(tr, BinaryTrace):
                    binary_traces.append(tr)
                    btrace_known.append(set())
                    btrace_views.append(
                        LocalView(plan.vector, plan.model.paths, btrace_known[-1])
                    )
                elif isinstance(tr, EventTrace):
                    event_traces.append(tr)
                else:
                    raise SimulationError(f"unsupported trace object: {tr!r}")
            self.btrace_values = [False] * len(binary_traces)
            # Completion observers per activity: (the plan's impulse entries,
            # this run's event traces), or None for the (dominant) unobserved.
            act_watch = plan.act_watch
            if event_traces:
                act_watch = list(act_watch)
                for tr in event_traces:
                    ids = sim._matching_ids(tr.activity_pattern)
                    if not ids:
                        raise SimulationError(
                            f"event trace {tr.name!r} matches no activity "
                            f"(pattern {tr.activity_pattern!r})"
                        )
                    for aid in ids:
                        imp, etr = act_watch[aid] or (None, ())
                        act_watch[aid] = (imp, [*(etr or ()), tr])
            self.act_watch = act_watch
            self.has_observers = bool(plan.impulse_rewards or event_traces)
            sim.last_reward_kernels = list(plan.reward_kernels)
            sim.last_python_refresh_rewards = list(plan.python_refresh)
            # Epoch-stamped touched buffers (same scheme as the dirty list):
            # an observer index is appended at most once per observation epoch.
            self.rstamp = [0] * n_rates
            self.tstamp = [0] * len(binary_traces)
            self.touched_r = []
            self.touched_t = []
            self.form_viol = [0] * n_rates
            self.obs_epoch = 1
            self.last_t = 0.0
        else:
            self.observed = False
            self.act_watch = plan.act_watch
            sim.last_reward_kernels = []
            sim.last_python_refresh_rewards = []

        if plan.init_undeclared:
            aid, slots = plan.init_undeclared[0]
            act = plan.model.activities[aid]
            names = sorted(n for n, s in act.index.items() if s in slots)
            raise SimulationError(
                f"activity {act.path!r} reads places outside its "
                f"declared read set: {names}"
            )
        if plan.dep_journal:
            sim.program._reset_discovered_deps()
        plan.vector.reset(plan.model.initial if init_values is None else init_values)
        for reset_sampler in plan.batched_resets:
            reset_sampler()

        # -- event state -----------------------------------------------
        # token parity encodes liveness: odd = activity has a live event.
        # Completion and deactivation both bump the token, so a heap
        # entry's token mismatching the current one marks it stale.
        n_acts = plan.n_acts
        self.token = [0] * n_acts
        self.enabled_instant = [False] * n_acts
        # Currently-enabled instantaneous activities, kept as a set so
        # the firing scan touches only the (few) enabled ones instead of
        # every instant in the model; settle() re-imposes the canonical
        # order, so iteration order never leaks.
        self.inst_enabled = set()
        self.stamp = [0] * n_acts  # epoch marks for dirty-list dedup
        self.heap = []  # (time, seq, aid, token)
        self.now = 0.0
        self.seq = 0
        self.epoch = 0
        self.n_events = 0
        # Only compiled completions are counted per event (free for
        # models without kernels); python-effect completions are derived
        # at run end as n_events - n_kernel_effects - n_case_kernels.
        self.n_kernel_effects = 0
        self.n_case_kernels = 0
        self.stopped_early = False

        # -- sampling --------------------------------------------------
        # Uniform block for case selection (batched mode only; kept as a
        # plain list so selections compare Python floats, not np scalars),
        # filled by the first draw_uniform.
        self.u_buf = None
        # With batch_dynamic, a law a distribution callable returns is
        # drawn through a sampler cached by its id (the entry holds a
        # strong reference), its own block when batchable; rebuilt every
        # run, as a warm simulator must follow a fresh one's trajectory.
        if plan.batch_dynamic:
            self.dyn_samplers = {}
        if plan.sanitize:
            # A sanitized run reads a copy of the plan with the
            # sanitizer's checking wrappers swapped in (_RunPlan.checking).
            from .sanitizer import DeclarationChecker

            self.plan = plan.checking(
                DeclarationChecker(plan.model, plan.vector, self.clock)
            )

    # -- faults and budgets ----------------------------------------------
    def clock(self) -> tuple[int, float]:
        """The run's ``(events executed, simulated time)``, the provenance
        of a sanitizer violation."""
        return self.n_events, self.now

    def fault(self, kind: str, subject: str, message: str) -> None:
        """A model fault found mid-run: raised, or reported when
        sanitizing."""
        if self.plan.checker is None:
            raise SimulationError(message)
        self.plan.checker.violate(kind, subject, None, message)

    def check_budget(self, n_events: int, now: float) -> None:
        """Raise :class:`SimulationBudgetError` once the run has used up
        one of the simulator's budgets.

        The error snapshots the partial trajectory so a runaway model is
        diagnosable.  The check precedes the pending event's integration
        step, so the integrals, the current rate values and the impulse
        sums all describe the reported ``sim_time``, and every engine
        reports the same snapshot at the same event count.
        """
        sim = self.sim
        if sim.max_events is not None and n_events >= sim.max_events:
            kind, limit = "max_events", sim.max_events
        elif self.deadline is not None and time.monotonic() >= self.deadline:
            kind, limit = "max_wall_s", sim.max_wall_s
        else:
            return
        partial: dict[str, dict] = {}
        if self.observed:
            for res, acc, val in zip(
                self.rate_results, self.rate_integrals, self.rate_values
            ):
                partial[res.name] = {"kind": "rate", "integral": acc, "value": val}
            for res in self.results.values():
                if res.kind == "impulse":
                    partial[res.name] = {
                        "kind": "impulse",
                        "impulse_sum": res.impulse_sum,
                        "count": res.count,
                    }
        raise SimulationBudgetError(
            f"simulation exceeded {kind}={limit!r} after {n_events} "
            f"events at t={now:.6g} (until={self.until:g})",
            budget=kind,
            limit=limit,
            n_events=n_events,
            sim_time=now,
            marking={p: self.plan.values[s] for p, s in self.plan.model.paths.items()},
            rewards=partial,
        )

    # -- observers -------------------------------------------------------
    def integrate(self, t0: float, t1: float) -> None:
        """Accumulate each rate reward over ``(t0, t1]``, clipped to its
        bounds (exactly ``(warmup, until)`` for a plain one)."""
        rate_lo = self.rate_lo
        rate_hi = self.rate_hi
        rate_integrals = self.rate_integrals
        for i, val in enumerate(self.rate_values):
            if val != 0.0:
                a = t0 if t0 > rate_lo[i] else rate_lo[i]
                b = t1 if t1 < rate_hi[i] else rate_hi[i]
                if b > a:
                    rate_integrals[i] += val * (b - a)

    def apply_forms(self, slot: int) -> None:
        """Refresh every form-compiled reward that reads ``slot``.

        Reading the current marking (not the write delta) keeps this
        idempotent: the last call after the final relevant write of an
        event leaves exactly the value the Python expression would
        return.
        """
        values = self.plan.values
        form_gstate = self.plan.form_gstate
        form_viol = self.form_viol
        rate_values = self.rate_values
        for fi, gl, fbase, fterms in self.plan.form_upd[slot]:
            for gj, gcmp, gv, sa, sb in gl:
                nv = not gcmp(values[sa] if sb < 0 else values[sa] - values[sb], gv)
                st = form_gstate[fi]
                if st[gj] != nv:
                    st[gj] = nv
                    form_viol[fi] += 1 if nv else -1
            if form_viol[fi]:
                rate_values[fi] = 0.0
            else:
                acc = fbase
                for ts_, tc, td in fterms:
                    acc += tc * values[ts_] / td
                rate_values[fi] = acc

    def tracked(self, fn: Callable, view: LocalView):
        """``fn(view)`` with read tracking on; the slots it read that
        ``view`` did not know yet are left in the plan's ``reads``."""
        vector = self.plan.vector
        vector.begin_tracking()
        try:
            return fn(view)
        finally:
            vector.end_tracking()

    def eval_rate(self, i: int) -> float:
        """Rate reward ``i``'s value.  An undeclared reward evaluates
        tracked, and the slots it newly read join its observer lists."""
        plan = self.plan
        if plan.rate_declared[i]:
            return float(plan.rate_fns[i](plan.rate_views[i]))
        val = float(self.tracked(plan.rate_fns[i], plan.rate_views[i]))
        if plan.reads:
            plan.observe_reads(plan.rate_known[i], plan.rate_obs, i, plan.reads)
        return val

    def eval_btrace(self, i: int) -> bool:
        """Binary trace ``i``'s value, evaluated tracked; the slots it
        newly read join its observer lists."""
        val = bool(self.tracked(self.binary_traces[i].function, self.btrace_views[i]))
        plan = self.plan
        if plan.reads:
            plan.observe_reads(self.btrace_known[i], plan.btrace_obs, i, plan.reads)
        return val

    def refresh_observers(self, now: float) -> None:
        """Re-evaluate the touched rate rewards and binary traces; a
        trace whose value changed records it at ``now``."""
        touched_r = self.touched_r
        if touched_r:
            rate_values = self.rate_values
            for i in touched_r:
                rate_values[i] = self.eval_rate(i)
            del touched_r[:]
        touched_t = self.touched_t
        if touched_t:
            btrace_values = self.btrace_values
            for i in touched_t:
                val = self.eval_btrace(i)
                if val != btrace_values[i]:
                    btrace_values[i] = val
                    self.binary_traces[i].observe(now, val)
            del touched_t[:]

    def observe_completion(self, aid: int, watch: tuple, now: float) -> None:
        """Impulse rewards and event traces of a completion of ``aid``
        (``watch``: its non-empty ``act_watch`` entry)."""
        imp, etr = watch
        c = self.plan.c
        gview = c.gview
        if imp is not None and now >= self.warmup:
            for res, static, fn, ilo, ihi in imp:
                if ilo <= now <= ihi:
                    res.impulse_sum += static if fn is None else fn(gview)
                    res.count += 1
        if etr is not None:
            path = c.paths[aid]
            for tr in etr:
                tr.record(now, path, gview)

    def flush_probes(self, t: float) -> int:
        """Record every probe due at or before ``t`` at the current
        reward values; returns the index of the next probe."""
        probe_list = self.probe_list
        pos = self.probe_pos
        while pos < len(probe_list) and probe_list[pos][0] <= t:
            pt, pi = probe_list[pos]
            self.rate_results[pi].instants.append((pt, self.rate_values[pi]))
            pos += 1
        self.probe_pos = pos
        return pos

    # -- enabling and delay sampling -----------------------------------
    def discover(self, aid: int) -> None:
        """Wire the slots activity ``aid``'s tracked evaluation newly read
        into the dependency map, journaled so that the next run starts
        from the compile-time map again."""
        plan = self.plan
        known = plan.act_deps[aid]
        for slot in plan.reads:
            if slot not in known:
                known.add(slot)
                plan.dep_lists[slot].append(aid)
                plan.dep_journal.append((aid, slot))

    def dyn_sample(self, aid: int) -> float:
        """A delay from activity ``aid``'s marking-dependent distribution:
        the callable evaluates under tracking (or, for declared-reads
        activities, with tracking skipped after a verified first
        evaluation), and the law it returns is drawn from."""
        plan = self.plan
        # Only declared activities verify (a sanitized run's flags are off).
        if plan.dyn_verified[aid]:
            dist = plan.dyn_dists[aid](plan.pviews[aid])
        elif not plan.declared[aid]:
            dist = self.tracked(plan.dyn_dists[aid], plan.c.views[aid])
            if plan.reads:
                self.discover(aid)
        else:
            # First activation on this program: evaluate tracked through
            # the declaration-filtered view, so anything recorded is an
            # undeclared read — the dependency map would miss its updates
            # (same check as the predicates at compile time and declared
            # rate rewards at t=0).
            dist = self.tracked(plan.dyn_dists[aid], plan.c.views[aid])
            reads = plan.reads
            if reads:
                index = plan.model.activities[aid].index
                names = sorted(n for n, s in index.items() if s in reads)
                raise SimulationError(
                    f"activity {plan.c.paths[aid]!r}: distribution callable "
                    f"reads places outside the declared read set: {names}"
                )
            # only a verified evaluation may skip future checks
            plan.dyn_verified[aid] = True
        if not plan.batch_dynamic:
            if type(dist) not in plan.law_types:
                self.check_law(aid, dist)
            delay = dist.sample(self.rng)
        else:
            cache = self.dyn_samplers
            sample = cache.get(id(dist))
            if sample is None:
                if type(dist) not in plan.law_types:
                    self.check_law(aid, dist)
                sample = dist.sample
                if dist.batchable:
                    sample = BatchedSampler(dist, plan.u_batch).sample
                cache[id(dist)] = sample
            delay = sample(self.rng)
        if not delay >= 0.0:  # also catches NaN
            raise SimulationError(
                f"activity {plan.c.paths[aid]!r} sampled invalid delay {delay!r}"
            )
        return delay

    def check_law(self, aid: int, dist) -> None:
        """Admit ``dist``'s exact type to ``law_types`` if it is a Distribution."""
        if not isinstance(dist, Distribution):
            raise SimulationError(
                f"activity {self.plan.c.paths[aid]!r}: "
                "distribution callable did not return a Distribution"
            )
        self.plan.law_types.add(type(dist))

    # -- event execution -------------------------------------------------
    def draw_uniform(self) -> float:
        """One case-selection uniform: a direct draw per selection, or
        the next entry of the run's uniform block."""
        u_batch = self.plan.u_batch
        if u_batch is None:
            return self.rng.uniform()
        buf = self.u_buf
        # u_pos is set with the first block
        if buf is None or self.u_pos >= u_batch:
            buf = self.u_buf = self.rng.random(u_batch).tolist()
            self.u_pos = 0
        pos = self.u_pos
        self.u_pos = pos + 1
        return buf[pos]

    def fire_python(self, aid: int) -> None:
        """Complete ``aid`` through its Python functions: input gates,
        the selected case, output gates."""
        c = self.plan.c
        view = c.views[aid]
        rng = self.rng
        for fn in c.ig_fns[aid]:
            fn(view, rng)
        ct = c.case_tab[aid]
        if ct is not None:
            self.fire_cases(aid, view, ct)
        for og in c.og_fns[aid]:
            og(view, rng)

    def fire_cases(self, aid: int, view: LocalView, ct) -> None:
        """Select and execute one case (consumes exactly one uniform)."""
        if self.plan.checker is not None:
            self.plan.checker.checks["case_selections"] += 1
        u = self.draw_uniform()
        rng = self.rng
        bounds, cases = ct
        if bounds is not None:
            chosen = bounds[-1][1]
            for acc, fn in bounds:
                if u <= acc:
                    chosen = fn
                    break
            chosen(view, rng)
            return
        probs = [case.probability_in(view) for case in cases]
        total = sum(probs)
        if not (abs(total - 1.0) <= 1e-9):
            path = self.plan.c.paths[aid]
            self.fault(
                "case-sum",
                path,
                f"activity {path!r}: case probabilities sum to {total} "
                "at completion",
            )
        acc = 0.0
        chosen_case = cases[-1]
        for case, p in zip(cases, probs):
            acc += p
            if u <= acc:
                chosen_case = case
                break
        chosen_case.function(view, rng)

    def select_case_branch(self, aid: int) -> tuple:
        """The slot ops of the branch a completion of case/guard-kernel
        activity ``aid`` selects, exactly as the Python path would:
        consuming one uniform (:meth:`draw_uniform`) for probabilistic
        cases, evaluating the guard on the completion marking for
        guarded writes."""
        plan = self.plan
        bounds, guard, branch_ops = plan.case_kern[aid]
        if bounds is None:
            slot, cmp_fn, gval = guard
            return branch_ops[0 if cmp_fn(plan.values[slot], gval) else 1]
        u = self.draw_uniform()
        for i, acc in enumerate(bounds):
            if u <= acc:
                return branch_ops[i]
        return branch_ops[-1]

    def fire(self, aid: int) -> None:
        """Complete activity ``aid``: its compiled effect, or its gate
        functions and cases; writes land in ``changed``.  Kernel
        activities apply their precomputed slot ops; the reference and
        sanitized runs see all-None kernel tables and always call the
        Python gate functions."""
        self.n_events += 1
        plan = self.plan
        ops = plan.kernels[aid]
        if ops is not None:
            self.n_kernel_effects += 1
        elif plan.has_case[aid]:
            ops = self.select_case_branch(aid)
            self.n_case_kernels += 1
        else:
            self.fire_python(aid)
        if ops is not None:
            values = plan.values
            changed = plan.changed
            for slot, is_add, amount, _dl in ops:
                if is_add:
                    v = values[slot] + amount
                    if v < 0:
                        _kernel_negative(plan.model, aid, slot, v)
                    values[slot] = v
                    changed.add(slot)
                elif values[slot] != amount:
                    values[slot] = amount
                    changed.add(slot)
        watch = self.act_watch[aid]
        if watch is not None:
            self.observe_completion(aid, watch, self.now)

    def drain_changed(self, dirty: list[int]) -> None:
        """Walk the slots written since the last drain: refresh the
        form-compiled rewards that read them, mark their tracked
        observers touched and their dependents dirty (each at most once
        per epoch), and clear the record."""
        plan = self.plan
        form_upd, rate_obs, btrace_obs = plan.form_upd, plan.rate_obs, plan.btrace_obs
        epoch, stamp = self.epoch, self.stamp
        dep_lists = plan.dep_lists
        changed = plan.changed
        for slot in changed:
            if form_upd[slot] is not None:
                self.apply_forms(slot)
            rlist = rate_obs[slot]
            if rlist is not None:
                self.touch(rlist, self.rstamp, self.touched_r)
            tlist = btrace_obs[slot]
            if tlist is not None:
                self.touch(tlist, self.tstamp, self.touched_t)
            for d in dep_lists[slot]:
                if stamp[d] != epoch:
                    stamp[d] = epoch
                    dirty.append(d)
        changed.clear()

    def touch(self, observers: list[int], stamps: list[int], touched: list[int]):
        """Append each of ``observers`` to ``touched`` once per epoch."""
        obs_epoch = self.obs_epoch
        for i in observers:
            if stamps[i] != obs_epoch:
                stamps[i] = obs_epoch
                touched.append(i)

    def settle(self, dirty: list[int]) -> None:
        """Update timed enabling and run the instantaneous fixpoint.

        ``dirty`` holds unique activity ids; they are processed in
        ascending id order (the canonical deterministic order).

        Activations due beyond ``until`` are never pushed (they could only
        pop after the horizon check, and lazy cancellation tolerates the
        gap); the stream and ``seq`` are untouched, so this is exact.
        """
        (
            declared, preds, values, reads, memo_slot, pviews, views,
            is_timed, reactivate, samplers, pred_memo, priorities, heappush,
        ) = self.plan.settle_tables
        enabled_instant, inst_enabled = self.enabled_instant, self.inst_enabled
        token, heap, seq = self.token, self.heap, self.seq
        rng, now, until = self.rng, self.now, self.until
        chain = 0
        while True:
            dirty.sort()
            for aid in dirty:
                if declared[aid]:
                    ms = memo_slot[aid]
                    if ms < 0:
                        en = preds[aid](pviews[aid])
                    else:
                        mdict = pred_memo[aid]
                        en = mdict.get(values[ms])
                        if en is None:
                            en = preds[aid](pviews[aid])
                            mdict[values[ms]] = en
                else:
                    en = self.tracked(preds[aid], views[aid])
                    if reads:
                        self.discover(aid)
                if not is_timed[aid]:
                    if en != enabled_instant[aid]:
                        enabled_instant[aid] = en
                        if en:
                            inst_enabled.add(aid)
                        else:
                            inst_enabled.discard(aid)
                    continue
                tok = token[aid]
                if en:
                    if not tok & 1:
                        tok += 1
                    elif reactivate[aid]:
                        tok += 2
                    else:
                        continue
                    token[aid] = tok
                    sm = samplers[aid]
                    delay = sm(rng) if sm is not None else self.dyn_sample(aid)
                    ft = now + delay
                    if ft <= until:
                        heappush(heap, (ft, seq, aid, tok))
                    seq += 1
                elif tok & 1:
                    token[aid] = tok + 1
            del dirty[:]

            if not inst_enabled:
                self.seq = seq
                return
            # Highest priority first; ties broken by definition order
            # (lowest id).  The explicit tie-break makes the choice
            # independent of set iteration order — identical to the
            # historical in-order scan over every instant.
            best = -1
            best_pri = 0
            for iid in inst_enabled:
                pri = priorities[iid]
                if best < 0 or pri > best_pri or (pri == best_pri and iid < best):
                    best = iid
                    best_pri = pri
            chain += 1
            if chain > self.sim.max_instant_chain:
                raise InstantaneousLoopError(
                    f"more than {self.sim.max_instant_chain} instantaneous "
                    f"firings at t={now}; last activity "
                    f"{self.plan.c.paths[best]!r}"
                )
            self.fire(best)
            self.epoch += 1
            self.drain_changed(dirty)

    # -- the run's parts -------------------------------------------------
    def initialize(self, init_values: list[int] | None) -> None:
        """Time 0: schedule the enabled timed activities, settle the
        instants, evaluate every observer and start the wall-clock
        budget."""
        if init_values is None:
            # The model's own initial marking: the initially enabled
            # activities were pre-computed at compile time, so only the
            # delay draws and the instantaneous fixpoint are per-run
            # work.  Entries are heapified in one O(n) pass; the pop
            # order, a pure function of the (time, seq) order, is that
            # of pushing them.  The loop mirrors settle's timed update
            # for a fresh (token 0, enabled) activity, horizon filter
            # included.
            c = self.plan.c
            heap, token, samplers = self.heap, self.token, c.samplers
            rng, until = self.rng, self.until
            seq = 0
            for aid in c.init_timed:
                token[aid] = 1
                sampler = samplers[aid]
                delay = sampler(rng) if sampler is not None else self.dyn_sample(aid)
                if delay <= until:
                    heap.append((delay, seq, aid, 1))
                seq += 1
            self.seq = seq
            heapq.heapify(heap)
            if c.init_instants:
                for aid, en in c.init_instants:
                    self.enabled_instant[aid] = en
                    if en:
                        self.inst_enabled.add(aid)
                self.settle([])
        else:
            # Restart from a caller-supplied marking: every activity's
            # enabling is re-derived through settle(), in the ascending
            # id order (and so the draw order) the precomputed loop uses,
            # followed by the instantaneous fixpoint.
            self.settle(list(self.plan.act_ids))
        if self.observed:
            # Evaluate every observer on the settled t=0 marking; the epoch
            # bump voids the stamps of the discarded t=0 touches.
            del self.touched_r[:]
            del self.touched_t[:]
            self.obs_epoch += 1
            plan = self.plan
            values = plan.values
            rate_values = self.rate_values
            for i in range(len(rate_values)):
                if plan.form_compiled[i]:
                    # The kernel's guard bookkeeping starts from the settled
                    # t=0 marking; its value is the form's arithmetic, the
                    # one the reward's synthesized function computes.
                    gstate = plan.form_gstate[i]
                    for gj, (gcmp, gv, sa, sb) in enumerate(plan.form_guards[i]):
                        gstate[gj] = not gcmp(
                            values[sa] if sb < 0 else values[sa] - values[sb], gv
                        )
                    self.form_viol[i] = viol = sum(gstate)
                    acc = plan.form_base[i]
                    for ts_, tc, td in plan.form_terms[i]:
                        acc += tc * values[ts_] / td
                    rate_values[i] = 0.0 if viol else acc
                elif plan.rate_declared[i]:
                    # The filtered view records any read outside the
                    # declaration; a non-empty record means the declaration
                    # is wrong and the observer lists would miss updates.
                    rate_values[i] = float(
                        self.tracked(plan.rate_fns[i], plan.rate_views[i])
                    )
                    reads = plan.reads
                    if reads:
                        slot_names = sorted(
                            path for path, s in plan.model.paths.items() if s in reads
                        )
                        raise SimulationError(
                            f"rate reward {plan.rate_rewards[i].name!r} reads "
                            f"places outside its declared read set: {slot_names}"
                        )
                else:
                    rate_values[i] = self.eval_rate(i)
            for i, tr in enumerate(self.binary_traces):
                self.btrace_values[i] = self.eval_btrace(i)
                tr.observe(0.0, self.btrace_values[i])
        if self.sim.max_wall_s is None:
            self.deadline = None
        else:
            self.deadline = time.monotonic() + self.sim.max_wall_s

    def reference_loop(self) -> None:
        """The general event loop: every feature, no inlining.  It is the
        oracle the compiled loop is differentially tested against."""
        heap, token, stamp, until = self.heap, self.token, self.stamp, self.until
        has_budget = self.sim.max_events is not None or self.deadline is not None
        observed = self.observed
        has_rates = observed and bool(self.rate_values)
        # A sanitized run refreshes (and so checks) every rate reward.
        check_all = None if self.plan.checker is None else range(len(self.rate_values))
        stop_predicate = self.stop_predicate
        gview = self.plan.c.gview
        dirty: list[int] = []
        while heap:
            ftime, _s, aid, tok = heapq.heappop(heap)
            if tok != token[aid]:
                continue
            if ftime > until:
                break
            if has_budget:
                self.check_budget(self.n_events, self.now)
            if observed:
                self.flush_probes(ftime)
            if has_rates:
                self.integrate(self.last_t, ftime)
                self.last_t = ftime
            self.now = ftime
            token[aid] += 1
            self.fire(aid)
            self.epoch += 1
            # the fired activity may re-enable itself
            stamp[aid] = self.epoch
            dirty.append(aid)
            self.drain_changed(dirty)
            self.settle(dirty)
            if observed:
                if check_all is not None:
                    self.touched_r[:] = check_all
                self.refresh_observers(ftime)
                self.obs_epoch += 1
            if stop_predicate is not None and stop_predicate(gview):
                self.stopped_early = True
                break

    def compiled_loop(self) -> None:
        """The compiled event loop, which every ``engine="auto"`` run
        takes: the inlined hot loop plus constant-time inline checks for
        rate/impulse rewards, traces, probes, instantaneous activities,
        stop conditions and budgets, each one flag test when unused.
        The sequence of marking writes, RNG draws and float operations
        is the reference loop's, which reward_golden.json pins
        bit-for-bit.

        NOTE: the per-event body inlines fire(), the dirty pass of
        settle() with its timed update, and (in the op block)
        apply_forms(); keep the sites in sync.

        The most recent activation is held in ``pending`` instead of
        being pushed immediately: the next loop iteration fetches
        min(heap ∪ {pending}) with a single heappushpop sift, which is
        what push-then-pop would return, at nearly half the cost.
        """
        # Everything the event loop touches is a local, unpacked once:
        # the plan's tables in one step (a run without observers keeps
        # their empty observer locals), then the run's state.
        (
            model, vector, values, changed, reads, views, pviews, gview, plain1,
            samplers, batched_of, is_timed, memo_slot, reactivate, pred_memo, dep_lists,
            preds, declared, kernels, has_case, slot_obs, form_gstate, inline_rates,
            rate_range, has_rates, reads_clear, changed_pop, heappush, heappop,
            heappushpop, act_watch, has_observers, has_tracked_obs, rate_values,
            rate_integrals, form_viol, rstamp, tstamp, touched_r, touched_t,
            n_probes, probe_pos, obs_epoch,
        ) = self.plan.loop_tables
        heap, token, stamp = self.heap, self.token, self.stamp
        enabled_instant, inst_enabled = self.enabled_instant, self.inst_enabled
        if self.observed:
            act_watch, has_observers = self.act_watch, self.has_observers
            rate_values, rate_integrals = self.rate_values, self.rate_integrals
            form_viol = self.form_viol
            rstamp, tstamp, touched_r, touched_t = (
                self.rstamp, self.tstamp, self.touched_r, self.touched_t
            )
            n_probes, probe_pos = len(self.probe_list), self.probe_pos
            obs_epoch = self.obs_epoch
            # True iff some slot feeds a tracked observer (python-refresh
            # reward or binary trace), t=0 discoveries included; when
            # False the touched buffers never fill, and the loop skips the
            # per-event refresh check and epoch bump.
            plan = self.plan
            has_tracked_obs = plan.tracked_baseline or bool(plan.obs_journal)
        until, warmup, rng = self.until, self.warmup, self.rng
        stop_predicate = self.stop_predicate
        has_stop = stop_predicate is not None
        has_budget = self.sim.max_events is not None or self.deadline is not None
        # The run's scalars, written back around settle() and at the end.
        # t=0 settles at now = 0.0 and integrates nothing.
        now = last_t = 0.0
        seq = self.seq
        epoch = self.epoch
        n_events = self.n_events
        n_kernel_effects = self.n_kernel_effects
        n_case_kernels = self.n_case_kernels
        dirty: list[int] = []
        dirty_clear, dirty_sort, dirty_append = dirty.clear, dirty.sort, dirty.append
        pending: tuple[float, int, int, int] | None = None
        # A completed event's token always mismatches (completion and
        # deactivation both bump it), so the token check alone detects
        # stale heap entries.
        while True:
            if pending is not None:
                ftime, _s, aid, tok = heappushpop(heap, pending)
                pending = None
            elif heap:
                ftime, _s, aid, tok = heappop(heap)
            else:
                break
            if tok != token[aid]:
                continue
            if ftime > until:
                break
            if has_budget:
                self.check_budget(n_events, now)
            if probe_pos < n_probes:
                probe_pos = self.flush_probes(ftime)
            if inline_rates:
                a = last_t if last_t > warmup else warmup
                b = ftime if ftime < until else until
                if b > a:
                    span = b - a
                    for i in rate_range:
                        val = rate_values[i]
                        if val != 0.0:
                            rate_integrals[i] += val * span
                last_t = ftime
            elif has_rates:
                self.integrate(last_t, ftime)
                last_t = ftime
            now = ftime
            token[aid] = tok + 1

            n_events += 1
            epoch += 1
            stamp[aid] = epoch
            dirty_append(aid)
            # A compiled effect — a gate-write kernel, or the branch a
            # case/guard kernel selects with the same uniform (or guard
            # evaluation) the Python path uses — leaves its precomputed
            # slot ops in ``ops`` for the op block below.  Every other
            # completion runs the Python functions, whose writes the
            # drain block below walks.
            ops = kernels[aid]
            if ops is not None:
                n_kernel_effects += 1
            elif has_case[aid]:
                ops = self.select_case_branch(aid)
                n_case_kernels += 1
            else:
                fn1 = plain1[aid]
                if fn1 is not None:
                    fn1(views[aid], rng)
                else:
                    self.fire_python(aid)
            if ops is not None:
                # Op block: apply the slot ops and mark each written
                # slot's observers and dependents directly — no
                # gate-function call, no LocalView, no changed-set
                # round-trip.  A set op that leaves the value
                # unchanged marks nothing, exactly like
                # LocalView.__setitem__.
                for slot, is_add, amount, dl in ops:
                    if is_add:
                        v = values[slot] + amount
                        if v < 0:
                            _kernel_negative(model, aid, slot, v)
                        values[slot] = v
                    elif values[slot] != amount:
                        values[slot] = amount
                    else:
                        continue
                    so = slot_obs[slot]
                    if so is not None:
                        ful, rlist, tlist = so
                        if ful is not None:
                            # Reward-form kernel, inlined (see
                            # apply_forms): integer guard bookkeeping
                            # + the canonical affine recompute replace
                            # the deferred Python re-evaluation.
                            for fi, gl, fbase, fterms in ful:
                                for gj, gcmp, gv, sa, sb in gl:
                                    nv = not gcmp(
                                        values[sa]
                                        if sb < 0
                                        else values[sa] - values[sb],
                                        gv,
                                    )
                                    st = form_gstate[fi]
                                    if st[gj] != nv:
                                        st[gj] = nv
                                        form_viol[fi] += 1 if nv else -1
                                if form_viol[fi]:
                                    rate_values[fi] = 0.0
                                else:
                                    facc = fbase
                                    for ts_, tc, td in fterms:
                                        facc += tc * values[ts_] / td
                                    rate_values[fi] = facc
                        if rlist is not None:
                            for i in rlist:
                                if rstamp[i] != obs_epoch:
                                    rstamp[i] = obs_epoch
                                    touched_r.append(i)
                        if tlist is not None:
                            for i in tlist:
                                if tstamp[i] != obs_epoch:
                                    tstamp[i] = obs_epoch
                                    touched_t.append(i)
                    if dl:
                        for d in dl:
                            if stamp[d] != epoch:
                                stamp[d] = epoch
                                dirty_append(d)
            else:
                # Drain block: the Python functions' writes, inline
                # (every Python-effect completion passes here), with
                # the op block's fused per-slot observer lookup.
                while changed:
                    slot = changed_pop()
                    so = slot_obs[slot]
                    if so is not None:
                        ful, rlist, tlist = so
                        if ful is not None:
                            self.apply_forms(slot)
                        if rlist is not None:
                            for i in rlist:
                                if rstamp[i] != obs_epoch:
                                    rstamp[i] = obs_epoch
                                    touched_r.append(i)
                        if tlist is not None:
                            for i in tlist:
                                if tstamp[i] != obs_epoch:
                                    tstamp[i] = obs_epoch
                                    touched_t.append(i)
                    for d in dep_lists[slot]:
                        if stamp[d] != epoch:
                            stamp[d] = epoch
                            dirty_append(d)
            if has_observers:
                watch = act_watch[aid]
                if watch is not None:
                    self.observe_completion(aid, watch, now)
            dirty_sort()
            tracking_on = False
            for aid2 in dirty:
                if declared[aid2]:
                    ms = memo_slot[aid2]
                    if ms < 0:
                        en = preds[aid2](pviews[aid2])
                    else:
                        mdict = pred_memo[aid2]
                        en = mdict.get(values[ms])
                        if en is None:
                            en = preds[aid2](pviews[aid2])
                            mdict[values[ms]] = en
                else:
                    # The tracking toggle is set lazily on the first
                    # undeclared activity: a fully declared dirty set
                    # (the common case on annotated models) never
                    # pays the attribute stores.
                    if not tracking_on:
                        vector.tracking = True
                        tracking_on = True
                    if reads:
                        reads_clear()
                    en = preds[aid2](views[aid2])
                    if reads:
                        self.discover(aid2)
                if not is_timed[aid2]:
                    if en != enabled_instant[aid2]:
                        enabled_instant[aid2] = en
                        if en:
                            inst_enabled.add(aid2)
                        else:
                            inst_enabled.discard(aid2)
                    continue
                tok2 = token[aid2]
                if en:
                    if not tok2 & 1:
                        tok2 += 1
                    elif reactivate[aid2]:
                        tok2 += 2
                    else:
                        continue
                    token[aid2] = tok2
                    sm = samplers[aid2]
                    if sm is not None:
                        bs = batched_of[aid2]
                        if bs is None:
                            delay = sm(rng)
                        else:
                            # inlined BatchedSampler.sample fast
                            # path: identical pop; an empty or
                            # exhausted buffer refills via the call
                            bpos = bs._pos
                            bbuf = bs._buffer
                            if bbuf is not None and bpos < bs.batch_size:
                                bs._pos = bpos + 1
                                delay = bbuf[bpos]
                            else:
                                delay = sm(rng)
                    else:
                        if tracking_on:
                            vector.tracking = False
                            tracking_on = False
                        delay = self.dyn_sample(aid2)
                    ft = now + delay
                    # beyond-horizon activations never enter the heap
                    # (see settle: bit-identical trajectories)
                    if ft <= until:
                        if pending is None:
                            pending = (ft, seq, aid2, tok2)
                        else:
                            heappush(heap, pending)
                            pending = (ft, seq, aid2, tok2)
                    seq += 1
                elif tok2 & 1:
                    token[aid2] = tok2 + 1
            if tracking_on:
                vector.tracking = False
            dirty_clear()
            if inst_enabled:
                # Rare: an instantaneous activity became enabled.  Run
                # the zero-time fixpoint through the shared settle(): it
                # fires highest-priority-first, re-dirties, and
                # re-settles until quiet, exactly as the reference loop
                # would inside its settle(dirty).  settle() reads and
                # writes the run's scalars through the state.
                self.now = now
                self.seq = seq
                self.epoch = epoch
                self.obs_epoch = obs_epoch
                self.n_events = n_events
                self.n_kernel_effects = n_kernel_effects
                self.n_case_kernels = n_case_kernels
                self.settle(dirty)
                seq = self.seq
                epoch = self.epoch
                n_events = self.n_events
                n_kernel_effects = self.n_kernel_effects
                n_case_kernels = self.n_case_kernels

            if has_tracked_obs:
                if touched_r or touched_t:
                    self.refresh_observers(now)
                obs_epoch += 1

            if has_stop and stop_predicate(gview):
                self.stopped_early = True
                break
        self.now = now
        self.n_events = n_events
        self.n_kernel_effects = n_kernel_effects
        self.n_case_kernels = n_case_kernels
        self.last_t = last_t

    def result(self) -> RunResult:
        """Close the run: final integration, checks, result assembly."""
        sim, n_events = self.sim, self.n_events
        sim.last_kernel_effects = n_kernel = self.n_kernel_effects
        sim.last_case_kernels = n_case = self.n_case_kernels
        sim.last_python_effects = n_events - n_kernel - n_case
        stopped_early = self.stopped_early
        end_time = self.now if stopped_early else self.until
        duration = max(end_time - self.warmup, 0.0)
        if self.observed:
            rewards, traces, report = self.close(end_time, duration)
        else:
            rewards, traces, report = {}, {}, None
        plan = self.plan
        return RunResult(
            final_time=end_time,
            duration=duration,
            n_events=n_events,
            rewards=rewards,
            traces=traces,
            stopped_early=stopped_early,
            sanitizer_report=report,
            _final_values=list(plan.values),
            _paths=plan.model.paths,
        )

    def close(self, end_time: float, duration: float) -> tuple[dict, dict, object]:
        """Close an observed run: ``(rewards, traces, sanitizer report)``."""
        self.integrate(self.last_t, end_time)
        # NaN/inf accumulation guard: a reward expression that produced a
        # non-finite value poisons every downstream statistic silently
        # (means, CIs, sweep tables), so fail the run loudly instead.
        # Once per run, not per event — free on the hot path.
        rate_results, results = self.rate_results, self.results
        for res, acc in zip(rate_results, self.rate_integrals):
            if not math.isfinite(acc):
                self.fault(
                    "non-finite-reward",
                    res.name,
                    f"rate reward {res.name!r} accumulated a "
                    f"non-finite integral ({acc!r}); the reward expression "
                    "produced NaN or inf during the run",
                )
            res.integral = acc
        for res in results.values():
            res.duration = duration
            if res.kind == "impulse" and not math.isfinite(res.impulse_sum):
                self.fault(
                    "non-finite-reward",
                    res.name,
                    f"impulse reward {res.name!r} accumulated a non-finite "
                    f"sum ({res.impulse_sum!r}); an impulse value evaluated "
                    "to NaN or inf during the run",
                )
        report = None
        checker = self.plan.checker
        if checker is not None:
            report = checker.finish(self.n_events, end_time, self.sim.strict)
        if not self.stopped_early:
            # The marking is constant from the last event to ``until``,
            # so remaining probes read the current values.  After an
            # early stop the trajectory beyond ``end_time`` is undefined
            # and later probes stay unrecorded.
            self.flush_probes(math.inf)
        # Windowed rewards observe their effective window, not the run's.
        plan, until, warmup = self.plan, self.until, self.warmup
        for i, r in enumerate(plan.rate_rewards):
            if r.window is not None:
                lo = self.rate_lo[i]
                b = end_time if end_time < self.rate_hi[i] else self.rate_hi[i]
                rate_results[i].duration = b - lo if b > lo else 0.0
        for r in plan.impulse_rewards:
            if r.window is not None:
                w0, w1 = r.window
                lo = warmup if warmup > w0 else w0
                hi = until if until < w1 else w1
                b = end_time if end_time < hi else hi
                results[r.name].duration = b - lo if b > lo else 0.0
        for tr in self.binary_traces:
            tr.finish(end_time)
        return results, self.trace_map, report
