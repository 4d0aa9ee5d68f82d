"""Model-integrity sanitizer: declaration cross-checking and model lint.

The compiled engine's speedups all rest on *declared* activity reads and
writes, case branches and reward forms being truthful, but declarations
are only verified on an activity's first completion — a declaration that
is wrong on a later path silently produces wrong numbers.  This module
is the TSan/ASan analogue for that contract:

* :func:`sanitized_run` (reached through ``Simulator(sanitize=True)`` or
  ``engine="sanitize"``) executes a run on a fully instrumented
  interpreting event loop: every place access and marking write is
  shadow-tracked and cross-checked against the declarations on **every**
  evaluation and **every** firing, not just the first.  Violations are
  collected with full provenance (activity, place path, event index,
  simulated time) into a :class:`SanitizerReport` attached to the
  :class:`~repro.core.simulation.RunResult`.  The instrumented loop
  consumes the RNG stream exactly like
  ``Simulator(model, sample_batch=None, engine="reference")`` — on a
  clean model its trajectory and results are bit-identical to that
  per-draw reference run, which is the differential contract pinned by
  ``tests/test_sanitizer.py``.

* :func:`lint_model` statically checks a model (a bare SAN, a
  composition node, a :class:`~repro.core.composition.FlatModel`, or a
  facade exposing ``.model``) without simulating: declaration coverage,
  unresolved place names, undeclared reads visible on the initial
  marking, distribution-parameter NaN guards and sampling sanity,
  marking-dependent case probability sums, instant-chain cycle
  candidates, unreachable activities and dead places.

See ``docs/robustness.md`` ("Model integrity") for the full semantics
and the mutation-testing harness that proves both layers effective.
"""

from __future__ import annotations

import heapq
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .composition import FlatModel, Node, flatten
from .distributions import Distribution
from .errors import (
    InstantaneousLoopError,
    SanitizerError,
    SimulationError,
)
from .gates import _noop
from .places import LocalView
from .san import SAN, TIMED
from .simulation import _GUARD_FNS, _check_budget, _compose_predicates

__all__ = [
    "SanitizerViolation",
    "SanitizerReport",
    "sanitized_run",
    "LintFinding",
    "LintReport",
    "lint_model",
]


# ----------------------------------------------------------------------
# report structures
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SanitizerViolation:
    """One declaration violation observed by the instrumented run.

    Attributes
    ----------
    kind:
        Violation class: ``"undeclared-read"``, ``"undeclared-write"``,
        ``"write-mismatch"``, ``"rng-in-declared-effect"``,
        ``"case-sum"``, ``"form-mismatch"``, ``"non-finite-reward"``,
        ``"unresolved-read"``, ``"unresolved-write"``,
        ``"unresolved-guard"``, ``"unresolved-reward-read"``,
        ``"unresolved-form-place"``.
    subject:
        Activity path or reward name the violation belongs to.
    place:
        Offending place path when one is identifiable, else ``None``.
    message:
        Human-readable description.
    event_index:
        Number of events executed when the violation was first observed
        (0 for violations detected at initialization).
    sim_time:
        Simulated time at first observation.
    """

    kind: str
    subject: str
    place: str | None
    message: str
    event_index: int
    sim_time: float

    def __str__(self) -> str:  # pragma: no cover - convenience
        where = f" [{self.place}]" if self.place else ""
        return (
            f"{self.kind}: {self.subject}{where} at event "
            f"{self.event_index}, t={self.sim_time:.6g}: {self.message}"
        )


@dataclass
class SanitizerReport:
    """Outcome of one instrumented (``engine="sanitize"``) run.

    ``violations`` holds one entry per distinct ``(kind, subject,
    place)`` triple with the provenance of its *first* observation;
    ``checks`` counts how many cross-checks of each class actually ran,
    so a clean report is distinguishable from a report that checked
    nothing.
    """

    model: str
    n_events: int = 0
    final_time: float = 0.0
    violations: list[SanitizerViolation] = field(default_factory=list)
    checks: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the run recorded no violations."""
        return not self.violations

    def format(self) -> str:
        """Multi-line human-readable summary."""
        head = (
            f"sanitizer: model {self.model!r}, {self.n_events} events to "
            f"t={self.final_time:g}, "
            f"{sum(self.checks.values())} checks, "
            f"{len(self.violations)} violation(s)"
        )
        lines = [head]
        for v in self.violations:
            lines.append(f"  - {v}")
        return "\n".join(lines)


class _RecordingRng:
    """Delegating rng proxy that flags any use.

    Declared-writes effects must never touch the rng (the compiled
    kernels do not), so the sanitizer wraps the stream around them with
    this proxy: every attribute access is recorded but delegated, which
    keeps the draw stream identical to the plain Python path while still
    detecting the contract breach.
    """

    __slots__ = ("_rng", "used")

    def __init__(self, rng) -> None:
        self._rng = rng
        self.used = False

    def __getattr__(self, name: str):
        object.__setattr__(self, "used", True)
        return getattr(object.__getattribute__(self, "_rng"), name)


# ----------------------------------------------------------------------
# instrumented execution
# ----------------------------------------------------------------------
def sanitized_run(
    sim,
    obs,
    rng: np.random.Generator,
    stop_predicate: Callable[[LocalView], bool] | None,
    initial_marking: list[int] | None,
):
    """Execute one instrumented run for ``sim`` (a Simulator).

    Called by :meth:`Simulator.run` when ``engine="sanitize"``, after the
    run's arguments are checked, its rewards and traces wired (``obs``,
    the engines' shared wiring) and its stream resolved, so stream
    selection and argument errors match the other engines run-for-run.
    Returns a :class:`~repro.core.simulation.RunResult` whose
    ``sanitizer_report`` field carries the violation record; with
    ``sim.strict`` a non-clean report raises
    :class:`~repro.core.errors.SanitizerError` instead.
    """
    model: FlatModel = sim.model
    acts = model.activities
    n_acts = len(acts)
    n_places = model.n_places
    canonical = model.canonical
    max_chain = sim.max_instant_chain
    until = obs.until
    warmup = obs.warmup

    report = SanitizerReport(model=model.name)
    checks = report.checks
    for key in (
        "predicate_evals",
        "distribution_evals",
        "write_checks",
        "case_selections",
        "reward_evals",
    ):
        checks[key] = 0
    _seen: set[tuple[str, str, str | None]] = set()
    n_events = 0
    now = 0.0

    def violate(kind: str, subject: str, place: str | None, message: str) -> None:
        key = (kind, subject, place)
        if key in _seen:
            return
        _seen.add(key)
        report.violations.append(
            SanitizerViolation(kind, subject, place, message, n_events, now)
        )

    # -- marking and views ------------------------------------------------
    vector = model.new_marking()
    values = vector.values
    changed = vector.changed
    vreads = vector.reads
    # known=None: every tracked read is recorded — full shadow tracking.
    views = [LocalView(vector, act.index, None) for act in acts]
    gview = model.global_view(vector)
    act_paths = [act.path for act in acts]
    preds: list[Callable] = [None] * n_acts
    ig_fns: list[tuple] = [()] * n_acts
    og_fns: list[tuple] = [()] * n_acts
    cases_of = [act.definition.cases for act in acts]
    case_bounds: list[tuple | None] = [None] * n_acts
    is_timed = [act.definition.kind == TIMED for act in acts]
    priorities = [act.definition.priority for act in acts]
    reactivate = [act.definition.reactivate for act in acts]
    dists = [act.definition.distribution for act in acts]
    declared = [False] * n_acts
    declared_slots: list[set[int] | None] = [None] * n_acts
    # write_check[aid]: None, or one of the three kernel-eligible shapes
    # ("plain", ops) / ("guard", slot, cmp_fn, value, ops) /
    # ("case", branch_ops) with ops = tuple[(slot, is_add, amount)].
    write_check: list[tuple | None] = [None] * n_acts

    dep_lists: list[list[int]] = [[] for _ in range(n_places)]
    act_known: list[set[int]] = [set() for _ in range(n_acts)]

    def _ops_for(act, writes):
        ops = []
        for pname, kind, amount in writes:
            slot = act.index.get(pname)
            if slot is None:
                violate(
                    "unresolved-write",
                    act.path,
                    pname,
                    f"declared write {pname!r} is not a place of its SAN",
                )
                return None
            ops.append((slot, kind == "add", amount))
        return tuple(ops)

    for act in acts:
        aid = act.ident
        d = act.definition
        gates = d.input_gates
        preds[aid] = (
            gates[0].predicate if len(gates) == 1 else _compose_predicates(gates)
        )
        ig_fns[aid] = tuple(g.function for g in gates if g.function is not _noop)
        og_fns[aid] = tuple(og.function for og in d.output_gates)

        if d.reads is not None:
            slots: set[int] = set()
            resolved = True
            for pname in d.reads:
                slot = act.index.get(pname)
                if slot is None:
                    violate(
                        "unresolved-read",
                        act.path,
                        pname,
                        f"declared read {pname!r} is not a place of its SAN",
                    )
                    resolved = False
                else:
                    slots.add(slot)
            if resolved:
                declared[aid] = True
                declared_slots[aid] = slots
                for slot in slots:
                    act_known[aid].add(slot)
                    dep_lists[slot].append(aid)
            # Unresolved declarations fall back to tracked discovery so
            # the run still makes progress (the engine would refuse to
            # compile; here the violation *is* the diagnosis).

        if d.cases:
            if not any(callable(case.probability) for case in d.cases):
                acc = 0.0
                bounds = []
                for case in d.cases:
                    acc += float(case.probability)
                    bounds.append(acc)
                case_bounds[aid] = tuple(bounds)

        # Mirror the compile-time kernel-eligibility rules so the write
        # cross-check covers exactly the firings the compiled engine
        # would apply as precomputed slot ops.
        if not ig_fns[aid] and not d.cases and d.output_gates and all(
            og.writes is not None and og.when is None for og in d.output_gates
        ):
            all_ops = []
            ok = True
            for og in d.output_gates:
                ops = _ops_for(act, og.writes)
                if ops is None:
                    ok = False
                    break
                all_ops.extend(ops)
            if ok:
                write_check[aid] = ("plain", tuple(all_ops))
        elif (
            not ig_fns[aid]
            and not d.cases
            and len(d.output_gates) == 1
            and d.output_gates[0].writes is not None
            and d.output_gates[0].when is not None
        ):
            og = d.output_gates[0]
            pname, cmp, gval = og.when
            slot = act.index.get(pname)
            if slot is None:
                violate(
                    "unresolved-guard",
                    act.path,
                    pname,
                    f"write guard place {pname!r} is not a place of its SAN",
                )
            else:
                ops = _ops_for(act, og.writes)
                if ops is not None:
                    write_check[aid] = ("guard", slot, _GUARD_FNS[cmp], gval, ops)
        elif (
            not ig_fns[aid]
            and d.cases
            and case_bounds[aid] is not None
            and all(case.writes is not None for case in d.cases)
            and all(
                og.writes is not None and og.when is None
                for og in d.output_gates
            )
        ):
            og_ops: list = []
            ok = True
            for og in d.output_gates:
                ops = _ops_for(act, og.writes)
                if ops is None:
                    ok = False
                    break
                og_ops.extend(ops)
            if ok:
                branch_ops = []
                for case in d.cases:
                    ops = _ops_for(act, case.writes)
                    if ops is None:
                        ok = False
                        break
                    branch_ops.append(ops + tuple(og_ops))
                if ok:
                    write_check[aid] = ("case", tuple(branch_ops))

    # -- reward / trace wiring -------------------------------------------
    # The shared part is ``obs``; the declared reads and forms below are
    # resolved as findings, where the engine would raise.
    rate_rewards = obs.rate_rewards
    rate_values = obs.rate_values
    binary_traces = obs.binary_traces
    impulse_by_act = obs.impulse_by_act
    etrace_by_act = obs.etrace_by_act
    probe_list = obs.probe_list
    rate_results = obs.rate_results
    n_rates = len(rate_rewards)
    rate_fns = [r.function for r in rate_rewards]
    rate_views = [LocalView(vector, model.paths, None) for _ in range(n_rates)]
    paths_index = model.paths

    # Declared reward read sets, resolved to slots (globs expanded).
    rate_declared_slots: list[set[int] | None] = [None] * n_rates
    for i, r in enumerate(rate_rewards):
        if r.reads is None:
            continue
        slots: set[int] = set()
        resolved = True
        for entry in r.reads:
            slot = paths_index.get(entry)
            hits = [slot] if slot is not None else list(model.match(entry).values())
            if not hits:
                violate(
                    "unresolved-reward-read",
                    r.name,
                    entry,
                    f"declared read {entry!r} matches no place",
                )
                resolved = False
            else:
                slots.update(hits)
        if resolved:
            rate_declared_slots[i] = slots

    # Declared reward forms, resolved to the canonical guard/affine
    # arithmetic the engine's form kernels compute.
    rate_forms: list[tuple | None] = [None] * n_rates

    def _form_slot(rname: str, place: str) -> int | None:
        slot = paths_index.get(place)
        if slot is not None:
            return slot
        matches = model.match(place)
        if len(matches) != 1:
            violate(
                "unresolved-form-place",
                rname,
                place,
                f"form place {place!r} resolved to {len(matches)} places; "
                "expected exactly one",
            )
            return None
        return next(iter(matches.values()))

    for i, r in enumerate(rate_rewards):
        if r.form is None:
            continue
        f = r.form
        ok = True
        terms = []
        for p_, coef, div in f.terms:
            slot = _form_slot(r.name, p_)
            if slot is None:
                ok = False
                break
            terms.append((slot, coef, div))
        guards = []
        if ok:
            for place, cmp, gval in f.guards:
                if isinstance(place, tuple):
                    sa = _form_slot(r.name, place[0])
                    sb = _form_slot(r.name, place[1])
                    if sa is None or sb is None:
                        ok = False
                        break
                else:
                    sa = _form_slot(r.name, place)
                    sb = -1
                    if sa is None:
                        ok = False
                        break
                guards.append((_GUARD_FNS[cmp], gval, sa, sb))
        if ok:
            rate_forms[i] = (tuple(guards), f.base, tuple(terms))

    def form_value(i: int) -> float:
        guards, base, terms = rate_forms[i]
        for gcmp, gv, sa, sb in guards:
            if not gcmp(values[sa] if sb < 0 else values[sa] - values[sb], gv):
                return 0.0
        acc = base
        for ts_, tc, td in terms:
            acc += tc * values[ts_] / td
        return acc

    n_probes = len(probe_list)
    probe_pos = 0
    n_btraces = len(binary_traces)
    btrace_views = [
        LocalView(vector, model.paths, None) for _ in range(n_btraces)
    ]
    btrace_values = [False] * n_btraces

    def eval_rate(i: int) -> float:
        """Fully tracked evaluation with every cross-check applied."""
        checks["reward_evals"] += 1
        vector.tracking = True
        vreads.clear()
        try:
            val = float(rate_fns[i](rate_views[i]))
        finally:
            vector.tracking = False
        dslots = rate_declared_slots[i]
        if dslots is not None:
            for slot in vreads:
                if slot not in dslots:
                    violate(
                        "undeclared-read",
                        rate_rewards[i].name,
                        canonical[slot],
                        "reward function read a place outside its "
                        "declared read set",
                    )
        if rate_forms[i] is not None:
            kval = form_value(i)
            if kval != val:
                violate(
                    "form-mismatch",
                    rate_rewards[i].name,
                    None,
                    f"declared form evaluates to {kval!r} but the reward "
                    f"function returned {val!r}",
                )
        if not math.isfinite(val):
            violate(
                "non-finite-reward",
                rate_rewards[i].name,
                None,
                f"reward function returned {val!r}",
            )
        return val

    def eval_btrace(i: int) -> bool:
        vector.tracking = True
        vreads.clear()
        try:
            val = bool(binary_traces[i].function(btrace_views[i]))
        finally:
            vector.tracking = False
        return val

    # -- enabling / sampling ---------------------------------------------
    epoch = 0
    stamp = [0] * n_acts
    token = [0] * n_acts
    enabled_instant = [False] * n_acts
    inst_enabled: set[int] = set()
    heap: list[tuple[float, int, int, int]] = []
    seq = 0

    def eval_pred(aid: int) -> bool:
        checks["predicate_evals"] += 1
        vector.tracking = True
        vreads.clear()
        try:
            en = preds[aid](views[aid])
        finally:
            vector.tracking = False
        if declared[aid]:
            dslots = declared_slots[aid]
            for slot in vreads:
                if slot not in dslots:
                    violate(
                        "undeclared-read",
                        act_paths[aid],
                        canonical[slot],
                        "enabling predicate read a place outside the "
                        "declared read set",
                    )
            # Declared activities do NOT grow their dependency set: the
            # engine wires exactly the declared slots, so growing it here
            # would give the sanitizer wake-ups the engine misses and the
            # trajectories could diverge on the very models this mode is
            # meant to diagnose.
        else:
            known = act_known[aid]
            for slot in vreads:
                if slot not in known:
                    known.add(slot)
                    dep_lists[slot].append(aid)
        return bool(en)

    def draw_delay(aid: int) -> float:
        dist = dists[aid]
        if not isinstance(dist, Distribution):
            # Marking-dependent distribution callable: evaluate tracked.
            checks["distribution_evals"] += 1
            vector.tracking = True
            vreads.clear()
            try:
                dist = dist(views[aid])
            finally:
                vector.tracking = False
            if declared[aid]:
                dslots = declared_slots[aid]
                for slot in vreads:
                    if slot not in dslots:
                        violate(
                            "undeclared-read",
                            act_paths[aid],
                            canonical[slot],
                            "distribution callable read a place outside "
                            "the declared read set",
                        )
            else:
                known = act_known[aid]
                for slot in vreads:
                    if slot not in known:
                        known.add(slot)
                        dep_lists[slot].append(aid)
            if not isinstance(dist, Distribution):
                raise SimulationError(
                    f"activity {act_paths[aid]!r}: "
                    "distribution callable did not return a Distribution"
                )
        delay = dist.sample(rng)
        if not delay >= 0.0:  # also catches NaN
            raise SimulationError(
                f"activity {act_paths[aid]!r} sampled invalid delay {delay!r}"
            )
        return delay

    def update_timed(aid: int, en: bool) -> None:
        nonlocal seq
        tok = token[aid]
        if en:
            if not tok & 1:
                tok += 1
            elif reactivate[aid]:
                tok += 2
            else:
                return
            token[aid] = tok
            delay = draw_delay(aid)
            ft = now + delay
            if ft <= until:
                heapq.heappush(heap, (ft, seq, aid, tok))
            seq += 1
        elif tok & 1:
            token[aid] = tok + 1

    # -- firing with write cross-checks ----------------------------------
    def fire(aid: int) -> None:
        nonlocal n_events
        n_events += 1
        report.n_events = n_events
        view = views[aid]
        check = write_check[aid]
        ops = None
        proxy = None
        if check is not None:
            shape = check[0]
            if shape == "plain":
                ops = check[1]
            elif shape == "guard":
                _shape, gslot, gcmp, gval, gops = check
                ops = gops if gcmp(values[gslot], gval) else ()
            # "case" resolves after the uniform below
            proxy = _RecordingRng(rng)
        pre: dict[int, int] | None = None
        if ops is not None:
            pre = {slot: values[slot] for slot, _a, _v in ops}
        effect_rng = proxy if proxy is not None else rng

        for fn in ig_fns[aid]:
            fn(view, rng)
        cases = cases_of[aid]
        if cases:
            checks["case_selections"] += 1
            u = rng.uniform()
            bounds = case_bounds[aid]
            if bounds is not None:
                idx = len(bounds) - 1
                for ci, acc in enumerate(bounds):
                    if u <= acc:
                        idx = ci
                        break
            else:
                probs = [case.probability_in(view) for case in cases]
                total = sum(probs)
                if not (abs(total - 1.0) <= 1e-9):
                    violate(
                        "case-sum",
                        act_paths[aid],
                        None,
                        f"case probabilities sum to {total} at completion",
                    )
                acc = 0.0
                idx = len(cases) - 1
                for ci, p_ in enumerate(probs):
                    acc += p_
                    if u <= acc:
                        idx = ci
                        break
            if check is not None and check[0] == "case":
                ops = check[1][idx]
                pre = {slot: values[slot] for slot, _a, _v in ops}
            cases[idx].function(view, effect_rng)
        for og in og_fns[aid]:
            og(view, effect_rng)

        if ops is not None:
            checks["write_checks"] += 1
            predicted: dict[int, int] = {}
            for slot, is_add, amount in ops:
                cur = predicted.get(slot, pre[slot])
                predicted[slot] = cur + amount if is_add else amount
            for slot in changed:
                if slot not in predicted:
                    violate(
                        "undeclared-write",
                        act_paths[aid],
                        canonical[slot],
                        "effect wrote a place missing from the declared "
                        "write ops",
                    )
            for slot, v in predicted.items():
                if values[slot] != v:
                    violate(
                        "write-mismatch",
                        act_paths[aid],
                        canonical[slot],
                        f"declared ops give {v}, the effect function "
                        f"wrote {values[slot]}",
                    )
                elif v < 0:  # pragma: no cover - view rejects negatives
                    violate(
                        "write-mismatch",
                        act_paths[aid],
                        canonical[slot],
                        f"declared ops drive the place negative ({v})",
                    )
            if proxy is not None and proxy.used:
                violate(
                    "rng-in-declared-effect",
                    act_paths[aid],
                    None,
                    "an effect with fully declared writes used the rng; "
                    "the compiled kernel would not",
                )

        # impulse rewards / event traces observe the completion
        if now >= warmup:
            obs = impulse_by_act[aid]
            if obs is not None:
                for res, static, fn, ilo, ihi in obs:
                    if ilo <= now <= ihi:
                        val = static if fn is None else fn(gview)
                        if not math.isfinite(val):
                            violate(
                                "non-finite-reward",
                                res.name,
                                None,
                                f"impulse value evaluated to {val!r}",
                            )
                        res.impulse_sum += val
                        res.count += 1
        etr = etrace_by_act[aid]
        if etr is not None:
            path = act_paths[aid]
            for tr in etr:
                tr.record(now, path, gview)

    def settle(dirty: list[int]) -> None:
        nonlocal epoch
        chain = 0
        while True:
            dirty.sort()
            for aid in dirty:
                en = eval_pred(aid)
                if is_timed[aid]:
                    update_timed(aid, en)
                elif en != enabled_instant[aid]:
                    enabled_instant[aid] = en
                    if en:
                        inst_enabled.add(aid)
                    else:
                        inst_enabled.discard(aid)
            del dirty[:]
            if not inst_enabled:
                return
            best = -1
            best_pri = 0
            for iid in inst_enabled:
                pri = priorities[iid]
                if best < 0 or pri > best_pri or (pri == best_pri and iid < best):
                    best = iid
                    best_pri = pri
            chain += 1
            if chain > max_chain:
                raise InstantaneousLoopError(
                    f"more than {max_chain} instantaneous firings at "
                    f"t={now}; last activity {act_paths[best]!r}"
                )
            fire(best)
            epoch += 1
            for slot in changed:
                for d in dep_lists[slot]:
                    if stamp[d] != epoch:
                        stamp[d] = epoch
                        dirty.append(d)
            changed.clear()

    # -- initialization at t = 0 -----------------------------------------
    # Mirror the engine's two-stage initialization: the compile-time
    # pre-evaluation happens on the *model's* initial marking (it seeds
    # tracked dependency discovery and consumes no rng), then a supplied
    # initial_marking re-derives every enabling through settle().
    has_instants = any(not t for t in is_timed)
    init_en = [False] * n_acts
    for aid in range(n_acts):
        init_en[aid] = eval_pred(aid)
    if initial_marking is None:
        for aid in range(n_acts):
            if is_timed[aid]:
                if init_en[aid]:
                    token[aid] = 1
                    delay = draw_delay(aid)
                    if delay <= until:
                        heap.append((delay, seq, aid, 1))
                    seq += 1
            else:
                enabled_instant[aid] = init_en[aid]
                if init_en[aid]:
                    inst_enabled.add(aid)
        heapq.heapify(heap)
        if has_instants:
            settle([])
    else:
        vector.reset(initial_marking)
        settle(list(range(n_acts)))

    for i in range(n_rates):
        rate_values[i] = eval_rate(i)
    for i, tr in enumerate(binary_traces):
        btrace_values[i] = eval_btrace(i)
        tr.observe(0.0, btrace_values[i])

    last_t = 0.0
    stopped_early = False
    has_budget = sim.max_events is not None or sim.max_wall_s is not None
    wall_deadline = (
        time.monotonic() + sim.max_wall_s if sim.max_wall_s is not None else None
    )

    # -- event loop -------------------------------------------------------
    dirty: list[int] = []
    while heap:
        ftime, _s, aid, tok = heapq.heappop(heap)
        if tok != token[aid]:
            continue
        if ftime > until:
            break
        if has_budget:
            _check_budget(sim, wall_deadline, obs, n_events, now, values)
        while probe_pos < n_probes and probe_list[probe_pos][0] <= ftime:
            pt, pi = probe_list[probe_pos]
            rate_results[pi].instants.append((pt, rate_values[pi]))
            probe_pos += 1
        if n_rates:
            obs.integrate(last_t, ftime)
            last_t = ftime
        now = ftime
        token[aid] += 1

        fire(aid)
        epoch += 1
        stamp[aid] = epoch
        dirty.append(aid)
        for slot in changed:
            for d in dep_lists[slot]:
                if stamp[d] != epoch:
                    stamp[d] = epoch
                    dirty.append(d)
        changed.clear()
        settle(dirty)

        # Re-evaluate EVERY rate reward and binary trace: pure functions
        # of the marking, so the values match the engine's touched-list
        # refresh — and every evaluation is a fresh read/form check.
        for i in range(n_rates):
            rate_values[i] = eval_rate(i)
        for i in range(n_btraces):
            val = eval_btrace(i)
            if val != btrace_values[i]:
                btrace_values[i] = val
                binary_traces[i].observe(now, val)

        if stop_predicate is not None and stop_predicate(gview):
            stopped_early = True
            break

    # -- run end ----------------------------------------------------------
    end_time = now if stopped_early else until
    obs.integrate(last_t, end_time)
    for r, acc in zip(rate_rewards, obs.rate_integrals):
        if not math.isfinite(acc):
            violate(
                "non-finite-reward",
                r.name,
                None,
                f"accumulated integral is {acc!r}",
            )
    result = obs.result(
        model, values, n_events, end_time, stopped_early, probe_pos, report
    )

    report.n_events = n_events
    report.final_time = end_time
    if report.violations:
        if sim.strict:
            raise SanitizerError(
                f"sanitizer found {len(report.violations)} declaration "
                f"violation(s) in model {model.name!r}:\n" + report.format(),
                report=report,
            )
        warnings.warn(
            "sanitizer violations detected (strict=False, continuing):\n"
            + report.format(),
            RuntimeWarning,
            stacklevel=3,
        )

    sim.last_loop = "sanitize"
    sim.last_kernel_effects = 0
    sim.last_case_kernels = 0
    sim.last_python_effects = n_events
    sim.last_reward_kernels = []
    sim.last_python_refresh_rewards = sorted(r.name for r in rate_rewards)

    return result


# ----------------------------------------------------------------------
# static lint
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LintFinding:
    """One static-analysis finding.

    ``severity`` is ``"error"`` (the model contradicts its declarations
    or cannot execute) or ``"warning"`` (suspicious structure: dead
    places, unreachable activities, instant-chain cycle candidates).
    """

    code: str
    severity: str
    subject: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"[{self.severity}] {self.code}: {self.subject}: {self.message}"


@dataclass
class LintReport:
    """Outcome of :func:`lint_model`."""

    model: str
    findings: list[LintFinding] = field(default_factory=list)
    coverage: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the lint pass produced no findings at all."""
        return not self.findings

    def format(self) -> str:
        """Multi-line human-readable summary."""
        cov = self.coverage
        head = (
            f"lint: model {self.model!r} — {cov.get('n_places', 0)} places, "
            f"{cov.get('n_activities', 0)} activities "
            f"({cov.get('declared_reads', 0)} declared reads, "
            f"{cov.get('declared_effects', 0)} declared effects); "
            f"{len(self.findings)} finding(s)"
        )
        lines = [head]
        for f in self.findings:
            lines.append(f"  - {f}")
        return "\n".join(lines)


def _as_flat(model) -> FlatModel:
    if isinstance(model, FlatModel):
        return model
    if isinstance(model, (SAN, Node)):
        return flatten(model)
    inner = getattr(model, "model", None)
    if isinstance(inner, FlatModel):
        return inner
    raise SimulationError(
        f"lint_model expects a SAN, composition node, FlatModel, or an "
        f"object exposing .model; got {type(model).__name__}"
    )


def _dist_param_nans(dist: Distribution) -> list[str]:
    """Names of numeric distribution parameters that are NaN."""
    params: dict[str, object] = {}
    for klass in type(dist).__mro__:
        for s in getattr(klass, "__slots__", ()):
            try:
                params[s] = getattr(dist, s)
            except AttributeError:
                pass
    params.update(getattr(dist, "__dict__", {}))
    bad = []
    for name, val in params.items():
        if isinstance(val, float) and math.isnan(val):
            bad.append(name.lstrip("_"))
    return sorted(bad)


def _check_distribution(
    dist: Distribution, subject: str, findings: list[LintFinding]
) -> None:
    """Parameter NaN guard plus behavioral sampling sanity."""
    bad = _dist_param_nans(dist)
    if bad:
        findings.append(
            LintFinding(
                "nan-distribution-param",
                "error",
                subject,
                f"distribution parameter(s) {bad} are NaN",
            )
        )
        return
    probe = np.random.default_rng(20080604)
    try:
        draws = [float(dist.sample(probe)) for _ in range(3)]
    except Exception as exc:
        findings.append(
            LintFinding(
                "bad-distribution-params",
                "error",
                subject,
                f"sampling raised {type(exc).__name__}: {exc}",
            )
        )
        return
    for d in draws:
        if not (math.isfinite(d) and d >= 0.0):
            findings.append(
                LintFinding(
                    "bad-distribution-params",
                    "error",
                    subject,
                    f"sampling produced invalid delay {d!r}",
                )
            )
            return


def lint_model(model) -> LintReport:
    """Statically lint a model's declarations and structure.

    Accepts a bare :class:`~repro.core.san.SAN`, a composition
    :class:`~repro.core.composition.Node`, a flattened
    :class:`~repro.core.composition.FlatModel`, or any facade exposing a
    ``model`` attribute holding one (``ClusterModel``,
    ``StorageModel``).  Runs no simulation: predicates, distribution
    callables and case probabilities are evaluated once on the initial
    marking under read tracking, everything else is structural analysis.
    Paper-workload models ship lint-clean; the CI ``sanitize`` job keeps
    them that way.
    """
    flat = _as_flat(model)
    findings: list[LintFinding] = []
    acts = flat.activities
    n_places = flat.n_places
    vector = flat.new_marking()

    declared_reads = 0
    declared_effects = 0
    # Over-approximations used by reachability checks: for each activity,
    # the slots it may read (declared set, else its whole visible index)
    # and the slots it may write (declared ops, else its whole index).
    read_over: list[set[int]] = []
    write_over: list[set[int]] = []
    init_enabled: list[bool] = []

    for act in acts:
        aid = act.ident
        d = act.definition
        index = act.index

        # -- declared-name resolution ---------------------------------
        reads_resolved = True
        if d.reads is not None:
            declared_reads += 1
            for pname in d.reads:
                if pname not in index:
                    reads_resolved = False
                    findings.append(
                        LintFinding(
                            "unresolved-read",
                            "error",
                            act.path,
                            f"declared read {pname!r} is not a place of "
                            "its SAN",
                        )
                    )
        writes_all_declared = bool(d.output_gates) or bool(d.cases)
        w_over: set[int] = set()
        for og in d.output_gates:
            if og.writes is None:
                writes_all_declared = False
                w_over.update(index.values())
            else:
                for pname, _kind, _amount in og.writes:
                    slot = index.get(pname)
                    if slot is None:
                        findings.append(
                            LintFinding(
                                "unresolved-write",
                                "error",
                                act.path,
                                f"declared write {pname!r} is not a place "
                                "of its SAN",
                            )
                        )
                    else:
                        w_over.add(slot)
            if og.when is not None and og.when[0] not in index:
                findings.append(
                    LintFinding(
                        "unresolved-guard",
                        "error",
                        act.path,
                        f"write guard place {og.when[0]!r} is not a place "
                        "of its SAN",
                    )
                )
        for case in d.cases:
            if case.writes is None:
                writes_all_declared = False
                w_over.update(index.values())
            else:
                for pname, _kind, _amount in case.writes:
                    slot = index.get(pname)
                    if slot is None:
                        findings.append(
                            LintFinding(
                                "unresolved-write",
                                "error",
                                act.path,
                                f"declared case write {pname!r} is not a "
                                "place of its SAN",
                            )
                        )
                    else:
                        w_over.add(slot)
        if any(g.function is not _noop for g in d.input_gates):
            writes_all_declared = False
            w_over.update(index.values())
        if writes_all_declared and (d.output_gates or d.cases):
            declared_effects += 1
        write_over.append(w_over)

        # -- predicate on the initial marking -------------------------
        view = LocalView(vector, index, None)
        vector.tracking = True
        vector.reads.clear()
        en = False
        try:
            en = bool(ActDefPred(d)(view))
        except Exception as exc:
            findings.append(
                LintFinding(
                    "bad-predicate",
                    "error",
                    act.path,
                    f"enabling predicate raised {type(exc).__name__} on "
                    f"the initial marking: {exc}",
                )
            )
        finally:
            vector.tracking = False
        init_enabled.append(en)
        initial_reads = set(vector.reads)
        if d.reads is not None and reads_resolved:
            dslots = {index[p] for p in d.reads}
            extra = initial_reads - dslots
            if extra:
                names = sorted(flat.canonical[s] for s in extra)
                findings.append(
                    LintFinding(
                        "undeclared-read",
                        "error",
                        act.path,
                        f"enabling predicate reads undeclared places "
                        f"{names} on the initial marking",
                    )
                )
            read_over.append(dslots)
        elif d.reads is not None:
            read_over.append(set(index.values()))
        else:
            read_over.append(set(index.values()))

        # -- distribution checks --------------------------------------
        dist = d.distribution
        if isinstance(dist, Distribution):
            _check_distribution(dist, act.path, findings)
        elif callable(dist):
            vector.tracking = True
            vector.reads.clear()
            try:
                returned = dist(view)
            except Exception as exc:
                returned = None
                findings.append(
                    LintFinding(
                        "bad-distribution",
                        "error",
                        act.path,
                        f"distribution callable raised "
                        f"{type(exc).__name__} on the initial marking: "
                        f"{exc}",
                    )
                )
            finally:
                vector.tracking = False
            if d.reads is not None and reads_resolved:
                dslots = {index[p] for p in d.reads}
                extra = set(vector.reads) - dslots
                if extra:
                    names = sorted(flat.canonical[s] for s in extra)
                    findings.append(
                        LintFinding(
                            "undeclared-read",
                            "error",
                            act.path,
                            f"distribution callable reads undeclared "
                            f"places {names} on the initial marking",
                        )
                    )
            if returned is not None:
                if not isinstance(returned, Distribution):
                    findings.append(
                        LintFinding(
                            "bad-distribution",
                            "error",
                            act.path,
                            "distribution callable did not return a "
                            f"Distribution (got "
                            f"{type(returned).__name__})",
                        )
                    )
                else:
                    _check_distribution(returned, act.path, findings)

        # -- case probability sums ------------------------------------
        if d.cases and any(callable(c.probability) for c in d.cases):
            try:
                total = sum(c.probability_in(view) for c in d.cases)
            except Exception as exc:
                findings.append(
                    LintFinding(
                        "bad-case-probability",
                        "error",
                        act.path,
                        f"case probability raised {type(exc).__name__} on "
                        f"the initial marking: {exc}",
                    )
                )
            else:
                if not (abs(total - 1.0) <= 1e-9):
                    findings.append(
                        LintFinding(
                            "case-sum",
                            "error",
                            act.path,
                            f"case probabilities sum to {total} on the "
                            "initial marking",
                        )
                    )

    # -- instant-chain cycle candidates --------------------------------
    # Conservative static check over *declared* dependencies only: an
    # edge A -> B when instant A's declared writes intersect instant B's
    # declared reads.  A strongly connected component of two or more
    # instants can re-enable each other forever (the vanishing-loop
    # shape InstantaneousLoopError catches at runtime).
    inst_ids = [a.ident for a in acts if a.definition.kind != TIMED]
    edges: dict[int, list[int]] = {aid: [] for aid in inst_ids}
    for a in inst_ids:
        wa = write_over[a] if acts[a].definition.reads is None else write_over[a]
        # only declared-write instants give precise edges
        da = acts[a].definition
        if any(og.writes is None for og in da.output_gates) or any(
            c.writes is None for c in da.cases
        ) or any(g.function is not _noop for g in da.input_gates):
            continue
        for b in inst_ids:
            if b == a:
                continue
            db = acts[b].definition
            if db.reads is None:
                continue
            rb = {
                acts[b].index[p] for p in db.reads if p in acts[b].index
            }
            if wa & rb:
                edges[a].append(b)
    for comp in _sccs(edges):
        if len(comp) >= 2:
            paths = sorted(acts[a].path for a in comp)
            findings.append(
                LintFinding(
                    "instant-cycle",
                    "warning",
                    paths[0],
                    "instantaneous activities may re-enable each other "
                    f"in a cycle: {paths}",
                )
            )

    # -- unreachable activities / dead places --------------------------
    writable: set[int] = set()
    for w in write_over:
        writable |= w
    for act in acts:
        aid = act.ident
        if init_enabled[aid]:
            continue
        if not (read_over[aid] & writable):
            findings.append(
                LintFinding(
                    "unreachable-activity",
                    "warning",
                    act.path,
                    "disabled on the initial marking and no activity can "
                    "ever write a place its enabling may read",
                )
            )
    touched: set[int] = set(writable)
    for r in read_over:
        touched |= r
    for slot in range(n_places):
        if slot not in touched:
            findings.append(
                LintFinding(
                    "dead-place",
                    "warning",
                    flat.canonical[slot],
                    "no activity ever reads or writes this place",
                )
            )

    coverage = {
        "n_places": n_places,
        "n_activities": len(acts),
        "declared_reads": declared_reads,
        "declared_effects": declared_effects,
        "undeclared_reads": len(acts) - declared_reads,
    }
    return LintReport(model=flat.name, findings=findings, coverage=coverage)


class ActDefPred:
    """Conjunction of an activity definition's input-gate predicates."""

    __slots__ = ("_preds",)

    def __init__(self, definition) -> None:
        self._preds = tuple(g.predicate for g in definition.input_gates)

    def __call__(self, m) -> bool:
        for p in self._preds:
            if not p(m):
                return False
        return True


def _sccs(edges: dict[int, list[int]]) -> list[list[int]]:
    """Tarjan strongly connected components (iterative)."""
    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = [0]

    for root in edges:
        if root in index_of:
            continue
        work = [(root, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succs = edges[node]
            while ei < len(succs):
                succ = succs[ei]
                ei += 1
                if succ not in index_of:
                    work[-1] = (node, ei)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return out
