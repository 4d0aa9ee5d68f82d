"""Model-integrity sanitizer: declaration cross-checking and model lint.

The compiled engine's speedups rest on *declared* activity and reward
reads being complete, but the engine checks a declaration only on an
evaluation's first run through it — a read that happens only on a later
path (a short-circuit predicate) silently leaves the dependency map
short and produces wrong numbers.  Declared writes and reward forms need
no such check: each is its effect's or reward's only definition, and the
function the Python path runs is built from it.  This module is the
TSan/ASan analogue for the reads contract:

* ``Simulator(sanitize=True)`` / ``engine="sanitize"`` runs the
  engine's reference loop on the compiled program with the checks of a
  :class:`DeclarationChecker` swapped into its local tables.  Every
  predicate, distribution callable and rate reward evaluates on the
  tracked path and is checked against its declared reads (and a reward
  for finiteness) on **every** evaluation, and every effect fires
  through its Python function with no kernels, as on
  ``engine="reference"``.  Violations are collected with full
  provenance (activity, place path, event index, simulated time) into a
  :class:`SanitizerReport` attached to the
  :class:`~repro.core.simulation.RunResult`.  The checks only observe,
  so a sanitized run consumes the RNG stream exactly like
  ``engine="reference"`` on the same program: with ``sample_batch=None``
  (the sanitize default) a clean model's trajectory and results are
  bit-identical to the per-draw reference run, the differential
  contract pinned by ``tests/test_sanitizer.py``.  Declared names that
  do not resolve raise the same :class:`~repro.core.errors.SimulationError`
  as on the other engines, before any draw.

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

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .composition import FlatModel, Node, flatten
from .distributions import Distribution
from .errors import SanitizerError, SimulationError
from .gates import _noop
from .places import LocalView
from .san import SAN, TIMED

__all__ = [
    "SanitizerViolation",
    "SanitizerReport",
    "LintFinding",
    "LintReport",
    "lint_model",
]

#: The cross-check families a :class:`SanitizerReport` counts.
_CHECK_KINDS = (
    "predicate_evals",
    "distribution_evals",
    "case_selections",
    "reward_evals",
)


# ----------------------------------------------------------------------
# report structures
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SanitizerViolation:
    """One declaration violation observed by the instrumented run.

    Attributes
    ----------
    kind:
        Violation class: ``"undeclared-read"``, ``"case-sum"`` or
        ``"non-finite-reward"``.
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


# ----------------------------------------------------------------------
# run-time checks
# ----------------------------------------------------------------------
class DeclarationChecker:
    """The declaration checks of one ``engine="sanitize"`` run.

    :meth:`Simulator.run <repro.core.simulation.Simulator.run>` builds
    one per sanitized run and swaps its wrappers into the reference
    loop's local tables: :meth:`predicate`, :meth:`distribution` and
    :meth:`reward` evaluate the model's functions on the tracked path
    and check what they read and return.  The engine hands the rest to
    it instead of raising: mid-run faults (:meth:`violate`) and the
    run's end (:meth:`finish`).  Every wrapper returns what the wrapped
    function returns, so the trajectory is the reference loop's.

    ``clock`` returns the run's ``(events executed, simulated time)``,
    the provenance of each violation.
    """

    def __init__(self, model: FlatModel, vector, clock: Callable) -> None:
        self.report = SanitizerReport(
            model=model.name, checks=dict.fromkeys(_CHECK_KINDS, 0)
        )
        self.checks = self.report.checks
        self._canonical = model.canonical
        self._paths = [act.path for act in model.activities]
        self._declared = [
            act.definition.reads is not None for act in model.activities
        ]
        self._reads = vector.reads
        self._clock = clock
        self._seen: set[tuple[str, str, str | None]] = set()

    def violate(
        self, kind: str, subject: str, place: str | None, message: str
    ) -> None:
        """Record a violation; a ``(kind, subject, place)`` site keeps
        its first."""
        key = (kind, subject, place)
        if key not in self._seen:
            self._seen.add(key)
            n_events, now = self._clock()
            self.report.violations.append(
                SanitizerViolation(kind, subject, place, message, n_events, now)
            )

    def undeclared_reads(self, subject: str, what: str, slots) -> None:
        """Report ``slots`` as read outside ``subject``'s declared read
        set by its ``what``."""
        for slot in slots:
            self.violate(
                "undeclared-read",
                subject,
                self._canonical[slot],
                f"{what} read a place outside the declared read set",
            )

    def _drop_reads(self, subject: str, what: str) -> None:
        # A declared function evaluates through a view filtered by its
        # declaration, so every recorded read is undeclared.  Dropping
        # them keeps the dependency map and observer lists exactly the
        # declared ones, as on the compiled path.
        reads = self._reads
        if reads:
            self.undeclared_reads(subject, what, reads)
            reads.clear()

    def _activity_fn(self, aid: int, fn: Callable, counter: str, what: str):
        checks = self.checks
        path = self._paths[aid]
        declared = self._declared[aid]

        def checked(view):
            checks[counter] += 1
            out = fn(view)
            if declared:
                self._drop_reads(path, what)
            return out

        return checked

    def predicate(self, aid: int, pred: Callable) -> Callable:
        """Activity ``aid``'s enabling predicate, counted and read-checked."""
        return self._activity_fn(aid, pred, "predicate_evals", "enabling predicate")

    def distribution(self, aid: int, fn: Callable) -> Callable:
        """Activity ``aid``'s distribution callable, counted and
        read-checked."""
        return self._activity_fn(
            aid, fn, "distribution_evals", "distribution callable"
        )

    def reward(self, r) -> Callable:
        """Rate reward ``r``'s function with its read and finiteness
        checks."""
        checks = self.checks
        name = r.name
        fn = r.function
        declared = r.reads is not None

        def checked(view) -> float:
            checks["reward_evals"] += 1
            val = float(fn(view))
            if declared:
                self._drop_reads(name, "reward function")
            if not math.isfinite(val):
                self.violate(
                    "non-finite-reward",
                    name,
                    None,
                    f"reward function returned {val!r}",
                )
            return val

        return checked

    def finish(
        self, n_events: int, end_time: float, strict: bool
    ) -> SanitizerReport:
        """Close the report at the run's end.  Violations raise
        :class:`~repro.core.errors.SanitizerError` under ``strict``, and
        warn otherwise."""
        report = self.report
        report.n_events = n_events
        report.final_time = end_time
        if report.violations:
            if strict:
                raise SanitizerError(
                    f"sanitizer found {len(report.violations)} declaration "
                    f"violation(s) in model {report.model!r}:\n"
                    + report.format(),
                    report=report,
                )
            warnings.warn(
                "sanitizer violations detected (strict=False, continuing):\n"
                + report.format(),
                RuntimeWarning,
                stacklevel=4,
            )
        return report


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
        en = False
        vector.begin_tracking()
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
            vector.end_tracking()
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
            vector.begin_tracking()
            try:
                returned = dist(view)
            except Exception as exc:
                returned = None
                # The engine evaluates a law only when its activity is
                # enabled, so a raise matters only where it is.
                if en:
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
                vector.end_tracking()
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
