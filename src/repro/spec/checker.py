"""Explicit-state model checker (the TLC analog).

Breadth-first exploration of a :class:`~repro.spec.lang.Spec`'s state
space with:

* **safety** — every invariant evaluated on every distinct state; a
  violation yields a counterexample trace (the shortest path from the
  initial state, as TLC produces);
* **liveness** — ◇□P properties checked by requiring every *terminal*
  strongly connected component of the reachable graph to satisfy P in
  all of its states (sound for weakly fair schedulers on finite models
  whose failure processes are budget-bounded, as the paper's are);
* **deadlock** — states with no enabled step where not all processes
  have terminated.

The three scaling techniques of §3.7 are implemented exactly as
described and are individually switchable for the Table 4 ablation:

* **symmetry reduction** — states are canonicalized by the spec's
  symmetry function before deduplication;
* **partial-order reduction** — when some process's next step is
  declared *local* (commutes with everything), only the first such
  process is expanded (an ample set of size one);
* **compositional abstraction** — not a checker switch but a spec
  construction switch: specs offer abstract over-approximations of
  components (e.g. AbstractSW) that collapse internal detail.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from typing import Optional

from ..obs.prof import CheckerTraceBuilder, CheckProfiler, Progress
from .fingerprint import IncrementalFingerprinter, fingerprint_state
from .lang import Blocked, Ctx, NeedChoice, Spec, State

__all__ = ["CheckResult", "Violation", "ModelChecker", "check",
           "UnsoundPORHintError"]


class UnsoundPORHintError(Exception):
    """A ``Step.local=True`` ample-set hint contradicts the step's effects.

    POR with an unsound hint silently removes interleavings and can
    certify buggy specs, so the checker refuses to explore rather than
    return an untrustworthy verdict.  Carries the analyzer findings.
    """

    def __init__(self, findings):
        self.findings = list(findings)
        sites = ", ".join(f.site for f in self.findings)
        super().__init__(
            f"unsound local=True ample-set hint(s) at {sites}; "
            "run `zenith-repro lint` for details, or pass por=False")


@dataclass
class Violation:
    """A property violation with its counterexample trace."""

    kind: str          # "invariant" | "liveness" | "deadlock"
    property_name: str
    trace: list[tuple[str, State]]  # (action label, state) pairs

    @property
    def length(self) -> int:
        """Number of steps in the counterexample."""
        return len(self.trace)

    def describe(self) -> str:
        """Human-readable counterexample."""
        lines = [f"{self.kind} violation of {self.property_name!r} "
                 f"({self.length} steps):"]
        for index, (action, _state) in enumerate(self.trace):
            lines.append(f"  {index:3d}. {action}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        """Canonical JSON form (states as stable 64-bit fingerprints)."""
        return {
            "kind": self.kind,
            "property": self.property_name,
            "length": self.length,
            "trace": [{"action": action,
                       "state": f"{fingerprint_state(state):016x}"}
                      for action, state in self.trace],
        }


@dataclass
class CheckResult:
    """Outcome of a model-checking run."""

    ok: bool
    distinct_states: int
    transitions: int
    diameter: int
    elapsed: float
    violations: list[Violation] = field(default_factory=list)
    #: Engine-specific extras (worker count, spawn/explore split, dedup
    #: hit rate).  Wall-clock and machine facts only — deliberately
    #: excluded from :meth:`to_json`.
    stats: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One-line TLC-style summary."""
        status = "OK" if self.ok else "VIOLATION"
        return (f"{status}: {self.distinct_states} distinct states, "
                f"{self.transitions} transitions, diameter {self.diameter}, "
                f"{self.elapsed:.3f}s")

    def to_json(self) -> str:
        """Canonical serialization of the *deterministic* outcome.

        Contains everything that is a pure function of (spec, checker
        options) — verdict, counts, diameter, violations with their
        traces as stable state fingerprints — and nothing that varies
        between runs (elapsed time, worker placement).  Two runs of the
        same configuration must produce byte-identical output; the
        differential suite enforces this across worker counts.
        """
        doc = {
            "ok": self.ok,
            "distinct_states": self.distinct_states,
            "transitions": self.transitions,
            "diameter": self.diameter,
            "violations": [v.to_json_obj() for v in self.violations],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class ModelChecker:
    """Explores a spec's state space.

    ``workers=None`` (the default) runs the single-process BFS below.
    ``workers=N`` for N >= 1 runs the TLC-style parallel engine of
    :mod:`repro.spec.parallel` — for state spaces whose seen-set does
    not fit one process, not for speed: spawned worker processes own
    fingerprint shards and exchange discovered states in batches; it
    requires ``spec_source`` (a picklable
    :class:`~repro.spec.parallel.SpecSource`) so each worker can rebuild
    the spec, and accepts ``exact_fingerprints=True`` to detect hash
    collisions on small specs.  ``registry`` (a
    :class:`repro.obs.MetricsRegistry`) receives frontier-depth /
    states-per-second / per-shard dedup gauges.
    """

    def __init__(self, spec: Spec, symmetry: bool = True, por: bool = True,
                 max_states: int = 2_000_000,
                 stop_at_first_violation: bool = True,
                 check_deadlock: bool = True,
                 validate_por_hints: bool = True,
                 workers: Optional[int] = None,
                 spec_source=None,
                 exact_fingerprints: bool = False,
                 registry=None,
                 por_deps: bool = False,
                 fingerprint_mode: Optional[str] = None,
                 profile: bool = False,
                 progress=None,
                 trace_out: Optional[str] = None,
                 compiled: bool = False,
                 store_dir: Optional[str] = None):
        self.spec = spec
        self.use_symmetry = symmetry and spec.symmetry is not None
        self.use_por = por
        self.max_states = max_states
        self.stop_at_first = stop_at_first_violation
        self.check_deadlock = check_deadlock
        self.validate_por_hints = validate_por_hints
        if workers is not None and (not isinstance(workers, int)
                                    or isinstance(workers, bool)
                                    or workers < 1):
            raise ValueError("workers must be >= 1, or None for serial")
        self.workers = workers
        self.spec_source = spec_source
        self.exact_fingerprints = exact_fingerprints
        self.registry = registry
        #: Derive ample sets from footprint independence
        #: (repro.analysis.deps) instead of only Step.local hints.
        self.use_por_deps = por_deps
        self._deps_ample_keys = None
        if fingerprint_mode not in (None, "full", "incremental"):
            raise ValueError(
                "fingerprint_mode must be None, 'full' or 'incremental'")
        if fingerprint_mode is not None and self.workers is not None:
            raise ValueError(
                "fingerprint_mode is a serial-engine option; the parallel "
                "engine already dedupes through its sharded fingerprint "
                "store (drop workers=N)")
        if fingerprint_mode is not None and exact_fingerprints:
            raise ValueError(
                "exact_fingerprints keeps full canonical encodings, which "
                "defeats fingerprint_mode; use the default engine for "
                "exact collision detection")
        self.fingerprint_mode = fingerprint_mode
        #: Compiled-step execution (repro.spec.compile): per-label
        #: closures over flat interned state vectors.  Serially
        #: :meth:`run` drives :class:`repro.spec.compile.CompiledEngine`;
        #: with workers each worker swaps its ``_successors`` for a
        #: CompiledStepper.
        self.compiled = bool(compiled)
        if self.compiled and fingerprint_mode is not None:
            raise ValueError(
                "compiled and fingerprint_mode are alternative serial "
                "engines; pick one (the compiled engine dedups exact "
                "interned vectors, not fingerprints)")
        if self.compiled and profile and workers is not None:
            raise ValueError(
                "profile the compiled engine serially: compiled workers "
                "run an uninstrumented stepper (drop workers=N or "
                "profile=True)")
        #: Directory for the fingerprint store's mmap spill tier
        #: (parallel/swarm engines only — the serial engines keep
        #: states, not fingerprints, as their seen-set).
        if store_dir is not None and self.workers is None:
            raise ValueError(
                "store_dir spills the sharded fingerprint store, which "
                "only the parallel engine (workers=N) and the swarm "
                "driver use; serial engines dedup in memory")
        if store_dir is not None and exact_fingerprints:
            raise ValueError(
                "exact_fingerprints keeps full canonical payloads, which "
                "do not fit the spill tier's fixed-width slots; drop "
                "--exact or --store-dir")
        self.store_dir = store_dir
        #: Phase/label profiling (repro.obs.prof).  All timing lands in
        #: ``CheckResult.stats["profile"]`` — never in ``to_json`` — so
        #: profiled runs stay byte-identical to unprofiled ones.
        self.profile = bool(profile)
        self.profiler = CheckProfiler() if self.profile else None
        if progress is True:
            progress = Progress(label=getattr(spec, "name", "check"))
        self.progress = progress or None
        self.trace_out = trace_out

    # -- successor computation ---------------------------------------------------
    def _expand_step(self, state: State, proc_index: int) -> list[tuple[str, State]]:
        """All successors of running one process's current step."""
        process = self.spec.processes[proc_index]
        pc = state.procs[proc_index][0]
        if pc is None:
            return []
        step = process.step_by_label[pc]
        default_next = process.default_next(pc)
        successors = []
        stack: list[list[int]] = [[]]
        while stack:
            oracle = stack.pop()
            ctx = Ctx(self.spec, state, proc_index, oracle)
            try:
                step.run(ctx)
            except Blocked:
                continue
            except NeedChoice as need:
                for i in range(need.arity):
                    stack.append(oracle + [i])
                continue
            successors.append((f"{process.name}.{pc}",
                               ctx._successor(default_next)))
        return successors

    def _deps_ample(self) -> frozenset:
        """(process, label) keys expandable alone, from footprints.

        The footprint-derived ample labels unioned with the (validated)
        ``Step.local=True`` hints: a sound footprint proves a label
        independent of everything else from first principles, and an
        unsound one simply defers to the hint — so deps-POR reduces at
        least as much as hint-POR and never trusts unproven absence.
        Computed once per checker from the spec alone (a pure function
        of the spec), so parallel workers all derive the same set and
        the ample choice stays worker-count independent.
        """
        if self._deps_ample_keys is None:
            # Local import: repro.analysis drives Ctx/Spec (circular at
            # module level), same as _reject_unsound_hints.
            from ..analysis.deps import spec_footprints

            hinted = {(process.name, step.label)
                      for process in self.spec.processes
                      for step in process.steps if step.local}
            derived = spec_footprints(self.spec).ample_labels()
            self._deps_ample_keys = frozenset(derived | hinted)
        return self._deps_ample_keys

    _compiled_stepper = None

    def _successors(self, state: State) -> list[tuple[str, State]]:
        """Successors under the (optionally ample-set reduced) relation.

        With a profiler attached the same body runs on the profiler's
        chained clock: the ample-eligibility scan is charged to
        ``por_ample`` and each ``_expand_step`` (through
        :meth:`_expand_profiled`) to its (process, label) pair.
        """
        prof = self.profiler
        if prof is not None:
            prof.mark()
            expand = self._expand_profiled
        elif self.compiled:
            # Parallel workers call this entry point directly; under
            # --compiled they step through the per-label closure tables
            # (state-boundary adapter, byte-identical successor lists).
            stepper = self._compiled_stepper
            if stepper is None:
                from .compile import CompiledStepper

                stepper = self._compiled_stepper = CompiledStepper(
                    self.spec, use_por=self.use_por,
                    ample_keys=(self._deps_ample()
                                if self.use_por_deps else None))
            return stepper.successors(state)
        else:
            expand = self._expand_step
        if self.use_por:
            # Ample set: a process whose current step is declared local
            # commutes with every other step; expanding it alone is a
            # sound reduction (it is also deterministic & non-blocking
            # by convention, preserving enabledness elsewhere).  With
            # por_deps the same property is derived from footprint
            # independence instead of trusted from the hint.
            ample = self._deps_ample() if self.use_por_deps else None
            for proc_index, process in enumerate(self.spec.processes):
                pc = state.procs[proc_index][0]
                if pc is None:
                    continue
                if ample is None:
                    is_ample = process.step_by_label[pc].local
                else:
                    is_ample = (process.name, pc) in ample
                if is_ample:
                    if prof is not None:
                        prof.lap("por_ample")
                    expanded = expand(state, proc_index)
                    if expanded:
                        return expanded
            if prof is not None:
                prof.lap("por_ample")
        result = []
        for proc_index in range(len(self.spec.processes)):
            result.extend(expand(state, proc_index))
        return result

    def _expand_profiled(self, state: State, proc_index: int):
        """:meth:`_expand_step`, charged to its (process, label) pair."""
        expanded = self._expand_step(state, proc_index)
        pc = state.procs[proc_index][0]
        if pc is not None:
            self.profiler.lap_label(self.spec.processes[proc_index].name,
                                    pc, len(expanded))
        return expanded

    def _profile_options(self) -> dict:
        """The deterministic option fields of the profile artifact."""
        return {
            "symmetry": self.use_symmetry,
            "por": self.use_por,
            "por_deps": self.use_por_deps,
            "fingerprint_mode": self.fingerprint_mode,
            "exact_fingerprints": self.exact_fingerprints,
        }

    def _profile_artifact(self, prof: CheckProfiler, engine: str,
                          total_s: float, exploration_s: float, counts: dict,
                          workers=None, busy_s=None) -> dict:
        """The ``repro.prof/v1`` document for ``stats["profile"]``."""
        return prof.artifact(
            spec=getattr(self.spec, "name", "spec"), engine=engine,
            workers=workers, options=self._profile_options(),
            total_s=total_s, exploration_s=exploration_s, busy_s=busy_s,
            counts=counts)

    def _progress_round(self, bfs_round: int, n_states: int,
                        frontier_len: int, prev_len: int, transitions: int,
                        start_time: float) -> None:
        """One heartbeat line per BFS round (stderr only).

        The ETA assumes geometric frontier decay once the frontier
        shrinks round-over-round (sum of the remaining geometric series
        over the current states/s); while the frontier still grows no
        honest estimate exists and the field is omitted.
        """
        elapsed = time.perf_counter() - start_time
        rate = n_states / elapsed if elapsed > 0 else 0.0
        hit = 1.0 - n_states / transitions if transitions else 0.0
        eta = None
        if rate > 0 and 0 < frontier_len < prev_len:
            ratio = frontier_len / prev_len
            eta = frontier_len / (1.0 - ratio) / rate
        self.progress.update(round=bfs_round, states=n_states,
                             frontier=frontier_len,
                             states_per_s=round(rate, 1),
                             dedup_hit=round(hit, 3), eta_s=eta)

    def _canonical(self, state: State) -> State:
        if self.use_symmetry:
            return self.spec.symmetry(state)
        return state

    # -- main loop ---------------------------------------------------------------
    def _reject_unsound_hints(self) -> None:
        """Validate ample-set hints before trusting them (speclint)."""
        # Local import: repro.analysis drives Ctx/Spec, so importing it
        # at module level would be circular.
        from ..analysis import verify_por_hints

        findings = verify_por_hints(self.spec)
        if findings:
            raise UnsoundPORHintError(findings)

    def _engine(self):
        """The serial engine this checker's options select."""
        if self.compiled:
            from .compile import CompiledEngine

            return CompiledEngine(self)
        if self.fingerprint_mode is not None:
            return _FingerprintEngine(self)
        return _StateEngine(self)

    def run(self) -> CheckResult:
        """Explore the full reachable state space and check properties.

        The one serial search driver.  It sees the state space as a
        graph over ints: an *engine* (:class:`_StateEngine`,
        :class:`_FingerprintEngine`,
        :class:`repro.spec.compile.CompiledEngine`) numbers states in
        discovery order and owns everything that depends on how a state
        is represented, stepped and stored:

        * ``root()`` stores the canonical initial state as node 0 and
          returns the name of the invariant it violates, or None;
        * ``expand(index, out)`` appends the node of every transition
          out of node ``index`` to ``out``, in successor order, and —
          right after appending it — yields ``(action, child, failed)``
          for each child its store had not seen before (numbered with
          the next unused index); ``failed`` names the invariant the
          child violates, or None;
        * ``alive(index)`` (some non-daemon process has not terminated),
          ``state(index)`` (the node as a :class:`State`) and
          ``eventually(name)`` (a ◇□ predicate over indices) answer the
          questions deadlock detection, traces and liveness ask;
        * ``exploring()`` brackets the search, ``stats()`` is the
          engine's part of ``CheckResult.stats`` and ``name`` labels
          the profile artifact.

        The driver owns the rest: BFS rounds and the frontier, the
        transition count, parent/depth/edge bookkeeping, deadlock,
        ``max_states``, ``stop_at_first_violation``, counterexample
        traces, the per-round tracer and progress hooks, the liveness
        pass and the single exit path.  Engines charge the exploration
        phases to the profiler's chained clock as they go; the driver
        charges only ``liveness``.
        """
        if self.workers is not None:
            from .parallel import run_parallel

            return run_parallel(self)
        perf = time.perf_counter
        start_time = perf()
        prof = self.profiler
        spec = self.spec
        tracer = (CheckerTraceBuilder(
                      label=f"check {getattr(spec, 'name', 'spec')}")
                  if self.trace_out else None)
        if self.use_por and self.validate_por_hints:
            self._reject_unsound_hints()
        explore_t0 = perf()
        engine = self._engine()
        parent: list[tuple[int, str]] = [(-1, "<init>")]
        depth: list[int] = [0]
        edges: dict[int, list[int]] = {}
        violations: list[Violation] = []

        def trace_to(index: int) -> list[tuple[str, State]]:
            path = []
            while index >= 0:
                pred, action = parent[index]
                path.append((action, engine.state(index)))
                index = pred
            path.reverse()
            return path

        def violated(kind: str, name: str, index: int) -> bool:
            """Record a violation; True when the search must stop."""
            violations.append(Violation(kind, name, trace_to(index)))
            return self.stop_at_first

        failed = engine.root()
        stop = failed is not None and violated("invariant", failed, 0)
        n_states = 1
        transitions = diameter = bfs_round = 0
        frontier = [0]
        expand = engine.expand
        parent_append, depth_append = parent.append, depth.append
        max_states = self.max_states
        check_deadlock = self.check_deadlock
        with engine.exploring():
            while frontier and not stop:
                round_t0 = perf()
                next_frontier = []
                for index in frontier:
                    out = edges[index] = []
                    child_depth = depth[index] + 1
                    for action, child, failed in expand(index, out):
                        n_states += 1
                        parent_append((index, action))
                        depth_append(child_depth)
                        if child_depth > diameter:
                            diameter = child_depth
                        if failed is not None and violated(
                                "invariant", failed, child):
                            stop = True
                            break
                        next_frontier.append(child)
                        if n_states > max_states:
                            raise MemoryError(
                                f"state space exceeds {max_states} states")
                    transitions += len(out)
                    if stop:
                        break
                    if (check_deadlock and not out and engine.alive(index)
                            and violated("deadlock", "no-enabled-step",
                                         index)):
                        stop = True
                        break
                prev_len = len(frontier)
                frontier = next_frontier
                bfs_round += 1
                if tracer is not None:
                    now = perf() - start_time
                    tracer.round_span(engine.name, bfs_round - 1,
                                      round_t0 - start_time, now,
                                      frontier=prev_len)
                    tracer.counter("frontier depth", now,
                                   {"states": len(frontier)})
                    if transitions:
                        tracer.counter("dedup", now, {
                            "hit_rate": round(1 - n_states / transitions, 4)})
                if self.progress is not None:
                    self._progress_round(bfs_round, n_states, len(frontier),
                                         prev_len, transitions, start_time)

            explore_end = perf()
            if not stop and spec.eventually_always:
                if prof is not None:
                    prof.mark()
                violations.extend(self._check_liveness(
                    engine, n_states, edges, depth, trace_to))
                if prof is not None:
                    prof.lap("liveness")

        elapsed = perf() - start_time
        stats = engine.stats()
        if prof is not None:
            exploration_s = explore_end - explore_t0
            prof.busy_s = exploration_s
            stats["profile"] = self._profile_artifact(
                prof, engine=engine.name, total_s=elapsed,
                exploration_s=exploration_s,
                counts={"states": n_states, "transitions": transitions,
                        "diameter": diameter})
        if tracer is not None:
            tracer.write(self.trace_out)
        if self.progress is not None:
            self.progress.done(states=n_states, transitions=transitions,
                               diameter=diameter,
                               elapsed_s=round(elapsed, 2))
        result = CheckResult(not violations, n_states, transitions,
                             diameter, elapsed, violations, stats=stats)
        if self.registry is not None:
            self._report_metrics(result)
        return result

    def _report_metrics(self, result: CheckResult) -> None:
        registry = self.registry
        # Per-run "checker<N>" namespacing (the env-style registry
        # pattern): two checker runs against one registry must not
        # silently overwrite each other's gauges.
        prefix = registry.checker_prefix(self)
        registry.counter(f"{prefix}.states").inc(result.distinct_states)
        registry.counter(f"{prefix}.transitions").inc(result.transitions)
        registry.gauge(f"{prefix}.frontier_depth").set(result.diameter)
        if result.elapsed > 0:
            registry.gauge(f"{prefix}.states_per_s").set(
                round(result.distinct_states / result.elapsed, 1))

    # -- liveness -----------------------------------------------------------------
    def _check_liveness(self, engine, n_states: int, edges, depth,
                        trace_to) -> list[Violation]:
        """◇□P: every terminal SCC must satisfy P everywhere.

        The reported witness for a violated property is *canonical*: the
        failing state with the smallest (BFS depth, state fingerprint)
        over all terminal SCCs.  Any order-dependent choice here (e.g.
        "first failing node in Tarjan order") would make counterexample
        traces depend on exploration order, which the parallel engine
        does not reproduce; the canonical witness makes serial and
        parallel runs — and repeated runs — byte-identical.
        """
        sccs = _tarjan_flat(n_states, edges)
        scc_of = [0] * n_states
        for scc_id, members in enumerate(sccs):
            for node in members:
                scc_of[node] = scc_id
        terminal = [True] * len(sccs)
        for node, outs in edges.items():
            own = scc_of[node]
            for out in outs:
                if scc_of[out] != own:
                    terminal[own] = False
        violations = []
        for name in self.spec.eventually_always:
            holds = engine.eventually(name)
            best = None  # ((depth, fingerprint), node)
            for scc_id, members in enumerate(sccs):
                if not terminal[scc_id]:
                    continue
                for node in members:
                    if not holds(node):
                        key = (depth[node],
                               fingerprint_state(engine.state(node)))
                        if best is None or key < best[0]:
                            best = (key, node)
            if best is not None:
                violations.append(
                    Violation("liveness", name, trace_to(best[1])))
        return violations


class _StateEngine:
    """Interpreted stepping, canonical states as keys (the reference).

    ``seen`` keeps every canonical state hashable; ``raw_memo`` maps a
    raw successor to its node so a state reached along several paths is
    canonicalized once.
    """

    name = "serial"
    exploring = staticmethod(contextlib.nullcontext)

    def __init__(self, checker: ModelChecker):
        self.spec = checker.spec
        self.prof = checker.profiler
        self.successors = checker._successors
        self.canonical = checker._canonical
        self.states: list[State] = []
        self.seen: dict = {}
        self.raw_memo: dict[State, int] = {}

    def root(self) -> Optional[str]:
        init = self.canonical(self.spec.initial_state())
        if self.prof is not None:
            self.prof.mark()
        return self._store(init, init)

    def _store(self, key, state: State) -> Optional[str]:
        """Append a new node under ``key``; the invariant it violates."""
        prof = self.prof
        self.seen[key] = len(self.states)
        self.states.append(state)
        if prof is not None:
            # Seen-store insertion rides with the lookup that missed.
            prof.lap("dedup", 0)
        failed = None
        view = self.spec.view(state)
        for name, predicate in self.spec.invariants.items():
            if not predicate(view):
                failed = name
                break
        if prof is not None:
            prof.lap("property_eval")
        return failed

    def expand(self, index: int, out: list):
        prof = self.prof
        raw_memo = self.raw_memo
        for action, succ in self.successors(self.states[index]):
            child = raw_memo.get(succ)
            if prof is not None:
                prof.lap("dedup")
            if child is None:
                canon = self.canonical(succ)
                if prof is not None:
                    prof.lap("canonicalize")
                child = self.seen.get(canon)
                if prof is not None:
                    prof.lap("dedup")
                if child is None:
                    child = raw_memo[succ] = len(self.states)
                    out.append(child)
                    yield action, child, self._store(canon, canon)
                    continue
                raw_memo[succ] = child
            out.append(child)

    def alive(self, index: int) -> bool:
        return any(pc is not None and not process.daemon
                   for process, (pc, _) in zip(self.spec.processes,
                                               self.states[index].procs))

    def state(self, index: int) -> State:
        return self.states[index]

    def eventually(self, name: str):
        predicate = self.spec.eventually_always[name]
        view, states = self.spec.view, self.states
        return lambda index: predicate(view(states[index]))

    def stats(self) -> dict:
        return {"engine": "serial"}


class _FingerprintEngine(_StateEngine):
    """Interpreted stepping, 64-bit fingerprints as keys.

    The TLC-style memory regime: ``seen`` maps fingerprint ints to
    nodes instead of keeping every canonical state hashable in a dict
    (and no raw-successor memo — every successor is re-fingerprinted,
    which is exactly the cost the incremental mode attacks).
    ``fingerprint_mode="full"`` re-encodes the entire canonical state
    per successor; ``"incremental"`` re-digests only the slots the step
    wrote (per :func:`~repro.spec.lang.changed_slots`) against the
    parent's cached digest vector, falling back to a full vector when
    symmetry canonicalization replaced the state.  Both produce the same
    fingerprints as :func:`fingerprint_state`, so the outcome is
    byte-identical to the reference engine's.
    """

    name = "serial-fp"

    def __init__(self, checker: ModelChecker):
        super().__init__(checker)
        self.mode = checker.fingerprint_mode
        self.fper = (IncrementalFingerprinter(self.spec)
                     if self.mode == "incremental" else None)
        #: Digest vector of every node (incremental mode), parallel to
        #: ``states`` — the cache the update path diffs against.
        self.vectors: list = []
        self.slot_count = len(self.spec.global_names) + len(self.spec.processes)
        self.slots_digested = 0

    def _fingerprint(self, canon: State, parent: Optional[int] = None,
                     raw: Optional[State] = None) -> tuple:
        """(fingerprint, digest vector) of a canonical state."""
        fper = self.fper
        if fper is None:
            self.slots_digested += self.slot_count
            return fingerprint_state(canon), None
        if canon is raw:
            # Step semantics copy the parent's slot tuples and replace
            # only written slots, so the identity diff against the
            # parent's cached vector touches just the write footprint.
            vec = fper.update(self.vectors[parent], self.states[parent], raw)
        else:
            vec = fper.vector(canon)
        return fper.fingerprint(vec), vec

    def root(self) -> Optional[str]:
        init = self.canonical(self.spec.initial_state())
        key, vec = self._fingerprint(init)
        self.vectors.append(vec)
        if self.prof is not None:
            self.prof.mark()
        return self._store(key, init)

    def expand(self, index: int, out: list):
        prof = self.prof
        for action, succ in self.successors(self.states[index]):
            canon = self.canonical(succ)
            if prof is not None:
                prof.lap("canonicalize")
            key, vec = self._fingerprint(canon, index, succ)
            if prof is not None:
                prof.lap("fingerprint")
            child = self.seen.get(key)
            if prof is not None:
                prof.lap("dedup")
            if child is None:
                child = len(self.states)
                out.append(child)
                self.vectors.append(vec)
                yield action, child, self._store(key, canon)
            else:
                out.append(child)

    def stats(self) -> dict:
        # Deterministic hashing-work counter (slot digests consulted):
        # the full-encoding mode re-digests every slot of every state it
        # fingerprints; incremental mode pays only for written slots.
        return {"engine": "serial", "fingerprint_mode": self.mode,
                "fp_slots_digested": (self.slots_digested if self.fper is None
                                      else self.fper.slots_digested)}


def _tarjan_flat(n: int, edges: dict) -> list[list[int]]:
    """Iterative Tarjan SCC over nodes 0..n-1 (``edges``: node → outs).

    A node without an ``edges`` entry has no out-edges.  The DFS work
    stack lives in parallel lists and each node's out-list is fetched
    once, which is what keeps the ~1M-edge liveness passes cheap.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    empty: tuple = ()
    wnode: list[int] = []
    wpos: list[int] = []
    wout: list = []
    edges_get = edges.get
    for root in range(n):
        if index[root] != -1:
            continue
        wnode.append(root)
        wpos.append(0)
        wout.append(edges_get(root, empty))
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        while wnode:
            node = wnode[-1]
            out = wout[-1]
            pos = wpos[-1]
            nout = len(out)
            advanced = False
            lown = low[node]
            while pos < nout:
                succ = out[pos]
                pos += 1
                si = index[succ]
                if si == -1:
                    wpos[-1] = pos
                    low[node] = lown
                    wnode.append(succ)
                    wpos.append(0)
                    wout.append(edges_get(succ, empty))
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = 1
                    advanced = True
                    break
                if on_stack[succ] and si < lown:
                    lown = si
            if advanced:
                continue
            low[node] = lown
            wnode.pop()
            wpos.pop()
            wout.pop()
            if wnode:
                p = wnode[-1]
                if lown < low[p]:
                    low[p] = lown
            if lown == index[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    component.append(w)
                    if w == node:
                        break
                sccs.append(component)
    return sccs


def check(spec: Spec, **kwargs) -> CheckResult:
    """Convenience: model-check ``spec`` with default settings."""
    return ModelChecker(spec, **kwargs).run()
