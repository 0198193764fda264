"""TLC-style parallel state-space exploration.

The serial checker's seen-set holds full states in one process, which
caps the state spaces it can hold.  This engine is the *capacity* path:
it partitions the seen-set over worker processes as 64-bit fingerprints
(spillable to mmap files with ``store_dir``) using the classic TLC
worker architecture, adapted to spawn-safe Python multiprocessing (the
same discipline as :mod:`repro.campaign`).  It is not a speed path —
every measurement taken so far (0.21-0.26x the serial engine at 4
workers, on 1- and 2-core hosts) has it slower than serial:

* **sharded fingerprint ownership** — the 64 fingerprint-prefix shards
  of :mod:`repro.spec.fingerprint` are dealt round-robin to ``N``
  worker processes; the worker owning a state's shard is the only one
  that dedupes, stores and expands it, so the seen-set is partitioned,
  never replicated;
* **batched state exchange** — exploration is level-synchronous BFS:
  each round, every worker expands the frontier states it owns and
  routes newly generated successors to their owners in per-destination
  pickled batches, relayed through the coordinator without
  re-serialization.  A worker-local "already routed" filter sends any
  given fingerprint at most once per worker;
* **breadcrumb traces** — workers keep only ``fingerprint →
  (parent fingerprint, action)`` breadcrumbs.  A violation found by any
  worker is rebuilt into a full :class:`~repro.spec.checker.Violation`
  by walking breadcrumbs back to the initial state and replaying the
  action labels forward, disambiguating nondeterministic successors by
  fingerprint — the exact trace the serial checker would print.

Determinism and POR/symmetry soundness
--------------------------------------

Workers compute successors with the *same* ``ModelChecker._successors``
/ ``_canonical`` code as the serial engine, on a spec rebuilt from the
same :class:`SpecSource`.  Both the ample-set (POR) choice and the
symmetry canonicalization are pure functions of the state alone — they
never consult the seen-set, the frontier, or anything else that depends
on which worker expands the state or in which order — so the explored
(reduced) state graph is identical at every worker count.  Rounds are
barrier-synchronized and batches are merged in (source worker, position)
order, so repeated runs of the same configuration are byte-identical.

A run either completes with exact results or fails loudly: a worker
that dies (or raises) surfaces as :class:`ParallelCheckError` naming
the worker and carrying the remote traceback — the state space is never
silently truncated.
"""

from __future__ import annotations

import importlib
import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

from ..obs.prof import CheckerTraceBuilder
from .checker import CheckResult, ModelChecker, Violation, _tarjan_flat
from .fingerprint import (
    SHARDS,
    FingerprintStore,
    canonical_bytes,
    fingerprint_state,
    shard_of,
)

__all__ = ["ParallelCheckError", "SpecSource", "run_parallel"]

#: Seconds between liveness checks on a worker we are waiting for.
_POLL_S = 0.05


class ParallelCheckError(Exception):
    """A worker process died or raised; the exploration is incomplete."""


@dataclass(frozen=True)
class SpecSource:
    """A picklable recipe for rebuilding a spec in a worker process.

    Specs hold closures (invariants, symmetry functions) and cannot
    cross a spawn boundary themselves; the (module, factory, kwargs)
    triple can.  ``kwargs`` is a sorted tuple of pairs so sources are
    hashable and their repr is stable.
    """

    module: str
    factory: str
    kwargs: tuple[tuple[str, Any], ...] = field(default=())

    @classmethod
    def of(cls, module: str, factory: str, **kwargs) -> "SpecSource":
        return cls(module, factory, tuple(sorted(kwargs.items())))

    def build(self):
        """Import the factory and build the spec."""
        mod = importlib.import_module(self.module)
        return getattr(mod, self.factory)(**dict(self.kwargs))

    def label(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.kwargs)
        return f"{self.module}.{self.factory}({args})"


# -- worker side (runs in spawned processes; must stay module-level) ----------
def _worker_main(conn, worker_id: int, nworkers: int, source: SpecSource,
                 options: dict) -> None:
    """Serve rounds: dedupe owned candidates, expand, route successors."""
    try:
        spec = source.build()
        checker = ModelChecker(
            spec, symmetry=options["symmetry"], por=options["por"],
            check_deadlock=options["check_deadlock"],
            validate_por_hints=False,
            por_deps=options.get("por_deps", False),
            profile=options.get("profile", False),
            compiled=options.get("compiled", False))
        # Worker-local phase/label profiler on its chained clock
        # (mark/lap, shared with checker._successors); snapshots ship
        # back on finalize and the coordinator merges them.
        prof = checker.profiler
        perf = time.perf_counter
        exact = options["exact"]
        need_liveness = bool(spec.eventually_always)
        live_predicates = list(spec.eventually_always.values())
        # Workers own disjoint shards, and spill shard files are named
        # by shard index, so every worker can spill into the same
        # --store-dir without coordination.
        store_dir = options.get("store_dir")
        store = FingerprintStore(
            owned=[s for s in range(SHARDS) if s % nworkers == worker_id],
            exact=exact, spill_dir=store_dir)
        #: Membership probes hit mmap pages once a shard spills; charge
        #: them to the "spill" phase so the profile separates disk-tier
        #: dedup from the in-memory sets.
        dedup_phase = "spill" if store_dir is not None else "dedup"
        breadcrumbs: dict[int, tuple[Optional[int], str]] = {}
        depth_of: dict[int, int] = {}
        live_bits: dict[int, tuple] = {}
        edges: list[tuple[int, int]] = []
        routed: set[int] = set()
        # Raw successor -> (canonical state, fingerprint).  Distinct
        # states are regenerated as successors ~3-4x in the bundled
        # specs; the memo pays for canonicalization + fingerprinting
        # once.  Keyed by in-process hash(), which never crosses the
        # spawn boundary — only the fingerprint does.
        fp_memo: dict = {}
        local_next: list[tuple] = []
        conn.send(("ready", worker_id))
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "round":
                _tag, depth, blobs = message
                candidates = local_next
                local_next = []
                for _src, blob in blobs:
                    candidates.extend(pickle.loads(blob))
                # Explore/serialize split, reported every round: the
                # coordinator derives relay and idle spans from it for
                # the --trace-out worker-utilization tracks.
                explore_t0 = perf()
                accepted = duplicates = transitions = 0
                violations: list[tuple] = []
                outbox: dict[int, list] = {}
                for state, fp, parent_fp, action in candidates:
                    payload = canonical_bytes(state) if exact else None
                    if prof is not None:
                        prof.mark()
                    added = store.add(fp, payload)
                    if prof is not None:
                        prof.lap(dedup_phase)
                    if not added:
                        duplicates += 1
                        continue
                    accepted += 1
                    breadcrumbs[fp] = (parent_fp, action)
                    depth_of[fp] = depth
                    view = spec.view(state)
                    for name, predicate in spec.invariants.items():
                        if not predicate(view):
                            violations.append(("invariant", name, depth, fp))
                            break
                    if need_liveness:
                        live_bits[fp] = tuple(
                            bool(p(view)) for p in live_predicates)
                    if prof is not None:
                        prof.lap("property_eval")
                    # _successors charges por_ample and per-label
                    # successor_gen to the same clock itself.
                    successors = checker._successors(state)
                    if (options["check_deadlock"] and not successors
                            and any(pc is not None and not process.daemon
                                    for process, (pc, _locals) in zip(
                                        spec.processes, state.procs))):
                        violations.append(
                            ("deadlock", "no-enabled-step", depth, fp))
                    for succ_action, successor in successors:
                        transitions += 1
                        cached = fp_memo.get(successor)
                        if cached is None:
                            canon = checker._canonical(successor)
                            if prof is not None:
                                prof.lap("canonicalize")
                            succ_fp = fingerprint_state(canon)
                            if prof is not None:
                                prof.lap("fingerprint")
                            fp_memo[successor] = (canon, succ_fp)
                        else:
                            canon, succ_fp = cached
                        if need_liveness:
                            edges.append((fp, succ_fp))
                        if succ_fp not in routed:
                            routed.add(succ_fp)
                            owner = shard_of(succ_fp) % nworkers
                            candidate = (canon, succ_fp, fp, succ_action)
                            if owner == worker_id:
                                local_next.append(candidate)
                            else:
                                outbox.setdefault(owner, []).append(candidate)
                        if prof is not None:
                            # Routed-filter membership + routing rides
                            # the dedup phase (it is the cross-worker
                            # half of deduplication).
                            prof.lap("dedup")
                serialize_t0 = perf()
                outbox_blobs = {dest: pickle.dumps(batch)
                                for dest, batch in outbox.items()}
                serialize_end = perf()
                if prof is not None:
                    prof.busy_s += serialize_end - explore_t0
                conn.send(("expanded", {
                    "accepted": accepted,
                    "duplicates": duplicates,
                    "transitions": transitions,
                    "violations": violations,
                    "outbox": outbox_blobs,
                    "self_pending": len(local_next),
                    "store_len": len(store),
                    "store_bytes": store.store_bytes(),
                    "spilled": store.spilled(),
                    "spills": store.spills,
                    "hit_rate": round(store.hit_rate(), 6),
                    "explore_s": serialize_t0 - explore_t0,
                    "serialize_s": serialize_end - serialize_t0,
                }))
            elif tag == "finalize":
                need = message[1]
                reply: dict = {}
                if "traces" in need:
                    reply["breadcrumbs"] = breadcrumbs
                    reply["depth_of"] = depth_of
                if "liveness" in need:
                    reply["edges"] = edges
                    reply["live_bits"] = live_bits
                if "prof" in need and prof is not None:
                    reply["prof"] = prof.snapshot()
                conn.send(("finalized", reply))
            elif tag == "stop":
                conn.send(("stopped", worker_id))
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {tag!r}")
    except BaseException:
        try:
            conn.send(("error", worker_id, traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass


# -- coordinator side ---------------------------------------------------------
class _Pool:
    """The spawned workers plus crash-aware messaging.

    ``target`` is the module-level worker entry point — the BFS
    :func:`_worker_main` by default; the swarm driver
    (:mod:`repro.spec.swarm`) passes its randomized-DFS worker and
    inherits the same death detection and error relaying.
    """

    def __init__(self, nworkers: int, source: SpecSource, options: dict,
                 target=None):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        self.nworkers = nworkers
        self.procs = []
        self.conns = []
        for wid in range(nworkers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=target if target is not None else _worker_main,
                args=(child_conn, wid, nworkers, source, options),
                daemon=True, name=f"spec-check-{wid}")
            proc.start()
            child_conn.close()
            self.procs.append(proc)
            self.conns.append(parent_conn)

    def send(self, wid: int, message) -> None:
        try:
            self.conns[wid].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise self._death(wid) from exc

    def recv(self, wid: int):
        conn = self.conns[wid]
        while not conn.poll(_POLL_S):
            if not self.procs[wid].is_alive() and not conn.poll(_POLL_S):
                raise self._death(wid)
        try:
            message = conn.recv()
        except (EOFError, OSError) as exc:
            raise self._death(wid) from exc
        if message[0] == "error":
            raise ParallelCheckError(
                f"checker worker {wid} raised during exploration; the "
                f"state space was NOT fully explored.  Worker traceback:\n"
                f"{message[2]}")
        return message

    def _death(self, wid: int) -> ParallelCheckError:
        exitcode = self.procs[wid].exitcode
        return ParallelCheckError(
            f"checker worker {wid} died mid-exploration "
            f"(exit code {exitcode}); the state space was NOT fully "
            f"explored — rerun, or fall back to the serial checker")

    def shutdown(self) -> None:
        for wid, conn in enumerate(self.conns):
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            conn.close()


def _reconstruct_trace(checker: ModelChecker, breadcrumbs: dict,
                       target_fp: int) -> list[tuple]:
    """Replay breadcrumbs into the serial checker's (action, state) trace.

    Breadcrumbs only record action labels; an action may have several
    successors (nondeterministic choice), so each replay step picks the
    matching-label successor whose canonical fingerprint equals the next
    breadcrumb — the same disambiguation TLC uses for its trace files.
    """
    chain: list[tuple[str, int]] = []
    fp = target_fp
    while True:
        parent_fp, action = breadcrumbs[fp]
        chain.append((action, fp))
        if parent_fp is None:
            break
        fp = parent_fp
    chain.reverse()
    state = checker._canonical(checker.spec.initial_state())
    trace: list[tuple] = []
    for action, fp in chain:
        if action == "<init>":
            trace.append((action, state))
            continue
        for succ_action, successor in checker._successors(state):
            if succ_action != action:
                continue
            canon = checker._canonical(successor)
            if fingerprint_state(canon) == fp:
                state = canon
                break
        else:  # pragma: no cover - would mean spec rebuild divergence
            raise ParallelCheckError(
                f"trace reconstruction failed at {action!r}: no successor "
                f"matches fingerprint {fp:#018x} (spec factory is not "
                "deterministic across processes?)")
        trace.append((action, state))
    return trace


def _check_liveness_parallel(checker: ModelChecker, breadcrumbs: dict,
                             depth_of: dict, edges: list,
                             live_bits: dict) -> list[tuple]:
    """◇□ over the fingerprint graph; returns (name, witness_fp) pairs.

    Same algorithm and same canonical witness (minimal (depth,
    fingerprint) failing state in a terminal SCC) as the serial
    checker, so both engines report identical liveness traces.
    """
    nodes = sorted(breadcrumbs, key=lambda fp: (depth_of[fp], fp))
    index_of = {fp: i for i, fp in enumerate(nodes)}
    adjacency: dict[int, list[int]] = {}
    for src_fp, dst_fp in edges:
        adjacency.setdefault(index_of[src_fp], []).append(index_of[dst_fp])
    sccs = _tarjan_flat(len(nodes), adjacency)
    scc_of = {}
    for scc_id, members in enumerate(sccs):
        for node in members:
            scc_of[node] = scc_id
    terminal = [True] * len(sccs)
    for node, outs in adjacency.items():
        for out in outs:
            if scc_of[out] != scc_of[node]:
                terminal[scc_of[node]] = False
    witnesses = []
    for prop_index, name in enumerate(checker.spec.eventually_always):
        best = None
        for scc_id, members in enumerate(sccs):
            if not terminal[scc_id]:
                continue
            for node in members:
                fp = nodes[node]
                if not live_bits[fp][prop_index]:
                    key = (depth_of[fp], fp)
                    if best is None or key < best:
                        best = key
        if best is not None:
            witnesses.append((name, best[1]))
    return witnesses


def run_parallel(checker: ModelChecker) -> CheckResult:
    """Explore ``checker.spec`` with ``checker.workers`` processes."""
    spec = checker.spec
    nworkers = checker.workers
    source = checker.spec_source
    if source is None:
        raise ValueError(
            "workers=N requires spec_source=SpecSource(...) so worker "
            "processes can rebuild the spec (closures cannot be pickled)")
    start_time = time.perf_counter()
    if checker.use_por and checker.validate_por_hints:
        checker._reject_unsound_hints()
    registry = checker.registry
    prefix = (registry.checker_prefix(checker)
              if registry is not None else None)
    tracer = (CheckerTraceBuilder(
                  label=f"check {getattr(spec, 'name', 'spec')} "
                        f"({nworkers} workers)")
              if checker.trace_out else None)
    options = {
        "symmetry": checker.use_symmetry,
        "por": checker.use_por,
        "check_deadlock": checker.check_deadlock,
        "exact": checker.exact_fingerprints,
        "por_deps": checker.use_por_deps,
        "profile": checker.profile,
        "compiled": checker.compiled,
        "store_dir": checker.store_dir,
    }
    pool = _Pool(nworkers, source, options)
    try:
        for wid in range(nworkers):
            pool.recv(wid)  # "ready": spec built, spawn cost paid
        spawn_s = time.perf_counter() - start_time
        explore_start = time.perf_counter()

        init = checker._canonical(spec.initial_state())
        init_fp = fingerprint_state(init)
        pending: dict[int, list] = {wid: [] for wid in range(nworkers)}
        pending[shard_of(init_fp) % nworkers].append(
            (-1, pickle.dumps([(init, init_fp, None, "<init>")])))
        depth = 0
        total_states = total_transitions = total_duplicates = 0
        #: Latest per-worker seen-set footprint (bytes, spilled fps,
        #: shard flushes) — summed into the result stats.
        store_gauges: list = [(0, 0, 0)] * nworkers
        diameter = 0
        raw_violations: list[tuple] = []  # (kind, name, depth, fp)
        prev_accepted = 1
        while True:
            dispatch_t = time.perf_counter()
            for wid in range(nworkers):
                pool.send(wid, ("round", depth, pending[wid]))
            pending = {wid: [] for wid in range(nworkers)}
            round_accepted = round_transitions = 0
            self_pending = 0
            round_stats: list = [None] * nworkers
            reply_at: list = [0.0] * nworkers
            for wid in range(nworkers):
                _tag, stats = pool.recv(wid)
                reply_at[wid] = time.perf_counter()
                round_stats[wid] = stats
                round_accepted += stats["accepted"]
                round_transitions += stats["transitions"]
                total_duplicates += stats["duplicates"]
                self_pending += stats["self_pending"]
                store_gauges[wid] = (stats["store_bytes"],
                                     stats["spilled"], stats["spills"])
                raw_violations.extend(stats["violations"])
                for dest, blob in sorted(stats["outbox"].items()):
                    pending[dest].append((wid, blob))
                if registry is not None:
                    registry.gauge(f"{prefix}.shard{wid}.states").set(
                        stats["store_len"])
                    registry.gauge(
                        f"{prefix}.shard{wid}.dedup_hit_rate").set(
                        stats["hit_rate"])
            total_states += round_accepted
            total_transitions += round_transitions
            if tracer is not None:
                barrier = max(reply_at) - explore_start
                t0 = dispatch_t - explore_start
                for wid in range(nworkers):
                    stats = round_stats[wid]
                    tracer.round_spans(
                        f"worker{wid}", depth, t0,
                        reply_at[wid] - explore_start, barrier,
                        stats["explore_s"], stats["serialize_s"],
                        accepted=stats["accepted"],
                        duplicates=stats["duplicates"])
                tracer.counter("frontier depth", barrier,
                               {"states": round_accepted})
                if total_transitions:
                    tracer.counter("dedup", barrier, {
                        "hit_rate": round(
                            1 - total_states / total_transitions, 4)})
            if round_accepted:
                diameter = depth
            if registry is not None:
                registry.gauge(f"{prefix}.frontier_depth").set(depth)
                registry.counter(f"{prefix}.states").inc(round_accepted)
                registry.counter(
                    f"{prefix}.transitions").inc(round_transitions)
                registry.counter(f"{prefix}.dedup_hits").inc(
                    total_duplicates - registry.counter(
                        f"{prefix}.dedup_hits").value)
                elapsed_so_far = time.perf_counter() - explore_start
                if elapsed_so_far > 0:
                    registry.gauge(f"{prefix}.states_per_s").set(
                        round(total_states / elapsed_so_far, 1))
            if checker.progress is not None:
                checker._progress_round(
                    depth + 1, total_states, round_accepted, prev_accepted,
                    total_transitions, explore_start)
            prev_accepted = round_accepted
            if total_states > checker.max_states:
                raise MemoryError(
                    f"state space exceeds {checker.max_states} states")
            if raw_violations and checker.stop_at_first:
                break
            if self_pending == 0 and not any(pending.values()):
                break
            depth += 1

        # Deterministic violation order, independent of worker count.
        raw_violations.sort(key=lambda v: (v[2], v[0], v[1], v[3]))
        if checker.stop_at_first and raw_violations:
            raw_violations = raw_violations[:1]

        # Serial semantics: liveness is checked whenever exploration ran
        # to completion (it is skipped only on a stop-at-first-violation
        # early exit, where the reachable graph is incomplete).
        need = set()
        check_liveness = bool(
            spec.eventually_always
            and not (checker.stop_at_first and raw_violations))
        if raw_violations:
            need.add("traces")
        if check_liveness:
            need.update(("traces", "liveness"))
        if checker.profile:
            need.add("prof")
        breadcrumbs: dict = {}
        depth_of: dict = {}
        edges: list = []
        live_bits: dict = {}
        if need:
            for wid in range(nworkers):
                pool.send(wid, ("finalize", sorted(need)))
            for wid in range(nworkers):
                _tag, reply = pool.recv(wid)
                breadcrumbs.update(reply.get("breadcrumbs", {}))
                depth_of.update(reply.get("depth_of", {}))
                edges.extend(reply.get("edges", []))
                live_bits.update(reply.get("live_bits", {}))
                if "prof" in reply:
                    checker.profiler.merge(reply["prof"])

        violations = [
            Violation(kind, name,
                      _reconstruct_trace(checker, breadcrumbs, fp))
            for kind, name, _depth, fp in raw_violations]
        if check_liveness:
            live_t0 = time.perf_counter()
            witnesses = _check_liveness_parallel(
                checker, breadcrumbs, depth_of, edges, live_bits)
            if checker.profiler is not None:
                checker.profiler.add(
                    "liveness", time.perf_counter() - live_t0)
            violations.extend(
                Violation("liveness", name,
                          _reconstruct_trace(checker, breadcrumbs, fp))
                for name, fp in witnesses)
    finally:
        pool.shutdown()

    elapsed = time.perf_counter() - start_time
    explore_s = time.perf_counter() - explore_start
    result = CheckResult(
        not violations, total_states, total_transitions, diameter,
        elapsed, violations,
        stats={
            "engine": "parallel",
            "workers": nworkers,
            "spawn_s": round(spawn_s, 3),
            "explore_s": round(explore_s, 3),
            "dedup_hits": total_duplicates,
            "exact": checker.exact_fingerprints,
            "compiled": checker.compiled,
            "store_bytes": sum(g[0] for g in store_gauges),
            "spilled": sum(g[1] for g in store_gauges),
            "spills": sum(g[2] for g in store_gauges),
        })
    if checker.store_dir is not None:
        result.stats["store_dir"] = checker.store_dir
    if explore_s > 0:
        result.stats["states_per_s"] = round(total_states / explore_s, 1)
    if checker.profile:
        result.stats["profile"] = checker._profile_artifact(
            checker.profiler, engine="parallel", workers=nworkers,
            total_s=elapsed, exploration_s=explore_s,
            busy_s=checker.profiler.busy_s,
            counts={"states": total_states,
                    "transitions": total_transitions,
                    "diameter": diameter})
    if tracer is not None:
        tracer.write(checker.trace_out)
    if checker.progress is not None:
        checker.progress.done(states=total_states,
                              transitions=total_transitions,
                              diameter=diameter,
                              elapsed_s=round(elapsed, 2))
    return result
