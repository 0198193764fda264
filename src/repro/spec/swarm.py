"""Swarm bug-finding: randomized-DFS workers sharing the fingerprint store.

Exhaustive BFS stops paying off once a configuration outgrows memory or
patience; ROADMAP open item 2 asks for a *swarm* mode for exactly those
specs — many seeded randomized depth-first searches racing to find a
violation, the strategy of Holzmann's swarm verification adapted to the
TLC-style architecture the rest of :mod:`repro.spec` uses.

Design:

* **Workers are deterministic functions of (seed, worker id).**  Each
  worker explores its own randomized DFS — successor order shuffled by
  ``random.Random(f"{seed}:{wid}")``, which CPython seeds from the
  string digest, stable across processes and runs — and dedups against
  a worker-local seen-set.  Nothing another worker does can change a
  worker's trace, which is what makes ``--seed`` reproduce a found bug
  exactly (the determinism test pins this; each worker reports a
  64-bit trace digest).
* **Workers share only the fingerprint store.**  Newly visited state
  fingerprints stream to the coordinator in batches; the coordinator
  folds them into one global :class:`~repro.spec.fingerprint.
  FingerprintStore` — spillable to mmap shards via ``store_dir`` — so
  the swarm's *combined* coverage (distinct states, store bytes) is
  measured from one seen-set.  The store is aggregation, not pruning:
  pruning one worker's walk on another's claims would couple traces to
  scheduling and destroy seed-reproducibility.
* **Found bugs replay.**  A worker ships each violation as its
  breadcrumb chain of (parent fingerprint, action) links; the
  coordinator re-executes the chain against a fresh spec build (same
  replay as the parallel engine's trace reconstruction), so every
  reported counterexample is checked against the real transition
  relation before it reaches the caller.
* **Exhaustive fallback.**  With ``max_steps=None`` a worker's DFS
  runs until its stack empties — a full exploration of the reachable
  graph.  Verdict, distinct-state and transition counts then equal the
  serial BFS engine's (each distinct state is expanded exactly once);
  BFS diameter and shortest-counterexample traces are the only fields
  that legitimately differ.  The engine differential matrix uses this
  mode to compare swarm against every exhaustive engine; liveness
  (◇□ over terminal SCCs) is evaluated from the merged edge relation
  exactly like the parallel engine.

A worker that dies (SIGKILL, OOM) or raises surfaces as a clean
:class:`~repro.spec.parallel.ParallelCheckError` through the shared
pool plumbing — never a silent partial verdict.
"""

from __future__ import annotations

import random
import time
import traceback
from typing import Optional
from zlib import crc32

from .checker import CheckResult, ModelChecker, Violation
from .fingerprint import FingerprintStore, fingerprint_state
from .parallel import (
    ParallelCheckError,
    SpecSource,
    _check_liveness_parallel,
    _Pool,
    _reconstruct_trace,
)

__all__ = ["swarm_check"]

#: Fingerprints per coordinator batch (a pipe send every N new states).
_BATCH = 4096

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _digest_step(digest: int, action: str, fp: int) -> int:
    """Fold one (action, fingerprint) visit into a 64-bit FNV-1a digest.

    ``crc32`` of the action name, not ``hash()`` — builtin string
    hashing is salted per process and would break cross-run digests.
    """
    digest = ((digest ^ crc32(action.encode())) * _FNV_PRIME) & _MASK64
    return ((digest ^ fp) * _FNV_PRIME) & _MASK64


# -- worker side (spawned process; must stay module-level) --------------------
def _swarm_worker(conn, worker_id: int, nworkers: int, source: SpecSource,
                  options: dict) -> None:
    """One randomized DFS: explore, stream fingerprints, report."""
    try:
        spec = source.build()
        checker = ModelChecker(
            spec, symmetry=options["symmetry"], por=options["por"],
            check_deadlock=options["check_deadlock"],
            validate_por_hints=False,
            por_deps=options.get("por_deps", False),
            compiled=options.get("compiled", False))
        rng = random.Random(f"{options['seed']}:{worker_id}")
        max_steps = options.get("max_steps")
        max_states = options["max_states"]
        stop_at_first = options["stop_at_first"]
        check_deadlock = options["check_deadlock"]
        exhaustive = max_steps is None
        need_liveness = exhaustive and bool(spec.eventually_always)
        live_predicates = list(spec.eventually_always.values())
        canonical = checker._canonical
        successors_of = checker._successors

        init = canonical(spec.initial_state())
        init_fp = fingerprint_state(init)
        seen = {init_fp}
        breadcrumbs = {init_fp: (None, "<init>")}
        depth_of = {init_fp: 0}
        edges: list[tuple[int, int]] = []
        live_bits: dict[int, tuple] = {}
        violations: list[tuple] = []
        batch: list[int] = [init_fp]
        digest = _digest_step(_FNV_OFFSET, "<init>", init_fp)
        trace_head = [("<init>", init_fp)]
        steps = transitions = 0
        max_depth = 0
        conn.send(("ready", worker_id))

        def note_state(action: str, fp: int, state, depth: int) -> bool:
            """Record a newly visited state; False = stop the walk."""
            nonlocal digest
            digest = _digest_step(digest, action, fp)
            if len(trace_head) < 32:
                trace_head.append((action, fp))
            batch.append(fp)
            if len(batch) >= _BATCH:
                conn.send(("fps", worker_id, batch[:]))
                del batch[:]
            view = spec.view(state)
            for name, predicate in spec.invariants.items():
                if not predicate(view):
                    violations.append(("invariant", name, depth, fp))
                    if stop_at_first:
                        return False
                    break
            if need_liveness:
                live_bits[fp] = tuple(
                    bool(p(view)) for p in live_predicates)
            return True

        ok = note_state("<init>", init_fp, init, 0)
        trace_head.pop(0)  # note_state re-appended <init>
        #: (state, fp, depth, shuffled successor list, cursor)
        stack = [[init, init_fp, 0, None, 0]]
        while stack and ok:
            frame = stack[-1]
            state, fp, depth, succ, cursor = frame
            if succ is None:
                if max_steps is not None and steps >= max_steps:
                    break
                steps += 1
                succ = [(action, canonical(child))
                        for action, child in successors_of(state)]
                transitions += len(succ)
                rng.shuffle(succ)
                frame[3] = succ
                if not succ and check_deadlock and any(
                        pc is not None and not process.daemon
                        for process, (pc, _locals)
                        in zip(spec.processes, state.procs)):
                    violations.append(
                        ("deadlock", "no-enabled-step", depth, fp))
                    if stop_at_first:
                        break
            if cursor >= len(succ):
                stack.pop()
                continue
            frame[4] = cursor + 1
            action, child = succ[cursor]
            child_fp = fingerprint_state(child)
            if need_liveness:
                edges.append((fp, child_fp))
            if child_fp in seen:
                continue
            seen.add(child_fp)
            if len(seen) > max_states:
                raise MemoryError(
                    f"swarm worker {worker_id} exceeds {max_states} states")
            breadcrumbs[child_fp] = (fp, action)
            child_depth = depth + 1
            depth_of[child_fp] = child_depth
            if child_depth > max_depth:
                max_depth = child_depth
            ok = note_state(action, child_fp, child, child_depth)
            stack.append([child, child_fp, child_depth, None, 0])

        summary = {
            "steps": steps,
            "states": len(seen),
            "transitions": transitions,
            "max_depth": max_depth,
            "violations": violations,
            "trace_digest": digest,
            "trace_head": trace_head,
            "fps": batch,
            "exhausted": not stack,
        }
        if violations or need_liveness:
            summary["breadcrumbs"] = breadcrumbs
            summary["depth_of"] = depth_of
        if need_liveness:
            summary["edges"] = edges
            summary["live_bits"] = live_bits
        conn.send(("done", worker_id, summary))
        conn.recv()  # block until the coordinator releases us
    except BaseException:
        try:
            conn.send(("error", worker_id, traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass


# -- coordinator --------------------------------------------------------------
def swarm_check(source: SpecSource, *, workers: int = 2, seed: int = 0,
                max_steps: Optional[int] = None,
                store_dir: Optional[str] = None,
                compiled: bool = False,
                symmetry: bool = True, por: bool = True,
                por_deps: bool = False,
                check_deadlock: bool = True,
                stop_at_first_violation: bool = True,
                max_states: int = 2_000_000) -> CheckResult:
    """Run ``workers`` seeded randomized-DFS workers over ``source``.

    ``max_steps`` bounds each worker's expansions (``None`` = run every
    worker's DFS to exhaustion — the differential-matrix fallback
    mode).  Returns a :class:`CheckResult` whose ``diameter`` is the
    deepest DFS depth reached (not the BFS diameter) and whose
    violation traces are replay-validated DFS paths (not shortest
    paths); all other fields match the exhaustive engines when the
    walk covered the full graph.
    """
    if workers < 1:
        raise ValueError("swarm needs workers >= 1")
    start_time = time.perf_counter()
    spec = source.build()
    # Replay/liveness helper (serial; shares the swarm's POR settings).
    replayer = ModelChecker(
        spec, symmetry=symmetry, por=por, check_deadlock=check_deadlock,
        validate_por_hints=False, por_deps=por_deps, compiled=compiled)
    exhaustive = max_steps is None
    options = {
        "symmetry": symmetry,
        "por": por,
        "por_deps": por_deps,
        "check_deadlock": check_deadlock,
        "compiled": compiled,
        "seed": seed,
        "max_steps": max_steps,
        "max_states": max_states,
        "stop_at_first": stop_at_first_violation,
        "exact": False,
    }
    store = FingerprintStore(spill_dir=store_dir)
    pool = _Pool(workers, source, options, target=_swarm_worker)
    per_worker: list = [None] * workers
    raw_violations: list[tuple] = []  # (kind, name, depth, fp, wid)
    breadcrumbs_of: dict[int, dict] = {}
    merged_breadcrumbs: dict = {}
    merged_depth: dict = {}
    merged_edges: list = []
    merged_live_bits: dict = {}
    try:
        for wid in range(workers):
            pool.recv(wid)  # "ready"
        for wid in range(workers):
            while True:
                message = pool.recv(wid)
                if message[0] == "fps":
                    for fp in message[2]:
                        store.add(fp)
                    continue
                if message[0] == "done":
                    summary = message[2]
                    for fp in summary.pop("fps"):
                        store.add(fp)
                    per_worker[wid] = summary
                    for kind, name, depth, fp in summary["violations"]:
                        raw_violations.append((depth, kind, name, fp, wid))
                    if "breadcrumbs" in summary:
                        breadcrumbs_of[wid] = summary.pop("breadcrumbs")
                        merged_breadcrumbs.update(breadcrumbs_of[wid])
                        merged_depth.update(summary.pop("depth_of"))
                    merged_edges.extend(summary.pop("edges", ()))
                    merged_live_bits.update(summary.pop("live_bits", {}))
                    break
                raise ParallelCheckError(  # pragma: no cover - protocol guard
                    f"unexpected swarm message {message[0]!r}")
        # Deterministic order, then drop duplicate discoveries (two
        # workers can reach the same violating state).
        raw_violations.sort()
        dedup: dict[tuple, tuple] = {}
        for depth, kind, name, fp, wid in raw_violations:
            dedup.setdefault((kind, name, fp), (depth, kind, name, fp, wid))
        ordered = sorted(dedup.values())
        if stop_at_first_violation and ordered:
            ordered = ordered[:1]
        violations = [
            Violation(kind, name,
                      _reconstruct_trace(replayer, breadcrumbs_of[wid], fp))
            for _depth, kind, name, fp, wid in ordered]
        check_liveness = (
            exhaustive and bool(spec.eventually_always)
            and not (stop_at_first_violation and violations))
        if check_liveness:
            witnesses = _check_liveness_parallel(
                replayer, merged_breadcrumbs, merged_depth, merged_edges,
                merged_live_bits)
            violations.extend(
                Violation("liveness", name,
                          _reconstruct_trace(replayer, merged_breadcrumbs,
                                             fp))
                for name, fp in witnesses)
        # Snapshot before close(): closing drops the spill tiers, and
        # with them the spilled fingerprints' contribution to len().
        distinct_states = len(store)
        store_bytes = store.store_bytes()
        spilled = store.spilled()
        spills = store.spills
    finally:
        pool.shutdown()
        store.close()

    elapsed = time.perf_counter() - start_time
    if exhaustive:
        # Every worker explored the whole graph: per-worker counts are
        # the serial engine's counts, not additive work.
        transitions = max(s["transitions"] for s in per_worker)
    else:
        transitions = sum(s["transitions"] for s in per_worker)
    stats = {
        "engine": "swarm",
        "swarm": {
            "workers": workers,
            "seed": seed,
            "max_steps": max_steps,
            "exhaustive": exhaustive,
            "exhausted": all(s["exhausted"] for s in per_worker),
            "steps": sum(s["steps"] for s in per_worker),
            "compiled": compiled,
            "store_bytes": store_bytes,
            "spilled": spilled,
            "spills": spills,
            "per_worker": [
                {"worker": wid,
                 "steps": s["steps"],
                 "states": s["states"],
                 "transitions": s["transitions"],
                 "max_depth": s["max_depth"],
                 "trace_digest": f"{s['trace_digest']:016x}",
                 "trace_head": [(a, f"{fp:016x}")
                                for a, fp in s["trace_head"]]}
                for wid, s in enumerate(per_worker)],
        },
    }
    if store_dir is not None:
        stats["swarm"]["store_dir"] = store_dir
    return CheckResult(
        not violations, distinct_states, transitions,
        max(s["max_depth"] for s in per_worker), elapsed, violations,
        stats=stats)
