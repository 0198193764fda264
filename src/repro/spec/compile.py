"""Compiled-step execution: per-label closures over flat state vectors.

The interpreted engine pays Python's dispatch tax per transition: every
``_expand_step`` builds a :class:`~repro.spec.lang.Ctx`, every read goes
through ``global_index`` dict lookups, and every dedup hashes nested
tuples (``FrozenRecord.__hash__`` rebuilds a frozenset per call).  This
module removes that tax from the hot path (ROADMAP open item 2):

* **flat state vectors** — a state becomes a tuple of small ints: one
  slot per global, per process pc, per process local, each holding the
  *interned id* of its value.  Interning is equality-faithful (ids are
  assigned by ``==``/``hash``, exactly the identifications a dict-based
  seen-set makes: ``True == 1``, ``1.0 == 1``), so vector equality is
  state equality and dedup over int tuples is byte-identical to the
  interpreted engine's dedup over states.
* **per-(process, label) compiled closures** — each label owns a
  transition table mapping the values of the slots the step *reads* to
  its full expansion: the ordered successor list as (slot, id) write
  lists plus a write bitmask.  A table miss runs the original step once
  under a read-recording ``Ctx`` and memoizes the result; that memo
  table is the one way a label executes, and
  ``CheckResult.stats["compiled"]`` counts the tables and their fills.
* **self-validating read sets** — the memo key is the projection of the
  vector onto the label's *observed* read slots.  Reads are recorded
  per fill; discovering a new read slot grows the key and clears the
  table.  This is sound without any completeness assumption: a table
  hit means the new state agrees with a previously executed state on
  every slot that execution read, and step functions are deterministic
  given those reads (plus the choice oracle, which the fill
  enumerates), so the cached expansion is the real one.
* **delta reuse** — a successor differs from its parent only on the
  transition's write mask; any process whose result's read mask is
  disjoint from it reuses the parent's cached expansion without even a
  table lookup.  The same mask logic skips invariant re-evaluation for
  properties whose read slots were not written.

Byte-identity: :class:`CompiledEngine` plugs into the same search driver
(:meth:`~repro.spec.checker.ModelChecker.run`) as the interpreted
engines and mirrors them decision for decision — POR ample scan order,
successor order (the LIFO choice-oracle enumeration), dedup-by-equality,
deadlock condition, invariant order — so ``CheckResult.to_json`` is
identical to the interpreted engine's on every spec (the engine
differential matrix enforces this).
"""

from __future__ import annotations

import contextlib
import gc
from operator import itemgetter
from typing import Optional

from .lang import Blocked, Ctx, NeedChoice, Spec, SpecView, State

__all__ = ["CompiledSpec", "CompiledStepper", "CompiledEngine"]

#: Result-tuple fields: (read_mask, action, successors, is_ample, label_key)
#: where successors is a tuple of (writes, write_mask) pairs and writes
#: is a tuple of (slot, interned id) assignments in slot order.
_RMASK, _ACTION, _SUCCS, _AMPLE, _LABEL = range(5)


class _RecordingCtx(Ctx):
    """A :class:`Ctx` that records which parent slots the step reads.

    Only *parent* reads condition the memo key: a read of a slot the
    same execution path already wrote returns a derived value, not a
    branch point, so it is excluded (tracked per path via ``_written``).
    Reads accumulate into a shared set across all oracle paths of one
    expansion — the whole expansion is one deterministic function of
    the parent state, so its read trace is well defined.
    """

    def __init__(self, cs: "CompiledSpec", state: State, proc_index: int,
                 oracle, reads: set):
        super().__init__(cs.spec, state, proc_index, oracle)
        self._cs = cs
        self._reads = reads
        self._written: set[int] = set()

    # Global slot == global index (both enumerate ``global_names``), so
    # one dict lookup serves the read, the write, and the recording.
    def get(self, name):
        slot = self.spec.global_index[name]
        if slot not in self._written:
            self._reads.add(slot)
        return self._globals[slot]

    def set(self, name, value):
        slot = self.spec.global_index[name]
        self._written.add(slot)
        self._globals[slot] = value

    def lget(self, name):
        process = self.spec.processes[self.proc_index]
        index = process.local_index[name]
        slot = self._cs.local_slots[self.proc_index][index]
        if slot not in self._written:
            self._reads.add(slot)
        return self._locals[index]

    def lset(self, name, value):
        process = self.spec.processes[self.proc_index]
        index = process.local_index[name]
        self._written.add(self._cs.local_slots[self.proc_index][index])
        self._locals[index] = value

    def peer_pc(self, process_name):
        slot = self._cs.pc_slots[self.spec.process_index[process_name]]
        if slot not in self._written:
            self._reads.add(slot)
        return super().peer_pc(process_name)

    def reset_peer(self, process_name, pc=None):
        index = self.spec.process_index[process_name]
        self._written.add(self._cs.pc_slots[index])
        self._written.update(self._cs.local_slots[index])
        super().reset_peer(process_name, pc)


class _LabelEntry:
    """One (process, label) compiled closure: its memo table and fill."""

    __slots__ = ("cs", "proc_index", "process", "step", "label", "action",
                 "label_key", "default_next", "is_ample", "pc_bit", "rmask",
                 "keyslots", "getter", "memo", "fills")

    def __init__(self, cs: "CompiledSpec", proc_index: int, process, step,
                 is_ample: bool):
        self.cs = cs
        self.proc_index = proc_index
        self.process = process
        self.step = step
        self.label = step.label
        self.action = f"{process.name}.{step.label}"
        self.label_key = (process.name, step.label)
        self.default_next = process.default_next(step.label)
        self.is_ample = is_ample
        self.pc_bit = 1 << cs.pc_slots[proc_index]
        #: Own pc rides in the read mask (never the memo key: it is
        #: constant per entry) — a pc change must invalidate delta reuse.
        self.rmask = self.pc_bit
        self.keyslots: list[int] = []
        self.getter = None
        self.memo: dict = {}
        self.fills = 0

    # -- fill: run the step once, record reads, intern the writes -----------
    def fill(self, vec: tuple):
        """Execute the label on ``vec`` and memoize the expansion.

        Replicates ``ModelChecker._expand_step`` exactly: a LIFO stack
        of choice oracles, one fresh ``Ctx`` per path, successors in
        completion order — so the compiled successor order is the
        interpreted one.
        """
        cs = self.cs
        self.fills += 1
        state = cs.to_state(vec)
        reads: set[int] = set()
        succs = []
        proc_index = self.proc_index
        pc_slot = cs.pc_slots[proc_index]
        step_run = self.step.run
        default_next = self.default_next
        slot_kind = cs.slot_kind
        intern = cs.intern
        stack: list[list[int]] = [[]]
        while stack:
            oracle = stack.pop()
            ctx = _RecordingCtx(cs, state, proc_index, oracle, reads)
            try:
                step_run(ctx)
            except Blocked:
                continue
            except NeedChoice as need:
                for i in range(need.arity):
                    stack.append(oracle + [i])
                continue
            # Writes are the *assigned* slots (plus the pc), not the
            # value diff against the fill state: an assignment that
            # happened to be a no-op here can still change the value
            # on another state matching the same memo key.  A pair
            # whose value equals the target's current one applies as
            # a no-op, so assigned ⊇ changed keeps replay exact and
            # the write mask a sound over-approximation.  Values are
            # pulled straight out of the finished ctx via slot_kind —
            # no successor State or full-vector interning.
            next_pc = ctx._next_pc if ctx._jumped else default_next
            ctx_globals = ctx._globals
            ctx_locals = ctx._locals
            ctx_procs = ctx._procs
            wslots = ctx._written
            wslots.add(pc_slot)
            writes = []
            wmask = 0
            for s in sorted(wslots):
                wmask |= 1 << s
                kind = slot_kind[s]
                if kind is None:
                    value = ctx_globals[s]
                else:
                    j, k = kind
                    if k < 0:
                        value = next_pc if j == proc_index \
                            else ctx_procs[j][0]
                    elif j == proc_index:
                        value = ctx_locals[k]
                    else:
                        value = ctx_procs[j][1][k]
                writes.append((s, intern(value)))
            succs.append((tuple(writes), wmask))
        new_slots = reads.difference(self.keyslots)
        if new_slots:
            # A previously unseen read slot: grow the key and drop the
            # table.  Live entries always satisfy "reads ⊆ keyslots", so
            # a key match proves the cached execution path replays.
            self.keyslots.extend(sorted(new_slots))
            self.getter = (itemgetter(*self.keyslots)
                           if len(self.keyslots) > 1
                           else itemgetter(self.keyslots[0]))
            for slot in new_slots:
                self.rmask |= 1 << slot
            self.memo.clear()
            cs.keyslot_growths += 1
        result = (self.rmask, self.action, tuple(succs), self.is_ample,
                  self.label_key)
        key = self.getter(vec) if self.getter is not None else None
        self.memo[key] = result
        return result


class _RecordingView(SpecView):
    """A :class:`SpecView` that records property reads as slot indices."""

    def __init__(self, cs: "CompiledSpec", state: State, reads: set):
        super().__init__(cs.spec, state)
        self._cs = cs
        self._reads = reads

    def __getitem__(self, name):
        self._reads.add(self._cs.global_slot[name])
        return super().__getitem__(name)

    def local(self, process, name):
        index = self.spec.process_index[process]
        proc = self.spec.processes[index]
        self._reads.add(self._cs.local_slots[index][proc.local_index[name]])
        return super().local(process, name)

    def pc(self, process):
        self._reads.add(self._cs.pc_slots[self.spec.process_index[process]])
        return super().pc(process)


class _PropEntry:
    """One property predicate, memoized on its observed read slots.

    Same self-validating scheme as :class:`_LabelEntry`: the memo key is
    the vector projected onto every slot any evaluation has read; a new
    read slot grows the key and clears the table.  Predicates are pure
    functions of the view by the same API convention the effect
    analyzer relies on.
    """

    __slots__ = ("cs", "name", "predicate", "keyslots", "getter", "memo",
                 "rmask", "fills")

    def __init__(self, cs: "CompiledSpec", name: str, predicate):
        self.cs = cs
        self.name = name
        self.predicate = predicate
        self.keyslots: list[int] = []
        self.getter = None
        self.memo: dict = {}
        self.rmask = 0
        self.fills = 0

    def fill(self, vec: tuple) -> bool:
        cs = self.cs
        self.fills += 1
        reads: set[int] = set()
        view = _RecordingView(cs, cs.to_state(vec), reads)
        verdict = bool(self.predicate(view))
        new_slots = reads.difference(self.keyslots)
        if new_slots:
            self.keyslots.extend(sorted(new_slots))
            self.getter = (itemgetter(*self.keyslots)
                           if len(self.keyslots) > 1
                           else itemgetter(self.keyslots[0]))
            for slot in new_slots:
                self.rmask |= 1 << slot
            self.memo.clear()
        key = self.getter(vec) if self.getter is not None else None
        self.memo[key] = verdict
        return verdict

    def value(self, vec: tuple) -> bool:
        getter = self.getter
        if getter is None:
            if not self.memo:
                return self.fill(vec)
            return self.memo[None]
        verdict = self.memo.get(getter(vec))
        if verdict is None:
            verdict = self.fill(vec)
        return verdict


class CompiledSpec:
    """A spec lowered onto flat interned state vectors.

    ``ample_keys`` (a frozenset of (process name, label) pairs) replaces
    the ``Step.local`` hint as the ample-set oracle when given — the
    deps-POR configuration.
    """

    def __init__(self, spec: Spec, ample_keys=None):
        self.spec = spec
        nglobals = len(spec.global_names)
        self.global_slot = {name: i for i, name in enumerate(spec.global_names)}
        self.pc_slots: list[int] = []
        self.local_slots: list[tuple[int, ...]] = []
        slot = nglobals
        for process in spec.processes:
            self.pc_slots.append(slot)
            slot += 1
            self.local_slots.append(
                tuple(range(slot, slot + len(process.locals_))))
            slot += len(process.locals_)
        self.nslots = slot
        self.all_mask = (1 << slot) - 1
        self._ids: dict = {}
        self._values: list = []
        self.none_id = self.intern(None)
        self.keyslot_growths = 0
        #: Per-process dispatch: interned pc id → label entry.
        self.dispatch: list[dict] = []
        self.entries: list[_LabelEntry] = []
        self.any_ample = False
        for proc_index, process in enumerate(spec.processes):
            table: dict = {}
            for step in process.steps:
                if ample_keys is None:
                    is_ample = step.local
                else:
                    is_ample = (process.name, step.label) in ample_keys
                entry = _LabelEntry(self, proc_index, process, step, is_ample)
                table[self.intern(step.label)] = entry
                self.entries.append(entry)
                self.any_ample = self.any_ample or is_ample
            self.dispatch.append(table)
        #: Constant result for a terminated process (pc None): reads
        #: only its own pc, yields nothing, never ample.
        self.term_results = [(1 << self.pc_slots[i], None, (), False, None)
                             for i in range(len(spec.processes))]
        #: Deadlock scan: (pc slot, bit) of every non-daemon process.
        self.live_pc_slots = tuple(
            self.pc_slots[i] for i, process in enumerate(spec.processes)
            if not process.daemon)
        #: Slot → location map for extracting written values straight out
        #: of a finished ``Ctx``: ``None`` = global (slot == global
        #: index), ``(j, -1)`` = pc of process j, ``(j, k)`` = local k of
        #: process j.
        self.slot_kind: list = [None] * self.nslots
        for j in range(len(spec.processes)):
            self.slot_kind[self.pc_slots[j]] = (j, -1)
            for k, s in enumerate(self.local_slots[j]):
                self.slot_kind[s] = (j, k)
        self._nglobals = nglobals
        self._proc_slot_pairs = tuple(zip(self.pc_slots, self.local_slots))
        self._unintern_cache: tuple = (None, None)
        self.invariant_entries = [
            _PropEntry(self, name, predicate)
            for name, predicate in spec.invariants.items()]
        self.liveness_entries = [
            _PropEntry(self, name, predicate)
            for name, predicate in spec.eventually_always.items()]

    # -- interning -----------------------------------------------------------
    def intern(self, value) -> int:
        """The small-int id of ``value`` (assigned by ``==`` equality)."""
        ids = self._ids
        vid = ids.get(value)
        if vid is None:
            vid = len(self._values)
            ids[value] = vid
            self._values.append(value)
        return vid

    def to_vector(self, state: State) -> tuple:
        """Flatten + intern a state.  Inverse of :meth:`to_state` up to
        the equality classes interning collapses (``True``/``1``), the
        same classes a dict seen-set collapses."""
        intern = self.intern
        vec = [intern(value) for value in state.globals_]
        for pc, locals_ in state.procs:
            vec.append(intern(pc))
            for value in locals_:
                vec.append(intern(value))
        return tuple(vec)

    def to_state(self, vec: tuple) -> State:
        """Rebuild a :class:`State` from a vector (cached per vector)."""
        cached_vec, cached_state = self._unintern_cache
        if cached_vec is vec:
            return cached_state
        values = self._values
        state = State(
            tuple([values[vid] for vid in vec[:self._nglobals]]),
            tuple([(values[vec[ps]],
                    tuple([values[vec[s]] for s in ls]))
                   for ps, ls in self._proc_slot_pairs]))
        self._unintern_cache = (vec, state)
        return state

    # -- coverage ------------------------------------------------------------
    def coverage(self) -> dict:
        """Label count + memo health for ``stats["compiled"]``.

        Every label has a memo table, so ``labels_memo == labels``; both
        keys stay because the benchmark and the component ablation read
        ``labels_memo``.
        """
        return {
            "labels": len(self.entries),
            "labels_memo": len(self.entries),
            "label_fills": sum(entry.fills for entry in self.entries),
            "property_fills": sum(
                prop.fills for prop in
                self.invariant_entries + self.liveness_entries),
            "keyslot_growths": self.keyslot_growths,
            "interned_values": len(self._values),
            "slots": self.nslots,
        }


class CompiledStepper:
    """State-in, state-out adapter over :class:`CompiledSpec`.

    Drop-in for ``ModelChecker._successors`` — same POR ample-scan
    semantics, same successor order — used by the parallel workers
    under ``--compiled`` and by the per-label differential tests.  It
    pays vector/state conversion per call, so it buys parity and
    bounded per-label work, not the flat-vector engine's raw speed
    (that lives in :class:`CompiledEngine`).
    """

    def __init__(self, spec: Spec, use_por: bool = True, ample_keys=None):
        self.cs = CompiledSpec(spec, ample_keys=ample_keys)
        self.use_por = use_por

    def expand_label(self, state: State, proc_index: int):
        """All successors of one process's current step (compiled)."""
        cs = self.cs
        vec = cs.to_vector(state)
        result = self._probe(vec, proc_index)
        return self._materialize(vec, result)

    def successors(self, state: State):
        """``ModelChecker._successors`` semantics over the memo tables."""
        cs = self.cs
        vec = cs.to_vector(state)
        nprocs = len(cs.spec.processes)
        if self.use_por and cs.any_ample:
            for proc_index in range(nprocs):
                if vec[cs.pc_slots[proc_index]] == cs.none_id:
                    continue
                entry = cs.dispatch[proc_index].get(vec[cs.pc_slots[proc_index]])
                if entry is None or not entry.is_ample:
                    continue
                result = self._probe(vec, proc_index)
                if result[_SUCCS]:
                    return self._materialize(vec, result)
        out = []
        for proc_index in range(nprocs):
            out.extend(
                self._materialize(vec, self._probe(vec, proc_index)))
        return out

    def _probe(self, vec: tuple, proc_index: int):
        cs = self.cs
        pc_id = vec[cs.pc_slots[proc_index]]
        entry = cs.dispatch[proc_index].get(pc_id)
        if entry is None:
            return cs.term_results[proc_index]
        return _probe(entry, vec)

    def _materialize(self, vec: tuple, result):
        action = result[_ACTION]
        out = []
        for writes, _wmask in result[_SUCCS]:
            child = list(vec)
            for slot, vid in writes:
                child[slot] = vid
            out.append((action, self.cs.to_state(tuple(child))))
        return out


def _probe(entry: _LabelEntry, vec: tuple, prof=None):
    """One label's result for ``vec``: memo hit, or a (timed) fill."""
    getter = entry.getter
    result = entry.memo.get(getter(vec) if getter is not None else None)
    if result is None:
        if prof is not None:
            prof.lap("successor_gen")
        result = entry.fill(vec)
        if prof is not None:
            prof.lap("compile")
    return result


def _build_fast_expand(cs: CompiledSpec):
    """exec-generate the per-state expansion with the process loop unrolled.

    Semantically :meth:`CompiledEngine._expand_record`'s full loop (delta
    reuse, then dispatch probe, then fill), specialized to this spec:
    pc slots become literals, per-process dispatch tables and terminal
    results become closure locals, and the record list is built in one
    ``BUILD_LIST``.  Only used on the unprofiled no-ample-scan path —
    the readable loop stays the reference semantics (and the profiled
    engine), this is its constant-folded twin.
    """
    n = len(cs.spec.processes)
    lines = ["def _make(dispatch, term_results):"]
    for i in range(n):
        lines.append(f"    d{i} = dispatch[{i}].get")
        lines.append(f"    t{i} = term_results[{i}]")
    lines.append("    def _expand(vec, prec, wm):")
    lines.append("        delta = 0")
    lines.append("        probes = 0")
    for i in range(n):
        pc_slot = cs.pc_slots[i]
        lines.extend([
            f"        r{i} = prec[{i}]",
            f"        if r{i} is None or wm & r{i}[0]:",
            f"            e = d{i}(vec[{pc_slot}])",
            "            if e is None:",
            f"                r{i} = t{i}",
            "            else:",
            "                probes += 1",
            "                g = e.getter",
            f"                r{i} = e.memo.get(g(vec)"
            " if g is not None else None)",
            f"                if r{i} is None:",
            f"                    r{i} = e.fill(vec)",
            "        else:",
            "            delta += 1",
        ])
    rec = ", ".join(f"r{i}" for i in range(n))
    lines.append(f"        return [{rec}], delta, probes")
    lines.append("    return _expand")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<compiled-expand>", "exec"), namespace)
    return namespace["_make"](cs.dispatch, cs.term_results)


class CompiledEngine:
    """The compiled serial engine behind ``ModelChecker.run``'s driver.

    Nodes are canonical flat vectors, deduplicated by equality in
    ``seen`` (plus a raw-vector memo in front of symmetry
    canonicalization, the analog of the interpreted engine's).  Three
    side lists parallel to ``vecs`` carry what delta reuse needs: the
    write mask of the transition that discovered each node, the
    expansion record of its parent (replaced by its own once it has been
    expanded), and whether it passed every invariant.
    """

    name = "compiled"

    def __init__(self, checker):
        prof = self.prof = checker.profiler
        if prof is not None:
            prof.mark()
        self.cs = cs = CompiledSpec(
            checker.spec,
            ample_keys=checker._deps_ample() if checker.use_por_deps else None)
        if prof is not None:
            prof.lap("compile")
        self.canonical = checker._canonical if checker.use_symmetry else None
        self.scan_ample = checker.use_por and cs.any_ample
        #: The unrolled expansion twin (see :func:`_build_fast_expand`) —
        #: only off the profiled path (which owns the phase timestamps
        #: and label counters) and the ample-scan path (whose early exit
        #: :meth:`_expand_record` encodes).
        self.fast_expand = (None if prof is not None or self.scan_ample
                            else _build_fast_expand(cs))
        self.seen: dict = {}
        self.raw_memo: dict = {}
        self.vecs: list[tuple] = []
        self.wmask_of: list[int] = []
        self.recs: list = []
        self.inv_ok: list[bool] = []
        #: Union of the invariants' read masks (grows with their fills).
        self.inv_union_rmask = 0
        self.delta_reuses = 0
        self.probes = 0

    @contextlib.contextmanager
    def exploring(self):
        # Exploration allocates monotonically (states are never freed),
        # so cyclic-GC passes over the growing heap are pure overhead —
        # pause collection for the duration, like TLC's generation-free
        # workers.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if gc_was_enabled:
                gc.enable()

    def root(self) -> Optional[str]:
        init = self.cs.spec.initial_state()
        if self.canonical is not None:
            init = self.canonical(init)
        vec = self.cs.to_vector(init)
        self.seen[vec] = 0
        self.vecs.append(vec)
        self.wmask_of.append(self.cs.all_mask)
        self.recs.append([None] * len(self.cs.spec.processes))
        if self.prof is not None:
            self.prof.mark()
        failed = self._check_invariants(vec)
        if self.prof is not None:
            self.prof.lap("property_eval")
        return failed

    def _check_invariants(self, vec: tuple) -> Optional[str]:
        failed = None
        for prop in self.cs.invariant_entries:
            if not prop.value(vec):
                failed = prop.name
                break
        self.inv_ok.append(failed is None)
        union = 0
        for prop in self.cs.invariant_entries:
            union |= prop.rmask
        self.inv_union_rmask = union
        return failed

    def _expand_record(self, vec: tuple, prec: list, wm: int):
        """The readable expansion: ``(record, results to materialize)``.

        ``prec`` is the parent's record and ``wm`` the write mask of the
        transition that produced ``vec``: a process whose parent result
        reads nothing that transition wrote keeps that result (delta
        reuse) without a table lookup.
        """
        cs = self.cs
        dispatch = cs.dispatch
        term_results = cs.term_results
        pc_slots = cs.pc_slots
        prof = self.prof
        labels = prof.labels if prof is not None else None
        rec = [None] * len(prec)
        if self.scan_ample:
            # The interpreted ample scan: first process in order whose
            # current step is ample *and* expands non-empty is expanded
            # alone.  Probes cache into rec.
            for i, r in enumerate(prec):
                if r is None or wm & r[_RMASK]:
                    entry = dispatch[i].get(vec[pc_slots[i]])
                    if entry is None:
                        rec[i] = term_results[i]
                        continue
                    if not entry.is_ample:
                        continue
                    r = _probe(entry, vec, prof)
                rec[i] = r
                if r[_AMPLE]:
                    if labels is not None and r[_LABEL] is not None:
                        # The interpreted scan expands (and counts)
                        # every ample process it reaches.
                        _count_label(labels, r)
                    if r[_SUCCS]:
                        return rec, (r,)
        for i, r in enumerate(prec):
            if rec[i] is not None:
                continue
            if r is not None and not (wm & r[_RMASK]):
                self.delta_reuses += 1
            else:
                entry = dispatch[i].get(vec[pc_slots[i]])
                if entry is None:
                    rec[i] = term_results[i]
                    continue
                self.probes += 1
                r = _probe(entry, vec, prof)
            rec[i] = r
        # After the full loop every slot of ``rec`` is set (a terminated
        # process contributes its constant empty result), so the record
        # doubles as the expansion.
        if labels is not None:
            # The interpreted full loop expands (and counts) every live
            # process, including ample ones the scan already counted.
            for r in rec:
                if r[_LABEL] is not None:
                    _count_label(labels, r)
        return rec, rec

    @property
    def expand(self):
        """The expansion generator, closed over this engine's lists.

        It runs once per state on the recommended engine's hot path, so
        what it touches is bound once, when the driver fetches it,
        rather than re-read from ``self`` on every call.  A property
        and not an attribute: storing the closure on ``self`` would tie
        the engine — and every vector it holds — into a reference cycle
        that only a full GC pass frees.
        """
        cs, prof = self.cs, self.prof
        vecs, seen, raw_memo = self.vecs, self.seen, self.raw_memo
        wmask_of, recs, inv_ok = self.wmask_of, self.recs, self.inv_ok
        canonical, all_mask = self.canonical, cs.all_mask
        fast_expand, expand_record = self.fast_expand, self._expand_record
        check_invariants = self._check_invariants

        def expand(index: int, out: list):
            vec = vecs[index]
            if fast_expand is not None:
                rec, delta, probes = fast_expand(
                    vec, recs[index], wmask_of[index])
                self.delta_reuses += delta
                self.probes += probes
                expansion = rec
            else:
                rec, expansion = expand_record(
                    vec, recs[index], wmask_of[index])
            recs[index] = rec
            if prof is not None:
                prof.lap("successor_gen")
            parent_inv_ok = inv_ok[index]
            new_index = len(vecs)
            for r in expansion:
                succs = r[_SUCCS]
                if not succs:
                    continue
                action = r[_ACTION]
                for writes, wm2 in succs:
                    child = list(vec)
                    for slot, vid in writes:
                        child[slot] = vid
                    tvec = tuple(child)
                    if canonical is None:
                        existing = seen.setdefault(tvec, new_index)
                    else:
                        existing = raw_memo.get(tvec)
                        if existing is None:
                            raw = tvec
                            tvec = cs.to_vector(canonical(cs.to_state(raw)))
                            if tvec != raw:
                                wm2 = all_mask
                            existing = raw_memo[raw] = seen.setdefault(
                                tvec, new_index)
                    out.append(existing)
                    if existing != new_index:
                        continue
                    vecs.append(tvec)
                    wmask_of.append(wm2)
                    recs.append(rec)
                    if prof is not None:
                        prof.lap("dedup")
                    # Invariant delta skip: the parent passed and no
                    # property-read slot was written.
                    if parent_inv_ok and not (wm2 & self.inv_union_rmask):
                        inv_ok.append(True)
                        failed = None
                    else:
                        failed = check_invariants(tvec)
                    if prof is not None:
                        prof.lap("property_eval")
                    yield action, new_index, failed
                    new_index += 1

        return expand

    def alive(self, index: int) -> bool:
        vec = self.vecs[index]
        none_id = self.cs.none_id
        return any(vec[slot] != none_id for slot in self.cs.live_pc_slots)

    def state(self, index: int) -> State:
        return self.cs.to_state(self.vecs[index])

    def eventually(self, name: str):
        value = next(prop.value for prop in self.cs.liveness_entries
                     if prop.name == name)
        vecs = self.vecs
        return lambda index: value(vecs[index])

    def stats(self) -> dict:
        compiled = self.cs.coverage()
        compiled["delta_reuses"] = self.delta_reuses
        compiled["probes"] = self.probes
        return {"engine": "compiled", "compiled": compiled}


def _count_label(labels: dict, result) -> None:
    """Profile one label expansion the interpreted engine would make."""
    entry = labels.get(result[_LABEL])
    if entry is None:
        entry = labels[result[_LABEL]] = [0, 0, 0.0]
    entry[0] += 1
    entry[1] += len(result[_SUCCS])
