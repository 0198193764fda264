"""Online control/data-plane consistency monitor.

The experiments so far checked consistency only *at the end* of a run;
a reconciliation-based controller that is wrong for 29 of every 30
seconds can still pass such a check.  :class:`ConsistencyMonitor` polls
the ground truth (the ``flow_table`` keys of every switch, via
``Network.routing_state()`` — cost-free, consumes no sim randomness)
continuously and records the **first sim-time** each invariant is
violated.  State-dependent conditions are re-evaluated only when what
they read changed (a ``ChangeStamp``); the others run at every poll.

Invariants (all restricted to switches that are actually healthy —
the paper's ◇□ conditions only bind outside failure windows):

``certified-not-installed``
    An entry of a NIB-certified-DONE DAG (or of the protected standing
    intent) is absent from the owning switch's flow table.  This is the
    headline §3.5 violation: the controller told applications the state
    exists, and it does not.
``hidden-entry``
    An entry present in the dataplane but absent from the controller's
    routing view R_c — the Fig. 2 stale-entry pathology.
``orphaned-op``
    An OP stuck SCHEDULED/IN_FLIGHT against a healthy switch for longer
    than ``orphan_timeout`` — the pipeline lost it.
``quiescence-divergence``
    The controller is fully quiescent (no active DAGs, no in-flight
    OPs, empty switch queues, every switch healthy) yet its view still
    disagrees with the dataplane.  Quiescence means nothing is left
    that could fix it except a future reconciliation sweep.

When an ``update_tracker`` (see :class:`repro.apps.update`) is
attached, three *data-plane update* invariants are evaluated per
declared demand, from packet traces (``Network.trace_detailed``):

``forwarding-loop``
    A traced packet for the demand cycles — the union of old/new rules
    actually installed contains a reachable forwarding loop.
``waypoint-bypass``
    A delivered trace skips the demand's declared waypoint.
``per-packet-inconsistency``
    A delivered trace mixes old-generation and new-generation rules —
    no single rule version explains the packet's path (Reitblatt
    et al.'s per-packet consistency).

A condition only becomes a :class:`Violation` after persisting for
``grace`` seconds (default 3 s: an order of magnitude above ZENITH's
observed convergence after faults, and well below the PR baseline's
30 s reconciliation period), which keeps transient in-flux states from
counting.  ``MonitorConfig.grace_overrides`` tightens or loosens the
window per invariant — the update invariants run with grace 0 (they
must hold at every instant).  Each violation records both ``since``
(when the condition began — the reported first-violation time) and
``declared_at``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.types import DagStatus, OpStatus
from ..metrics.convergence import ChangeStamp

__all__ = ["ConsistencyMonitor", "MonitorConfig", "Violation"]


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables for the online monitor."""

    #: Polling period (sim seconds).
    period: float = 0.25
    #: How long a condition must persist before it is a violation.
    grace: float = 3.0
    #: Age at which a SCHEDULED/IN_FLIGHT OP on a healthy switch is
    #: orphaned.  Above the PR baseline's 5 s deadlock timeout, so its
    #: sweeper gets the chance to self-heal before we call it lost.
    orphan_timeout: float = 12.0
    #: Cap on recorded violations (the first ones are the story).
    max_violations: int = 50
    #: Per-invariant grace windows overriding ``grace``, as a tuple of
    #: (invariant, seconds) pairs (kept hashable so the config stays
    #: frozen).  One 3 s window is too coarse once invariants differ in
    #: kind: loop freedom must hold at *every instant* (grace 0), while
    #: view-consistency invariants legitimately lag by a fault window.
    grace_overrides: tuple[tuple[str, float], ...] = ()

    def grace_for(self, invariant: str) -> float:
        """The grace window for one invariant (override or default)."""
        for name, seconds in self.grace_overrides:
            if name == invariant:
                return seconds
        return self.grace


@dataclass(frozen=True)
class Violation:
    """One declared invariant violation."""

    invariant: str
    #: Human-readable subject, e.g. ``"s2/entry 17 (dag 3)"``.
    subject: str
    #: Sim-time the violating condition first held (reported time).
    since: float
    #: Sim-time it outlived the grace window and was declared.
    declared_at: float
    detail: dict[str, Any] = field(default_factory=dict)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "subject": self.subject,
            "since": round(self.since, 6),
            "declared_at": round(self.declared_at, 6),
            "detail": dict(self.detail),
        }


class ConsistencyMonitor:
    """Polls invariants against a controller + network pair."""

    def __init__(self, env, controller, network,
                 config: Optional[MonitorConfig] = None,
                 start_at: float = 0.0, update_tracker=None):
        self.env = env
        self.controller = controller
        self.network = network
        self.config = config or MonitorConfig()
        self.start_at = start_at
        #: Optional :class:`repro.apps.update.UpdateTracker`; when set,
        #: the update-window invariants below are evaluated too.
        self.update_tracker = update_tracker
        self.violations: list[Violation] = []
        #: condition key -> (first_seen, detail) for conditions inside
        #: their grace window.
        self._pending: dict[tuple, tuple[float, dict]] = {}
        #: condition keys already declared (no re-reporting while the
        #: same condition persists).
        self._declared: set[tuple] = set()
        state = controller.state
        #: Moves when anything :meth:`_state_conditions` reads is written.
        self._stamp = ChangeStamp(
            network, state.routing_view, state.dag_status, state.dag_table,
            state.op_status, state.op_table, state.op_status_at)
        self._proc = env.process(self._run(), name="chaos-monitor")

    # -- results ----------------------------------------------------------------
    @property
    def violated(self) -> bool:
        return bool(self.violations)

    def first_violation_at(self) -> Optional[float]:
        """Earliest ``since`` over declared violations (None if clean)."""
        if not self.violations:
            return None
        return min(v.since for v in self.violations)

    # -- polling loop -----------------------------------------------------------
    def _run(self):
        if self.start_at > self.env.now:
            yield self.env.timeout(self.start_at - self.env.now)
        while True:
            self._poll()
            yield self.env.timeout(self.config.period)

    def _poll(self) -> None:
        now = self.env.now
        current = self._current_conditions()
        # Conditions that cleared leave the pipeline entirely; if they
        # come back, the clock (and a possible second violation) restart.
        for key in list(self._pending):
            if key not in current:
                del self._pending[key]
        self._declared &= set(current)
        for key, detail in current.items():
            if key in self._declared:
                continue
            first_seen, first_detail = self._pending.setdefault(
                key, (now, detail))
            if now - first_seen >= self.config.grace_for(key[0]):
                self._declared.add(key)
                del self._pending[key]
                if len(self.violations) < self.config.max_violations:
                    self.violations.append(Violation(
                        invariant=key[0], subject=key[1] if len(key) > 1
                        else "", since=first_seen, declared_at=now,
                        detail=first_detail))

    # -- invariant evaluation -----------------------------------------------------
    def _current_conditions(self) -> dict[tuple, dict]:
        """All currently-failing conditions, keyed for persistence.

        :meth:`_state_conditions` runs when the stamped state changed; what
        reads the clock, queue depths or packet traces runs at every poll.
        """
        standing, pending_ops, healthy, view_matches = \
            self._stamp.cached(self._state_conditions)
        conditions = dict(standing)

        # orphaned-op: pending OPs against healthy switches, too old.
        now = self.env.now
        orphan_after = self.config.orphan_timeout
        for op_id, switch, status, since in pending_ops:
            age = 0.0 if since is None else now - since
            if age > orphan_after:
                key = ("orphaned-op", f"op {op_id} -> {switch}")
                conditions[key] = {"op": op_id, "switch": switch,
                                   "status": status.value,
                                   "age": round(age, 6)}

        # quiescence-divergence: nothing left in flight, yet the view
        # still disagrees with the dataplane.
        if not view_matches \
                and self._quiescent(self.controller.state, healthy):
            conditions[("quiescence-divergence", "view != dataplane")] = {}

        if self.update_tracker is not None:
            self._update_conditions(conditions)
        return conditions

    def _state_conditions(self) -> tuple:
        """What flow tables, health bits and the stamped NIB tables decide:
        certified-not-installed and hidden-entry conditions, pending OPs on
        healthy switches as ``(op_id, switch, status, op_status_at)``, the
        healthy set and the ``view_matches_dataplane`` verdict."""
        conditions: dict[tuple, dict] = {}
        state = self.controller.state
        actual = self.network.routing_state()
        healthy = {sid for sid, sw in self.network.switches.items()
                   if sw.is_healthy}

        # certified-not-installed: DONE-DAG + protected intent entries
        # must be present on healthy switches.
        for dag_id, status in state.dag_status.items():
            if status is not DagStatus.DONE:
                continue
            dag = state.dag_table.get(dag_id)
            if dag is None:
                continue
            # Sets of (switch, entry) iterate in hash order, which
            # varies across interpreter invocations (PYTHONHASHSEED);
            # sort so violation order — and the artifact — is
            # byte-stable.
            for switch, entry_id in sorted(dag.install_entries()):
                if switch in healthy and \
                        entry_id not in actual.get(switch, frozenset()):
                    key = ("certified-not-installed",
                           f"{switch}/entry {entry_id} (dag {dag_id})")
                    conditions[key] = {"switch": switch,
                                       "entry": entry_id, "dag": dag_id}
        for switch, entry_id in state.protected_entries():
            if switch in healthy and \
                    entry_id not in actual.get(switch, frozenset()):
                key = ("certified-not-installed",
                       f"{switch}/entry {entry_id} (protected)")
                conditions[key] = {"switch": switch, "entry": entry_id,
                                   "dag": None}

        # hidden-entry: dataplane entries the controller's view lacks.
        believed = state.routing_view_snapshot()
        for switch in sorted(healthy):
            missing = actual.get(switch, frozenset()) \
                - believed.get(switch, frozenset())
            for entry_id in sorted(missing):
                key = ("hidden-entry", f"{switch}/entry {entry_id}")
                conditions[key] = {"switch": switch, "entry": entry_id}

        pending_ops = []
        for op_id, status in state.op_status.items():
            if status not in (OpStatus.SCHEDULED, OpStatus.IN_FLIGHT):
                continue
            op = state.op_table.get(op_id)
            if op is None or op.switch not in healthy:
                continue
            pending_ops.append((op_id, op.switch, status,
                                state.op_status_at.get(op_id)))
        return (conditions, pending_ops, healthy,
                self.controller.view_matches_dataplane())

    def _update_conditions(self, conditions: dict) -> None:
        """Data-plane update invariants (loop/waypoint/per-packet).

        A packet trace is taken per declared demand; the demand's
        declared claims decide which properties bind.  Loop freedom and
        waypoint enforcement are properties of the forwarding graph at
        this instant; per-packet consistency additionally consults the
        tracker's old/new generation classification of the entries the
        trace used (Reitblatt et al.: a single packet must see exactly
        one rule generation end to end).
        """
        from ..net.dataplane import PathStatus

        tracker = self.update_tracker
        for demand_index, demand in enumerate(tracker.demands):
            trace = self.network.trace_detailed(demand.src, demand.dst)
            subject = f"{demand.src}->{demand.dst}"
            claims = demand.claims
            if trace.status is PathStatus.LOOP:
                if "forwarding-loop" in claims:
                    conditions[("forwarding-loop", subject)] = {
                        "hops": list(trace.hops)}
                # A looping trace never delivers; the remaining
                # properties are unjudgeable this instant.
                continue
            if trace.status is not PathStatus.DELIVERED:
                continue
            if "waypoint-bypass" in claims \
                    and demand.waypoint not in trace.hops:
                conditions[("waypoint-bypass", subject)] = {
                    "waypoint": demand.waypoint, "hops": list(trace.hops)}
            if "per-packet-inconsistency" in claims:
                generations = {}
                for entry_id in trace.entry_ids():
                    generation = tracker.classify(demand_index, entry_id)
                    if generation is not None:
                        generations.setdefault(generation, []).append(
                            entry_id)
                if "old" in generations and "new" in generations:
                    conditions[("per-packet-inconsistency", subject)] = {
                        "hops": list(trace.hops),
                        "old_entries": sorted(generations["old"]),
                        "new_entries": sorted(generations["new"])}

    def _quiescent(self, state, healthy) -> bool:
        if len(healthy) != len(self.network.switches):
            return False
        if state.active_dags():
            return False
        for _op_id, status in state.op_status.items():
            if status in (OpStatus.SCHEDULED, OpStatus.IN_FLIGHT):
                return False
        for switch_id in healthy:
            if len(state.to_switch_queue(switch_id)):
                return False
            switch = self.network[switch_id]
            if len(switch.in_queue) or len(switch.out_queue):
                return False
        return True
