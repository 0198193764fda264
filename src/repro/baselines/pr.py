"""PR: the periodic-reconciliation baseline controller.

The paper's PR baseline is "a simplified version of ZENITH-core that is
robust to concurrency errors but relies on periodic reconciliation to be
correct under switch or component failures" (§6).  Concretely, relative
to ZENITH-core:

* **Worker Pool** uses the *initial* specification (paper Listing 1):
  destructive dequeue, no state recording, and action-before-state
  ordering — a crash between dequeue and completion loses the OP.
* **Topo Event Handler** marks a recovered switch UP without wiping it
  and without reconciling its OP state: OPs the controller *deems*
  installed may be gone (complete failures) and hidden entries may
  survive (partial failures / in-flight races).
* A **Reconciler** runs every ``config.reconciliation_period`` seconds
  (30 s in Orion): it reads every healthy switch's table in parallel,
  pushes all retrieved entries through the NIB under the write lock
  (the Fig. 4(b) bottleneck — event processing stalls behind it),
  then re-installs missing intended entries and deletes alien ones.
* A **DeadlockSweeper** implements PR's "timeout, much shorter than the
  reconciliation interval" (§6.1) that unsticks OPs lost to component
  crashes or state races.

Variants: :class:`PrUpController` additionally reconciles a switch
immediately when it comes back up (the paper's PRUp), and
:class:`NoRecController` is the same implementation with reconciliation
disabled (used in Fig. 11 to isolate reconciliation interference).
"""

from __future__ import annotations

from typing import Optional

from ..core.config import ControllerConfig
from ..core.controller import ZenithController
from ..core.events import OpFailedEvent, OpSentEvent, SnapshotEvent
from ..core.nib_handler import NibEventHandler
from ..core.scheduler import DagScheduler
from ..core.sequencer import Sequencer
from ..core.state import ControllerState
from ..core.topo_handler import TopoEventHandler
from ..core.types import OpStatus, OpType, SwitchHealth
from ..core.worker_pool import Worker
from ..net.dataplane import Network
from ..net.messages import MsgKind, SwitchRequest, SwitchStatus, SwitchStatusMsg
from ..sim import AnyOf, Component, Environment

__all__ = [
    "PrWorker",
    "PrTopoEventHandler",
    "PrUpTopoEventHandler",
    "Reconciler",
    "DeadlockSweeper",
    "PrController",
    "PrUpController",
    "NoRecController",
]


class PrWorker(Worker):
    """The initial WorkerPool specification (paper Listing 1).

    Destructively dequeues the OP before processing and performs the
    action before recording state — the two bug classes §3.9 fixes.
    """

    def recover(self):
        # No state recovery: whatever was in progress is simply lost.
        yield self.env.timeout(0)

    def main(self):
        while True:
            op_id = yield self.queue.read()
            self.queue.pop()                 # destructive get (FIFOGet)
            op = self.state.get_op(op_id)
            started = self.env.now
            if self.env._tracing:
                self.env.tracer.op_mark(self.env, op_id, "worker",
                                        track=self.name)
            yield self.env.timeout(self.config.worker_translate_time)
            if self.env._tracing:
                self.env.tracer.complete(
                    self.env, f"translate op {op_id}", track=self.name,
                    start=started, duration=self.env.now - started)
            if op.op_type is OpType.CLEAR:
                self._forward(op)
            elif self.state.is_switch_usable(op.switch):
                self._forward(op)            # action first …
                self.nib_events.put(OpSentEvent(op.op_id))  # … state second
            else:
                self.nib_events.put(OpFailedEvent(op.op_id))


class PrNibEventHandler(NibEventHandler):
    """NIB Event Handler with destructive dequeue: events lost on crash."""

    def main(self):
        while True:
            event = yield self.queue.read()
            self.queue.pop()                 # destructive get
            yield self.state.nib.acquire_write_lock(self.name)
            try:
                yield self.env.timeout(self.config.nib_event_cost)
                self._apply(event)
            finally:
                self.state.nib.release_write_lock()


class PrDagScheduler(DagScheduler):
    """DAG Scheduler with destructive dequeue: requests lost on crash."""

    def main(self):
        while True:
            request = yield self.requests.read()
            self.requests.pop()              # destructive get
            yield self.env.timeout(self.config.scheduler_step_time)
            if request.kind.name == "INSTALL":
                self._install(request)
            else:
                self._delete(request)


class PrSequencer(Sequencer):
    """Sequencer with destructive inbox: assignments lost on crash."""

    def recover(self):
        # The crashed incarnation's assignment is gone; clear the marker
        # so the deadlock sweeper can detect and resubmit the DAG.
        self.state.seq_state.put(self.index, None)
        yield self.env.timeout(0)

    def main(self):
        while True:
            dag_id = yield self.inbox.read()
            self.inbox.pop()                 # destructive get
            self.state.seq_state.put(self.index, dag_id)
            dag = self.state.get_dag(dag_id)
            status = self.state.dag_status_of(dag_id)
            from ..core.types import DagStatus

            if dag is None or status in (DagStatus.STALE, DagStatus.REMOVED,
                                         DagStatus.DONE):
                self.state.seq_state.put(self.index, None)
                continue
            if status is DagStatus.PENDING:
                self.state.set_dag_status(dag_id, DagStatus.INSTALLING)
            abandoned = yield from self._drive_dag(dag_id, dag)
            if not abandoned:
                self._announce_done(dag_id)
            self.state.seq_state.put(self.index, None)


class PrTopoEventHandler(TopoEventHandler):
    """Recovery without cleanup: mark UP and retry failed OPs.

    No CLEAR_TCAM, no OP reconciliation: OPs recorded DONE stay DONE
    even if a complete failure wiped them (blackhole until the periodic
    reconciler notices), and entries installed by lost in-flight OPs
    become hidden entries (the Fig. 2 pathology).
    """

    def _switch_up(self, event: SwitchStatusMsg) -> None:
        if self.state.health_of(event.switch) is not SwitchHealth.DOWN:
            return
        touched: set[int] = set()
        for op_id in self.state.ops_for_switch(event.switch):
            op = self.state.get_op(op_id)
            if op.op_type is OpType.CLEAR:
                continue
            status = self.state.status_of(op_id)
            if status in (OpStatus.IN_FLIGHT, OpStatus.FAILED):
                dag_id = self.state.reset_op(op_id)
                if dag_id is not None and op.op_type is OpType.INSTALL:
                    touched.add(dag_id)
        for dag_id in sorted(touched):
            self.state.reactivate_dag(dag_id)
        self.state.set_health(event.switch, SwitchHealth.UP)
        from ..core.types import AppEventKind

        self._notify_apps(AppEventKind.SWITCH_UP, event.switch)


class PrUpTopoEventHandler(PrTopoEventHandler):
    """PRUp: additionally reconcile the switch when it comes back up."""

    def _switch_up(self, event: SwitchStatusMsg) -> None:
        super()._switch_up(event)
        xid = self.state.next_xid()
        self.state.read_waiters.put(xid, "topo")
        self.state.cleanup.put(xid, event.switch)
        self.state.to_switch_queue(event.switch).put(
            SwitchRequest(MsgKind.READ_TABLE, event.switch, xid=xid,
                          sender=self.config.ofc_instance))

    def _directed_reconcile(self, event: SnapshotEvent) -> None:
        """Coarse up-reconciliation: no in-flight OP bookkeeping."""
        if self.state.cleanup.get(event.xid) != event.switch:
            return
        self.state.cleanup.delete(event.xid)
        fix_switch_against_snapshot(self.state, self.config, event)


def fix_switch_against_snapshot(state: ControllerState,
                                config: ControllerConfig,
                                event: SnapshotEvent,
                                dag_intent: Optional[dict] = None) -> int:
    """Reconcile one switch's recorded state against a table snapshot.

    Resets intended-but-missing INSTALL OPs (so their DAGs reinstall
    them), deletes entries no active DAG wants, and syncs the routing
    view.  Returns the number of inconsistencies fixed.  This is the
    shared fixing logic of the periodic reconciler, PRUp and ODL; a
    caller fixing many switches passes one
    :meth:`ControllerState.dag_intent_by_switch` for all of them.
    """
    switch = event.switch
    present = {entry.entry_id for entry in event.entries}
    intended_here = state.intended_entries(switch, dag_intent)
    # The believed view must be captured *before* the fixes mutate it,
    # otherwise the final sync would resurrect entries we just deleted.
    believed_before = set(state.view_of_switch(switch))
    fixes = 0
    touched: set[int] = set()
    # Missing intended entries: reset their INSTALL OPs.
    for op_id in state.ops_for_switch(switch):
        op = state.get_op(op_id)
        if op.op_type is not OpType.INSTALL or op.entry is None:
            continue
        entry_id = op.entry.entry_id
        status = state.status_of(op_id)
        if (entry_id in intended_here and entry_id not in present
                and status in (OpStatus.DONE, OpStatus.IN_FLIGHT,
                               OpStatus.FAILED)):
            state.record_removed(switch, entry_id)
            dag_id = state.reset_op(op_id)
            if dag_id is not None:
                touched.add(dag_id)
            fixes += 1
    for dag_id in sorted(touched):
        state.reactivate_dag(dag_id)
    # Alien entries: delete them directly.  The DELETEs take xids in
    # this set's iteration order, so how it is built is part of the
    # simulated behaviour: keep it one difference of ``present``.
    aliens = present - intended_here
    for entry_id in aliens:
        state.to_switch_queue(switch).put(
            SwitchRequest(MsgKind.DELETE, switch, xid=state.next_xid(),
                          sender=config.ofc_instance, entry_id=entry_id))
        state.record_removed(switch, entry_id)
        fixes += 1
    # Sync the routing view with the snapshot (minus what we deleted).
    for entry_id in present - aliens - believed_before:
        state.record_installed(switch, entry_id, -1)
    for entry_id in believed_before - present:
        state.record_removed(switch, entry_id)
    return fixes


class Reconciler(Component):
    """Periodic reconciliation (Orion-style, every 30 s by default)."""

    def __init__(self, env: Environment, state: ControllerState,
                 config: ControllerConfig, network: Network):
        super().__init__(env, name="reconciler")
        self.state = state
        self.config = config
        self.network = network
        self.cycles_completed = 0
        self.fixes_applied = 0
        #: (start, end) of every reconciliation cycle, for analysis.
        self.cycle_log: list[tuple[float, float]] = []
        registry = getattr(env, "metrics", None)
        if registry is not None:
            prefix = f"reconciler.{state.ns}"
            registry.gauge(f"{prefix}.cycles_completed",
                           lambda: self.cycles_completed)
            registry.gauge(f"{prefix}.fixes_applied",
                           lambda: self.fixes_applied)

    def main(self):
        while True:
            yield self.env.timeout(self.config.reconciliation_period)
            yield from self.reconcile_once()

    def reconcile_once(self):
        """One full reconciliation cycle (also callable from tests)."""
        start = self.env.now
        snapshots = yield from self._gather_snapshots()
        yield from self._push_through_nib(snapshots)
        dag_intent = self.state.dag_intent_by_switch()
        for event in snapshots:
            self.fixes_applied += fix_switch_against_snapshot(
                self.state, self.config, event, dag_intent)
        self.cycles_completed += 1
        self.cycle_log.append((start, self.env.now))
        if self.env._tracing:
            self.env.tracer.complete(
                self.env, f"reconcile cycle {self.cycles_completed}",
                track=self.name, start=start,
                duration=self.env.now - start,
                switches=len(snapshots))

    def _gather_snapshots(self):
        """Issue parallel READ_TABLEs; collect replies until timeout."""
        queue = self.state.snapshot_queue("reconciler")
        queue.clear()  # drop stale replies from an aborted cycle
        expected: set[int] = set()
        for switch_id in self.network.topology.switches:
            if self.state.health_of(switch_id) is not SwitchHealth.UP:
                continue
            xid = self.state.next_xid()
            self.state.read_waiters.put(xid, "reconciler")
            self.state.to_switch_queue(switch_id).put(
                SwitchRequest(MsgKind.READ_TABLE, switch_id, xid=xid,
                              sender=self.config.ofc_instance))
            expected.add(xid)
        gather_timeout = min(0.8 * self.config.reconciliation_period, 15.0)
        deadline = self.env.now + gather_timeout
        snapshots: list[SnapshotEvent] = []
        while expected and self.env.now < deadline:
            getter = queue.get()
            timer = self.env.timeout(max(0.0, deadline - self.env.now))
            yield AnyOf(self.env, [getter, timer])
            if not getter.triggered:
                queue.cancel(getter)
                break
            event = getter.value
            if isinstance(event, SnapshotEvent) and event.xid in expected:
                expected.discard(event.xid)
                snapshots.append(event)
        return snapshots

    def _push_through_nib(self, snapshots: list[SnapshotEvent]):
        """The Fig. 4(b) bottleneck: serialized per-entry NIB updates."""
        if any(event.entries for event in snapshots):
            yield from self.state.nib.bulk_update(
                (("reconciler.staging", (event.switch, entry.entry_id), True)
                 for event in snapshots for entry in event.entries),
                owner=self.name)
        self.state.nib.table("reconciler.staging").clear()


class DeadlockSweeper(Component):
    """PR's deadlock-resolution timeout (≪ reconciliation period).

    OPs stuck in SCHEDULED/IN_FLIGHT longer than ``deadlock_timeout``
    with a healthy switch are reset so their Sequencer retries them.
    """

    def __init__(self, env: Environment, state: ControllerState,
                 config: ControllerConfig):
        super().__init__(env, name="deadlock-sweeper")
        self.state = state
        self.config = config
        self.resets = 0
        registry = getattr(env, "metrics", None)
        if registry is not None:
            registry.gauge(f"deadlock-sweeper.{state.ns}.resets",
                           lambda: self.resets)

    def main(self):
        while True:
            yield self.env.timeout(self.config.deadlock_timeout)
            now = self.env.now
            touched: set[int] = set()
            for op_id, status in list(self.state.op_status.items()):
                if status not in (OpStatus.SCHEDULED, OpStatus.IN_FLIGHT):
                    continue
                age = now - self.state.op_status_at.get(op_id, now)
                if age < self.config.deadlock_timeout:
                    continue
                op = self.state.op_table.get(op_id)
                if op is None or op.op_type is OpType.CLEAR:
                    continue
                if self.state.health_of(op.switch) is not SwitchHealth.UP:
                    continue
                dag_id = self.state.reset_op(op_id)
                self.resets += 1
                if dag_id is not None:
                    touched.add(dag_id)
            for dag_id in sorted(touched):
                self.state.reactivate_dag(dag_id)
            self._resubmit_orphaned_dags(now)

    def _resubmit_orphaned_dags(self, now: float) -> None:
        """Unstick INSTALLING DAGs whose assignment was lost to a crash."""
        from ..core.types import DagStatus

        for dag_id, status in list(self.state.dag_status.items()):
            if status is not DagStatus.INSTALLING:
                continue
            dag = self.state.get_dag(dag_id)
            owner = self.state.dag_owner.get(dag_id)
            if dag is None or owner is None:
                continue
            if self.state.seq_state.get(owner) == dag_id:
                continue  # actively driven
            last_change = max(
                (self.state.op_status_at.get(op_id, 0.0)
                 for op_id in dag.ops), default=0.0)
            if now - last_change < self.config.deadlock_timeout:
                continue
            self.state.nib.ack_queue(
                f"{self.state.ns}.SeqInbox.{owner}").put(dag_id)
            self.resets += 1


class PrController(ZenithController):
    """The periodic-reconciliation baseline."""

    worker_cls = PrWorker
    topo_handler_cls = PrTopoEventHandler
    nib_handler_cls = PrNibEventHandler
    scheduler_cls = PrDagScheduler
    sequencer_cls = PrSequencer
    #: Subclasses toggle the reconciler (NoRec disables it).
    with_reconciliation = True

    def extra_components(self):
        components = [DeadlockSweeper(self.env, self.state, self.config)]
        if self.with_reconciliation:
            self.reconciler = Reconciler(self.env, self.state, self.config,
                                         self.network)
            components.append(self.reconciler)
        else:
            self.reconciler = None
        return components


class PrUpController(PrController):
    """PR plus reconciliation-on-switch-up (the paper's PRUp)."""

    topo_handler_cls = PrUpTopoEventHandler


class NoRecController(PrController):
    """PR's implementation with reconciliation disabled (Fig. 11)."""

    with_reconciliation = False
