"""Topo Event Handler: switch failure/recovery processing (OFC).

Implements the verified recovery procedure of Fig. A.5 and property P8:

* on a DOWN notification the switch is *immediately* marked DOWN in the
  NIB (P8-①) and applications are notified; OP states are left alone
  (P7);
* on an UP notification the switch enters RECOVERING and a CLEAR_TCAM
  instruction is pushed *through the Worker Pool* (P6 — sending it
  directly would race with in-flight OPs); only after the wipe is
  acknowledged are the switch's OPs reset (⑦ — *before* the health
  flip, the §G ordering fix) and the switch marked UP (⑧).

With ``config.directed_reconciliation`` (ZENITH-DR, §3.9) the recovery
instead reads the switch's table and resolves only actual
inconsistencies — faster when little state was lost, at the price of a
more complex component (Fig. A.3).
"""

from __future__ import annotations

import itertools
from ..net.messages import MsgKind, SwitchRequest, SwitchStatus, SwitchStatusMsg
from ..sim import Component, Environment
from .config import ControllerConfig
from .events import CleanupAckEvent, SnapshotEvent
from .state import ControllerState
from .types import (
    AppEvent,
    AppEventKind,
    Op,
    OpStatus,
    OpType,
    SwitchHealth,
)

__all__ = ["TopoEventHandler"]


class TopoEventHandler(Component):
    """OFC component owning the controller's topology state (T_c)."""

    def __init__(self, env: Environment, state: ControllerState,
                 config: ControllerConfig):
        super().__init__(env, name="topo-event-handler")
        self.state = state
        self.config = config
        self.queue = state.topo_event_queue()
        #: Applications notified of switch up/down events.
        self.subscribed_apps: list[str] = []

    def subscribe(self, app: str) -> None:
        """Deliver SWITCH_UP/DOWN events to application ``app``."""
        if app not in self.subscribed_apps:
            self.subscribed_apps.append(app)

    def main(self):
        while True:
            event = yield self.queue.read()
            yield self.env.timeout(self.config.topo_event_cost)
            if isinstance(event, SwitchStatusMsg):
                if event.status is SwitchStatus.DOWN:
                    self._switch_down(event)
                else:
                    self._switch_up(event)
            elif isinstance(event, CleanupAckEvent):
                self._cleanup_done(event)
            elif isinstance(event, SnapshotEvent):
                self._directed_reconcile(event)
            self.queue.pop()

    # -- failure ---------------------------------------------------------------
    def _switch_down(self, event: SwitchStatusMsg) -> None:
        if self.state.health_of(event.switch) is SwitchHealth.DOWN:
            return
        # P8-①: record the failure immediately; P7: leave OP states be.
        self.state.set_health(event.switch, SwitchHealth.DOWN)
        if self.env._tracing:
            self.env.tracer.instant(self.env, f"switch {event.switch} down",
                                    track=self.name, switch=event.switch)
        self._notify_apps(AppEventKind.SWITCH_DOWN, event.switch)

    # -- recovery ----------------------------------------------------------------
    def _switch_up(self, event: SwitchStatusMsg) -> None:
        if self.state.health_of(event.switch) is not SwitchHealth.DOWN:
            return
        self.state.set_health(event.switch, SwitchHealth.RECOVERING)
        if self.env._tracing:
            self.env.tracer.instant(self.env, f"switch {event.switch} up",
                                    track=self.name, switch=event.switch)
        if self.config.directed_reconciliation:
            self._start_directed(event.switch)
        else:
            self._start_clear(event.switch)

    def _start_clear(self, switch: str) -> None:
        """Fig. A.5 ③: CLEAR_TCAM through the normal OP pipeline."""
        xid = self.state.next_xid()
        clear_op = Op(xid, switch, OpType.CLEAR)
        self.state.op_table.put(xid, clear_op)
        self.state.cleanup.put(xid, switch)
        worker = self.config.worker_for_switch(switch)
        self.state.op_queue(worker).put(xid)

    def _cleanup_done(self, event: CleanupAckEvent) -> None:
        if self.state.cleanup.get(event.xid) != event.switch:
            return  # stale/duplicate ack
        self.state.cleanup.delete(event.xid)
        # ⑦ reset OP states *first*, ⑧ flip health *second* (§G fix).
        self._reset_switch_ops(event.switch)
        self.state.clear_view_of_switch(event.switch)
        self.state.set_health(event.switch, SwitchHealth.UP)
        self._notify_apps(AppEventKind.SWITCH_UP, event.switch)

    def _reset_switch_ops(self, switch: str) -> None:
        """Reset the wiped switch's OPs (Fig. A.5 ⑦).

        INSTALL OPs go back to NONE so their DAGs reinstall them; DELETE
        OPs become vacuously DONE (the wipe removed the entry), which
        avoids unnecessary re-deletions (§B safety).  DAGs that had
        already been certified DONE are re-activated and re-submitted to
        their owning Sequencer — the intent is standing, and the
        CorrectDAGInstalled condition is ◇□, so the controller itself
        must restore wiped state.
        """
        touched_dags: set[int] = set()
        for op_id in self.state.ops_for_switch(switch):
            op = self.state.get_op(op_id)
            if op.op_type is OpType.CLEAR:
                continue
            status = self.state.status_of(op_id)
            # Reset OPs of *every* status, SCHEDULED included: a
            # SCHEDULED op whose send was lost to the failure would
            # otherwise deadlock if its stale OpSentEvent is applied
            # after this reset (found by model-checking this design).
            # A duplicate dispatch of a still-queued SCHEDULED op is
            # benign: sends are idempotent and per-switch ordered (§B).
            if status not in (OpStatus.SCHEDULED, OpStatus.IN_FLIGHT,
                              OpStatus.DONE, OpStatus.FAILED):
                continue
            if op.op_type is OpType.DELETE:
                if status is not OpStatus.DONE:
                    self.state.set_op_status(op_id, OpStatus.DONE)
                    self._notify_owner(op_id)
                continue
            self.state.set_op_status(op_id, OpStatus.NONE)
            self._notify_owner(op_id)
            dag_id = self.state.op_dag.get(op_id)
            if dag_id is not None:
                touched_dags.add(dag_id)
        self._reactivate_dags(touched_dags)

    def _reactivate_dags(self, dag_ids: set[int]) -> None:
        """Re-submit completed DAGs whose OPs were reset."""
        from .types import DagStatus

        for dag_id in sorted(dag_ids):
            if self.state.dag_status_of(dag_id) is not DagStatus.DONE:
                continue
            owner = self.state.dag_owner.get(dag_id)
            if owner is None:
                continue
            self.state.set_dag_status(dag_id, DagStatus.INSTALLING)
            self.state.nib.ack_queue(
                f"{self.state.ns}.SeqInbox.{owner}").put(dag_id)

    # -- directed reconciliation (ZENITH-DR) ----------------------------------------
    def _start_directed(self, switch: str) -> None:
        xid = self.state.next_xid()
        self.state.read_waiters.put(xid, "topo")
        self.state.cleanup.put(xid, switch)
        request = SwitchRequest(MsgKind.READ_TABLE, switch, xid=xid,
                                sender=self.config.ofc_instance)
        self.state.to_switch_queue(switch).put(request)

    def _directed_reconcile(self, event: SnapshotEvent) -> None:
        """Diff the switch's actual table against recorded OP state."""
        if self.state.cleanup.get(event.xid) != event.switch:
            return
        self.state.cleanup.delete(event.xid)
        switch = event.switch
        present = {entry.entry_id for entry in event.entries}
        claimed: set[int] = set()
        touched_dags: set[int] = set()
        for op_id in self.state.ops_for_switch(switch):
            op = self.state.get_op(op_id)
            status = self.state.status_of(op_id)
            if op.op_type is OpType.INSTALL and op.entry is not None:
                entry_id = op.entry.entry_id
                if status in (OpStatus.IN_FLIGHT, OpStatus.DONE,
                              OpStatus.FAILED):
                    if entry_id in present:
                        claimed.add(entry_id)
                        self.state.set_op_status(op_id, OpStatus.DONE)
                        self.state.record_installed(switch, entry_id, op_id)
                    else:
                        self.state.set_op_status(op_id, OpStatus.NONE)
                        self.state.record_removed(switch, entry_id)
                        dag_id = self.state.op_dag.get(op_id)
                        if dag_id is not None:
                            touched_dags.add(dag_id)
                    self._notify_owner(op_id)
                elif status is OpStatus.SCHEDULED and entry_id in present:
                    claimed.add(entry_id)
            elif op.op_type is OpType.DELETE and op.entry_id is not None:
                if status in (OpStatus.IN_FLIGHT, OpStatus.FAILED):
                    if op.entry_id in present:
                        self.state.set_op_status(op_id, OpStatus.NONE)
                    else:
                        self.state.set_op_status(op_id, OpStatus.DONE)
                        self.state.record_removed(switch, op.entry_id)
                    self._notify_owner(op_id)
        # Entries nobody claims are hidden garbage unless standing intent
        # (a live DAG or a protected entry) wants them: delete directly.
        intended = self.state.intended_entries(switch)
        for entry_id in present - claimed:
            if entry_id not in intended:
                request = SwitchRequest(
                    MsgKind.DELETE, switch, xid=self.state.next_xid(),
                    sender=self.config.ofc_instance, entry_id=entry_id)
                self.state.to_switch_queue(switch).put(request)
                self.state.record_removed(switch, entry_id)
        self._reactivate_dags(touched_dags)
        self.state.set_health(switch, SwitchHealth.UP)
        self._notify_apps(AppEventKind.SWITCH_UP, switch)

    # -- notifications ------------------------------------------------------------
    def _notify_owner(self, op_id: int) -> None:
        dag_id = self.state.op_dag.get(op_id)
        if dag_id is None:
            return
        owner = self.state.dag_owner.get(dag_id)
        if owner is not None:
            self.state.sequencer_notify_queue(owner).put(("op", op_id))

    def _notify_apps(self, kind: AppEventKind, switch: str) -> None:
        for app in self.subscribed_apps:
            self.state.app_event_queue(app).put(
                AppEvent(kind, switch=switch, at=self.env.now))
