"""Typed façade over the NIB tables the controller uses.

Every piece of durable controller state lives here (assumption A2: the
NIB is atomic, consistent and never fails).  Components keep no durable
local state; after a crash they recover purely from these tables.

Tables
------
``op``             op_id → Op
``op_status``      op_id → OpStatus
``op_dag``         op_id → dag_id (reverse index for notifications)
``dag``            dag_id → Dag
``dag_status``     dag_id → DagStatus
``dag_owner``      dag_id → sequencer index
``switch_health``  switch → SwitchHealth (the controller's T_c)
``routing_view``   (switch, entry_id) → op_id (the controller's R_c)
``worker_state``   worker index → op_id being processed (Listing 3)
``seq_state``      sequencer index → currently assigned dag_id
``cleanup``        xid → switch (pending CLEAR_TCAM during recovery)
``read_waiters``   xid → queue name for READ_TABLE responses
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from ..nib import Nib
from ..sim import AckQueue, FifoQueue
from .types import Dag, DagStatus, Op, OpStatus, OpType, SwitchHealth

__all__ = ["ControllerState"]


class ControllerState:
    """Accessors for controller state stored in the NIB."""

    def __init__(self, nib: Nib, namespace: str = "core"):
        self.nib = nib
        self.ns = namespace
        self._xids = itertools.count(1_000_000)
        self.op_table = nib.table(f"{namespace}.op")
        self.op_status = nib.table(f"{namespace}.op_status")
        self.op_dag = nib.table(f"{namespace}.op_dag")
        self.dag_table = nib.table(f"{namespace}.dag")
        self.dag_status = nib.table(f"{namespace}.dag_status")
        self.dag_owner = nib.table(f"{namespace}.dag_owner")
        self.switch_health = nib.table(f"{namespace}.switch_health")
        self.routing_view = nib.table(f"{namespace}.routing_view")
        self.worker_state = nib.table(f"{namespace}.worker_state")
        self.seq_state = nib.table(f"{namespace}.seq_state")
        self.cleanup = nib.table(f"{namespace}.cleanup")
        self.read_waiters = nib.table(f"{namespace}.read_waiters")
        #: op_id → sim time of the last status transition (used by the
        #: PR baseline's deadlock-timeout sweeper).
        self.op_status_at = nib.table(f"{namespace}.op_status_at")
        # Secondary indexes by switch.  Each follows its table through a
        # watcher, so writes that bypass the accessors stay indexed.
        self._ops_by_switch: dict[str, set[int]] = {}
        self.op_table.watch(self._index_op)
        #: switch → {entry_id: op_id}: R_c, in ``routing_view`` order.
        self._view_by_switch: dict[str, dict[int, int]] = {}
        self.routing_view.watch(self._index_view)
        #: switch → entry ids of standing intent owned by other
        #: tenants/apps, registered without per-OP bookkeeping (memory-
        #: lean background state for scale experiments): reconciliation
        #: must keep these entries.  Filled by :meth:`protect_entry`.
        self._protected_by_switch: dict[str, set[int]] = {}

    def _index_op(self, write) -> None:
        if write.new is not None:
            self._ops_by_switch.setdefault(write.new.switch, set()).add(write.key)
        elif write.old is not None:
            self._ops_by_switch.get(write.old.switch, set()).discard(write.key)

    def _index_view(self, write) -> None:
        switch, entry_id = write.key
        view = self._view_by_switch.get(switch)
        if write.new is not None:
            if view is None:
                view = self._view_by_switch[switch] = {}
            view[entry_id] = write.new
        elif view is not None:
            view.pop(entry_id, None)

    # -- queues ---------------------------------------------------------------
    def dag_request_queue(self) -> AckQueue:
        """Apps → DAG Scheduler."""
        return self.nib.ack_queue(f"{self.ns}.DAGEventQueue")

    def op_queue(self, worker: int) -> AckQueue:
        """Sequencers → worker ``worker`` (consistently sharded)."""
        return self.nib.ack_queue(f"{self.ns}.OPQueue.{worker}")

    def to_switch_queue(self, switch: str) -> AckQueue:
        """Workers → Monitoring Server, per switch (preserves P4 order)."""
        return self.nib.ack_queue(f"{self.ns}.ToSW.{switch}")

    def nib_event_queue(self) -> AckQueue:
        """OFC → NIB Event Handler."""
        return self.nib.ack_queue(f"{self.ns}.NIBEventQueue")

    def topo_event_queue(self) -> AckQueue:
        """Monitoring Server → Topo Event Handler."""
        return self.nib.ack_queue(f"{self.ns}.TopoEventQueue")

    def sequencer_notify_queue(self, index: int) -> FifoQueue:
        """Status-change notifications for sequencer ``index``."""
        return self.nib.fifo(f"{self.ns}.SeqNotify.{index}")

    def app_event_queue(self, app: str) -> FifoQueue:
        """Core → application ``app`` notifications."""
        return self.nib.fifo(f"{self.ns}.AppEvents.{app}")

    def snapshot_queue(self, name: str) -> FifoQueue:
        """READ_TABLE responses for consumer ``name``."""
        return self.nib.fifo(f"{self.ns}.Snapshots.{name}")

    # -- ids -----------------------------------------------------------------
    def next_xid(self) -> int:
        """Fresh transaction id for internal requests (CLEAR/READ)."""
        return next(self._xids)

    # -- ops --------------------------------------------------------------------
    def register_op(self, op: Op, dag_id: int) -> None:
        """Record an OP and bind it to its DAG."""
        self.op_table.put(op.op_id, op)
        self.op_dag.put(op.op_id, dag_id)
        if op.op_id not in self.op_status:
            self.op_status.put(op.op_id, OpStatus.NONE)

    def get_op(self, op_id: int) -> Op:
        """Fetch an OP by id."""
        return self.op_table[op_id]

    def status_of(self, op_id: int) -> OpStatus:
        """Current status of an OP."""
        return self.op_status.get(op_id, OpStatus.NONE)

    def set_op_status(self, op_id: int, status: OpStatus) -> None:
        """Transition an OP's status (watchers fan this out)."""
        self.op_status.put(op_id, status)
        self.op_status_at.put(op_id, self.nib.env.now)

    # -- standing intent ----------------------------------------------------------
    def protect_entry(self, switch: str, entry_id: int) -> None:
        """Adopt an entry already on ``switch`` as another tenant's intent.

        Recorded in R_c under op id -1 and kept by every reconciliation.
        """
        self.routing_view.put((switch, entry_id), -1)
        self._protected_by_switch.setdefault(switch, set()).add(entry_id)

    def protected_entries(self) -> list[tuple[str, int]]:
        """Sorted (switch, entry_id) pairs registered by :meth:`protect_entry`."""
        return sorted((switch, entry_id)
                      for switch, ids in self._protected_by_switch.items()
                      for entry_id in ids)

    def dag_intent_by_switch(self) -> dict[str, set[int]]:
        """switch → entry ids installed by DAGs not stale or removed.

        One pass over the DAG intent; a reconciliation cycle takes it
        once and hands it to :meth:`intended_entries` per switch.
        """
        intent: dict[str, set[int]] = {}
        for dag_id, status in self.dag_status.items():
            if status in (DagStatus.STALE, DagStatus.REMOVED):
                continue
            dag = self.dag_table.get(dag_id)
            if dag is not None:
                for switch, entry_id in dag.install_entries():
                    intent.setdefault(switch, set()).add(entry_id)
        return intent

    def intended_entries(self, switch: str,
                         dag_intent: Optional[dict[str, set[int]]] = None
                         ) -> set[int]:
        """Entry ids the standing intent wants on ``switch``.

        Protected entries plus the installs of every DAG that is not
        stale or removed — what reconciliation diffs the switch against.
        """
        if dag_intent is None:
            dag_intent = self.dag_intent_by_switch()
        return set().union(self._protected_by_switch.get(switch, ()),
                           dag_intent.get(switch, ()))

    def ops_for_switch(self, switch: str) -> list[int]:
        """All registered op ids addressed to ``switch``."""
        return sorted(self._ops_by_switch.get(switch, ()))

    # -- dags ----------------------------------------------------------------------
    def register_dag(self, dag: Dag, owner: Optional[int] = None) -> None:
        """Record a DAG, its ops and (optionally) its owning sequencer."""
        self.dag_table.put(dag.dag_id, dag)
        self.dag_status.put(dag.dag_id, DagStatus.PENDING)
        if owner is not None:
            self.dag_owner.put(dag.dag_id, owner)
        for op in dag.ops.values():
            self.register_op(op, dag.dag_id)

    def get_dag(self, dag_id: int) -> Optional[Dag]:
        """Fetch a DAG by id (None if unknown/removed)."""
        return self.dag_table.get(dag_id)

    def set_dag_status(self, dag_id: int, status: DagStatus) -> None:
        """Transition a DAG's status."""
        self.dag_status.put(dag_id, status)

    def dag_status_of(self, dag_id: int) -> Optional[DagStatus]:
        """Current status of a DAG."""
        return self.dag_status.get(dag_id)

    def active_dags(self) -> list[int]:
        """Ids of DAGs being installed or pending."""
        return sorted(
            dag_id for dag_id, status in self.dag_status.items()
            if status in (DagStatus.PENDING, DagStatus.INSTALLING))

    # -- switch health (T_c) ----------------------------------------------------------
    def health_of(self, switch: str) -> SwitchHealth:
        """Controller's recorded health of ``switch``."""
        return self.switch_health.get(switch, SwitchHealth.UP)

    def set_health(self, switch: str, health: SwitchHealth) -> None:
        """Record a switch health transition."""
        self.switch_health.put(switch, health)

    def is_switch_usable(self, switch: str) -> bool:
        """Whether normal OPs may be forwarded to ``switch`` (P7)."""
        return self.health_of(switch) is SwitchHealth.UP

    # -- recovery helpers (shared by core and baselines) ----------------------------
    def notify_owner(self, op_id: int) -> None:
        """Nudge the sequencer owning the OP's DAG."""
        dag_id = self.op_dag.get(op_id)
        if dag_id is None:
            return
        owner = self.dag_owner.get(dag_id)
        if owner is not None:
            self.sequencer_notify_queue(owner).put(("op", op_id))

    def reset_op(self, op_id: int) -> Optional[int]:
        """Reset an OP to NONE; returns its DAG id (for reactivation)."""
        self.set_op_status(op_id, OpStatus.NONE)
        self.notify_owner(op_id)
        return self.op_dag.get(op_id)

    def reactivate_dag(self, dag_id: int) -> None:
        """Re-submit a certified-DONE DAG to its owning sequencer."""
        if self.dag_status_of(dag_id) is not DagStatus.DONE:
            return
        owner = self.dag_owner.get(dag_id)
        if owner is None:
            return
        self.set_dag_status(dag_id, DagStatus.INSTALLING)
        self.nib.ack_queue(f"{self.ns}.SeqInbox.{owner}").put(dag_id)

    # -- routing view (R_c) -------------------------------------------------------------
    def record_installed(self, switch: str, entry_id: int, op_id: int) -> None:
        """Mark an entry as installed in the controller's view."""
        self.routing_view.put((switch, entry_id), op_id)

    def record_removed(self, switch: str, entry_id: int) -> None:
        """Remove an entry from the controller's view."""
        self.routing_view.delete((switch, entry_id))

    def view_of_switch(self, switch: str) -> dict[int, int]:
        """entry_id → op_id the controller believes is on ``switch``."""
        return dict(self._view_by_switch.get(switch, ()))

    def clear_view_of_switch(self, switch: str) -> None:
        """Drop the routing view of ``switch`` (post-wipe, Fig. A.5 ⑦)."""
        for entry_id in list(self._view_by_switch.get(switch, ())):
            self.routing_view.delete((switch, entry_id))

    def routing_view_snapshot(self) -> dict[str, frozenset[int]]:
        """switch → entry ids the controller believes installed."""
        return {switch: frozenset(view)
                for switch, view in self._view_by_switch.items() if view}
