"""Background dataplane state: pre-populated flow tables.

Real deployments run with thousands of standing entries per switch; the
paper's reconciliation-cost measurements (Fig. 4) sweep exactly this.
:func:`preload_background_state` installs synthetic standing intent
*directly* (bypassing the pipeline, as if installed long ago): entries
in the switches' TCAMs, a DONE DAG per switch in the NIB, and matching
routing-view records — so reconciliation has real work to read and push
through the NIB, and recovery paths have real state to restore.
"""

from __future__ import annotations

from ..core.controller import ZenithController
from ..core.types import Dag, DagStatus, Op, OpStatus, OpType
from ..net.messages import FlowEntry

__all__ = ["preload_background_state"]


def preload_background_state(controller: ZenithController,
                             entries_per_switch: int,
                             alloc, register_ops: bool = True) -> list[Dag]:
    """Install ``entries_per_switch`` standing entries on every switch.

    With ``register_ops=True`` (default) entries are registered as
    completed intent (one DONE DAG per switch, owned by a sequencer) so
    that reconciliation treats them as wanted and a recovery wipe
    triggers their re-installation through the normal pipeline.

    With ``register_ops=False`` the entries are only recorded in the
    switch tables, the routing view and the controller's protected-
    intent set — no per-entry OP objects.  This is memory-lean enough
    for the 750-node scale experiments, where background state exists
    purely to give reconciliation realistic read/update volumes.
    """
    network = controller.network
    state = controller.state
    if not register_ops:
        for switch_id in network.topology.switches:
            switch = network[switch_id]
            neighbors = network.topology.neighbors(switch_id)
            next_hop = neighbors[0] if neighbors else switch_id
            table = {}
            for i in range(entries_per_switch):
                entry = FlowEntry(alloc.entry_id(), f"bg-{switch_id}-{i}",
                                  next_hop, 0)
                table[entry.entry_id] = entry
                switch.first_install.setdefault(entry.entry_id, 0.0)
                state.protect_entry(switch_id, entry.entry_id)
            # One counted write per switch, not one per entry.
            switch.flow_table.update(table)
        return []
    dags = []
    num_sequencers = max(1, controller.config.num_sequencers)
    for index, switch_id in enumerate(network.topology.switches):
        switch = network[switch_id]
        neighbors = network.topology.neighbors(switch_id)
        next_hop = neighbors[0] if neighbors else switch_id
        ops = []
        for i in range(entries_per_switch):
            entry = FlowEntry(alloc.entry_id(), f"bg-{switch_id}-{i}",
                              next_hop, 0)
            ops.append(Op(alloc.op_id(), switch_id, OpType.INSTALL,
                          entry=entry))
        if not ops:
            continue
        dag = Dag(alloc.dag_id(), ops)
        state.register_dag(dag, owner=index % num_sequencers)
        state.set_dag_status(dag.dag_id, DagStatus.DONE)
        for op in ops:
            state.set_op_status(op.op_id, OpStatus.DONE)
            switch.flow_table[op.entry.entry_id] = op.entry
            switch.first_install.setdefault(op.entry.entry_id, 0.0)
            state.record_installed(switch_id, op.entry.entry_id, op.op_id)
        dags.append(dag)
    return dags
