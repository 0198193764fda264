"""Tests for the PR baseline: it works, but only thanks to reconciliation."""

import sys

import pytest

from repro.baselines import (NoRecController, OdlController, PrController,
                             PrUpController)
from repro.baselines import pr as pr_module
from repro.core import (ControllerConfig, DagStatus, OpStatus, OpType,
                        SwitchHealth)
from repro.core.events import SnapshotEvent
from repro.net import FailureMode, FlowEntry, Network, linear, ring
from repro.net.messages import MsgKind, SwitchRequest
from repro.nib import NibTable
from repro.sim import Environment
from repro.workloads.background import preload_background_state
from repro.workloads.dags import IdAllocator, path_dag


def make(controller_cls, topo, config=None):
    env = Environment()
    network = Network(env, topo)
    controller = controller_cls(env, network, config=config).start()
    return env, network, controller


def test_pr_installs_dag_without_failures():
    env, network, controller = make(PrController, linear(4))
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2", "s3"])
    controller.submit_dag(dag)
    env.run(until=controller.wait_for_dag(dag.dag_id))
    assert env.now < 5.0
    assert network.trace("s0", "s3").ok


def test_pr_complete_transient_failure_waits_for_reconciliation():
    """After a wipe PR believes entries installed; only the periodic
    reconciler restores them — the availability gap of Fig. 2/10."""
    config = ControllerConfig(reconciliation_period=10.0)
    env, network, controller = make(PrController, linear(3), config)
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    controller.submit_dag(dag)
    env.run(until=controller.wait_for_dag(dag.dag_id))

    network.fail_switch("s1", FailureMode.COMPLETE)
    env.run(until=env.now + 1)
    network.recover_switch("s1")
    env.run(until=env.now + 2)
    # PR marked the switch UP but did not restore the wiped entry:
    # the controller's view is inconsistent with the dataplane.
    assert controller.state.health_of("s1") is SwitchHealth.UP
    assert not network.trace("s0", "s2").ok
    assert not controller.view_matches_dataplane()

    # The next reconciliation cycle fixes it.
    env.run(until=env.now + 15)
    assert network.trace("s0", "s2").ok
    assert controller.view_matches_dataplane()
    assert controller.reconciler.fixes_applied > 0


def test_zenith_beats_pr_on_same_scenario():
    """Head-to-head on the wipe scenario: ZENITH converges ~immediately,
    PR waits for the reconciliation boundary."""
    from repro.core import ZenithController

    def run(controller_cls):
        config = ControllerConfig(reconciliation_period=10.0)
        env, network, controller = make(controller_cls, linear(3), config)
        alloc = IdAllocator()
        dag = path_dag(alloc, ["s0", "s1", "s2"])
        controller.submit_dag(dag)
        env.run(until=controller.wait_for_dag(dag.dag_id))
        network.fail_switch("s1", FailureMode.COMPLETE)
        env.run(until=env.now + 1)
        network.recover_switch("s1")
        broken_at = env.now
        while not (network.trace("s0", "s2").ok
                   and controller.view_matches_dataplane()):
            env.run(until=env.now + 0.25)
            assert env.now < broken_at + 60, "never reconverged"
        return env.now - broken_at

    zenith_time = run(ZenithController)
    pr_time = run(PrController)
    assert zenith_time < 5.0
    assert pr_time > 2 * zenith_time


def test_pr_worker_crash_recovered_by_deadlock_timeout():
    """Listing-1 worker loses the OP on crash; the sweeper unsticks it."""
    config = ControllerConfig(num_workers=1, deadlock_timeout=3.0,
                              reconciliation_period=300.0)
    env, network, controller = make(PrController, linear(3), config)
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    controller.submit_dag(dag)

    def chaos():
        # Crash the worker exactly while OPs sit in its queue.
        yield env.timeout(0.0015)
        controller.crash_component("worker-0")

    env.process(chaos())
    done = controller.wait_for_dag(dag.dag_id)
    env.run(until=done)
    # Converged, but only after at least one deadlock-timeout sweep.
    assert env.now < 30.0
    assert network.trace("s0", "s2").ok


def test_norec_has_no_reconciler():
    env, network, controller = make(NoRecController, linear(3))
    assert controller.reconciler is None
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    controller.submit_dag(dag)
    env.run(until=controller.wait_for_dag(dag.dag_id))
    assert network.trace("s0", "s2").ok


def test_norec_never_fixes_wipe_inconsistency():
    env, network, controller = make(NoRecController, linear(3))
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    controller.submit_dag(dag)
    env.run(until=controller.wait_for_dag(dag.dag_id))
    network.fail_switch("s1", FailureMode.COMPLETE)
    env.run(until=env.now + 1)
    network.recover_switch("s1")
    env.run(until=env.now + 60)
    # Without reconciliation the blackhole persists forever.
    assert not network.trace("s0", "s2").ok


def test_prup_fixes_wipe_faster_than_pr():
    config = ControllerConfig(reconciliation_period=30.0)
    env, network, controller = make(PrUpController, linear(3), config)
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    controller.submit_dag(dag)
    env.run(until=controller.wait_for_dag(dag.dag_id))
    network.fail_switch("s1", FailureMode.COMPLETE)
    env.run(until=env.now + 1)
    network.recover_switch("s1")
    broken_at = env.now
    while not network.trace("s0", "s2").ok:
        env.run(until=env.now + 0.25)
        assert env.now < broken_at + 60
    # Up-reconciliation fixes it well before the 30s periodic boundary.
    assert env.now - broken_at < 10.0


def test_pr_reconciler_cycle_duration_scales_with_entries():
    """Fig. 4(b): more entries per switch → longer reconciliation."""
    from repro.net import FlowEntry

    def cycle_time(entries_per_switch):
        config = ControllerConfig(reconciliation_period=30.0)
        env, network, controller = make(PrController, linear(10), config)
        for switch in network:
            for i in range(entries_per_switch):
                switch.flow_table[10_000 + i] = FlowEntry(
                    10_000 + i, f"bg{i}", switch.switch_id, 0)
        env.run(until=45)  # one cycle at t=30
        log = controller.reconciler.cycle_log
        assert len(log) >= 1
        start, end = log[0]
        return end - start

    small = cycle_time(50)
    large = cycle_time(500)
    assert large > 2 * small


# -- reconciliation against per-switch indexes ------------------------------------

def reference_fix_switch(state, config, event, _dag_intent=None):
    """``fix_switch_against_snapshot`` before the per-switch indexes.

    The reference the indexed version is compared against: the whole
    intent and the whole flat ``routing_view`` filtered by switch.
    """
    switch = event.switch
    present = {entry.entry_id for entry in event.entries}
    intended = set(state.protected_entries())
    for dag_id, status in state.dag_status.items():
        if status in (DagStatus.STALE, DagStatus.REMOVED):
            continue
        dag = state.dag_table.get(dag_id)
        if dag is not None:
            intended |= dag.install_entries()
    intended_here = {entry_id for (sw, entry_id) in intended if sw == switch}
    believed_before = set({
        entry_id: op_id
        for (sw, entry_id), op_id in state.routing_view.items()
        if sw == switch})
    fixes = 0
    touched = set()
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
    aliens = present - intended_here
    for entry_id in aliens:
        state.to_switch_queue(switch).put(
            SwitchRequest(MsgKind.DELETE, switch, xid=state.next_xid(),
                          sender=config.ofc_instance, entry_id=entry_id))
        state.record_removed(switch, entry_id)
        fixes += 1
    for entry_id in present - aliens - believed_before:
        state.record_installed(switch, entry_id, -1)
    for entry_id in believed_before - present:
        state.record_removed(switch, entry_id)
    return fixes


#: Alien entry ids whose set iteration order is not their sorted order.
ALIENS = (10_000_019, 77, 4_099, 10_000_003, 65_536, 31)


def scramble(network, state, switch_id, dag):
    """Leave ``switch_id`` with missing, alien, hidden and stale state."""
    table = network[switch_id].flow_table
    mine = sorted(entry_id for sw, entry_id in dag.install_entries()
                  if sw == switch_id)
    protected = sorted(entry_id for sw, entry_id in state.protected_entries()
                       if sw == switch_id)
    del table[mine[0]]                       # intended, believed, missing
    for entry_id in ALIENS:                  # alien: nobody wants them
        table[entry_id] = FlowEntry(entry_id, "x", switch_id, 0)
    state.routing_view.put((switch_id, ALIENS[1]), -1)    # … one believed
    state.routing_view.delete((switch_id, protected[0]))  # hidden, wanted
    del table[protected[1]]                  # protected, lost by the switch
    state.routing_view.put((switch_id, 555_555), -1)      # believed, absent


def run_scrambled(controller_cls):
    """Build, scramble, reconcile; return everything observable."""
    up_reconciles = controller_cls is PrUpController
    config = ControllerConfig(
        reconciliation_period=1000.0 if up_reconciles else 10.0)
    env, network, controller = make(controller_cls, ring(5), config)
    alloc = IdAllocator()
    dags = []
    for path in (["s0", "s1", "s2"], ["s2", "s3", "s4"]):
        dags.append(path_dag(alloc, path))
        controller.submit_dag(dags[-1])
        env.run(until=controller.wait_for_dag(dags[-1].dag_id))
    preload_background_state(controller, 4, alloc, register_ops=False)
    deletes = []
    for switch in network:
        def logged(request, send=switch.send):
            if request.kind is MsgKind.DELETE:
                deletes.append((request.switch, request.xid,
                                request.entry_id))
            send(request)
        switch.send = logged

    if up_reconciles:
        for switch_id in ("s1", "s3"):
            network.fail_switch(switch_id, FailureMode.PARTIAL)
        env.run(until=env.now + 2)
    scramble(network, controller.state, "s1", dags[0])
    scramble(network, controller.state, "s3", dags[1])
    if up_reconciles:
        network.recover_switch("s3")
        network.recover_switch("s1")
    env.run(until=env.now + 25)

    reconciler = controller.reconciler
    return {
        "fixes_applied": reconciler.fixes_applied,
        "cycle_log": reconciler.cycle_log,
        "flow_tables": {s.switch_id: sorted(s.flow_table) for s in network},
        "routing_view": list(controller.state.routing_view.items()),
        "op_status": list(controller.state.op_status.items()),
        "deletes": deletes,
        "now": env.now,
    }


@pytest.mark.parametrize(
    "controller_cls", [PrController, PrUpController, OdlController])
def test_indexed_reconciliation_equals_reference(controller_cls, monkeypatch):
    """Same fixes, cycles, tables, view and DELETE xid order as before."""
    indexed = run_scrambled(controller_cls)
    monkeypatch.setattr(pr_module, "fix_switch_against_snapshot",
                        reference_fix_switch)
    reference = run_scrambled(controller_cls)
    assert indexed == reference
    # The scenario really exercised every kind of fix.
    deleted = {entry_id for _sw, _xid, entry_id in indexed["deletes"]}
    assert deleted == set(ALIENS)
    assert len(indexed["deletes"]) == 2 * len(ALIENS)
    for switch_id in ("s1", "s3"):
        view = {e for (sw, e), _ in indexed["routing_view"] if sw == switch_id}
        assert view == set(indexed["flow_tables"][switch_id])
    if controller_cls is not PrUpController:
        assert indexed["fixes_applied"] >= 2 * (len(ALIENS) + 1)
        assert len(indexed["cycle_log"]) == 2


class CountingTable(NibTable):
    """A NibTable that counts whole-table reads."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def keys(self):
        self.scans += 1
        return super().keys()

    def values(self):
        self.scans += 1
        return super().values()

    def items(self):
        self.scans += 1
        return super().items()

    def snapshot(self):
        self.scans += 1
        return super().snapshot()


def test_reconcile_cycle_never_scans_the_routing_view():
    config = ControllerConfig(reconciliation_period=1000.0)
    env, network, controller = make(PrController, ring(5), config)
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    controller.submit_dag(dag)
    env.run(until=controller.wait_for_dag(dag.dag_id))
    preload_background_state(controller, 6, alloc, register_ops=False)
    scramble(network, controller.state, "s1", dag)
    controller.state.routing_view.__class__ = CountingTable

    env.process(controller.reconciler.reconcile_once())
    env.run(until=env.now + 20)

    assert controller.reconciler.cycles_completed == 1
    assert controller.reconciler.fixes_applied > len(ALIENS)
    assert controller.view_matches_dataplane()   # itself index-backed
    assert controller.state.routing_view.scans == 0


def lines_executed(function) -> int:
    """Python line events while ``function`` runs: work, without a clock."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        function()
    finally:
        sys.settrace(previous)
    return count


def test_fixing_one_switch_costs_the_same_whatever_the_network_size():
    def work_for_s0(switches):
        config = ControllerConfig(reconciliation_period=1000.0)
        env, network, controller = make(PrController, linear(switches),
                                        config)
        preload_background_state(controller, 8, IdAllocator(),
                                 register_ops=False)
        state = controller.state
        table = network["s0"].flow_table
        table[ALIENS[0]] = FlowEntry(ALIENS[0], "x", "s0", 0)
        del table[min(table)]
        event = SnapshotEvent("s0", state.next_xid(),
                              network["s0"].table_snapshot())
        dag_intent = state.dag_intent_by_switch()
        fixes = []
        lines = lines_executed(lambda: fixes.append(
            pr_module.fix_switch_against_snapshot(
                state, controller.config, event, dag_intent)))
        assert fixes == [1]
        return lines

    assert work_for_s0(4) == work_for_s0(8) == work_for_s0(16)
