"""Unit tests for workload builders and background state."""

import pytest

from repro.core import ControllerConfig, OpType, ZenithController
from repro.net import Network, linear, ring
from repro.sim import Environment
from repro.workloads.background import preload_background_state
from repro.workloads.dags import (
    IdAllocator,
    multi_path_dag,
    path_dag,
    path_ops,
    transition_dag,
)


def test_id_allocator_unique_streams():
    alloc = IdAllocator()
    ops = [alloc.op_id() for _ in range(100)]
    entries = [alloc.entry_id() for _ in range(100)]
    dags = [alloc.dag_id() for _ in range(100)]
    assert len(set(ops)) == 100
    assert len(set(entries)) == 100
    assert len(set(dags)) == 100


def test_path_ops_last_hop_has_no_entry():
    alloc = IdAllocator()
    ops = path_ops(alloc, ["a", "b", "c"], dst="c")
    assert [op.switch for op in ops] == ["a", "b"]
    assert all(op.entry.dst == "c" for op in ops)
    assert ops[0].entry.next_hop == "b"
    assert ops[1].entry.next_hop == "c"


def test_path_dag_single_hop_has_one_op_no_edges():
    alloc = IdAllocator()
    dag = path_dag(alloc, ["a", "b"])
    assert len(dag) == 1
    assert dag.edges == set()


def test_multi_path_dag_keeps_chains_independent():
    alloc = IdAllocator()
    dag = multi_path_dag(alloc, [["a", "b", "c"], ["x", "y", "z"]])
    assert len(dag) == 4
    # Edges only within each chain.
    for pred, succ in dag.edges:
        chain_a = {dag.ops[pred].switch, dag.ops[succ].switch}
        assert chain_a <= {"a", "b"} or chain_a <= {"x", "y"}


def test_transition_dag_priority_applied_to_installs():
    alloc = IdAllocator()
    old = path_dag(alloc, ["a", "b", "c"], priority=0)
    new = transition_dag(alloc, [["a", "d", "c"]],
                         list(old.ops.values()), priority=7)
    installs = [op for op in new.ops.values()
                if op.op_type is OpType.INSTALL]
    assert all(op.entry.priority == 7 for op in installs)


def test_transition_dag_without_old_ops_is_plain_install():
    alloc = IdAllocator()
    dag = transition_dag(alloc, [["a", "b"]], [], priority=1)
    assert all(op.op_type is OpType.INSTALL for op in dag.ops.values())


def test_preload_background_registered_mode():
    env = Environment()
    network = Network(env, linear(3))
    controller = ZenithController(env, network).start()
    alloc = IdAllocator()
    dags = preload_background_state(controller, 5, alloc, register_ops=True)
    assert len(dags) == 3
    for switch in network:
        assert len(switch.flow_table) == 5
    # Registered as standing intent with owners (recoverable).
    for dag in dags:
        assert controller.state.dag_owner.get(dag.dag_id) is not None
    assert controller.view_matches_dataplane()


def test_preload_background_lean_mode():
    env = Environment()
    network = Network(env, linear(3))
    controller = ZenithController(env, network).start()
    alloc = IdAllocator()
    dags = preload_background_state(controller, 7, alloc, register_ops=False)
    assert dags == []
    for switch in network:
        assert len(switch.flow_table) == 7
    # No OP objects, but protected intent registered.
    assert len(controller.state.protected_entries()) == 21
    assert len(controller.state.op_table) == 0
    assert controller.view_matches_dataplane()


def test_registered_background_reinstalled_after_wipe():
    """The recovery pipeline restores registered background state."""
    from repro.net import FailureMode

    env = Environment()
    network = Network(env, linear(3))
    controller = ZenithController(env, network).start()
    alloc = IdAllocator()
    preload_background_state(controller, 4, alloc, register_ops=True)
    env.run(until=2)
    network.fail_switch("s1", FailureMode.COMPLETE)
    env.run(until=env.now + 1)
    network.recover_switch("s1")
    env.run(until=env.now + 15)
    assert len(network["s1"].flow_table) == 4
    assert controller.view_matches_dataplane()


def test_lean_background_counts_as_reconciliation_intent():
    env = Environment()
    network = Network(env, linear(3))
    controller = ZenithController(env, network).start()
    alloc = IdAllocator()
    preload_background_state(controller, 3, alloc, register_ops=False)
    for switch in network:
        assert controller.state.intended_entries(switch.switch_id) \
            == set(switch.flow_table)
