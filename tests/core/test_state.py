"""Unit tests for ControllerState, config and the NIB façade."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    ControllerConfig,
    Dag,
    DagStatus,
    Op,
    OpStatus,
    OpType,
    SwitchHealth,
)
from repro.core.state import ControllerState
from repro.net import FlowEntry
from repro.nib import Nib
from repro.sim import Environment


def make_state():
    env = Environment()
    return env, ControllerState(Nib(env))


def install_op(op_id, switch="s0", entry_id=None):
    return Op(op_id, switch, OpType.INSTALL,
              entry=FlowEntry(entry_id or op_id, "d", "s1", 0))


def test_register_dag_registers_ops_and_owner():
    env, state = make_state()
    dag = Dag(1, [install_op(1), install_op(2)], [(1, 2)])
    state.register_dag(dag, owner=0)
    assert state.dag_status_of(1) is DagStatus.PENDING
    assert state.dag_owner[1] == 0
    assert state.status_of(1) is OpStatus.NONE
    assert state.op_dag[2] == 1


def test_ops_for_switch_index_tracks_updates():
    env, state = make_state()
    state.register_op(install_op(1, "sA"), dag_id=1)
    state.register_op(install_op(2, "sB"), dag_id=1)
    state.register_op(install_op(3, "sA"), dag_id=1)
    assert state.ops_for_switch("sA") == [1, 3]
    assert state.ops_for_switch("sB") == [2]
    state.op_table.delete(1)
    assert state.ops_for_switch("sA") == [3]


def test_set_op_status_records_timestamp():
    env, state = make_state()
    state.register_op(install_op(1), dag_id=1)

    def proc():
        yield env.timeout(3.5)
        state.set_op_status(1, OpStatus.SCHEDULED)

    env.process(proc())
    env.run()
    assert state.op_status_at[1] == pytest.approx(3.5)


def test_routing_view_roundtrip():
    env, state = make_state()
    state.record_installed("s0", 10, op_id=1)
    state.record_installed("s0", 11, op_id=2)
    state.record_installed("s1", 12, op_id=3)
    assert state.view_of_switch("s0") == {10: 1, 11: 2}
    snapshot = state.routing_view_snapshot()
    assert snapshot["s0"] == frozenset({10, 11})
    state.clear_view_of_switch("s0")
    assert state.view_of_switch("s0") == {}
    assert state.routing_view_snapshot().get("s1") == frozenset({12})


def test_intended_entries_excludes_stale_dags():
    env, state = make_state()
    dag1 = Dag(1, [install_op(1, entry_id=10)])
    dag2 = Dag(2, [install_op(2, entry_id=20)])
    state.register_dag(dag1)
    state.register_dag(dag2)
    state.set_dag_status(1, DagStatus.STALE)
    assert state.intended_entries("s0") == {20}
    assert state.dag_intent_by_switch() == {"s0": {20}}


def test_intended_entries_includes_protected():
    env, state = make_state()
    state.protect_entry("sX", 99)
    assert state.intended_entries("sX") == {99}
    assert state.view_of_switch("sX") == {99: -1}
    assert state.protected_entries() == [("sX", 99)]


def test_reactivate_dag_requires_done_and_owner():
    env, state = make_state()
    dag = Dag(1, [install_op(1)])
    state.register_dag(dag, owner=0)
    inbox = state.nib.ack_queue(f"{state.ns}.SeqInbox.0")
    state.reactivate_dag(1)           # PENDING: no-op
    assert len(inbox) == 0
    state.set_dag_status(1, DagStatus.DONE)
    state.reactivate_dag(1)
    assert inbox.items == (1,)
    assert state.dag_status_of(1) is DagStatus.INSTALLING


def test_reset_op_notifies_owner():
    env, state = make_state()
    dag = Dag(1, [install_op(1)])
    state.register_dag(dag, owner=1)
    state.set_op_status(1, OpStatus.DONE)
    dag_id = state.reset_op(1)
    assert dag_id == 1
    assert state.status_of(1) is OpStatus.NONE
    notify = state.sequencer_notify_queue(1)
    assert ("op", 1) in notify.items


def test_health_defaults_to_up():
    env, state = make_state()
    assert state.health_of("unknown") is SwitchHealth.UP
    state.set_health("s0", SwitchHealth.DOWN)
    assert not state.is_switch_usable("s0")
    state.set_health("s0", SwitchHealth.RECOVERING)
    assert not state.is_switch_usable("s0")


def test_next_xid_monotonic():
    env, state = make_state()
    xids = [state.next_xid() for _ in range(10)]
    assert xids == sorted(xids)
    assert len(set(xids)) == 10


def test_worker_for_switch_stable_and_in_range():
    config = ControllerConfig(num_workers=4)
    for switch in ("s0", "s1", "edge-1-0", "b4-7"):
        worker = config.worker_for_switch(switch)
        assert 0 <= worker < 4
        assert worker == config.worker_for_switch(switch)  # deterministic


def test_op_validation():
    with pytest.raises(ValueError):
        Op(1, "s0", OpType.INSTALL)            # INSTALL needs entry
    with pytest.raises(ValueError):
        Op(1, "s0", OpType.DELETE)             # DELETE needs entry_id
    clear = Op(1, "s0", OpType.CLEAR)
    assert clear.target_entry_id is None
    delete = Op(2, "s0", OpType.DELETE, entry_id=5)
    assert delete.target_entry_id == 5


# -- secondary indexes equal a flat recomputation -----------------------------------

_SWITCHES = st.sampled_from(["s0", "s1", "s2", "s10"])
_ENTRIES = st.integers(1, 12)
_OP_IDS = st.integers(-1, 40)
_DAG_IDS = st.integers(1, 4)

_ACTIONS = st.one_of(
    st.tuples(st.just("record_installed"), _SWITCHES, _ENTRIES, _OP_IDS),
    st.tuples(st.just("record_removed"), _SWITCHES, _ENTRIES),
    st.tuples(st.just("clear_view_of_switch"), _SWITCHES),
    st.tuples(st.just("raw_put"), _SWITCHES, _ENTRIES, _OP_IDS),
    st.tuples(st.just("raw_delete"), _SWITCHES, _ENTRIES),
    st.tuples(st.just("raw_clear")),
    st.tuples(st.just("protect_entry"), _SWITCHES, _ENTRIES),
    st.tuples(st.just("register_dag"), _DAG_IDS,
              st.lists(st.tuples(_SWITCHES, _ENTRIES), max_size=4)),
    st.tuples(st.just("set_dag_status"), _DAG_IDS,
              st.sampled_from(list(DagStatus))),
)


def _flat_view(state):
    """The pre-index accessors, recomputed from the flat table."""
    by_switch: dict = {}
    for (switch, entry_id), op_id in state.routing_view.items():
        by_switch.setdefault(switch, {})[entry_id] = op_id
    return by_switch


def _flat_intent(state, protected):
    intended = set(protected)
    for dag_id, status in state.dag_status.items():
        if status in (DagStatus.STALE, DagStatus.REMOVED):
            continue
        dag = state.dag_table.get(dag_id)
        if dag is not None:
            intended |= dag.install_entries()
    return intended


@settings(max_examples=150, deadline=None)
@given(st.lists(_ACTIONS, max_size=40))
def test_indexed_accessors_equal_flat_recomputation(actions):
    env, state = make_state()
    protected: set = set()
    op_ids = iter(range(1000, 10_000))
    for name, *args in actions:
        if name == "raw_put":
            switch, entry_id, op_id = args
            state.routing_view.put((switch, entry_id), op_id)
        elif name == "raw_delete":
            state.routing_view.delete(tuple(args))
        elif name == "raw_clear":
            state.routing_view.clear()
        elif name == "register_dag":
            dag_id, installs = args
            state.register_dag(Dag(dag_id, [
                install_op(next(op_ids), switch, entry_id)
                for switch, entry_id in installs]))
        else:
            getattr(state, name)(*args)
            if name == "protect_entry":
                protected.add(tuple(args))

        flat = _flat_view(state)
        for switch in ("s0", "s1", "s2", "s10", "absent"):
            mine = flat.get(switch, {})
            view = state.view_of_switch(switch)
            # Same mapping, in the flat table's order.
            assert list(view.items()) == list(mine.items())
        assert state.routing_view_snapshot() == {
            switch: frozenset(view) for switch, view in flat.items()}
        if name == "clear_view_of_switch":
            assert args[0] not in flat

        intended = _flat_intent(state, protected)
        for switch in ("s0", "s1", "s2", "s10", "absent"):
            assert state.intended_entries(switch) == {
                entry_id for sw, entry_id in intended if sw == switch}
        dag_intent = state.dag_intent_by_switch()
        assert {(sw, entry_id) for sw, ids in dag_intent.items()
                for entry_id in ids} == _flat_intent(state, ())
        assert all(dag_intent.values())
        assert state.protected_entries() == sorted(protected)
