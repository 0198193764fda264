"""Stamped convergence predicates equal a from-scratch evaluation.

``_stable`` and ``ConsistencyMonitor._current_conditions`` re-evaluate
only when a :class:`~repro.metrics.convergence.ChangeStamp` over what
they read has moved.  The full evaluation stays the single
implementation; these tests use it as the oracle, after random
interleavings of every kind of write, over whole runs, and by counting.
"""

from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.chaos import ConsistencyMonitor, MonitorConfig
from repro.chaos import driver as chaos_driver
from repro.core import (
    ControllerConfig,
    Dag,
    DagStatus,
    Op,
    OpStatus,
    OpType,
    ZenithController,
)
from repro.experiments import common
from repro.experiments.common import System, _stable, _stable_now, build_system
from repro.metrics.convergence import ChangeStamp
from repro.net import (
    FailureMode,
    FlowEntry,
    MsgKind,
    Network,
    SwitchRequest,
    kdl,
    ring,
    subgraph,
)
from repro.sim import Environment, RandomStreams
from repro.workloads.dags import IdAllocator


def fresh_conditions(monitor) -> dict:
    """``_current_conditions`` under a stamp that has seen nothing yet,
    i.e. the full evaluation."""
    stamped = monitor._stamp
    monitor._stamp = ChangeStamp(monitor.network)
    try:
        return monitor._current_conditions()
    finally:
        monitor._stamp = stamped


def assert_stamped_equals_fresh(system, monitor) -> None:
    assert _stable(system) == _stable_now(system)
    stamped, fresh = monitor._current_conditions(), fresh_conditions(monitor)
    # Same keys in the same order, same details.
    assert list(stamped.items()) == list(fresh.items())


# -- (a) random interleavings of every kind of write -------------------------

_SW = st.sampled_from(["s0", "s1", "s2"])
_ENTRY = st.integers(1, 4)
_DAG = st.integers(1, 2)
_OP = st.integers(100, 105)

_ACTIONS = st.one_of(
    # through the switch's own request handling
    st.tuples(st.just("perform"), st.sampled_from(
        [MsgKind.INSTALL, MsgKind.DELETE, MsgKind.CLEAR_TCAM]), _SW, _ENTRY),
    # straight on the flow table
    st.tuples(st.just("table"), st.sampled_from(
        ["setitem", "delitem", "pop", "clear", "update"]), _SW, _ENTRY),
    st.tuples(st.just("fail"), _SW, st.sampled_from(list(FailureMode))),
    st.tuples(st.just("recover"), _SW),
    # the controller's view
    st.tuples(st.just("record_installed"), _SW, _ENTRY, _OP),
    st.tuples(st.just("record_removed"), _SW, _ENTRY),
    st.tuples(st.just("protect_entry"), _SW, _ENTRY),
    st.tuples(st.just("clear_view_of_switch"), _SW),
    # view and dataplane together, so that they agree often enough for
    # the DAG-dependent parts of the predicates to decide the verdict
    st.tuples(st.just("install_both"), _SW, _ENTRY, _OP),
    st.tuples(st.just("sync_view"), _SW),
    # intent and its status
    st.tuples(st.just("register_dag"), _DAG,
              st.lists(st.tuples(_SW, _ENTRY), min_size=1, max_size=3)),
    st.tuples(st.just("set_dag_status"), _DAG,
              st.sampled_from(list(DagStatus))),
    st.tuples(st.just("set_op_status"), _OP, st.sampled_from(list(OpStatus))),
    st.tuples(st.just("current_dag"), st.one_of(st.none(), _DAG)),
    # single tables, behind the accessors' backs
    st.tuples(st.just("raw"), st.just("op_status"), _OP,
              st.sampled_from(list(OpStatus))),
    st.tuples(st.just("raw"), st.just("op_status_at"), _OP,
              st.one_of(st.none(), st.just(0.0))),
    st.tuples(st.just("raw"), st.just("op_table"), _OP, st.none()),
    st.tuples(st.just("raw"), st.just("dag_table"), _DAG, st.none()),
    st.tuples(st.just("raw"), st.just("dag_status"), _DAG,
              st.sampled_from([None, DagStatus.DONE])),
    st.tuples(st.just("advance"), st.sampled_from([0.05, 0.3, 1.2])),
)


def _entry(entry_id: int) -> FlowEntry:
    return FlowEntry(entry_id, "d", "s0")


def _apply(system, op_ids, name, *args) -> None:
    network, state = system.network, system.controller.state
    if name == "perform":
        kind, switch, entry_id = args
        network[switch]._perform(SwitchRequest(
            kind, switch, xid=entry_id, entry=_entry(entry_id),
            entry_id=entry_id))
    elif name == "table":
        how, switch, entry_id = args
        table = network[switch].flow_table
        if how == "setitem":
            table[entry_id] = _entry(entry_id)
        elif how == "delitem":
            if entry_id in table:
                del table[entry_id]
        elif how == "pop":
            table.pop(entry_id, None)
        elif how == "clear":
            table.clear()
        else:
            table.update({entry_id: _entry(entry_id),
                          entry_id + 1: _entry(entry_id + 1)})
    elif name == "fail":
        network[args[0]].fail(args[1])
    elif name == "recover":
        network[args[0]].recover()
    elif name == "install_both":
        switch, entry_id, op_id = args
        network[switch].flow_table[entry_id] = _entry(entry_id)
        state.record_installed(switch, entry_id, op_id)
    elif name == "sync_view":
        switch = args[0]
        state.clear_view_of_switch(switch)
        for entry_id in network[switch].flow_table:
            state.record_installed(switch, entry_id, -1)
    elif name == "register_dag":
        dag_id, installs = args
        state.register_dag(Dag(dag_id, [
            Op(next(op_ids), switch, OpType.INSTALL, entry=_entry(entry_id))
            for switch, entry_id in installs]))
    elif name == "current_dag":
        system.app.current_dag = \
            None if args[0] is None else state.get_dag(args[0])
    elif name == "raw":
        table, key, value = args
        if value is None:
            getattr(state, table).delete(key)
        else:
            getattr(state, table).put(key, value)
    elif name == "advance":
        system.env.run(until=system.env.now + args[0])
    else:
        getattr(state, name)(*args)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ACTIONS, min_size=6, max_size=40))
def test_stamped_predicates_equal_fresh_evaluation(actions):
    env = Environment()
    network = Network(env, ring(3))
    # Not started: only the actions below write, in the order drawn.
    controller = ZenithController(env, network)
    system = System(env, network, controller,
                    SimpleNamespace(current_dag=None), IdAllocator(),
                    RandomStreams(0))
    monitor = ConsistencyMonitor(env, controller, network, MonitorConfig(
        period=0.25, grace=0.5, orphan_timeout=0.2))
    env.run(until=0.1)
    op_ids = iter(range(100, 10_000))
    assert_stamped_equals_fresh(system, monitor)
    for action in actions:
        _apply(system, op_ids, *action)
        assert_stamped_equals_fresh(system, monitor)
        # A second, quiet poll answers the same.
        assert_stamped_equals_fresh(system, monitor)


def test_a_write_to_any_single_watched_table_is_seen():
    """One raw write per watched NIB table, each flipping a verdict: the
    random interleavings rarely isolate a table, so name them all."""
    env = Environment()
    network = Network(env, ring(3))
    controller = ZenithController(env, network)
    state = controller.state
    system = System(env, network, controller, None, IdAllocator(),
                    RandomStreams(0))
    monitor = ConsistencyMonitor(env, controller, network, MonitorConfig(
        period=1000.0, orphan_timeout=1.0))
    env.run(until=5.0)

    def kinds():
        assert_stamped_equals_fresh(system, monitor)
        return (_stable(system),
                sorted({key[0] for key in monitor._current_conditions()}))

    assert kinds() == (True, [])
    dag = Dag(1, [Op(100, "s1", OpType.INSTALL, entry=_entry(1))])
    state.register_dag(dag)
    state.set_op_status(100, OpStatus.DONE)         # stamped at t=5
    assert kinds() == (True, [])
    state.dag_status.put(1, DagStatus.DONE)
    assert kinds() == (False, ["certified-not-installed"])
    state.dag_table.delete(1)
    assert kinds() == (True, [])
    state.routing_view.put(("s2", 9), -1)
    assert kinds() == (False, ["quiescence-divergence"])
    state.routing_view.delete(("s2", 9))
    assert kinds() == (True, [])
    env.run(until=8.0)
    state.op_status.put(100, OpStatus.IN_FLIGHT)    # age 3 s > 1 s
    assert kinds() == (True, ["orphaned-op"])
    state.op_status_at.put(100, env.now)
    assert kinds() == (True, [])
    state.op_status_at.put(100, 5.0)
    assert kinds() == (True, ["orphaned-op"])
    state.op_table.delete(100)
    assert kinds() == (True, [])


def test_stamp_follows_a_replaced_controller_or_network():
    """The stamp is keyed on the objects it watches, not on the System."""
    system = build_system(ZenithController, ring(4), demands=[("s0", "s2")],
                          background_entries=2)
    assert _stable(system)
    other = build_system(ZenithController, ring(4), demands=[("s0", "s2")],
                         background_entries=2)
    other.network["s1"].flow_table.clear()
    assert not _stable_now(other)
    system.controller, system.network = other.controller, other.network
    assert not _stable(system)
    assert system.stamp.inputs[0] is other.network


# -- (c) quiet polls evaluate nothing ----------------------------------------

class Calls:
    """Counts calls of the functions the predicates are made of."""

    def __init__(self, monkeypatch):
        self.counts = {}
        for owner, name in ((common, "_stable_now"),
                            (common, "dag_installed_in_dataplane"),
                            (Network, "routing_state"),
                            (ZenithController, "view_matches_dataplane"),
                            (ConsistencyMonitor, "_state_conditions")):
            monkeypatch.setattr(owner, name, self._counting(
                name, getattr(owner, name)))

    def _counting(self, name, function):
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return function(*args, **kwargs)
        return counted

    def take(self) -> dict:
        counts, self.counts = self.counts, {}
        return counts


def test_quiet_polls_evaluate_nothing_and_one_write_evaluates_once(
        monkeypatch):
    system = build_system(ZenithController, ring(6), demands=[("s0", "s3")],
                          background_entries=5)
    env, network = system.env, system.network
    monitor = ConsistencyMonitor(env, system.controller, network,
                                 MonitorConfig(period=1000.0))
    assert _stable(system)
    monitor._current_conditions()
    calls = Calls(monkeypatch)

    def poll_both(times: int) -> dict:
        for _ in range(times):
            env.run(until=env.now + 0.05)
            _stable(system)
            monitor._current_conditions()
        return calls.take()

    assert poll_both(40) == {}
    # One direct flow-table write: one evaluation of each predicate.
    network["s1"].flow_table[999] = FlowEntry(999, "x", "s0")
    counts = poll_both(40)
    assert counts["_stable_now"] == 1
    assert counts["_state_conditions"] == 1
    assert counts["routing_state"] == 3     # view_matches ×2 + the monitor
    del network["s1"].flow_table[999]
    assert poll_both(1)["_stable_now"] == 1
    # One health flip, keeping the TCAM (a partial failure writes no
    # flow table): evaluated again, exactly once until the controller
    # reacts (detection delay 0.5 s).
    network["s4"].fail(FailureMode.PARTIAL)
    counts = poll_both(5)
    assert counts["_stable_now"] == 1
    assert counts["_state_conditions"] == 1
    # A replaced current DAG object, nothing else.
    poll_both(200)
    assert _stable(system)
    calls.take()
    dag = system.app.current_dag
    system.app.current_dag = Dag(dag.dag_id, dag.ops.values(), dag.edges)
    counts = poll_both(10)
    assert counts["_stable_now"] == 1 and "_state_conditions" not in counts


# -- (d) whole runs, checked at every tick -----------------------------------

@pytest.fixture
def checked_pollers(monkeypatch):
    """Make every ``_stable`` call and every monitor poll of a run also
    evaluate from scratch; returns the tick counters."""
    ticks = {"stable": 0, "monitor": 0, "unstable": 0, "conditions": 0}
    stamped_stable, real_poll = common._stable, ConsistencyMonitor._poll

    def checked_stable(system):
        verdict = stamped_stable(system)
        assert verdict == _stable_now(system), f"t={system.env.now}"
        ticks["stable"] += 1
        ticks["unstable"] += not verdict
        return verdict

    def checked_poll(monitor):
        stamped = monitor._current_conditions()
        assert list(stamped.items()) == \
            list(fresh_conditions(monitor).items()), f"t={monitor.env.now}"
        ticks["monitor"] += 1
        ticks["conditions"] += len(stamped)
        real_poll(monitor)

    monkeypatch.setattr(common, "_stable", checked_stable)
    monkeypatch.setattr(ConsistencyMonitor, "_poll", checked_poll)
    return ticks


@pytest.mark.parametrize("kind,churn", [("switch", None), ("switch", 4.0),
                                        ("component", 4.0)])
def test_failure_workload_agrees_at_every_tick(checked_pollers, kind, churn):
    topo = subgraph(kdl(40, 0), 12, 0)
    episodes = common.run_failure_workload(
        ZenithController, topo, failure_kind=kind, duration=20.0,
        failure_count=3, num_demands=2, seed=0, churn_period=churn,
        config=ControllerConfig(reconciliation_period=30))
    assert checked_pollers["stable"] > 1000
    assert checked_pollers["unstable"] > 0 and episodes


def test_chaos_trials_agree_at_every_tick(checked_pollers):
    artifact = chaos_driver.search(0, trials=3, shrink=False)
    assert len(artifact["runs"]) == 3       # each under both controllers
    assert checked_pollers["monitor"] > 500
    assert checked_pollers["conditions"] > 0
    polls = checked_pollers["monitor"]
    # One update schedule: the packet-trace invariants ride every poll.
    chaos_driver.search(0, trials=1, shrink=False, scenario="update",
                        target="naive", reference="consistent")
    assert checked_pollers["monitor"] > polls
