"""Unit tests for the AbstractSW switch model."""

import pytest

from repro.net import (
    FailureMode,
    FlowEntry,
    MsgKind,
    SwitchAck,
    SwitchRequest,
    SwitchStatus,
    TableSnapshot,
    table_read_time,
)
from repro.net.switch import SimSwitch
from repro.sim import Environment, FifoQueue


def install_request(switch, xid, entry_id, dst, next_hop, priority=0):
    return SwitchRequest(
        kind=MsgKind.INSTALL, switch=switch, xid=xid,
        entry=FlowEntry(entry_id, dst, next_hop, priority))


def drain(env, switch, until=5.0):
    """Run the sim and return everything the switch sent back."""
    env.run(until=until)
    out = []
    while len(switch.out_queue):
        def getter():
            item = yield switch.out_queue.get()
            out.append(item)
        env.process(getter())
        env.run(until=env.now)
    return out


def test_install_and_ack():
    env = Environment()
    sw = SimSwitch(env, "s0")
    sw.send(install_request("s0", xid=1, entry_id=10, dst="d", next_hop="s1"))
    responses = drain(env, sw)
    assert len(responses) == 1
    ack = responses[0]
    assert isinstance(ack, SwitchAck)
    assert (ack.kind, ack.xid, ack.switch) == (MsgKind.INSTALL, 1, "s0")
    assert sw.flow_table[10].next_hop == "s1"


def test_install_records_first_install_once():
    env = Environment()
    sw = SimSwitch(env, "s0")
    sw.send(install_request("s0", 1, 10, "d", "s1"))
    env.run(until=1)
    first = sw.first_install[10]
    sw.send(install_request("s0", 2, 10, "d", "s2"))
    env.run(until=2)
    assert sw.first_install[10] == first
    assert sw.flow_table[10].next_hop == "s2"


def test_delete_removes_entry():
    env = Environment()
    sw = SimSwitch(env, "s0")
    sw.send(install_request("s0", 1, 10, "d", "s1"))
    env.run(until=1)
    sw.send(SwitchRequest(MsgKind.DELETE, "s0", xid=2, entry_id=10))
    env.run(until=2)
    assert 10 not in sw.flow_table


def test_clear_tcam_wipes_and_acks():
    env = Environment()
    sw = SimSwitch(env, "s0")
    for i in range(3):
        sw.send(install_request("s0", i, i, "d", "s1"))
    env.run(until=1)
    sw.send(SwitchRequest(MsgKind.CLEAR_TCAM, "s0", xid=99))
    responses = drain(env, sw)
    assert sw.flow_table == {}
    clear_acks = [r for r in responses
                  if isinstance(r, SwitchAck) and r.kind is MsgKind.CLEAR_TCAM]
    assert len(clear_acks) == 1 and clear_acks[0].xid == 99


def test_read_table_latency_matches_calibration():
    env = Environment()
    sw = SimSwitch(env, "s0", channel_delay=0.0, channel_jitter=0.0,
                   op_process_time=0.0)
    for i in range(512):
        sw.flow_table[i] = FlowEntry(i, f"d{i}", "s1")
    sw.send(SwitchRequest(MsgKind.READ_TABLE, "s0", xid=5))
    env.run()
    # Paper Fig. 4(a): ~13ms at 512 entries.
    assert table_read_time(512) == pytest.approx(0.012, rel=0.15)
    snapshots = [m for m in sw.out_queue.items if isinstance(m, TableSnapshot)]
    assert len(snapshots) == 1
    assert len(snapshots[0].entries) == 512


def test_read_table_time_superlinear():
    assert table_read_time(4096) / table_read_time(512) > 8.0


def test_complete_failure_wipes_state_and_announces():
    env = Environment()
    sw = SimSwitch(env, "s0", detection_delay=0.2)
    listener = FifoQueue(env, "listener")
    sw.add_status_listener(listener)
    sw.send(install_request("s0", 1, 10, "d", "s1"))
    env.run(until=1)
    sw.fail(FailureMode.COMPLETE)
    env.run(until=2)
    assert sw.flow_table == {}
    assert not sw.is_healthy
    notes = list(listener.items)
    assert len(notes) == 1
    assert notes[0].status is SwitchStatus.DOWN
    assert notes[0].state_lost


def test_partial_failure_keeps_tcam():
    env = Environment()
    sw = SimSwitch(env, "s0")
    sw.send(install_request("s0", 1, 10, "d", "s1"))
    env.run(until=1)
    sw.fail(FailureMode.PARTIAL)
    env.run(until=2)
    assert 10 in sw.flow_table
    assert not sw.is_healthy


def test_dead_switch_ignores_requests_until_recovery():
    env = Environment()
    sw = SimSwitch(env, "s0", detection_delay=0.1)
    sw.fail(FailureMode.COMPLETE)
    env.run(until=0.5)
    sw.send(install_request("s0", 1, 10, "d", "s1"))
    env.run(until=1.5)
    assert sw.flow_table == {}
    sw.recover()
    sw.send(install_request("s0", 2, 11, "d", "s1"))
    env.run(until=3)
    assert 11 in sw.flow_table
    assert 10 not in sw.flow_table  # first request was lost, not queued


def test_failure_loses_inflight_requests():
    """Partial failures drop buffered requests (paper Table 3)."""
    env = Environment()
    sw = SimSwitch(env, "s0", channel_delay=0.0, channel_jitter=0.0,
                   op_process_time=1.0)
    sw.send(install_request("s0", 1, 10, "d", "s1"))
    sw.send(install_request("s0", 2, 11, "d", "s1"))

    def injector():
        yield env.timeout(0.5)  # first op being processed, second queued
        sw.fail(FailureMode.PARTIAL)
        yield env.timeout(0.5)
        sw.recover()

    env.process(injector())
    env.run(until=5)
    assert sw.flow_table == {}  # both lost: one aborted, one dropped


def test_lookup_prefers_priority():
    env = Environment()
    sw = SimSwitch(env, "s0")
    sw.flow_table[1] = FlowEntry(1, "d", "s1", priority=0)
    sw.flow_table[2] = FlowEntry(2, "d", "s2", priority=5)
    entry = sw.lookup("d")
    assert entry is not None and entry.next_hop == "s2"
    assert sw.lookup("other") is None


def test_role_change():
    env = Environment()
    sw = SimSwitch(env, "s0")
    sw.send(SwitchRequest(MsgKind.ROLE_CHANGE, "s0", xid=1, role="ofc-2"))
    env.run(until=1)
    assert sw.master == "ofc-2"


# -- FlowTable: every in-place write is counted ------------------------------

_ENTRY = FlowEntry(7, "d", "s1")
#: Every ``dict`` method that can change the table, with one call of it.
_MUTATORS = {
    "__init__": lambda table: table.__init__({7: _ENTRY}),
    "__setitem__": lambda table: table.__setitem__(7, _ENTRY),
    "__delitem__": lambda table: table.__delitem__(1),
    "__ior__": lambda table: table.__ior__({7: _ENTRY}),
    "pop": lambda table: table.pop(1),
    "popitem": lambda table: table.popitem(),
    "clear": lambda table: table.clear(),
    "update": lambda table: table.update({7: _ENTRY}),
    "setdefault": lambda table: table.setdefault(7, _ENTRY),
}
#: …and every one that cannot.
_READERS = {
    "__class_getitem__", "__contains__", "__eq__", "__ge__",
    "__getattribute__", "__getitem__", "__gt__", "__iter__", "__le__",
    "__len__", "__lt__", "__ne__", "__new__", "__or__", "__repr__",
    "__reversed__", "__ror__", "__sizeof__", "copy", "fromkeys", "get",
    "items", "keys", "values",
}


def test_every_dict_method_is_known_to_write_or_not():
    """A ``dict`` method this file has not classified (a newer Python)
    fails here instead of slipping past ``FlowTable.version``."""
    methods = {name for name, value in vars(dict).items() if callable(value)}
    assert methods == set(_MUTATORS) | _READERS


@pytest.mark.parametrize("name", sorted(_MUTATORS))
def test_every_in_place_mutator_moves_the_flow_table_version(name):
    from repro.net.switch import FlowTable

    table = FlowTable()
    dict.update(table, {i: FlowEntry(i, "d", "s1") for i in (1, 2)})
    reference = dict(table)
    before = table.version
    _MUTATORS[name](table)
    _MUTATORS[name](reference)
    assert table.version > before
    assert table == reference           # still behaves as the dict method


def test_flow_table_version_moves_on_switch_writes_and_health_flips():
    env = Environment()
    sw = SimSwitch(env, "s0")
    versions = [sw.flow_table.version]

    def moved():
        versions.append(sw.flow_table.version)
        return versions[-1] > versions[-2]

    sw.send(install_request("s0", xid=1, entry_id=10, dst="d", next_hop="s1"))
    env.run(until=1.0)
    assert moved()
    sw.send(SwitchRequest(MsgKind.DELETE, "s0", xid=2, entry_id=10))
    env.run(until=2.0)
    assert moved()
    sw.send(SwitchRequest(MsgKind.CLEAR_TCAM, "s0", xid=3))
    env.run(until=3.0)
    assert moved()
    sw.fail(FailureMode.PARTIAL)        # keeps the TCAM: only health moved
    assert moved()
    sw.recover()
    assert moved()
    sw.flow_table[11] = FlowEntry(11, "d", "s1")
    assert moved()
    env.run(until=4.0)
    assert not moved()                  # reads and idle time do not
    assert sw.table_snapshot() and sw.lookup("d") is not None
    assert not moved()
