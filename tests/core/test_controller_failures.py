"""Integration tests: ZENITH-core under switch and component failures."""

import pytest

from repro.core import (
    ControllerConfig,
    OpStatus,
    SwitchHealth,
    ZenithController,
)
from repro.net import FailureMode, Network, linear, ring
from repro.sim import Environment
from repro.workloads.dags import IdAllocator, path_dag


def make_controller(topo, config=None):
    env = Environment()
    network = Network(env, topo)
    controller = ZenithController(env, network, config=config).start()
    return env, network, controller


def install(env, controller, dag, timeout=30.0):
    controller.submit_dag(dag)
    done = controller.wait_for_dag(dag.dag_id)
    env.run(until=done)
    return env.now


def test_switch_transient_complete_failure_reinstalls_ops():
    """Complete transient failure: TCAM wiped, controller reconverges."""
    env, network, controller = make_controller(linear(3))
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    install(env, controller, dag)

    network.fail_switch("s1", FailureMode.COMPLETE)
    env.run(until=env.now + 2)
    assert controller.state.health_of("s1") is SwitchHealth.DOWN
    network.recover_switch("s1")
    env.run(until=env.now + 10)

    # Recovered and wiped, ops reset and reinstalled by the sequencer.
    assert controller.state.health_of("s1") is SwitchHealth.UP
    assert network.trace("s0", "s2").ok
    assert controller.view_matches_dataplane()
    assert controller.hidden_entries() == []


def test_failure_during_install_converges_without_hidden_entries():
    """The §G scenario: failure/recovery racing an install."""
    env, network, controller = make_controller(linear(4))
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2", "s3"])
    controller.submit_dag(dag)

    def chaos():
        yield env.timeout(0.004)  # mid-install
        network.fail_switch("s2", FailureMode.COMPLETE)
        yield env.timeout(1.0)
        network.recover_switch("s2")

    env.process(chaos())
    done = controller.wait_for_dag(dag.dag_id)
    env.run(until=done)
    env.run(until=env.now + 2)
    assert network.trace("s0", "s3").ok
    assert controller.view_matches_dataplane()
    assert controller.hidden_entries() == []


def test_rapid_fail_recover_handled_in_order():
    """ODL incident 1: recovery processed before failure is prevented."""
    env, network, controller = make_controller(linear(3))
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    install(env, controller, dag)

    def blip():
        yield env.timeout(0.1)
        network.fail_switch("s1", FailureMode.PARTIAL)
        yield env.timeout(0.05)  # shorter than detection delay
        network.recover_switch("s1")

    env.process(blip())
    env.run(until=env.now + 15)
    assert controller.state.health_of("s1") is SwitchHealth.UP
    assert network.trace("s0", "s2").ok
    assert controller.view_matches_dataplane()


def test_worker_crash_does_not_lose_ops():
    """Peek/pop + worker state recovery: crash mid-OP, still converges."""
    config = ControllerConfig(num_workers=1)
    env, network, controller = make_controller(linear(4), config)
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2", "s3"])
    controller.submit_dag(dag)

    def chaos():
        # Crash the sole worker repeatedly while the DAG installs.
        for _ in range(3):
            yield env.timeout(0.003)
            controller.crash_component("worker-0")

    env.process(chaos())
    done = controller.wait_for_dag(dag.dag_id)
    env.run(until=done)
    assert env.now < 10.0
    assert network.trace("s0", "s3").ok
    assert controller.view_matches_dataplane()


def test_sequencer_crash_resumes_dag():
    config = ControllerConfig(num_sequencers=1)
    env, network, controller = make_controller(linear(4), config)
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2", "s3"])
    controller.submit_dag(dag)

    def chaos():
        yield env.timeout(0.002)
        controller.crash_component("sequencer-0")
        yield env.timeout(1.0)
        controller.crash_component("sequencer-0")

    env.process(chaos())
    done = controller.wait_for_dag(dag.dag_id)
    env.run(until=done)
    assert network.trace("s0", "s3").ok
    assert controller.view_matches_dataplane()


def test_monitoring_server_crash_acks_not_lost():
    env, network, controller = make_controller(linear(4))
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2", "s3"])
    controller.submit_dag(dag)

    def chaos():
        yield env.timeout(0.004)
        controller.crash_component("monitoring-server")

    env.process(chaos())
    done = controller.wait_for_dag(dag.dag_id)
    env.run(until=done)
    assert controller.view_matches_dataplane()


def test_nib_event_handler_crash_events_redelivered():
    env, network, controller = make_controller(linear(4))
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2", "s3"])
    controller.submit_dag(dag)

    def chaos():
        yield env.timeout(0.004)
        controller.crash_component("nib-event-handler")
        yield env.timeout(0.5)
        controller.crash_component("nib-event-handler")

    env.process(chaos())
    done = controller.wait_for_dag(dag.dag_id)
    env.run(until=done)
    assert controller.view_matches_dataplane()


def test_topo_handler_crash_during_recovery():
    env, network, controller = make_controller(linear(3))
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    install(env, controller, dag)

    network.fail_switch("s1", FailureMode.COMPLETE)
    env.run(until=env.now + 1)
    network.recover_switch("s1")

    def chaos():
        yield env.timeout(0.1)
        controller.crash_component("topo-event-handler")

    env.process(chaos())
    env.run(until=env.now + 15)
    assert controller.state.health_of("s1") is SwitchHealth.UP
    assert network.trace("s0", "s2").ok
    assert controller.view_matches_dataplane()


def test_permanent_switch_failure_ops_marked_failed():
    env, network, controller = make_controller(linear(3))
    alloc = IdAllocator()
    network.fail_switch("s1", FailureMode.COMPLETE)
    env.run(until=env.now + 2)  # let detection land
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    controller.submit_dag(dag)
    env.run(until=env.now + 10)
    # The op on s1 cannot install; it is FAILED and the DAG incomplete.
    statuses = {controller.state.status_of(op_id) for op_id in dag.ops}
    assert OpStatus.FAILED in statuses
    from repro.core import DagStatus
    assert controller.state.dag_status_of(dag.dag_id) is not DagStatus.DONE


def test_directed_reconciliation_recovery():
    """ZENITH-DR: partial failure keeps TCAM; DR avoids reinstalling."""
    config = ControllerConfig(directed_reconciliation=True)
    env, network, controller = make_controller(linear(3), config)
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    install(env, controller, dag)
    installs_before = len(network["s1"].history)

    network.fail_switch("s1", FailureMode.PARTIAL)
    env.run(until=env.now + 2)
    network.recover_switch("s1")
    env.run(until=env.now + 10)

    assert controller.state.health_of("s1") is SwitchHealth.UP
    assert network.trace("s0", "s2").ok
    assert controller.view_matches_dataplane()
    # DR must not have wiped the surviving TCAM state.
    wipes = [h for h in network["s1"].history if h[1] == "wipe"]
    assert wipes == []


def test_directed_reconciliation_removes_hidden_garbage():
    config = ControllerConfig(directed_reconciliation=True)
    env, network, controller = make_controller(linear(3), config)
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    install(env, controller, dag)
    # Plant garbage directly in the TCAM (simulates a stale entry).
    from repro.net import FlowEntry
    network["s1"].flow_table[777] = FlowEntry(777, "sX", "s0", 9)

    network.fail_switch("s1", FailureMode.PARTIAL)
    env.run(until=env.now + 2)
    network.recover_switch("s1")
    env.run(until=env.now + 10)
    assert 777 not in network["s1"].flow_table
    assert controller.view_matches_dataplane()


@pytest.mark.parametrize("register_ops", [True, False])
def test_directed_reconciliation_keeps_standing_background_entries(
        register_ops):
    """ZENITH-DR must not delete intent it holds no OPs for.

    Entries preloaded with ``register_ops=False`` are protected standing
    intent: unclaimed by any OP, yet wanted.  A partial failure keeps
    the TCAM, so recovery has to leave them exactly as they were.
    """
    from repro.workloads.background import preload_background_state

    config = ControllerConfig(directed_reconciliation=True)
    env, network, controller = make_controller(ring(6), config)
    preload_background_state(controller, 5, IdAllocator(),
                             register_ops=register_ops)
    before = set(network["s1"].flow_table)
    assert len(before) == 5

    network.fail_switch("s1", FailureMode.PARTIAL)
    env.run(until=env.now + 2)
    network.recover_switch("s1")
    env.run(until=env.now + 10)

    assert controller.state.health_of("s1") is SwitchHealth.UP
    assert set(network["s1"].flow_table) == before
    assert [h for h in network["s1"].history if h[1] == "delete"] == []
    assert controller.view_matches_dataplane()
