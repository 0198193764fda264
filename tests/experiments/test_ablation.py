"""Tests for the re-broken controller and spec variants."""

import pytest

from repro.experiments.ablation import (
    _STATIC_VARIANTS,
    AcceptAnyAckController,
    BuggyRecoveryOrderController,
    NoStatusGuardController,
)
from repro.net import FailureMode, Network, linear
from repro.sim import Environment
from repro.workloads.dags import IdAllocator, path_dag


@pytest.mark.parametrize("controller_cls", [
    NoStatusGuardController,
    AcceptAnyAckController,
    BuggyRecoveryOrderController,
])
def test_rebroken_variants_still_converge_eventually(controller_cls):
    """Defense in depth: at-least-once delivery + standing-intent
    reactivation let each singly re-broken variant still reach eventual
    consistency on a simple wipe/recover scenario — the bugs corrupt
    intermediate guarantees, not (alone) convergence."""
    env = Environment()
    network = Network(env, linear(3))
    controller = controller_cls(env, network).start()
    alloc = IdAllocator()
    dag = path_dag(alloc, ["s0", "s1", "s2"])
    controller.submit_dag(dag)
    env.run(until=controller.wait_for_dag(dag.dag_id))
    network.fail_switch("s1", FailureMode.COMPLETE)
    env.run(until=env.now + 1)
    network.recover_switch("s1")
    env.run(until=env.now + 20)
    assert network.trace("s0", "s2").ok
    assert controller.view_matches_dataplane()


def test_buggy_order_variant_exposes_hidden_entries():
    from repro.experiments.ablation import run

    result = run(quick=True, seed=0)
    stock = result.metrics["zenith"]
    buggy = result.metrics["buggy-recovery-order"]
    assert (buggy.hidden_entry_time > stock.hidden_entry_time
            or buggy.duplicate_installs > stock.duplicate_installs)
    assert result.spec_verdicts["spec: final controller"] is True
    assert result.spec_verdicts["spec: buggy recovery order"] is False


@pytest.mark.parametrize("variant", sorted(_STATIC_VARIANTS))
def test_static_and_dynamic_verdicts_agree(variant):
    """Speclint and the checker agree on every re-broken variant.

    A statically clean variant must verify; a statically flagged one
    must be dynamically refuted — or, for the forged POR hint, be
    refused outright by the checker before exploration.
    """
    from repro.analysis import analyze_spec
    from repro.spec.checker import UnsoundPORHintError, check

    factory, expected_clean = _STATIC_VARIANTS[variant]
    static_clean = not analyze_spec(factory()).findings
    assert static_clean == expected_clean

    try:
        dynamic_ok = check(factory()).ok
    except UnsoundPORHintError:
        dynamic_ok = False
    assert dynamic_ok == static_clean
