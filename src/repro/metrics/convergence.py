"""Convergence measurement and correctness-condition checkers.

``convergence time`` follows the paper's definition (§6 Metrics): the
time between when DAG installation commences and when the controller
certifies in the NIB that the data plane has converged to the state
corresponding to the DAG.  :func:`measure_convergence` additionally
reports *true* convergence — when the certified state also matches the
ground-truth dataplane — which a correct controller reaches at the same
time, and an inconsistent one only after reconciliation.

:func:`check_dag_order` verifies the CorrectDAGOrder safety condition
post-hoc from the switches' first-install logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.controller import ZenithController
from ..core.types import Dag, DagStatus, OpType
from ..net.dataplane import Network
from ..sim import Environment

__all__ = ["ChangeStamp", "check_dag_order", "dag_installed_in_dataplane",
            "measure_convergence", "ConvergenceResult", "wait_until"]


class ChangeStamp:
    """Lets a poller re-evaluate a predicate only when its inputs changed.

    Inputs: ``network``'s flow tables and health bits
    (:meth:`Network.version`), the NIB ``tables`` (one counting watcher,
    registered here, so a run with no poller pays nothing) and one
    object per call, compared by identity.  The stamp decides *whether*
    to evaluate, never what (DESIGN.md "Change stamps").
    """

    def __init__(self, network: Network, *tables):
        self.inputs = (network, *tables)
        self._nib_writes = 0
        #: (write count, key, value) of the last evaluation.
        self._seen: tuple = (None, None, None)
        for table in tables:
            table.watch(self._count)

    def _count(self, _write) -> None:
        self._nib_writes += 1

    def cached(self, evaluate, *args, key=None):
        """``evaluate(*args)``, re-run only if an input or ``key`` changed."""
        count = self._nib_writes + self.inputs[0].version()
        if self._seen[0] != count or self._seen[1] is not key:
            self._seen = (count, key, evaluate(*args))
        return self._seen[2]


def check_dag_order(network: Network, dag: Dag) -> list[tuple[int, int]]:
    """CorrectDAGOrder: return the list of violated DAG edges.

    An edge (r1, r2) is violated when r2's entry was first installed at
    or before r1's.  Edges whose OPs never installed (e.g. lost to a
    permanent switch failure, which the condition exempts) are skipped.
    """
    first_install: dict[tuple[str, int], float] = {}
    for switch in network:
        for entry_id, at in switch.first_install.items():
            first_install[(switch.switch_id, entry_id)] = at
    violations = []
    for pred_id, succ_id in dag.edges:
        pred, succ = dag.ops[pred_id], dag.ops[succ_id]
        if pred.op_type is not OpType.INSTALL or succ.op_type is not OpType.INSTALL:
            continue
        pred_key = (pred.switch, pred.entry.entry_id)
        succ_key = (succ.switch, succ.entry.entry_id)
        if pred_key not in first_install or succ_key not in first_install:
            continue
        if not first_install[pred_key] < first_install[succ_key]:
            violations.append((pred_id, succ_id))
    return violations


def dag_installed_in_dataplane(network: Network, dag: Dag,
                               ignore_down: bool = False) -> bool:
    """CorrectDAGInstalled (instantaneous): every entry is in G_d.

    With ``ignore_down`` entries on currently-dead switches are skipped
    (used by episode-based stability measurement, where a dead switch's
    state is unjudgeable until it recovers).
    """
    for switch, entry_id in dag.install_entries():
        sim_switch = network.switches[switch]
        if ignore_down and not sim_switch.is_healthy:
            continue
        if entry_id not in sim_switch.flow_table:
            return False
    return True


@dataclass
class ConvergenceResult:
    """Outcome of one convergence measurement."""

    dag_id: int
    submitted_at: float
    certified_at: Optional[float]
    truly_consistent_at: Optional[float]

    @property
    def certified_latency(self) -> Optional[float]:
        """Paper metric: submit → NIB certification."""
        if self.certified_at is None:
            return None
        return self.certified_at - self.submitted_at

    @property
    def true_latency(self) -> Optional[float]:
        """Submit → certified *and* ground-truth consistent."""
        if self.truly_consistent_at is None:
            return None
        return self.truly_consistent_at - self.submitted_at


def wait_until(env: Environment, predicate, poll: float = 0.05,
               deadline: Optional[float] = None):
    """Generator: advance until ``predicate()`` or the deadline."""
    while not predicate():
        if deadline is not None and env.now >= deadline:
            return False
        yield env.timeout(poll)
    return True


def measure_convergence(env: Environment, controller: ZenithController,
                        dag: Dag, app: str = "",
                        deadline: float = 120.0,
                        poll: float = 0.05) -> ConvergenceResult:
    """Submit ``dag`` and drive the sim until it truly converges.

    Runs the environment; returns certification and true-consistency
    instants (None where the deadline expired first).
    """
    submitted_at = env.now
    controller.submit_dag(dag, app=app)
    result = ConvergenceResult(dag.dag_id, submitted_at, None, None)

    def certified() -> bool:
        return controller.state.dag_status_of(dag.dag_id) is DagStatus.DONE

    def truly_consistent() -> bool:
        return (certified()
                and dag_installed_in_dataplane(controller.network, dag))

    def driver():
        ok = yield from wait_until(env, certified, poll,
                                   submitted_at + deadline)
        if ok:
            result.certified_at = env.now
            if env._tracing:
                env.tracer.instant(env, f"dag {dag.dag_id} certified",
                                   track="convergence", dag=dag.dag_id)
        ok = yield from wait_until(env, truly_consistent, poll,
                                   submitted_at + deadline)
        if ok:
            result.truly_consistent_at = env.now
            if env._tracing:
                env.tracer.instant(env, f"dag {dag.dag_id} consistent",
                                   track="convergence", dag=dag.dag_id)

    done = env.process(driver())
    env.run(until=done)
    return result
