"""Fig. A.3 — specification complexity by failure scenario.

The paper scores four components with the Henry–Kafura information-flow
metric (``length × (fan_in × fan_out)²``) after verifying under six
scenario sets: (1) switch partial failure, (2) controller partial
failure, (3) both, (4) switch complete permanent, (5) switch complete
transient without and (6) with directed reconciliation.  Claims:
the Sequencer is the most complex component (it must unwind DAG
transitions after complete failures); the Monitoring Server's
complexity jumps for complete-transient failures; ZENITH-DR is more
complex than ZENITH-NR.

We compute the same metric from this repository's *actual executable
components*: ``length`` is the source-line count of the methods a
scenario exercises (measured with ``inspect``), and fan-in/fan-out
count the distinct queues/tables the component reads and writes in that
scenario (from a static interaction table derived from the design in
DESIGN.md).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from ..core import monitoring, nib_handler, sequencer, topo_handler, worker_pool
from ..metrics.complexity import ComponentFlow, henry_kafura

__all__ = ["run", "param_grid", "FigA3Result", "SCENARIOS"]

#: Static source analysis: nothing here depends on the seed.
SEED_SENSITIVE = False


def param_grid(quick: bool = True) -> list[dict]:
    """Campaign tasks: a single cheap static-analysis pass."""
    return [{}]

SCENARIOS = (
    "sw-partial",        # 1: switch partial failure
    "cp-partial",        # 2: controller partial failure
    "sw+cp-partial",     # 3: both
    "sw-complete-perm",  # 4: switch complete permanent
    "sw-complete-trans-nr",  # 5: complete transient, ZENITH-NR
    "sw-complete-trans-dr",  # 6: complete transient, ZENITH-DR
)

#: Which methods of each component a scenario exercises.  Baseline
#: methods run in every scenario; recovery/undo machinery only under
#: the failure classes that need it.
_METHOD_SETS = {
    "Sequencer": {
        "base": ["main", "_drive_dag", "_schedulable_ops", "_dag_finished",
                 "_dispatch", "_wait_for_progress", "_announce_done",
                 "_finish_assignment"],
        "sw-complete": ["submit"],   # reactivation resubmits DAGs
        "cp-partial": [],            # peek/pop already in base
    },
    "Monitoring Server": {
        "base": ["main", "_sender", "_receiver", "_status_forwarder",
                 "_classify"],
        "sw-complete-trans": ["setup"],  # replays after channel resets
        "cp-partial": ["setup"],
    },
    "Worker Pool": {
        "base": ["main", "_process", "_forward"],
        "cp-partial": ["recover"],
    },
    "Topo Event Handler": {
        "base": ["main", "_switch_down", "_notify_apps"],
        "sw-recovery": ["_switch_up", "_start_clear", "_cleanup_done",
                        "_reset_switch_ops", "_reactivate_dags",
                        "_notify_owner"],
        "dr": ["_start_directed", "_directed_reconcile"],
    },
}

_CLASSES = {
    "Sequencer": sequencer.Sequencer,
    "Monitoring Server": monitoring.MonitoringServer,
    "Worker Pool": worker_pool.Worker,
    "Topo Event Handler": topo_handler.TopoEventHandler,
}

#: (fan_in, fan_out) per component per scenario class: distinct queues/
#: tables read and written (from the architecture, Table 1 / DESIGN.md).
_FLOWS = {
    # component: {scenario-class: (fan_in, fan_out)}
    # Under complete failures the Sequencer must manage DAG
    # transitions with in-flight OPs: it reads the inbox, its notify
    # queue, op statuses, the DAG store and DAG statuses, and writes op
    # statuses (+timestamps), the sharded worker queues, DAG status and
    # its own assignment record.
    "Sequencer": {"baseline": (4, 3), "sw-complete": (5, 5)},
    "Monitoring Server": {"baseline": (3, 3), "sw-complete-trans": (4, 4)},
    "Worker Pool": {"baseline": (3, 4), "cp-partial": (4, 4)},
    "Topo Event Handler": {"baseline": (2, 3), "sw-recovery": (3, 5),
                           "dr": (4, 6)},
}


def _method_lines(cls, names) -> int:
    total = 0
    for name in names:
        fn = getattr(cls, name, None)
        if fn is None:
            continue
        try:
            total += len(inspect.getsource(fn).splitlines())
        except (OSError, TypeError):  # pragma: no cover
            continue
    return total


def _scenario_profile(component: str, scenario: str) -> ComponentFlow:
    methods = list(_METHOD_SETS[component]["base"])
    flows = _FLOWS[component]["baseline"]
    sets = _METHOD_SETS[component]
    if component == "Sequencer":
        if scenario.startswith("sw-complete"):
            methods += sets["sw-complete"]
            flows = _FLOWS[component]["sw-complete"]
        if "cp" in scenario:
            methods += sets["cp-partial"]
    elif component == "Monitoring Server":
        if "cp" in scenario:
            methods += sets["cp-partial"]
        if scenario.startswith("sw-complete-trans"):
            methods += sets["sw-complete-trans"]
            flows = _FLOWS[component]["sw-complete-trans"]
    elif component == "Worker Pool":
        if "cp" in scenario:
            methods += sets["cp-partial"]
            flows = _FLOWS[component]["cp-partial"]
    elif component == "Topo Event Handler":
        if scenario != "cp-partial":  # every switch-failure class
            methods += sets["sw-recovery"]
            flows = _FLOWS[component]["sw-recovery"]
        if scenario.endswith("-dr"):
            methods += sets["dr"]
            flows = _FLOWS[component]["dr"]
    length = _method_lines(_CLASSES[component], dict.fromkeys(methods))
    return ComponentFlow(component, length, flows[0], flows[1])


@dataclass
class FigA3Result:
    """component → scenario → HK complexity."""

    scores: dict = field(default_factory=dict)

    def check_shape(self) -> list[str]:
        failures = []
        # Sequencer is the most complex under complete transient failure.
        heavy = "sw-complete-trans-nr"
        sequencer_score = self.scores[("Sequencer", heavy)]
        for component in _CLASSES:
            if component == "Sequencer":
                continue
            if self.scores[(component, heavy)] > sequencer_score:
                failures.append(
                    f"{component} outweighs the Sequencer under {heavy}")
        # Monitoring Server rises under complete transient failures.
        if (self.scores[("Monitoring Server", "sw-complete-trans-nr")]
                <= self.scores[("Monitoring Server", "sw-partial")]):
            failures.append("Monitoring Server complexity does not rise "
                            "for complete transient failures")
        # DR > NR for the topo handler.
        if (self.scores[("Topo Event Handler", "sw-complete-trans-dr")]
                <= self.scores[("Topo Event Handler",
                                "sw-complete-trans-nr")]):
            failures.append("ZENITH-DR not more complex than ZENITH-NR")
        return failures

    def rows(self) -> list[dict]:
        """Deterministic per-(component, scenario) complexity rows."""
        return [{"component": component, "scenario": scenario,
                 "hk_score": self.scores[(component, scenario)]}
                for component in _CLASSES for scenario in SCENARIOS]

    def render(self) -> str:
        lines = ["== Fig. A.3: Henry–Kafura complexity by scenario ==",
                 f"{'component':>20s}" + "".join(f" {s:>20s}"
                                                 for s in SCENARIOS)]
        for component in _CLASSES:
            row = f"{component:>20s}"
            for scenario in SCENARIOS:
                row += f" {self.scores[(component, scenario)]:20,d}"
            lines.append(row)
        return "\n".join(lines)


def run(quick: bool = True, seed: int = 0) -> FigA3Result:
    """Regenerate the complexity grid."""
    result = FigA3Result()
    for component in _CLASSES:
        for scenario in SCENARIOS:
            profile = _scenario_profile(component, scenario)
            result.scores[(component, scenario)] = henry_kafura(profile)
    return result
