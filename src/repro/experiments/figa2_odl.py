"""Fig. A.2 — ZENITH vs the ODL-like controller on B4.

The appendix experiment: a complete switch failure and a partial
transient failure occur concurrently; the ODL-like controller's DE app
fails to clean up state (stale entries linger) and its racing status
threads can misorder failure/recovery events, so traffic stays degraded
until reconciliation.  ZENITH recovers as soon as its recovery pipeline
and app reroute complete.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Type

from ..apps.te import TeApp
from ..baselines import OdlController
from ..core.config import ControllerConfig
from ..core.controller import ZenithController
from ..net.messages import FlowEntry
from ..net.topology import b4
from ..net.traffic import Flow, TrafficMonitor
from ..sim import ComponentHost
from .common import build_system

__all__ = ["run", "param_grid", "FigA2Result"]

_SYSTEMS: dict[str, Type[ZenithController]] = {
    "zenith": ZenithController,
    "odl": OdlController,
}

HORIZON = 45.0
FAIL_AT = 8.0
RECOVER_AT = 13.0

#: Path placement and victim selection settle from the seed.
SEED_SENSITIVE = True

#: The phase windows each row aggregates (label, start, end).
_PHASES = (("pre-failure", 2.0, FAIL_AT - 0.5),
           ("incident", FAIL_AT + 0.7, 26.0),
           ("late", 36.0, HORIZON),
           ("incident-overall", FAIL_AT, HORIZON))


def param_grid(quick: bool = True) -> list[dict]:
    """Campaign tasks: one per controller timeline."""
    return [{"systems": [system]} for system in _SYSTEMS]


@dataclass
class FigA2Result:
    """Per-system throughput timelines."""

    timelines: dict = field(default_factory=dict)
    demand_total: float = 0.0
    failed: tuple = ()

    def phase_average(self, system: str, start: float, end: float) -> float:
        window = [thr for t, thr in self.timelines[system]
                  if start <= t <= end]
        return sum(window) / len(window) if window else 0.0

    def overall(self, system: str) -> float:
        return self.phase_average(system, FAIL_AT, HORIZON)

    def check_shape(self) -> list[str]:
        failures = []
        for system in self.timelines:
            if self.phase_average(system, 2.0, FAIL_AT - 0.5) \
                    < 0.9 * self.demand_total:
                failures.append(f"{system}: pre-failure not ~full")
        if self.overall("zenith") < 1.1 * self.overall("odl"):
            failures.append(
                f"ZENITH overall {self.overall('zenith'):.1f} not > "
                f"ODL {self.overall('odl'):.1f}")
        return failures

    def rows(self) -> list[dict]:
        """Deterministic per-(system, phase) average-throughput rows."""
        complete, partial = self.failed if len(self.failed) == 2 else ("", "")
        return [{"series": system, "phase": label,
                 "gbps": self.phase_average(system, start, end),
                 "demand_gbps": self.demand_total,
                 "failed_complete": complete, "failed_partial": partial}
                for system in self.timelines
                for label, start, end in _PHASES]

    def render(self) -> str:
        lines = [f"== Fig. A.2: ZENITH vs ODL on B4 "
                 f"(concurrent failures of {self.failed}) =="]
        for label, start, end in (("pre-failure", 2.0, FAIL_AT - 0.5),
                                  ("incident", FAIL_AT + 0.7, 26.0),
                                  ("late", 36.0, HORIZON)):
            row = f"  {label:>12s}:"
            for system in _SYSTEMS:
                row += (f"  {system}="
                        f"{self.phase_average(system, start, end):6.2f}")
            lines.append(row)
        ratio = self.overall("zenith") / max(self.overall("odl"), 1e-9)
        lines.append(f"  overall incident ratio zenith/odl: {ratio:.2f}x "
                     f"(paper: 1.47x)")
        return "\n".join(lines)


def _run_one(controller_cls: Type[ZenithController], seed: int):
    topo = b4()
    config = ControllerConfig(reconciliation_period=24.0)
    system = build_system(controller_cls, topo, config=config, seed=seed,
                          local_repair=True, settle=0.0)
    env, network = system.env, system.network
    flows = [
        Flow("f1", "b4-1", "b4-12", 8.0),
        Flow("f2", "b4-3", "b4-9", 8.0),
    ]
    app = TeApp(env, system.controller, flows, alloc=system.alloc,
                sticky_primaries=True, computation_delay=3.0)
    ComponentHost(env, app, auto_restart=False).start()
    env.run(until=5.0)
    primaries = dict(app.current_paths)
    intermediates = Counter(hop for path in primaries.values()
                            for hop in path[1:-1])
    complete_victim = intermediates.most_common(1)[0][0]

    # Backup (local-protection) state as in Fig. 14, plus a background
    # flow loading the backup corridor so local recovery is degraded.
    backup_paths = {}
    for flow in flows:
        candidates = topo.k_shortest_paths(
            flow.src, flow.dst, 4, excluded={complete_victim})
        backup_paths[flow.name] = candidates[0] if candidates else None
    # The concurrent partial failure hits a backup hop (CPU overload):
    # while it lasts, even local recovery cannot carry the traffic.
    backup_hops = Counter(hop for path in backup_paths.values() if path
                          for hop in path[1:-1])
    partial_victim = next(
        (sw for sw, _n in backup_hops.most_common()
         if sw != complete_victim), complete_victim)
    for path in backup_paths.values():
        if path is None:
            continue
        for hop, next_hop in zip(path, path[1:]):
            entry = FlowEntry(system.alloc.entry_id(), path[-1], next_hop,
                              priority=-1)
            network[hop].flow_table[entry.entry_id] = entry
            system.controller.state.protect_entry(hop, entry.entry_id)
    backup_links = Counter()
    for path in backup_paths.values():
        if path:
            for a, b_ in zip(path, path[1:]):
                backup_links[tuple(sorted((a, b_)))] += 1
    if backup_links:
        (bg_a, bg_b), _n = backup_links.most_common(1)[0]
        entry = FlowEntry(system.alloc.entry_id(), bg_b, bg_b, priority=0)
        network[bg_a].flow_table[entry.entry_id] = entry
        system.controller.state.protect_entry(bg_a, entry.entry_id)
        flows = flows + [Flow("bg", bg_a, bg_b, 7.0)]

    monitor = TrafficMonitor(env, network,
                             [f for f in flows if f.name != "bg"],
                             period=0.25)
    base = env.now - 5.0

    def choreography():
        from ..net.switch import FailureMode

        yield env.timeout(base + FAIL_AT - env.now)
        network.fail_switch(complete_victim, FailureMode.COMPLETE)
        yield env.timeout(0.3)
        network.fail_switch(partial_victim, FailureMode.PARTIAL)
        yield env.timeout(RECOVER_AT - FAIL_AT - 0.3)
        network.recover_switch(complete_victim)
        yield env.timeout(0.5)
        network.recover_switch(partial_victim)

    env.process(choreography(), name="figa2-choreography")
    env.run(until=base + HORIZON)
    timeline = [(t - base, thr) for t, thr in monitor.timeline()]
    demand_total = sum(f.demand for f in flows if f.name != "bg")
    return timeline, demand_total, (complete_victim, partial_victim)


def run(quick: bool = True, seed: int = 0,
        systems: Optional[list[str]] = None) -> FigA2Result:
    """Regenerate the Fig. A.2 comparison."""
    result = FigA2Result()
    for system in (systems or _SYSTEMS):
        controller_cls = _SYSTEMS[system]
        timeline, demand_total, failed = _run_one(controller_cls, seed)
        result.timelines[system] = timeline
        result.demand_total = demand_total
        result.failed = failed
    return result
