"""Fig. 14 — TE throughput through a failure, on the B4 WAN.

Timeline (paper §6.2): flows run on TE-placed primaries; at t=8 a
switch on the primaries fails completely, and *fast local recovery*
shifts traffic onto pre-installed backup paths with lower available
capacity — throughput drops but connections survive.  The switch
recovers at t=12.  ZENITH's core restores the wiped standing state
itself (DAG reactivation after the recovery wipe), so throughput
returns as soon as those reinstalls land; the incremental TE app also
resolves the backup-path congestion it observes.  PR believes the wiped
entries are still installed and only recovers them at the next
reconciliation (t≈30); the ODL-like controller additionally suffers
from unordered status handling and no stale-state cleanup.

Reported: the aggregate throughput timeline per controller plus phase
averages; the paper's headline is ZENITH ≈1.23× PR and ≈1.47× ODL
overall during the incident.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Type

from ..apps.te import TeApp
from ..baselines import OdlController, PrController
from ..core.config import ControllerConfig
from ..core.controller import ZenithController
from ..net.messages import FlowEntry
from ..net.topology import b4
from ..net.traffic import Flow, TrafficMonitor
from .common import build_system

__all__ = ["run", "Fig14Result"]

_SYSTEMS: dict[str, Type[ZenithController]] = {
    "zenith": ZenithController,
    "pr": PrController,
    "odl": OdlController,
}

#: Measurement horizon (seconds past the app settling).
HORIZON = 45.0
FAIL_AT = 8.0
RECOVER_AT = 12.0

#: The choreography is fixed but path placement settles from the seed.
SEED_SENSITIVE = True

#: The phase windows each row aggregates (label, start, end).
_PHASES = (("pre-failure", 2.0, FAIL_AT - 0.5),
           ("local-recovery", FAIL_AT + 0.7, RECOVER_AT),
           ("t=16..26", 16.0, 26.0),
           ("t=36..45", 36.0, HORIZON),
           ("incident-overall", FAIL_AT, HORIZON))


def param_grid(quick: bool = True) -> list[dict]:
    """Campaign tasks: one per controller timeline."""
    return [{"systems": [system]} for system in _SYSTEMS]


@dataclass
class Fig14Result:
    """Per-system throughput timelines."""

    timelines: dict = field(default_factory=dict)  # system -> [(t, gbps)]
    demand_total: float = 0.0
    failed_switch: str = ""

    def phase_average(self, system: str, start: float, end: float) -> float:
        window = [thr for t, thr in self.timelines[system]
                  if start <= t <= end]
        return sum(window) / len(window) if window else 0.0

    def check_shape(self) -> list[str]:
        failures = []
        for system in self.timelines:
            before = self.phase_average(system, 2.0, FAIL_AT - 0.5)
            if before < 0.9 * self.demand_total:
                failures.append(f"{system}: pre-failure throughput "
                                f"{before:.1f} not ~{self.demand_total:.0f}")
            dip = self.phase_average(system, FAIL_AT + 0.7, RECOVER_AT)
            if dip > 0.9 * before:
                failures.append(f"{system}: no throughput dip after "
                                f"the failure ({dip:.1f} vs {before:.1f})")
        zenith_mid = self.phase_average("zenith", 16.0, 26.0)
        pr_mid = self.phase_average("pr", 16.0, 26.0)
        if zenith_mid < 1.1 * pr_mid:
            failures.append(
                f"ZENITH mid-window {zenith_mid:.1f} not > PR {pr_mid:.1f}")
        pr_late = self.phase_average("pr", 36.0, HORIZON)
        if pr_late < 0.9 * self.demand_total:
            failures.append(
                f"PR did not recover by reconciliation ({pr_late:.1f})")
        zenith_overall = self.phase_average("zenith", FAIL_AT, HORIZON)
        odl_overall = self.phase_average("odl", FAIL_AT, HORIZON)
        if zenith_overall < 1.05 * odl_overall:
            failures.append("ZENITH overall not > ODL overall")
        return failures

    def rows(self) -> list[dict]:
        """Deterministic per-(system, phase) average-throughput rows."""
        return [{"series": system, "phase": label,
                 "gbps": self.phase_average(system, start, end),
                 "demand_gbps": self.demand_total,
                 "failed_switch": self.failed_switch}
                for system in self.timelines
                for label, start, end in _PHASES]

    def render(self) -> str:
        lines = [f"== Fig. 14: TE throughput on B4 "
                 f"(fail {self.failed_switch} at t={FAIL_AT:.0f}, "
                 f"recover t={RECOVER_AT:.0f}) =="]
        phases = [("pre-failure", 2.0, FAIL_AT - 0.5),
                  ("local-recovery", FAIL_AT + 0.7, RECOVER_AT),
                  ("t=16..26", 16.0, 26.0),
                  ("t=36..45", 36.0, HORIZON)]
        header = f"{'phase':>16s}" + "".join(f"  {s:>8s}" for s in _SYSTEMS)
        lines.append(header)
        for label, start, end in phases:
            row = f"{label:>16s}"
            for system in _SYSTEMS:
                row += f"  {self.phase_average(system, start, end):8.2f}"
            lines.append(row)
        return "\n".join(lines)


def _setup_and_run(controller_cls: Type[ZenithController],
                   seed: int) -> tuple[list, float, str]:
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
    from ..sim import ComponentHost

    ComponentHost(env, app, auto_restart=False).start()
    env.run(until=5.0)  # primaries installed; t=0 of the figure is now-5

    # Primary paths as placed by TE.
    primaries = dict(app.current_paths)
    intermediate = Counter(hop for path in primaries.values()
                           for hop in path[1:-1])
    failed_switch = intermediate.most_common(1)[0][0]

    # Pre-install backup paths (local protection) at priority -1, below
    # anything TE installs, and keep them out of TE's bookkeeping: they
    # model static IPFRR state.  A background flow loads the backups'
    # shared corridor so local recovery lands on congested paths.
    backup_paths = {}
    for flow in flows:
        candidates = topo.k_shortest_paths(flow.src, flow.dst, 4,
                                           excluded={failed_switch})
        backup_paths[flow.name] = candidates[0] if candidates else None
    for name, path in backup_paths.items():
        if path is None:
            continue
        for hop, next_hop in zip(path, path[1:]):
            entry = FlowEntry(system.alloc.entry_id(), path[-1], next_hop,
                              priority=-1)
            network[hop].flow_table[entry.entry_id] = entry
            system.controller.state.protect_entry(hop, entry.entry_id)
    # Background load on the backup corridor.
    backup_links = Counter()
    for path in backup_paths.values():
        if path:
            for a, b_ in zip(path, path[1:]):
                backup_links[tuple(sorted((a, b_)))] += 1
    if backup_links:
        (bg_a, bg_b), _count = backup_links.most_common(1)[0]
        bg_flow = Flow("bg", bg_a, bg_b, 7.0)
        entry = FlowEntry(system.alloc.entry_id(), bg_b, bg_b, priority=0)
        network[bg_a].flow_table[entry.entry_id] = entry
        system.controller.state.protect_entry(bg_a, entry.entry_id)
        flows = flows + [bg_flow]

    monitor = TrafficMonitor(env, network, [f for f in flows
                                            if f.name != "bg"], period=0.25)
    base = env.now - 5.0  # figure time zero

    def choreography():
        yield env.timeout(base + FAIL_AT - env.now)
        network.fail_switch(failed_switch)
        yield env.timeout(RECOVER_AT - FAIL_AT)
        network.recover_switch(failed_switch)

    env.process(choreography(), name="fig14-choreography")
    env.run(until=base + HORIZON)
    timeline = [(t - base, thr) for t, thr in monitor.timeline()]
    demand_total = sum(f.demand for f in flows if f.name != "bg")
    return timeline, demand_total, failed_switch


def run(quick: bool = True, seed: int = 0,
        systems: Optional[list[str]] = None) -> Fig14Result:
    """Regenerate the Fig. 14 timelines."""
    result = Fig14Result()
    for system in (systems or _SYSTEMS):
        controller_cls = _SYSTEMS[system]
        timeline, demand_total, failed = _setup_and_run(controller_cls, seed)
        result.timelines[system] = timeline
        result.demand_total = demand_total
        result.failed_switch = failed
    return result
