"""Dataplane: a set of switches over a topology, plus forwarding resolution.

:class:`Network` bundles a :class:`~repro.net.topology.Topology` with one
:class:`~repro.net.switch.SimSwitch` per node and answers ground-truth
questions the experiments need: "if a packet for ``dst`` enters at
``src`` right now, where does it go?" — delivered, blackholed (no
matching entry or dead next hop), or looping.  This is how we detect the
paper's *hidden flow entry* pathologies (Fig. 2): a stale higher-priority
entry steers traffic at a switch even though the controller believes the
new route is installed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from ..sim import Environment, RandomStreams
from .switch import FailureMode, SimSwitch
from .topology import Topology

__all__ = ["Network", "PathStatus", "PathResult", "PathTrace"]


class PathStatus(enum.Enum):
    """Outcome of tracing a packet through the dataplane."""

    DELIVERED = "delivered"
    BLACKHOLE = "blackhole"       # no matching entry at some hop
    DEAD_SWITCH = "dead_switch"   # a hop (or the next hop) is down
    LOOP = "loop"                 # forwarding loop detected
    BROKEN_LINK = "broken_link"   # next hop is not adjacent


@dataclass(frozen=True)
class PathResult:
    """The traced path and its outcome."""

    status: PathStatus
    hops: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether the packet reached its destination."""
        return self.status is PathStatus.DELIVERED


@dataclass(frozen=True)
class PathTrace:
    """A traced path plus the flow entry consulted at every lookup.

    ``entries[i]`` is the entry that forwarded the packet out of the
    switch that made lookup ``i``.  A DELIVERED trace makes one lookup
    per hop except the destination (``len(entries) == len(hops) - 1``);
    a trace that stops because of the entry it just consulted (LOOP,
    BROKEN_LINK, dead next hop) additionally records that entry
    (``len(entries) == len(hops)``).  Consistency checkers need the
    entries, not just the hop sequence: per-packet consistency is a
    property of *which rule generation* forwarded the packet at each
    hop (Reitblatt et al.).
    """

    status: PathStatus
    hops: tuple[str, ...]
    entries: tuple = ()

    @property
    def ok(self) -> bool:
        """Whether the packet reached its destination."""
        return self.status is PathStatus.DELIVERED

    def entry_ids(self) -> tuple[int, ...]:
        """Ids of the entries used, in lookup order."""
        return tuple(entry.entry_id for entry in self.entries)


class Network:
    """All switches of a topology plus ground-truth forwarding."""

    def __init__(self, env: Environment, topology: Topology,
                 streams: Optional[RandomStreams] = None,
                 local_repair: bool = False, **switch_kwargs):
        self.env = env
        self.topology = topology
        self.streams = streams or RandomStreams(0)
        #: Fast local recovery (paper §6.2, Fig. 14): when enabled, a
        #: switch whose best entry points at a dead neighbor falls back
        #: to its next-best matching entry (pre-installed backup paths),
        #: modeling IPFRR/BFD-style local repair.
        self.local_repair = local_repair
        self.switches: dict[str, SimSwitch] = {
            switch_id: SimSwitch(env, switch_id, streams=self.streams,
                                 **switch_kwargs)
            for switch_id in topology.switches
        }
        #: Optional repro.chaos.FaultPlane shared by every switch.
        self.fault_plane = None

    def __getitem__(self, switch_id: str) -> SimSwitch:
        return self.switches[switch_id]

    def __iter__(self):
        return iter(self.switches.values())

    def __len__(self) -> int:
        return len(self.switches)

    # -- failure injection ---------------------------------------------------------
    def install_fault_plane(self, plane) -> None:
        """Route every switch's control channels through ``plane``.

        ``plane`` is a :class:`repro.chaos.FaultPlane`; pass ``None``
        to detach.  Channels behave exactly as before until a fault is
        armed (the switch hot path checks ``plane.active``).
        """
        self.fault_plane = plane
        for switch in self.switches.values():
            switch.fault_plane = plane

    def fail_switch(self, switch_id: str,
                    mode: FailureMode = FailureMode.COMPLETE) -> None:
        """Fail one switch."""
        self.switches[switch_id].fail(mode)

    def recover_switch(self, switch_id: str) -> None:
        """Recover one switch."""
        self.switches[switch_id].recover()

    def healthy_switches(self) -> list[str]:
        """Ids of currently healthy switches."""
        return [s for s, sw in self.switches.items() if sw.is_healthy]

    # -- ground truth ------------------------------------------------------------
    def version(self) -> int:
        """Flow-table writes plus health transitions so far, network-wide."""
        return sum(sw.flow_table.version for sw in self.switches.values())

    def trace(self, src: str, dst: str, max_hops: int = 64) -> PathResult:
        """Trace a packet for ``dst`` injected at ``src``."""
        detailed = self.trace_detailed(src, dst, max_hops=max_hops)
        return PathResult(detailed.status, detailed.hops)

    def trace_detailed(self, src: str, dst: str,
                       max_hops: int = 64) -> PathTrace:
        """Trace a packet, recording the flow entry used at each hop."""
        hops = [src]
        used: list = []
        current = src
        visited = {src}
        while current != dst:
            switch = self.switches[current]
            if not switch.is_healthy:
                return PathTrace(PathStatus.DEAD_SWITCH, tuple(hops),
                                 tuple(used))
            if self.local_repair:
                entry = self._repair_lookup(switch, dst)
                if entry is None:
                    best = switch.lookup(dst)
                    status = (PathStatus.BLACKHOLE if best is None
                              else PathStatus.DEAD_SWITCH)
                    return PathTrace(status, tuple(hops), tuple(used))
            else:
                entry = switch.lookup(dst)
                if entry is None:
                    return PathTrace(PathStatus.BLACKHOLE, tuple(hops),
                                     tuple(used))
            next_hop = entry.next_hop
            used.append(entry)
            if not self.topology.graph.has_edge(current, next_hop):
                return PathTrace(PathStatus.BROKEN_LINK, tuple(hops),
                                 tuple(used))
            if not self.switches[next_hop].is_healthy:
                return PathTrace(PathStatus.DEAD_SWITCH, tuple(hops),
                                 tuple(used))
            if next_hop in visited or len(hops) > max_hops:
                return PathTrace(PathStatus.LOOP, tuple(hops), tuple(used))
            hops.append(next_hop)
            visited.add(next_hop)
            current = next_hop
        return PathTrace(PathStatus.DELIVERED, tuple(hops), tuple(used))

    def _repair_lookup(self, switch: SimSwitch, dst: str):
        """Best matching entry whose next hop is alive and adjacent."""
        for entry in switch.lookup_all(dst):
            if (self.topology.graph.has_edge(switch.switch_id,
                                             entry.next_hop)
                    and self.switches[entry.next_hop].is_healthy):
                return entry
        return None

    def routing_state(self) -> dict[str, frozenset[int]]:
        """Ground-truth installed entry ids per switch (the paper's G_d)."""
        return {
            switch_id: frozenset(switch.flow_table.keys())
            for switch_id, switch in self.switches.items()
        }

    def entry_counts(self) -> dict[str, int]:
        """Installed entries per switch."""
        return {sid: len(sw.flow_table) for sid, sw in self.switches.items()}
