"""Network topologies.

Generators for the topologies used in the paper's evaluation:

* :func:`b4` — the 12-node B4 WAN (Jain et al., SIGCOMM'13), used for
  the traffic-engineering experiments (Fig. 14, Fig. A.2).
* :func:`fat_tree` — a k-ary fat-tree, used for drain/undrain (Fig. 16).
* :func:`kdl` — a KDL-like sparse WAN graph.  KDL is the largest graph
  in the Internet Topology Zoo (754 nodes); since the Zoo data cannot be
  bundled offline, we generate a degree-matched sparse connected graph
  of the same scale.  Scaling experiments (Fig. 11/12/13) only use
  connected subgraphs of it, produced by :func:`subgraph`.
* :func:`linear` and :func:`ring` — small synthetic topologies used in
  unit tests and trace replay.

A :class:`Topology` is a thin wrapper over an undirected
``networkx.Graph`` whose nodes are switch identifiers (strings), with
per-link capacity (Gb/s) and propagation delay (seconds).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

import networkx as nx

from ..sim import RandomStreams

__all__ = ["Topology", "linear", "ring", "b4", "fat_tree", "kdl", "subgraph",
           "update_gadget"]

DEFAULT_CAPACITY_GBPS = 10.0
DEFAULT_LINK_DELAY_S = 0.001


class Topology:
    """An undirected switch-level topology with link attributes."""

    def __init__(self, name: str, graph: Optional[nx.Graph] = None):
        self.name = name
        self.graph = graph if graph is not None else nx.Graph()

    # -- construction ----------------------------------------------------------
    def add_switch(self, switch_id: str) -> None:
        """Add a switch node."""
        self.graph.add_node(switch_id)

    def add_link(self, a: str, b: str,
                 capacity: float = DEFAULT_CAPACITY_GBPS,
                 delay: float = DEFAULT_LINK_DELAY_S) -> None:
        """Add a bidirectional link with capacity (Gb/s) and delay (s)."""
        self.graph.add_edge(a, b, capacity=capacity, delay=delay)

    # -- queries ----------------------------------------------------------------
    @property
    def switches(self) -> list[str]:
        """Sorted switch identifiers."""
        return sorted(self.graph.nodes)

    @property
    def links(self) -> list[tuple[str, str]]:
        """Sorted (a, b) link tuples with a < b."""
        return sorted(tuple(sorted(edge)) for edge in self.graph.edges)

    def __len__(self) -> int:
        return self.graph.number_of_nodes()

    def __contains__(self, switch_id: str) -> bool:
        return switch_id in self.graph

    def neighbors(self, switch_id: str) -> list[str]:
        """Sorted neighbor switches."""
        return sorted(self.graph.neighbors(switch_id))

    def capacity(self, a: str, b: str) -> float:
        """Capacity of the (a, b) link in Gb/s."""
        return self.graph.edges[a, b]["capacity"]

    def delay(self, a: str, b: str) -> float:
        """Propagation delay of the (a, b) link in seconds."""
        return self.graph.edges[a, b]["delay"]

    def is_connected(self) -> bool:
        """Whether the topology is a single connected component."""
        return len(self) > 0 and nx.is_connected(self.graph)

    def shortest_path(self, src: str, dst: str,
                      excluded: Iterable[str] = ()) -> Optional[list[str]]:
        """Hop-count shortest path avoiding ``excluded`` switches.

        Returns None when no path exists.  Endpoints may not be
        excluded.
        """
        excluded = set(excluded) - {src, dst}
        view = nx.restricted_view(self.graph, nodes=excluded, edges=[])
        try:
            return nx.shortest_path(view, src, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None

    def k_shortest_paths(self, src: str, dst: str, k: int,
                         excluded: Iterable[str] = ()) -> list[list[str]]:
        """Up to ``k`` loop-free shortest paths (by hop count)."""
        excluded = set(excluded) - {src, dst}
        view = nx.restricted_view(self.graph, nodes=excluded, edges=[])
        try:
            generator = nx.shortest_simple_paths(view, src, dst)
            return list(itertools.islice(generator, k))
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return []

    def copy(self, name: Optional[str] = None) -> "Topology":
        """Deep copy of the topology."""
        return Topology(name or self.name, self.graph.copy())


def linear(n: int, capacity: float = DEFAULT_CAPACITY_GBPS) -> Topology:
    """A chain s0 - s1 - ... - s{n-1}."""
    topo = Topology(f"linear-{n}")
    for i in range(n):
        topo.add_switch(f"s{i}")
    for i in range(n - 1):
        topo.add_link(f"s{i}", f"s{i + 1}", capacity=capacity)
    return topo


def ring(n: int, capacity: float = DEFAULT_CAPACITY_GBPS) -> Topology:
    """A cycle of n switches."""
    if n < 3:
        raise ValueError("ring needs at least 3 switches")
    topo = linear(n, capacity=capacity)
    topo.name = f"ring-{n}"
    topo.add_link(f"s{n - 1}", "s0", capacity=capacity)
    return topo


#: The 12 B4 sites (Jain et al. 2013) with the inter-site links of the
#: published topology figure.
_B4_SITES = [
    "b4-1", "b4-2", "b4-3", "b4-4", "b4-5", "b4-6",
    "b4-7", "b4-8", "b4-9", "b4-10", "b4-11", "b4-12",
]
_B4_LINKS = [
    (0, 1), (0, 2), (1, 2), (2, 3), (1, 4), (3, 4), (4, 5), (3, 6),
    (5, 6), (6, 7), (5, 8), (7, 8), (8, 9), (7, 10), (9, 10), (10, 11),
    (9, 11), (2, 5), (4, 7),
]


def b4(capacity: float = DEFAULT_CAPACITY_GBPS) -> Topology:
    """The 12-node B4-like WAN used in Fig. 14 / Fig. A.2."""
    topo = Topology("b4")
    for site in _B4_SITES:
        topo.add_switch(site)
    for a, b_ in _B4_LINKS:
        topo.add_link(_B4_SITES[a], _B4_SITES[b_], capacity=capacity)
    return topo


def fat_tree(k: int = 4, capacity: float = DEFAULT_CAPACITY_GBPS) -> Topology:
    """A k-ary fat-tree (k even): k^2/4 core, k pods of k/2+k/2 switches."""
    if k % 2:
        raise ValueError("fat-tree requires even k")
    topo = Topology(f"fat-tree-{k}")
    half = k // 2
    cores = [f"core-{i}" for i in range(half * half)]
    for core in cores:
        topo.add_switch(core)
    for pod in range(k):
        aggs = [f"agg-{pod}-{i}" for i in range(half)]
        edges = [f"edge-{pod}-{i}" for i in range(half)]
        for agg in aggs:
            topo.add_switch(agg)
        for edge in edges:
            topo.add_switch(edge)
        for i, agg in enumerate(aggs):
            for j in range(half):
                topo.add_link(agg, cores[i * half + j], capacity=capacity)
            for edge in edges:
                topo.add_link(agg, edge, capacity=capacity)
    return topo


def kdl(n: int = 754, seed: int = 0,
        capacity: float = DEFAULT_CAPACITY_GBPS) -> Topology:
    """A KDL-like sparse connected WAN graph with ~1.2·n links.

    KDL (Topology Zoo) has 754 nodes and 899 edges (average degree
    ≈2.38) and is tree-like with occasional redundancy, which is what
    this generator produces: a random spanning tree plus ~0.2·n extra
    shortcut edges.
    """
    if n < 2:
        raise ValueError("kdl needs at least 2 switches")
    streams = RandomStreams(seed, path=f"kdl-{n}")
    rng = streams.rng
    topo = Topology(f"kdl-{n}")
    names = [f"s{i}" for i in range(n)]
    for name in names:
        topo.add_switch(name)
    # Random spanning tree (random attachment, WAN-style long chains).
    for i in range(1, n):
        # Prefer attaching near the end of the existing chain to keep the
        # graph sparse and high-diameter like KDL.
        if rng.random() < 0.7:
            parent = names[i - 1]
        else:
            parent = names[rng.randrange(i)]
        topo.add_link(names[i], parent, capacity=capacity)
    extra = max(1, int(0.2 * n))
    added = 0
    attempts = 0
    while added < extra and attempts < 50 * extra:
        attempts += 1
        a, b_ = rng.sample(names, 2)
        if not topo.graph.has_edge(a, b_):
            topo.add_link(a, b_, capacity=capacity)
            added += 1
    return topo


#: Links of the consistent-update gadget (see :func:`update_gadget`).
_UPDATE_GADGET_LINKS = [
    # Demand A: reversal gadget a1→(a2,a3) plus helper a5 for the
    # mixing-free intermediate path a0,a1,a5,a4.
    ("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
    ("a1", "a3"), ("a2", "a4"), ("a1", "a5"), ("a5", "a4"),
    # Demand B: the same reversal gadget with b2 as a waypoint.
    ("b0", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b4"),
    ("b1", "b3"), ("b2", "b4"),
    # Keep the topology connected; carries no demand traffic.
    ("a4", "b0"),
]


def update_gadget(capacity: float = DEFAULT_CAPACITY_GBPS) -> Topology:
    """The consistent-network-update stress topology (11 switches).

    Two disjoint copies of the classic *path reversal* gadget (Foerster
    & Schmid: old path s,u,v,w,d vs. new path s,u,w,v,d — the minimal
    transition where naive rule pushing creates a transient v↔w loop):

    * **Demand A** ``a0→a4``: old ``a0,a1,a2,a3,a4``, new
      ``a0,a1,a3,a2,a4``.  The helper node ``a5`` provides an
      intermediate path ``a0,a1,a5,a4`` whose interior is disjoint from
      both, which is what makes a per-packet-consistent schedule (a
      chain of suffix swaps) possible at all.
    * **Demand B** ``b0→b4`` with waypoint ``b2``: same shape, no
      helper.  Per-packet consistency is unachievable here; the
      achievable contract is loop freedom + waypoint enforcement via
      segmented updates (update the segment after the waypoint first).
    """
    topo = Topology("update-gadget")
    for prefix, count in (("a", 6), ("b", 5)):
        for i in range(count):
            topo.add_switch(f"{prefix}{i}")
    for a, b_ in _UPDATE_GADGET_LINKS:
        topo.add_link(a, b_, capacity=capacity)
    return topo


def subgraph(topo: Topology, n: int, seed: int = 0) -> Topology:
    """A connected n-node subgraph (BFS ball around a random seed node)."""
    if n > len(topo):
        raise ValueError(f"cannot take {n}-node subgraph of {len(topo)} nodes")
    streams = RandomStreams(seed, path=f"subgraph-{topo.name}-{n}")
    start = streams.choice(topo.switches)
    selected: list[str] = []
    seen = {start}
    frontier = [start]
    while frontier and len(selected) < n:
        node = frontier.pop(0)
        selected.append(node)
        for neighbor in topo.neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    if len(selected) < n:
        raise ValueError("source graph not connected enough")
    # Nodes in BFS order, edges in the parent's edge order: ``graph.subgraph``
    # iterates a set, so shortest-path tie-breaks followed PYTHONHASHSEED.
    members = set(selected)
    sub = nx.Graph(**topo.graph.graph)
    sub.add_nodes_from((node, topo.graph.nodes[node]) for node in selected)
    sub.add_edges_from((a, b, data)
                       for a, b, data in topo.graph.edges(data=True)
                       if a in members and b in members)
    result = Topology(f"{topo.name}-sub{n}", sub)
    if not result.is_connected():
        # BFS ball is always connected; guard anyway.
        raise AssertionError("subgraph not connected")
    return result
