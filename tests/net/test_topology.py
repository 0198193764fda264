"""Unit tests for topology generators."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.net import b4, fat_tree, kdl, linear, ring, subgraph


def test_linear_structure():
    topo = linear(5)
    assert len(topo) == 5
    assert topo.links == [("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s4")]
    assert topo.is_connected()


def test_ring_closes_cycle():
    topo = ring(4)
    assert ("s0", "s3") in topo.links
    assert all(len(topo.neighbors(s)) == 2 for s in topo.switches)


def test_ring_too_small_rejected():
    with pytest.raises(ValueError):
        ring(2)


def test_b4_has_12_sites_and_is_connected():
    topo = b4()
    assert len(topo) == 12
    assert topo.is_connected()
    # WAN-like: every site has at least 2 links (survives single failure).
    assert all(len(topo.neighbors(s)) >= 2 for s in topo.switches)


def test_fat_tree_k4_structure():
    topo = fat_tree(4)
    # k=4: 4 core + 4 pods x (2 agg + 2 edge) = 20 switches.
    assert len(topo) == 20
    assert topo.is_connected()
    cores = [s for s in topo.switches if s.startswith("core")]
    aggs = [s for s in topo.switches if s.startswith("agg")]
    edges = [s for s in topo.switches if s.startswith("edge")]
    assert (len(cores), len(aggs), len(edges)) == (4, 8, 8)
    # Each edge switch connects to every agg in its pod.
    assert len(topo.neighbors("edge-0-0")) == 2


def test_fat_tree_odd_k_rejected():
    with pytest.raises(ValueError):
        fat_tree(3)


def test_kdl_scale_and_sparsity():
    topo = kdl(754, seed=1)
    assert len(topo) == 754
    assert topo.is_connected()
    edges = len(topo.links)
    # KDL has ~899 edges at 754 nodes; we target the same sparsity band.
    assert 754 - 1 <= edges <= 1.5 * 754


def test_kdl_deterministic_per_seed():
    assert kdl(50, seed=7).links == kdl(50, seed=7).links
    assert kdl(50, seed=7).links != kdl(50, seed=8).links


def test_subgraph_connected_and_sized():
    full = kdl(200, seed=3)
    for n in (10, 50, 150):
        sub = subgraph(full, n, seed=5)
        assert len(sub) == n
        assert sub.is_connected()


_ADJACENCY_SNIPPET = """
from repro.net import kdl, subgraph
sub = subgraph(kdl(300, 0), 60, 0)
print([(node, list(sub.graph.adj[node])) for node in sub.graph.nodes])
"""


def test_subgraph_adjacency_order_ignores_the_hash_seed():
    """Node and adjacency insertion order decide ``nx.shortest_path``
    tie-breaking, so they must not follow the interpreter's string hash
    (regression: fig13 percentiles moved with PYTHONHASHSEED)."""
    src = Path(__file__).resolve().parents[2] / "src"
    orders = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", _ADJACENCY_SNIPPET],
                              capture_output=True, text=True, env=env,
                              check=True)
        orders.add(proc.stdout)
    assert len(orders) == 1


def test_subgraph_keeps_nodes_in_bfs_order_and_link_attributes():
    full = kdl(40, seed=2)
    full.graph.edges["s0", "s1"]["capacity"] = 40.0
    sub = subgraph(full, 40, seed=1)
    assert sub.links == full.links
    assert sub.capacity("s0", "s1") == 40.0
    # A copy: editing the subgraph leaves the source alone.
    sub.graph.edges["s0", "s1"]["capacity"] = 1.0
    assert full.capacity("s0", "s1") == 40.0
    nodes = list(sub.graph.nodes)
    for index, node in enumerate(nodes[1:], start=1):
        assert any(peer in nodes[:index] for peer in sub.graph.adj[node])


def test_subgraph_too_large_rejected():
    with pytest.raises(ValueError):
        subgraph(linear(3), 10)


def test_shortest_path_with_exclusions():
    topo = ring(6)
    direct = topo.shortest_path("s0", "s2")
    assert direct == ["s0", "s1", "s2"]
    detour = topo.shortest_path("s0", "s2", excluded={"s1"})
    assert detour == ["s0", "s5", "s4", "s3", "s2"]


def test_shortest_path_no_route_returns_none():
    topo = linear(4)
    assert topo.shortest_path("s0", "s3", excluded={"s1"}) is None


def test_k_shortest_paths_distinct():
    topo = ring(6)
    paths = topo.k_shortest_paths("s0", "s3", k=2)
    assert len(paths) == 2
    assert paths[0] != paths[1]
    assert all(p[0] == "s0" and p[-1] == "s3" for p in paths)
