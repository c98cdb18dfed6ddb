"""Unit tests for topology builders: structure, regularity, placement."""

from collections import Counter

import numpy as np
import pytest

from dcrobot.network import SwitchRole
from dcrobot.topology import (
    Topology,
    build_fattree,
    build_gpu_cluster,
    build_jellyfish,
    build_leafspine,
    build_xpander,
    healthy_server_fraction,
    xpander_edges,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# -- fat-tree ---------------------------------------------------------------

def test_fattree_counts_k4(rng):
    topo = build_fattree(k=4, rng=rng)
    assert len(topo.switches(SwitchRole.CORE)) == 4
    assert len(topo.switches(SwitchRole.AGG)) == 8
    assert len(topo.switches(SwitchRole.TOR)) == 8
    assert len(topo.switches()) == 20
    # k^3/4 = 16 edge-agg + 16 agg-core links.
    assert topo.link_count == 32


def test_fattree_counts_k8(rng):
    topo = build_fattree(k=8, rng=rng)
    assert len(topo.switches()) == 5 * 8 * 8 // 4  # 80
    assert topo.link_count == 2 * (8 ** 3) // 4  # 256


def test_fattree_is_connected(rng):
    assert build_fattree(k=4, rng=rng).is_connected()


def test_fattree_with_hosts(rng):
    topo = build_fattree(k=4, with_hosts=True, rng=rng)
    assert len(topo.host_ids) == 16  # k^3/4
    assert topo.link_count == 32 + 16


def test_fattree_validation(rng):
    with pytest.raises(ValueError):
        build_fattree(k=3, rng=rng)
    with pytest.raises(ValueError):
        build_fattree(k=0, rng=rng)


def test_fattree_core_ports_fully_used(rng):
    topo = build_fattree(k=4, rng=rng)
    for switch_id in topo.switches(SwitchRole.CORE):
        switch = topo.fabric.switches[switch_id]
        assert all(port.occupied for port in switch.ports)


# -- leaf-spine -----------------------------------------------------------------

def test_leafspine_link_count(rng):
    topo = build_leafspine(leaves=6, spines=3, uplinks_per_pair=2, rng=rng)
    assert topo.link_count == 6 * 3 * 2
    assert len(topo.switches(SwitchRole.LEAF)) == 6
    assert len(topo.switches(SwitchRole.SPINE)) == 3


def test_leafspine_redundancy_multiplies_edges(rng):
    single = build_leafspine(leaves=4, spines=2, uplinks_per_pair=1,
                             rng=np.random.default_rng(0))
    double = build_leafspine(leaves=4, spines=2, uplinks_per_pair=2,
                             rng=np.random.default_rng(0))
    assert double.link_count == 2 * single.link_count


def test_leafspine_with_hosts(rng):
    topo = build_leafspine(leaves=2, spines=2, hosts_per_leaf=3, rng=rng)
    assert len(topo.host_ids) == 6
    assert topo.link_count == 4 + 6


def test_leafspine_validation(rng):
    with pytest.raises(ValueError):
        build_leafspine(leaves=0, rng=rng)
    with pytest.raises(ValueError):
        build_leafspine(uplinks_per_pair=0, rng=rng)


# -- jellyfish -----------------------------------------------------------------

def test_jellyfish_regularity(rng):
    topo = build_jellyfish(switches=20, degree=4, rng=rng)
    graph = topo.graph()
    degrees = [d for _node, d in graph.degree()]
    assert degrees == [4] * 20
    assert topo.link_count == 20 * 4 // 2


def test_jellyfish_validation(rng):
    with pytest.raises(ValueError):
        build_jellyfish(switches=5, degree=3, rng=rng)  # odd product
    with pytest.raises(ValueError):
        build_jellyfish(switches=4, degree=4, rng=rng)
    with pytest.raises(ValueError):
        build_jellyfish(switches=1, degree=0, rng=rng)


def test_jellyfish_deterministic_given_seed():
    topo_a = build_jellyfish(switches=12, degree=3,
                             rng=np.random.default_rng(9))
    topo_b = build_jellyfish(switches=12, degree=3,
                             rng=np.random.default_rng(9))
    edges_a = sorted(tuple(sorted(link.endpoint_ids))
                     for link in topo_a.fabric.links.values())
    edges_b = sorted(tuple(sorted(link.endpoint_ids))
                     for link in topo_b.fabric.links.values())
    assert edges_a == edges_b


# -- xpander ---------------------------------------------------------------------

def test_xpander_edges_regularity(rng):
    node_count, edges = xpander_edges(degree=4, lift=5, rng=rng)
    assert node_count == 25
    degree_count = Counter()
    for a, b in edges:
        degree_count[a] += 1
        degree_count[b] += 1
    assert all(degree_count[n] == 4 for n in range(node_count))
    # No duplicate edges or self-loops.
    assert len({tuple(sorted(e)) for e in edges}) == len(edges)
    assert all(a != b for a, b in edges)


def test_xpander_build_and_connectivity(rng):
    topo = build_xpander(degree=4, lift=4, rng=rng)
    assert len(topo.switches()) == 20
    assert topo.link_count == 20 * 4 // 2
    assert topo.is_connected()


def test_xpander_validation(rng):
    with pytest.raises(ValueError):
        xpander_edges(degree=1, lift=3, rng=rng)
    with pytest.raises(ValueError):
        xpander_edges(degree=3, lift=0, rng=rng)


# -- gpu cluster -------------------------------------------------------------------

def test_gpu_cluster_structure(rng):
    topo = build_gpu_cluster(servers=8, gpus_per_server=4, rng=rng)
    assert len(topo.host_ids) == 8
    assert len(topo.switches(SwitchRole.SPINE)) == 4
    assert topo.link_count == 8 * 4
    # Each server has exactly one link per rail.
    for host_id in topo.host_ids:
        rails = {link.endpoint_ids[1] for link
                 in topo.fabric.links_of(host_id)}
        assert len(rails) == 4


def test_gpu_healthy_fraction_drops_with_one_link(rng):
    from dcrobot.network import LinkState

    topo = build_gpu_cluster(servers=8, gpus_per_server=4, rng=rng)
    assert healthy_server_fraction(topo) == 1.0
    victim = topo.fabric.links_of(topo.host_ids[0])[0]
    victim.set_state(1.0, LinkState.DOWN)
    assert healthy_server_fraction(topo) == pytest.approx(7 / 8)


def test_gpu_cluster_validation(rng):
    with pytest.raises(ValueError):
        build_gpu_cluster(servers=0, rng=rng)
    with pytest.raises(ValueError):
        build_gpu_cluster(servers=2, gpus_per_server=0, rng=rng)


# -- wrapper -----------------------------------------------------------------------

def test_topology_validates_role_ids(rng):
    topo = build_fattree(k=4, rng=rng)
    with pytest.raises(ValueError):
        Topology(name="bad", fabric=topo.fabric, params={},
                 switches_by_role={SwitchRole.CORE: ["sw-nonexistent"]},
                 host_ids=[])


def test_edge_switch_pairs(rng):
    topo = build_leafspine(leaves=3, spines=2, rng=rng)
    pairs = topo.edge_switch_pairs()
    assert len(pairs) == 3 * 2  # ordered pairs of distinct leaves


def test_disconnection_detected(rng):
    from dcrobot.network import LinkState

    topo = build_leafspine(leaves=2, spines=1, rng=rng)
    assert topo.is_connected(operational_only=True)
    for link in topo.fabric.links.values():
        link.set_state(1.0, LinkState.DOWN)
    assert not topo.is_connected(operational_only=True)
