"""Unit tests for probe-based fault localization."""

import numpy as np
import pytest

from dcrobot.network import Fabric, LinkState, SwitchRole
from dcrobot.telemetry import ProbeLocalizer
from dcrobot.topology import build_fattree, build_leafspine


@pytest.fixture
def topo():
    return build_leafspine(leaves=4, spines=2,
                           rng=np.random.default_rng(3))


def leaves(topo):
    return topo.switches(SwitchRole.LEAF)


def test_probe_reports_path_and_success(topo):
    localizer = ProbeLocalizer(topo.fabric)
    src, dst = leaves(topo)[:2]
    observation = localizer.probe(src, dst)
    assert observation is not None
    assert observation.success
    assert len(observation.link_ids) == 2  # leaf-spine-leaf


def test_probe_detects_lossy_hop(topo):
    localizer = ProbeLocalizer(topo.fabric)
    src, dst = leaves(topo)[:2]
    observation = localizer.probe(src, dst)
    victim = topo.fabric.links[observation.link_ids[0]]
    victim.loss_rate = 1e-2
    repeated = localizer.probe(src, dst)
    assert not repeated.success


def test_localize_single_down_link(topo):
    localizer = ProbeLocalizer(topo.fabric)
    victim = list(topo.fabric.links.values())[0]
    victim.set_state(1.0, LinkState.DOWN)
    report = localizer.localize_between(leaves(topo),
                                        probes_per_pair=2)
    assert report.localized
    assert victim.id in report.suspects
    # Healthy links on passing paths are exonerated, not suspected.
    assert not set(report.suspects) - {victim.id} & report.exonerated


def test_localize_exonerates_healthy_links(topo):
    localizer = ProbeLocalizer(topo.fabric)
    victim = list(topo.fabric.links.values())[0]
    victim.set_state(1.0, LinkState.DOWN)
    report = localizer.localize_between(leaves(topo))
    assert victim.id not in report.exonerated
    assert len(report.exonerated) >= 2


def test_localize_two_simultaneous_faults(topo):
    localizer = ProbeLocalizer(topo.fabric)
    links = list(topo.fabric.links.values())
    victims = {links[0].id, links[-1].id}
    links[0].set_state(1.0, LinkState.DOWN)
    links[-1].set_state(1.0, LinkState.DOWN)
    report = localizer.localize_between(leaves(topo),
                                        probes_per_pair=2)
    assert victims <= set(report.suspects) | report.exonerated
    assert victims & set(report.suspects)


def test_healthy_fabric_no_suspects(topo):
    localizer = ProbeLocalizer(topo.fabric)
    report = localizer.localize_between(leaves(topo))
    assert not report.localized
    assert report.failing_paths == 0


def test_localization_on_fattree():
    topo = build_fattree(k=4, rng=np.random.default_rng(5))
    localizer = ProbeLocalizer(topo.fabric)
    victim = list(topo.fabric.links.values())[7]
    victim.set_state(1.0, LinkState.DOWN)
    report = localizer.localize_between(topo.switches(SwitchRole.TOR),
                                        probes_per_pair=2)
    # The victim may not be on any shortest probe path; if any path
    # failed, the suspect set must be small and include only
    # non-exonerated links.
    if report.failing_paths:
        assert len(report.suspects) <= 3
        for suspect in report.suspects:
            assert suspect not in report.exonerated


def test_probe_disconnected_endpoint_returns_none(topo):
    fabric = topo.fabric
    isolated = fabric.add_switch(SwitchRole.LEAF, radix=2)
    localizer = ProbeLocalizer(fabric)
    assert localizer.probe(leaves(topo)[0], isolated.id) is None


# -- one graph per fabric structure ------------------------------------------

@pytest.fixture
def graph_builds(monkeypatch):
    """Counts every ``Fabric.graph`` build."""
    builds = []
    build = Fabric.graph

    def counting(self, operational_only=False):
        builds.append(operational_only)
        return build(self, operational_only=operational_only)

    monkeypatch.setattr(Fabric, "graph", counting)
    return builds


def test_mesh_builds_the_graph_once_per_structure(graph_builds):
    topo = build_fattree(k=4, rng=np.random.default_rng(5))
    fabric = topo.fabric
    tors = topo.switches(SwitchRole.TOR)
    list(fabric.links.values())[7].set_state(1.0, LinkState.DOWN)
    localizer = ProbeLocalizer(fabric)

    observations = localizer.probe_mesh(tors)
    assert len(observations) == 56  # 28 pairs x 2 probes
    assert graph_builds == [False]
    # The same probes, each through a graph of its own.
    per_probe = [ProbeLocalizer(fabric).probe(src, dst, flow_hash=attempt)
                 for index, src in enumerate(tors)
                 for dst in tors[index + 1:] for attempt in range(2)]
    assert observations == per_probe
    del graph_builds[:]

    # Link state is not structure: the graph stays, the verdicts move.
    victim = fabric.links[observations[0].link_ids[0]]
    victim.set_state(2.0, LinkState.DOWN)
    assert localizer.probe_mesh(tors) != observations
    assert graph_builds == []

    # A switch or host added leaves ``generation`` alone; a link moves it.
    first = fabric.add_switch(SwitchRole.NODE, radix=2)
    localizer.probe_mesh(tors)
    assert len(graph_builds) == 1
    second = fabric.add_host()
    localizer.probe_mesh(tors)
    assert len(graph_builds) == 2
    fabric.connect(first.id, second.id)
    assert localizer.probe(first.id, second.id) is not None
    localizer.probe_mesh(tors)
    assert len(graph_builds) == 3
