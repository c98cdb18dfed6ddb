"""Unit tests for robotic topology reconfiguration."""

import numpy as np
import pytest

from dcrobot.core.reconfigure import (
    RoboticRewirer,
    StepKind,
    plan_rewiring,
)
from dcrobot.robots import FleetConfig, RobotFleet

from tests.conftest import make_world


def current_pairs(fabric):
    from collections import Counter

    return Counter(tuple(sorted(link.endpoint_ids))
                   for link in fabric.links.values())


def make_fleet(world, manipulators=2):
    return RobotFleet(world.sim, world.fabric, world.health,
                      world.physics,
                      config=FleetConfig(manipulators=manipulators,
                                         cleaners=0),
                      rng=np.random.default_rng(4))


def test_disconnect_removes_link(world):
    link = world.links[0]
    count_before = len(world.fabric.links)
    removed = world.fabric.disconnect(link.id)
    assert removed is link
    assert len(world.fabric.links) == count_before - 1
    assert not link.port_a.occupied and not link.port_b.occupied
    assert world.fabric.bundles.bundle_of(link.cable.id) is None
    assert link not in world.fabric.links_of(link.port_a.parent_id)
    with pytest.raises(KeyError):
        world.fabric.disconnect(link.id)


def test_plan_noop_when_target_matches(world):
    target = [link.endpoint_ids for link in world.fabric.links.values()]
    plan = plan_rewiring(world.fabric, target)
    assert plan.steps == []
    assert plan.infeasible == []


def test_plan_pure_addition(world):
    a, b = world.switch_a.id, world.switch_b.id
    target = [link.endpoint_ids
              for link in world.fabric.links.values()]
    # Switches have spare radix in the fixture? radix == links, so no.
    # Remove one link from target and add it back twice is infeasible;
    # instead drop one and expect one REMOVE.
    plan = plan_rewiring(world.fabric, target[:-1])
    assert plan.removals == 1 and plan.additions == 0


def test_plan_swap_respects_port_budget():
    # Fully-wired pair of switches: an add is only possible after a
    # remove frees ports — the plan must order the remove first.
    world = make_world(links=4)
    fabric = world.fabric
    a, b = world.switch_a.id, world.switch_b.id
    third = fabric.add_switch(
        __import__("dcrobot.network", fromlist=["SwitchRole"])
        .SwitchRole.TOR, radix=4,
        rack_id=fabric.layout.rack_at(0, 1).id)
    target = [(a, b)] * 3 + [(a, third.id)]
    plan = plan_rewiring(fabric, target)
    assert plan.infeasible == []
    kinds = [step.kind for step in plan.steps]
    # The REMOVE that frees a's port precedes the ADD.
    assert kinds.index(StepKind.REMOVE) < kinds.index(StepKind.ADD)


def test_plan_rejects_unknown_nodes(world):
    with pytest.raises(KeyError):
        plan_rewiring(world.fabric, [("sw-nope", world.switch_a.id)])


def test_plan_infeasible_addition_reported(world):
    # All ports busy on both switches and nothing to remove that's not
    # also in the target: adding one more parallel link can't happen.
    a, b = world.switch_a.id, world.switch_b.id
    target = [link.endpoint_ids
              for link in world.fabric.links.values()] + [(a, b)]
    plan = plan_rewiring(world.fabric, target)
    assert len(plan.infeasible) == 1


def test_rewirer_executes_plan():
    world = make_world(links=4)
    fabric = world.fabric
    from dcrobot.network import SwitchRole

    third = fabric.add_switch(SwitchRole.TOR, radix=4,
                              rack_id=fabric.layout.rack_at(0, 1).id)
    a, b = world.switch_a.id, world.switch_b.id
    target = [(a, b)] * 3 + [(a, third.id), (b, third.id)]
    plan = plan_rewiring(fabric, target)
    fleet = make_fleet(world)
    rewirer = RoboticRewirer(world.sim, fabric, fleet)
    report = world.sim.run(until=rewirer.execute(plan))

    assert report.steps_executed == len(plan.steps)
    assert report.total_seconds > 0
    assert current_pairs(fabric) == {
        (a, b): 3,
        tuple(sorted((a, third.id))): 1,
        tuple(sorted((b, third.id))): 1,
    }
    # Rewiring consumed robot time (cable laying dominates).
    assert any(robot.busy_seconds > 0 for robot in fleet.manipulators)


def test_rewirer_validation(world):
    fleet = make_fleet(world)
    with pytest.raises(ValueError):
        RoboticRewirer(world.sim, world.fabric, fleet,
                       lay_speed_m_s=0.0)


def test_connectivity_protection_orders_removals():
    # A ring of three switches; target removes one ring edge and adds a
    # chord.  With protection, the plan must not leave the graph
    # partitioned at any prefix.
    import networkx as nx

    from dcrobot.network import Fabric, HallLayout, SwitchRole

    fabric = Fabric(layout=HallLayout(rows=1, racks_per_row=4),
                    rng=np.random.default_rng(0))
    switches = [fabric.add_switch(
        SwitchRole.NODE, radix=3,
        rack_id=fabric.layout.rack_at(0, index).id)
        for index in range(3)]
    ids = [s.id for s in switches]
    fabric.connect(ids[0], ids[1])
    fabric.connect(ids[1], ids[2])
    fabric.connect(ids[2], ids[0])
    # Target: path 0-1-2 plus a parallel 0-1 (drop 2-0, add 0-1).
    target = [(ids[0], ids[1]), (ids[1], ids[2]), (ids[0], ids[1])]
    plan = plan_rewiring(fabric, target, protect_connectivity=True)
    assert plan.infeasible == []
    # Replay and check connectivity at every prefix.
    graph = nx.MultiGraph()
    graph.add_nodes_from(ids)
    for link in fabric.links.values():
        graph.add_edge(*link.endpoint_ids)
    for step in plan.steps:
        a, b = step.endpoints
        if step.kind is StepKind.ADD:
            graph.add_edge(a, b)
        else:
            graph.remove_edge(a, b)
        assert nx.is_connected(nx.Graph(graph))


def test_planning_tests_each_removal_on_the_live_graph(monkeypatch):
    # Rewire a Jellyfish into another of the same size.  Each candidate
    # removal is tested on the planner's own graph: no copy of it, and
    # one connectivity check plus one path query per candidate.
    import networkx as nx
    import networkx.convert

    from dcrobot.topology.jellyfish import build_jellyfish

    counts = {"copies": 0, "is_connected": 0, "has_path": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(networkx.convert, "to_networkx_graph",
                        counted("copies",
                                networkx.convert.to_networkx_graph))
    monkeypatch.setattr(nx, "is_connected",
                        counted("is_connected", nx.is_connected))
    monkeypatch.setattr(nx, "has_path", counted("has_path", nx.has_path))

    live = build_jellyfish(rng=np.random.default_rng(1))
    goal = build_jellyfish(rng=np.random.default_rng(101))
    rename = dict(zip(goal.fabric.switches, live.fabric.switches))
    target = [(rename[a], rename[b])
              for a, b in (link.endpoint_ids
                           for link in goal.fabric.links.values())]
    plan = plan_rewiring(live.fabric, target)

    assert plan.infeasible == []
    assert plan.removals == plan.additions > 0
    assert counts["copies"] == 0
    assert 0 < counts["is_connected"] == counts["has_path"]
