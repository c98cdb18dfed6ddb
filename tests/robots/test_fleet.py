"""Unit tests for the robot fleet executor."""

import numpy as np
import pytest

from dcrobot.core.actions import Priority, RepairAction, WorkOrder
from dcrobot.network import LinkState
from dcrobot.robots import FleetConfig, MobilityScope, RobotFleet

from tests.conftest import make_world


def make_fleet(world, seed=9, **config_overrides):
    config = FleetConfig(**config_overrides)
    return RobotFleet(world.sim, world.fabric, world.health,
                      world.physics, config=config,
                      rng=np.random.default_rng(seed))


def test_fleet_config_validation():
    with pytest.raises(ValueError):
        FleetConfig(manipulators=0)
    with pytest.raises(ValueError):
        FleetConfig(cleaners=-1)
    with pytest.raises(ValueError):
        FleetConfig(allocation="random")


def test_basic_capabilities(world):
    fleet = make_fleet(world)
    assert fleet.can_execute(RepairAction.RESEAT)
    assert fleet.can_execute(RepairAction.CLEAN)
    assert fleet.can_execute(RepairAction.REPLACE_TRANSCEIVER)
    assert not fleet.can_execute(RepairAction.REPLACE_CABLE)
    assert not fleet.can_execute(RepairAction.REPLACE_SWITCHGEAR)


def test_no_cleaners_no_clean_capability(world):
    fleet = make_fleet(world, cleaners=0)
    assert not fleet.can_execute(RepairAction.CLEAN)


def test_advanced_capabilities_cover_everything(world):
    fleet = make_fleet(world, advanced_capabilities=True)
    for action in RepairAction:
        assert fleet.can_execute(action)


def test_reseat_order_completes_in_minutes(world):
    link = world.links[0]
    link.transceiver_a.firmware_stuck = True
    world.health.evaluate_link(link, 0.0)
    fleet = make_fleet(world)
    order = WorkOrder(link.id, RepairAction.RESEAT, created_at=0.0,
                      priority=Priority.HIGH)
    outcome = world.sim.run(until=fleet.submit(order))
    assert outcome.completed
    assert not outcome.needs_human
    assert outcome.duration < 15 * 60  # minutes, not days
    assert link.state is LinkState.UP


def test_clean_order_uses_manipulator_and_cleaner(world):
    link = world.links[0]
    link.cable.end_b.add_contamination(0.6)
    fleet = make_fleet(world)
    order = WorkOrder(link.id, RepairAction.CLEAN, created_at=0.0)
    outcome = world.sim.run(until=fleet.submit(order))
    assert outcome.completed
    assert link.cable.end_b.passes_inspection()
    assert fleet.cleaners[0].operations_done >= 1
    assert fleet.manipulators[0].operations_done >= 1
    # Robots returned to the idle pools.
    assert len(fleet._idle_manipulators.items) == len(fleet.manipulators)
    assert len(fleet._idle_cleaners.items) == len(fleet.cleaners)


def test_unverifiable_clean_requests_human_support(world):
    link = world.links[0]
    link.cable.end_a.scratch(0)
    fleet = make_fleet(world)
    order = WorkOrder(link.id, RepairAction.CLEAN, created_at=0.0)
    outcome = world.sim.run(until=fleet.submit(order))
    assert not outcome.completed
    assert outcome.needs_human


def test_replace_transceiver_with_spares(world):
    link = world.links[0]
    link.transceiver_b.fail_hardware()
    world.health.evaluate_link(link, 0.0)
    fleet = make_fleet(world)
    order = WorkOrder(link.id, RepairAction.REPLACE_TRANSCEIVER,
                      created_at=0.0)
    outcome = world.sim.run(until=fleet.submit(order))
    assert outcome.completed
    assert link.state is LinkState.UP


def test_replace_transceiver_out_of_spares_reinserts_old():
    world = make_world(spare_transceivers=0)
    link = world.links[0]
    fleet = make_fleet(world)
    order = WorkOrder(link.id, RepairAction.REPLACE_TRANSCEIVER,
                      created_at=0.0)
    outcome = world.sim.run(until=fleet.submit(order))
    assert not outcome.completed
    assert not outcome.needs_human  # logistics, not capability
    assert link.transceiver_a.seated and link.transceiver_b.seated


def test_uncapable_action_fails_fast(world):
    fleet = make_fleet(world)
    order = WorkOrder(world.links[0].id, RepairAction.REPLACE_CABLE,
                      created_at=0.0)
    outcome = world.sim.run(until=fleet.submit(order))
    assert not outcome.completed
    assert outcome.needs_human


def test_scope_limits_coverage():
    world = make_world(rows=3, racks_per_row=2)
    home = world.fabric.layout.rack_at(1, 0).id
    fleet = make_fleet(world, scope=MobilityScope.ROW,
                       home_racks=[home])
    # Switch A lives in row 0; a row-1-scoped fleet cannot reach it.
    layout = world.fabric.layout
    assert [rack_id for rack_id in layout.racks if fleet.covers(rack_id)] \
        == [rack.id for rack in layout.racks.values() if rack.row == 1]
    order = WorkOrder(world.links[0].id, RepairAction.RESEAT,
                      created_at=0.0)
    outcome = world.sim.run(until=fleet.submit(order))
    assert not outcome.completed
    assert fleet.unreachable_orders == [order]


def test_orders_queue_for_busy_robots(world):
    for link in world.links[:2]:
        link.transceiver_a.firmware_stuck = True
        world.health.evaluate_link(link, 0.0)
    fleet = make_fleet(world, manipulators=1)
    events = [fleet.submit(WorkOrder(world.links[i].id,
                                     RepairAction.RESEAT, created_at=0.0))
              for i in range(2)]
    world.sim.run()
    first, second = [event.value for event in events]
    assert second.started_at >= first.finished_at - 1e-6


def test_nearest_allocation_picks_closest():
    world = make_world(rows=2, racks_per_row=2)
    layout = world.fabric.layout
    near_home = layout.rack_at(0, 0).id   # same rack as switch A
    far_home = layout.rack_at(1, 1).id
    fleet = make_fleet(world, manipulators=2, allocation="nearest",
                       home_racks=[near_home, far_home])
    order = WorkOrder(world.links[0].id, RepairAction.RESEAT,
                      created_at=0.0)
    world.sim.run(until=fleet.submit(order))
    near = [m for m in fleet.manipulators
            if m.mobility.home_rack_id == near_home][0]
    far = [m for m in fleet.manipulators
           if m.mobility.home_rack_id == far_home][0]
    assert near.operations_done > 0
    assert far.operations_done == 0


def test_robot_cascade_less_than_human(world):
    fleet = make_fleet(world)
    total = 0
    for _round in range(10):
        order = WorkOrder(world.links[0].id, RepairAction.RESEAT,
                          created_at=world.sim.now)
        outcome = world.sim.run(until=fleet.submit(order))
        total += outcome.secondary_failures
    # Robot gripper: secondary failures should be rare (often zero).
    assert total <= 2


def test_announce_touches(world):
    fleet = make_fleet(world)
    order = WorkOrder(world.links[0].id, RepairAction.RESEAT,
                      created_at=0.0)
    assert isinstance(fleet.announce_touches(order), list)
