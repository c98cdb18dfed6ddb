"""Fleet self-healing: death detection, fenced re-dispatch, recovery.

Exercises the S19 machinery end to end on the small two-switch world:
units die mid-order and are *detected* via heartbeat silence, orphaned
orders are re-dispatched under an advanced fencing epoch, zombie late
completions are refused, flaky units are quarantined, and robots repair
robots (with human rescue and quorum escalation as fallbacks).
"""

import numpy as np
import pytest

from dcrobot.chaos import ChaosConfig, RobotChaos
from dcrobot.core.actions import (
    Priority,
    RepairAction,
    RepairOutcome,
    WorkOrder,
)
from dcrobot.core.planner import TwinPlanner, TwinPlannerConfig
from dcrobot.network import LinkState
from dcrobot.robots import RobotFleet
from dcrobot.robots.fleet import FleetConfig
from dcrobot.robots.health import RobotHealthModel, RobotHealthParams
from dcrobot.telemetry.monitor import TelemetryMonitor

from tests.conftest import make_world

DAY = 86400.0


def make_healing_fleet(world, manipulators=2, cleaners=1,
                       health_params=None, chaos=None, seed=5):
    fleet = RobotFleet(world.sim, world.fabric, world.health,
                       world.physics,
                       config=FleetConfig(manipulators=manipulators,
                                          cleaners=cleaners),
                       rng=np.random.default_rng(seed))
    if chaos is not None:
        fleet.chaos = RobotChaos(chaos, rng=np.random.default_rng(11))
    monitor = TelemetryMonitor(world.fabric)
    model = RobotHealthModel(health_params or RobotHealthParams(),
                             rng=np.random.default_rng(23))
    fleet.attach_health(model, monitor=monitor)
    return fleet, monitor, model


def reseat(link):
    return WorkOrder(link_id=link.id, action=RepairAction.RESEAT,
                     created_at=0.0, priority=Priority.HIGH)


def test_death_is_detected_and_order_concludes_via_escalation():
    """Every unit dies (die prob 1.0): the watchdog detects each loss
    from heartbeat silence, re-dispatches, and once the fleet falls
    below quorum the order concludes needs-human instead of hanging."""
    world = make_world()
    fleet, monitor, model = make_healing_fleet(
        world, chaos=ChaosConfig(robot_die_prob=1.0,
                                 robot_die_work_seconds=(60.0, 60.0)))
    done = fleet.submit(reseat(world.links[0]))
    world.sim.run(until=done)

    outcome = done.value
    assert not outcome.completed
    assert outcome.needs_human
    assert "quorum" in outcome.notes
    assert fleet.deaths >= 1
    assert fleet.heartbeat_losses >= 1
    assert fleet.quorum_escalations == 1
    # The carcass keeps its physical touch on the link until recovered.
    assert any(record.holding_link_id == world.links[0].id
               for record in model.records.values())
    assert world.links[0].id in fleet.busy_links
    # Concluded, so nothing is orphaned.
    assert all(event.triggered
               for event in fleet.pending_acks.values())


def test_naive_fleet_strands_the_order_forever():
    """With self-healing off the same death is never detected: no
    heartbeat loss is recorded and the order's ack never fires."""
    world = make_world()
    fleet, monitor, model = make_healing_fleet(
        world,
        health_params=RobotHealthParams(self_healing=False),
        chaos=ChaosConfig(robot_die_prob=1.0,
                          robot_die_work_seconds=(60.0, 60.0)))
    done = fleet.submit(reseat(world.links[0]))
    world.sim.run(until=2.0 * DAY)

    assert not done.triggered  # silently hung: the naive failure mode
    assert fleet.deaths == 1
    assert fleet.heartbeat_losses == 0
    assert fleet.redispatch_count == 0
    # ...but the loss is at least visible in the heartbeat ledger.
    timeout = model.params.heartbeat_timeout_seconds
    assert monitor.stale_sources(world.sim.now, timeout)


def test_zombie_late_completion_is_refused_not_double_concluded():
    """A single-unit fleet goes dark mid-order: the watchdog declares
    it lost, the re-dispatch finds no healthy unit and escalates; when
    the zombie finally reports, its stale epoch is refused."""
    world = make_world()
    fleet, monitor, model = make_healing_fleet(
        world, manipulators=1, cleaners=0,
        chaos=ChaosConfig(robot_zombie_prob=1.0,
                          robot_zombie_seconds=(7200.0, 7200.0)))
    done = fleet.submit(reseat(world.links[0]))
    world.sim.run(until=done)
    outcome = done.value
    assert outcome.needs_human  # escalated while the zombie was dark

    world.sim.run(until=world.sim.now + 1.0 * DAY)
    assert fleet.zombie_refusals >= 1
    assert fleet.zombie_acks_accepted == 0  # the fencing tripwire
    # The returned zombie is benched, not silently redeployed.
    record = model.record_for(fleet.manipulators[0].id)
    assert record.quarantined


def test_redispatch_completes_on_a_healthy_peer():
    """One unit dies, a peer picks the order up under epoch 2 and
    completes it for real."""
    world = make_world()
    fleet, monitor, model = make_healing_fleet(
        world, manipulators=2,
        chaos=ChaosConfig(robot_die_prob=1.0,
                          robot_die_work_seconds=(60.0, 60.0)))

    def first_order_only(order, now, _plan_for=fleet.chaos.plan_for):
        plan = _plan_for(order, now)
        fleet.chaos = None  # only the first execution draws a death
        return plan

    fleet.chaos.plan_for = first_order_only
    done = fleet.submit(reseat(world.links[0]))
    world.sim.run(until=done)

    outcome = done.value
    assert outcome.completed
    assert fleet.deaths == 1
    assert fleet.redispatch_count == 1
    assignment = fleet.assignments[outcome.order.order_id]
    assert assignment.epoch == 2
    assert world.links[0].state is not LinkState.MAINTENANCE


def test_robot_repairs_robot_revives_the_dead_unit():
    """With spares and a healthy helper, the fleet heals itself: the
    dead unit is repaired in place and returns to service."""
    world = make_world()
    fleet, monitor, model = make_healing_fleet(
        world, manipulators=3,
        chaos=ChaosConfig(robot_die_prob=1.0,
                          robot_die_work_seconds=(60.0, 60.0)))

    def first_order_only(order, now, _plan_for=fleet.chaos.plan_for):
        plan = _plan_for(order, now)
        fleet.chaos = None
        return plan

    fleet.chaos.plan_for = first_order_only
    done = fleet.submit(reseat(world.links[0]))
    world.sim.run(until=done)
    world.sim.run(until=world.sim.now + 1.0 * DAY)

    assert fleet.deaths == 1
    assert fleet.repairs_done == 1
    assert fleet.spares_left == model.params.robot_spares - 1
    assert all(record.in_service for record in model.records.values())
    assert fleet.healthy_fraction() == 1.0
    assert fleet.busy_links == {}  # the carcass's touch was released


def test_human_rescue_is_the_out_of_spares_fallback():
    world = make_world()
    fleet, monitor, model = make_healing_fleet(
        world, manipulators=1, cleaners=0,
        health_params=RobotHealthParams(robot_spares=0),
        chaos=ChaosConfig(robot_die_prob=1.0,
                          robot_die_work_seconds=(60.0, 60.0)))
    rescued = []

    def rescue(unit_id, rack_id):
        rescued.append((unit_id, rack_id))
        event = world.sim.event()
        event.succeed(unit_id)
        return event

    fleet.rescue = rescue
    done = fleet.submit(reseat(world.links[0]))
    world.sim.run(until=done)
    world.sim.run(until=world.sim.now + 1.0 * DAY)

    assert fleet.human_rescues == 1
    assert rescued and rescued[0][0] == fleet.manipulators[0].id
    assert model.record_for(fleet.manipulators[0].id).in_service


def test_battery_lie_kills_at_the_rack_with_battery_cause():
    world = make_world()
    fleet, monitor, model = make_healing_fleet(
        world, manipulators=1, cleaners=0,
        chaos=ChaosConfig(battery_lie_prob=1.0,
                          battery_lie_charge=(0.05, 0.05)))
    done = fleet.submit(reseat(world.links[0]))
    world.sim.run(until=done)

    record = model.record_for(fleet.manipulators[0].id)
    assert record.death_cause == "battery"
    assert fleet.deaths == 1


def test_low_battery_triggers_recharge_before_the_order():
    world = make_world()
    fleet, monitor, model = make_healing_fleet(
        world, manipulators=1, cleaners=0,
        health_params=RobotHealthParams(
            battery_capacity_seconds=3600.0, recharge_seconds=600.0))
    record = model.record_for(fleet.manipulators[0].id)
    record.battery = 0.1
    done = fleet.submit(reseat(world.links[0]))
    world.sim.run(until=done)

    assert done.value.completed
    assert record.charge_cycles == 1
    assert record.wear > 0  # cycle wear plus the operation's wear


def test_flaky_unit_is_quarantined_after_repeated_faults():
    world = make_world()
    fleet, monitor, model = make_healing_fleet(
        world, manipulators=2,
        health_params=RobotHealthParams(flaky_fault_threshold=1),
        chaos=ChaosConfig(robot_stall_prob=1.0,
                          robot_stall_seconds=(60.0, 60.0)))
    done = fleet.submit(reseat(world.links[0]))
    world.sim.run(until=done)

    assert done.value.completed  # a stall delays, it does not kill
    assert fleet.quarantine_count == 1
    quarantined = [record for record in model.records.values()
                   if record.quarantined]
    assert len(quarantined) == 1


def test_operational_quorum_gate():
    world = make_world()
    fleet, monitor, model = make_healing_fleet(world, manipulators=2)
    assert fleet.operational()
    assert fleet.healthy_fraction() == 1.0
    model.records[fleet.manipulators[0].id].alive = False
    assert fleet.healthy_fraction() == 0.5
    assert fleet.operational()  # exactly at the 0.5 quorum
    model.records[fleet.manipulators[1].id].quarantined = True
    assert fleet.healthy_fraction() == 0.0
    assert not fleet.operational()
    assert not fleet.covers(world.fabric.layout.rack_at(0, 0).id)


def test_fleet_without_health_model_is_unchanged():
    world = make_world()
    fleet = RobotFleet(world.sim, world.fabric, world.health,
                       world.physics, rng=np.random.default_rng(5))
    assert fleet.operational()
    assert fleet.healthy_fraction() == 1.0
    done = fleet.submit(reseat(world.links[0]))
    world.sim.run(until=done)
    assert done.value.completed
    # One fenced path for every fleet: the order ran at epoch 1.
    [assignment] = fleet.assignments.values()
    assert assignment.order is done.value.order
    assert assignment.epoch == 1 and assignment.redispatches == 0


def test_fleet_without_health_model_concludes_each_order_once():
    """A second conclusion of a concluded order is refused through the
    order's guard, without a health model too."""
    world = make_world()
    fleet = RobotFleet(world.sim, world.fabric, world.health,
                       world.physics, rng=np.random.default_rng(5))
    done = fleet.submit(reseat(world.links[0]))
    world.sim.run(until=done)
    first = done.value
    late = RepairOutcome(order=first.order, executor_id=fleet.executor_id,
                         started_at=first.started_at,
                         finished_at=world.sim.now, completed=True,
                         notes="late duplicate")
    assert not fleet._finish(first.order, done, late, epoch=1)
    assert fleet.zombie_refusals == 1
    assert fleet.zombie_acks_accepted == 0
    assert done.value is first
    assert fleet.outcomes == [first]


def test_planner_dispatch_quota_scales_with_fleet_health():
    world = make_world()
    fleet, monitor, model = make_healing_fleet(world, manipulators=4)
    planner = TwinPlanner(None, None, None, None, fleet=fleet,
                          config=TwinPlannerConfig(dispatch_top=4))
    assert planner.dispatch_quota() == 4
    model.records[fleet.manipulators[0].id].alive = False
    model.records[fleet.manipulators[1].id].alive = False
    assert planner.dispatch_quota() == 2
    for unit in fleet.manipulators:
        model.records[unit.id].alive = False
    assert planner.dispatch_quota() == 1  # never below one
    assert TwinPlanner(None, None, None, None).dispatch_quota() == 1


# -- the _fail/_execute exception-safety fix ---------------------------------


def test_exception_in_perform_releases_maintenance_and_restocks():
    """An exception escaping the repair choreography must not leave
    the link stuck in maintenance or the unit unreturned (legacy and
    health paths alike)."""
    for with_health in (False, True):
        world = make_world()
        if with_health:
            fleet, _monitor, _model = make_healing_fleet(world)
        else:
            fleet = RobotFleet(world.sim, world.fabric, world.health,
                               world.physics,
                               rng=np.random.default_rng(5))
        link = world.links[0]

        def boom(order, link, manipulator, cleaner):
            yield world.sim.timeout(60.0)
            raise RuntimeError("actuator fault")

        fleet._perform = boom
        done = fleet.submit(reseat(link))
        with pytest.raises(RuntimeError, match="actuator fault"):
            world.sim.run(until=done)

        assert link.state is not LinkState.MAINTENANCE
        assert fleet.busy_links == {}
        assert len(fleet._idle_manipulators.items) \
            == len(fleet.manipulators)
