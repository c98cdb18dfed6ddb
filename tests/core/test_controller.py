"""Closed-loop tests: telemetry -> controller -> executor -> verify."""

import numpy as np
import pytest

from dcrobot.core import (
    AutomationLevel,
    ControllerConfig,
    MaintenanceController,
    MaintenanceServiceAPI,
    ProactivePolicy,
    ReactivePolicy,
    RepairAction,
)
from dcrobot.core.actions import Priority
from dcrobot.humans import TechnicianParams, TechnicianPool
from dcrobot.network import LinkState
from dcrobot.robots import FleetConfig, RobotFleet
from dcrobot.telemetry import TelemetryMonitor

from tests.conftest import make_world, start_sweeps

HOUR = 3600.0
FAST_DISPATCH = {Priority.HIGH: 600.0, Priority.NORMAL: 1800.0}


def wire_controller(world, level=AutomationLevel.L0_NO_AUTOMATION,
                    policy_cls=ReactivePolicy, technicians=2,
                    fleet_config=None, seed=31, humans=True,
                    config=None):
    """Stand up monitor + executors + controller + health process."""
    monitor = TelemetryMonitor(world.fabric, poll_seconds=60.0)
    pool = None
    if humans:
        pool = TechnicianPool(
            world.sim, world.fabric, world.health, world.physics,
            count=technicians,
            params=TechnicianParams(
                dispatch_median_seconds=FAST_DISPATCH,
                dispatch_sigma=0.1),
            rng=np.random.default_rng(seed))
    fleet = None
    if level >= AutomationLevel.L2_PARTIAL_AUTOMATION:
        fleet = RobotFleet(world.sim, world.fabric, world.health,
                           world.physics,
                           config=fleet_config or FleetConfig(),
                           rng=np.random.default_rng(seed + 1))
    controller = MaintenanceController(
        world.sim, world.fabric, world.health, monitor,
        policy=policy_cls(world.fabric),
        level=level, humans=pool, fleet=fleet,
        config=config or ControllerConfig(
            verification_delay_seconds=300.0))
    controller.start()
    start_sweeps(world.sim, health=world.health, monitor=monitor)
    return monitor, pool, fleet, controller


def test_controller_requires_an_executor(world):
    monitor = TelemetryMonitor(world.fabric)
    with pytest.raises(ValueError):
        MaintenanceController(world.sim, world.fabric, world.health,
                              monitor, ReactivePolicy(world.fabric))


def test_reactive_loop_fixes_firmware_wedge_via_humans(world):
    _monitor, pool, _fleet, controller = wire_controller(world)
    link = world.links[0]
    link.transceiver_a.firmware_stuck = True
    world.sim.run(until=2 * 86400.0)
    assert link.state is LinkState.UP
    assert len(controller.closed_incidents) == 1
    incident = controller.closed_incidents[0]
    assert incident.resolved
    assert incident.attempt_history[0][1] is RepairAction.RESEAT
    assert incident.time_to_repair > 0
    assert pool.outcomes


def test_escalation_reaches_cleaning_for_dirt(world):
    _monitor, pool, _fleet, controller = wire_controller(world)
    link = world.links[0]
    # Heavy dirt: reseat won't fix it, cleaning will.
    link.cable.end_a.add_contamination(0.9)
    link.cable.end_b.add_contamination(0.9)
    world.sim.run(until=12 * 86400.0)
    assert controller.closed_incidents
    incident = controller.closed_incidents[0]
    actions = [action for _t, action in incident.attempt_history]
    assert RepairAction.RESEAT in actions
    assert RepairAction.CLEAN in actions
    assert link.cable.worst_contamination < 0.25


def test_escalation_reaches_replacement_for_hw_fault(world):
    _monitor, pool, _fleet, controller = wire_controller(world)
    link = world.links[0]
    link.transceiver_b.fail_hardware()
    world.sim.run(until=20 * 86400.0)
    assert controller.closed_incidents
    actions = [action for _t, action in
               controller.closed_incidents[0].attempt_history]
    assert RepairAction.REPLACE_TRANSCEIVER in actions
    assert link.state is LinkState.UP


def test_l3_routes_basic_repairs_to_robots(world):
    _monitor, pool, fleet, controller = wire_controller(
        world, level=AutomationLevel.L3_HIGH_AUTOMATION)
    link = world.links[0]
    link.transceiver_a.firmware_stuck = True
    world.sim.run(until=1 * 86400.0)
    assert link.state is LinkState.UP
    incident = controller.closed_incidents[0]
    assert incident.attempts[0].executor_id == "robots"
    # Robot repair: the service window is minutes, not days.
    assert incident.time_to_repair < 2 * HOUR
    assert pool is not None and not pool.outcomes


def test_l3_still_uses_humans_for_cable_replacement(world):
    _monitor, pool, fleet, controller = wire_controller(
        world, level=AutomationLevel.L3_HIGH_AUTOMATION)
    link = world.links[0]
    link.cable.damage()
    world.sim.run(until=30 * 86400.0)
    assert controller.closed_incidents
    cable_attempts = [
        outcome for incident in controller.closed_incidents
        for outcome in incident.attempts
        if outcome.order.action is RepairAction.REPLACE_CABLE]
    assert cable_attempts
    assert all(outcome.executor_id == "technicians"
               for outcome in cable_attempts)


def test_l2_supervision_accumulates(world):
    _monitor, _pool, _fleet, controller = wire_controller(
        world, level=AutomationLevel.L2_PARTIAL_AUTOMATION)
    link = world.links[0]
    link.transceiver_a.firmware_stuck = True
    world.sim.run(until=3 * 86400.0)
    assert controller.closed_incidents
    assert controller.supervision_seconds > 0


def test_unresolvable_without_spares():
    world = make_world(spare_transceivers=0, spare_cables=0)
    _monitor, _pool, _fleet, controller = wire_controller(
        world, config=ControllerConfig(verification_delay_seconds=300.0,
                                       max_attempts=6))
    link = world.links[0]
    link.transceiver_a.fail_hardware()
    world.sim.run(until=40 * 86400.0)
    assert controller.unresolved_incidents
    assert link.state is LinkState.DOWN


def test_proactive_sweep_executes_in_quiet_window(world):
    _monitor, pool, _fleet, controller = wire_controller(
        world, policy_cls=lambda fabric: ProactivePolicy(
            fabric, trigger_count=1))
    link = world.links[0]
    link.transceiver_a.firmware_stuck = True
    world.sim.run(until=4 * 86400.0)
    # The reseat fix arms a sweep over sibling links.
    assert controller.proactive_outcomes
    sweep = controller.proactive_outcomes[0]
    assert sweep.order.action is RepairAction.RESEAT
    assert "sweep" in sweep.order.symptom
    # Executed inside the 01:00-05:00 quiet window.
    day_seconds = sweep.started_at % 86400.0
    assert 1 * HOUR <= day_seconds <= 5 * HOUR + 2 * HOUR


def test_api_status_and_planned_touches(world):
    _monitor, _pool, _fleet, controller = wire_controller(world)
    api = MaintenanceServiceAPI(controller)
    status = api.status()
    assert status.links_total == len(world.links)
    assert status.open_incidents == 0
    assert api.incident_for(world.links[0].id) is None
    touches = api.planned_touches(world.links[0].id)
    assert isinstance(touches, list)
    with pytest.raises(KeyError):
        api.request_maintenance("link-nope")


def test_api_request_maintenance_runs(world):
    _monitor, pool, _fleet, controller = wire_controller(world)
    api = MaintenanceServiceAPI(controller)
    assert api.request_maintenance(world.links[2].id,
                                   action=RepairAction.RESEAT,
                                   urgent=True)
    world.sim.run(until=2 * 86400.0)
    assert controller.proactive_outcomes
    assert controller.proactive_outcomes[0].order.link_id \
        == world.links[2].id
