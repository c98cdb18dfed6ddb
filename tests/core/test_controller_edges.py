"""Controller edge cases: null policies, attempt budgets, executor
selection corners."""

from dcrobot.core import (
    AutomationLevel,
    ControllerConfig,
    RepairAction,
)
from dcrobot.experiments import WorldConfig, build_world
from dcrobot.network import LinkState

DAY = 86400.0


def test_null_policy_leaves_faults_alone():
    world = build_world(WorldConfig(
        horizon_days=5.0, seed=41, failure_scale=0.0, policy="none",
        dust_rate_per_day=0.0, aging_rate_per_day=0.0))
    link = list(world.fabric.links.values())[0]
    link.transceiver_a.fail_hardware()
    world.health.evaluate_link(link, 0.0)
    world.sim.run(until=5.0 * DAY)
    assert link.state is LinkState.DOWN
    assert not world.controller.closed_incidents
    # The monitor re-arms after each ignored event (no mute leak).
    assert not world.monitor.is_muted(link.id)


def test_attempt_budget_marks_unresolvable():
    world = build_world(WorldConfig(
        horizon_days=60.0, seed=42, failure_scale=0.0,
        dust_rate_per_day=0.0, aging_rate_per_day=0.0,
        controller_config=ControllerConfig(
            verification_delay_seconds=300.0, max_attempts=3)))
    # No spares.  Nothing draws one before sim.run, so emptying the
    # stock here builds the same world as stocking none.
    fabric = world.fabric
    fabric.spare_transceivers = dict.fromkeys(fabric.spare_transceivers, 0)
    fabric.spare_cables = 0
    link = list(world.fabric.links.values())[0]
    link.port_b.hw_fault = True  # only switchgear replacement fixes
    # Sabotage: switchgear "replacement" keeps failing because we
    # re-break the port after each fix.
    world.health.evaluate_link(link, 0.0)

    def saboteur(sim=world.sim):
        while True:
            yield sim.timeout(3600.0)
            link.port_b.hw_fault = True

    world.sim.process(saboteur())
    world.sim.run(until=60.0 * DAY)
    assert world.controller.unresolved_incidents
    incident = world.controller.unresolved_incidents[0]
    assert incident.attempt_count <= 3 + 1  # budget (+1 human retry)
    assert incident.unresolvable_reason


def test_unplaced_node_falls_back_to_humans():
    world = build_world(WorldConfig(
        horizon_days=1.0, seed=43, failure_scale=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION))
    fabric = world.fabric
    from dcrobot.network import SwitchRole

    floating = fabric.add_switch(SwitchRole.TOR, radix=2)  # no rack
    anchored = fabric.add_switch(
        SwitchRole.TOR, radix=2,
        rack_id=fabric.layout.rack_at(0, 0).id)
    link = fabric.connect(floating.id, anchored.id)
    executor = world.controller._select_executor(
        RepairAction.RESEAT, link)
    assert executor is world.controller.humans


def test_repair_history_shared_across_incidents():
    world = build_world(WorldConfig(
        horizon_days=40.0, seed=44, failure_scale=0.0,
        dust_rate_per_day=0.0, aging_rate_per_day=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION))
    link = next(ln for ln in world.fabric.links.values()
                if ln.cable.cleanable)
    # Two separate wedges: incident 2 must start from the ladder's
    # *continuation*, not from scratch... unless the first was
    # effective, in which case both are reseats.  Force ineffective
    # first repair with persistent dirt.
    link.cable.end_a.add_contamination(0.95, cores=[0])
    world.sim.run(until=40.0 * DAY)
    history = world.controller.repair_history.get(link.id, [])
    actions = [action for _t, action in history]
    assert RepairAction.RESEAT in actions
    assert RepairAction.CLEAN in actions
    assert actions.index(RepairAction.RESEAT) \
        < actions.index(RepairAction.CLEAN)


def test_fleet_only_controller_requires_fleet_capability():
    world = build_world(WorldConfig(
        horizon_days=20.0, seed=45, failure_scale=0.0,
        dust_rate_per_day=0.0, aging_rate_per_day=0.0,
        level=AutomationLevel.L4_FULL_AUTOMATION))
    assert world.controller.humans is None
    link = list(world.fabric.links.values())[0]
    link.cable.damage()
    world.health.evaluate_link(link, 0.0)
    world.sim.run(until=20.0 * DAY)
    # L4 fleet replaces cables itself.
    cable_repairs = [
        outcome for incident in world.controller.closed_incidents
        for outcome in incident.attempts
        if outcome.order.action is RepairAction.REPLACE_CABLE]
    assert cable_repairs
    assert all(outcome.executor_id == "robots"
               for outcome in cable_repairs)
    assert link.state is LinkState.UP
