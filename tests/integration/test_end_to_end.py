"""Integration tests: full stacks exercised across module boundaries."""

from dcrobot.core import (
    AutomationLevel,
    MaintenanceServiceAPI,
    RepairAction,
)
from dcrobot.experiments import WorldConfig, build_world, run_world
from dcrobot.network import DegradationKind, LinkState
from dcrobot.robots import FleetConfig
from dcrobot.topology.gpu import build_gpu_cluster, healthy_server_fraction
from dcrobot.traffic import EcmpRouter

DAY = 86400.0


def test_l2_robot_failure_falls_back_to_human():
    """A scratched end-face defeats the cleaning robot (it cannot verify
    cleanliness, §3.3.2) -> the controller re-dispatches the same CLEAN
    to a technician, and eventually escalates to replacement."""
    world = build_world(WorldConfig(
        horizon_days=30.0, seed=11, failure_scale=0.0,
        dust_rate_per_day=0.0, aging_rate_per_day=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION))
    victim = next(link for link in world.fabric.links.values()
                  if link.cable.cleanable)
    # Dirt AND a scratch: dirty enough to flag, scratch makes it
    # uncleanable.
    victim.cable.end_a.add_contamination(0.6)
    victim.cable.end_a.scratch(0)
    world.health.evaluate_link(victim, 0.0)
    world.sim.run(until=30.0 * DAY)

    incidents = (world.controller.closed_incidents
                 + world.controller.unresolved_incidents)
    assert incidents
    all_outcomes = [outcome for incident in incidents
                    for outcome in incident.attempts
                    if incident.link_id == victim.id]
    executors = {outcome.executor_id for outcome in all_outcomes}
    # Robots tried, requested human support, and the ladder eventually
    # replaced the cable (scratch is permanent).
    assert "robots" in executors
    assert "technicians" in executors
    actions = {outcome.order.action for outcome in all_outcomes}
    assert RepairAction.REPLACE_CABLE in actions
    assert victim.state is LinkState.UP


def test_router_drain_during_repair():
    """The scheduler's drain is visible through a router wired to the
    same fabric: during the repair window the target link is out of
    ECMP, afterwards it returns."""
    from dcrobot.core.scheduler import ImpactAwareScheduler

    world = build_world(WorldConfig(
        horizon_days=3.0, seed=12, failure_scale=0.0,
        dust_rate_per_day=0.0, aging_rate_per_day=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION))
    router = EcmpRouter(world.fabric)
    world.controller.scheduler = ImpactAwareScheduler(traffic=router)

    victim = list(world.fabric.links.values())[0]
    victim.transceiver_a.firmware_stuck = True
    world.health.evaluate_link(victim, 0.0)

    observed_drained = []

    def spy(sim=world.sim):
        while True:
            yield sim.timeout(60.0)
            if victim.id in router.drained_links:
                observed_drained.append(sim.now)

    world.sim.process(spy())
    world.sim.run(until=1.0 * DAY)
    assert observed_drained, "link was never drained during repair"
    assert victim.id not in router.drained_links  # undrained after
    assert victim.state is LinkState.UP


def test_gpu_cluster_with_controller_recovers_goodput():
    world = build_world(WorldConfig(
        topology_builder=build_gpu_cluster,
        topology_kwargs={"servers": 8, "gpus_per_server": 4},
        horizon_days=2.0, seed=13, failure_scale=0.0,
        dust_rate_per_day=0.0, aging_rate_per_day=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION))
    victim = world.fabric.links_of(world.topology.host_ids[0])[0]

    def saboteur(sim=world.sim):
        yield sim.timeout(3600.0)
        world.injector.inject(DegradationKind.FIRMWARE_STUCK, victim,
                              sim.now)

    world.sim.process(saboteur())
    world.sim.run(until=3650.0)
    assert healthy_server_fraction(world.topology) < 1.0
    world.sim.run(until=2.0 * DAY)
    assert healthy_server_fraction(world.topology) == 1.0
    assert world.controller.closed_incidents


def test_service_api_drives_real_maintenance():
    world = build_world(WorldConfig(
        horizon_days=2.0, seed=14, failure_scale=0.0,
        dust_rate_per_day=0.0, aging_rate_per_day=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION))
    api = MaintenanceServiceAPI(world.controller)
    target = next(link for link in world.fabric.links.values()
                  if link.cable.cleanable)
    target.transceiver_a.oxidation = 0.25  # sub-clinical wear

    assert api.request_maintenance(target.id,
                                   action=RepairAction.RESEAT,
                                   urgent=True)
    world.sim.run(until=1.0 * DAY)
    assert world.controller.proactive_outcomes
    assert target.transceiver_a.oxidation < 0.05  # wiped by the reseat
    assert target.transceiver_a.reseat_count >= 1


def test_full_month_all_links_eventually_recover():
    """Soak: a month at high fault rate must end with the controller
    keeping the fabric alive — no unresolved incidents (spares are
    plentiful) and every link carrying traffic."""
    result = run_world(WorldConfig(
        horizon_days=30.0, seed=15, failure_scale=4.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION,
        fleet_config=FleetConfig(manipulators=3, cleaners=2)))
    assert not result.controller.unresolved_incidents
    down = [link for link in result.fabric.links.values()
            if not link.operational
            and link.state is not LinkState.MAINTENANCE]
    # Anything still down must have an open incident being worked.
    for link in down:
        assert link.id in result.controller.open_incidents \
            or result.monitor.is_muted(link.id) is False
    assert result.availability().mean > 0.99


def test_monitor_controller_mute_protocol():
    """While an incident is in flight its link stays muted; after
    resolution the link is unmuted and re-detectable."""
    world = build_world(WorldConfig(
        horizon_days=5.0, seed=16, failure_scale=0.0,
        dust_rate_per_day=0.0, aging_rate_per_day=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION))
    victim = list(world.fabric.links.values())[0]
    victim.transceiver_b.firmware_stuck = True
    world.health.evaluate_link(victim, 0.0)
    world.sim.run(until=1.0 * DAY)
    assert world.controller.closed_incidents
    assert not world.monitor.is_muted(victim.id)
    # Break it again: a second incident must open.
    victim.transceiver_b.firmware_stuck = True
    world.health.evaluate_link(victim, world.sim.now)
    world.sim.run(until=2.0 * DAY)
    assert len(world.controller.closed_incidents) == 2
