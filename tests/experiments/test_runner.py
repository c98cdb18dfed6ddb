"""Unit tests for the shared experiment world runner."""

import dataclasses

import pytest

from dcrobot.core import AutomationLevel, NullPolicy, ProactivePolicy, ReactivePolicy
from dcrobot.core.impact import ImpactConfig
from dcrobot.core.planner import TwinPlannerConfig
from dcrobot.experiments import WorldConfig, build_world, run_world
from dcrobot.experiments.runner import summarize_world
from dcrobot.robots import FleetConfig
from dcrobot.shard import CampusWorld
from dcrobot.topology.leafspine import build_leafspine

DAY = 86400.0


def test_default_world_assembles():
    world = build_world(WorldConfig(horizon_days=1.0))
    assert world.fabric.links
    assert world.humans is not None
    assert world.fleet is None  # L0: no robots
    assert isinstance(world.controller.policy, ReactivePolicy)


def test_levels_select_executors():
    l0 = build_world(WorldConfig(
        level=AutomationLevel.L0_NO_AUTOMATION))
    assert l0.fleet is None and l0.humans is not None
    l3 = build_world(WorldConfig(
        level=AutomationLevel.L3_HIGH_AUTOMATION))
    assert l3.fleet is not None and l3.humans is not None
    l4 = build_world(WorldConfig(
        level=AutomationLevel.L4_FULL_AUTOMATION))
    assert l4.fleet is not None and l4.humans is None
    assert l4.fleet.config.advanced_capabilities


def test_policy_selection():
    none = build_world(WorldConfig(policy="none"))
    assert isinstance(none.controller.policy, NullPolicy)
    proactive = build_world(WorldConfig(policy="proactive",
                                        proactive_trigger=3))
    assert isinstance(proactive.controller.policy, ProactivePolicy)
    assert proactive.controller.policy.trigger_count == 3
    custom = build_world(WorldConfig(
        policy=lambda fabric: NullPolicy(fabric)))
    assert isinstance(custom.controller.policy, NullPolicy)
    with pytest.raises(ValueError):
        build_world(WorldConfig(policy="bogus"))


def test_alternative_topology_builder():
    world = build_world(WorldConfig(
        topology_builder=build_leafspine,
        topology_kwargs={"leaves": 3, "spines": 2}))
    assert world.topology.name.startswith("leafspine")
    assert world.topology.link_count == 6


def test_run_world_advances_to_horizon():
    result = run_world(WorldConfig(horizon_days=2.0, failure_scale=0.0))
    assert result.sim.now == pytest.approx(2.0 * DAY)


def test_determinism_same_seed():
    first = run_world(WorldConfig(horizon_days=10.0, seed=5,
                                  failure_scale=3.0))
    second = run_world(WorldConfig(horizon_days=10.0, seed=5,
                                   failure_scale=3.0))
    assert (len(first.controller.closed_incidents)
            == len(second.controller.closed_incidents))
    assert first.availability().mean \
        == pytest.approx(second.availability().mean)
    assert [f.link_id for f in first.injector.log] \
        == [f.link_id for f in second.injector.log]


def test_different_seed_differs():
    first = run_world(WorldConfig(horizon_days=10.0, seed=1,
                                  failure_scale=3.0))
    second = run_world(WorldConfig(horizon_days=10.0, seed=2,
                                   failure_scale=3.0))
    assert ([f.time for f in first.injector.log]
            != [f.time for f in second.injector.log])


def test_spares_accounting():
    config = WorldConfig(
        horizon_days=20.0, seed=3, failure_scale=5.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION)
    result = run_world(config)
    # Hardware deaths occurred, so some spares must have been drawn.
    assert result.fabric.spare_transceivers_taken >= 0
    assert result.fabric.spare_cables_taken >= 0
    total_hw_faults = sum(
        1 for fault in result.injector.log
        if fault.kind.value in ("transceiver", "cable"))
    if total_hw_faults:
        assert (result.fabric.spare_transceivers_taken
                + result.fabric.spare_cables_taken) > 0
    # A world built and run by hand (as E14's trials do) summarizes
    # exactly like run_world's, spares and cost included.
    by_hand = build_world(config)
    by_hand.sim.run(until=config.horizon_seconds)
    assert dataclasses.asdict(summarize_world(by_hand)) == \
        dataclasses.asdict(summarize_world(result))


def _never_built(**_kwargs):
    raise AssertionError("a rejected config got as far as building")


@pytest.mark.parametrize("assemble, fields, message", [
    (build_world, dict(twin_planner=TwinPlannerConfig()),
     "twin_planner requires traffic"),
    (build_world, dict(impact=ImpactConfig()), "impact requires traffic"),
    (build_world, dict(controller_chaos=True),
     "controller_chaos requires a chaos config"),
    (build_world, dict(hall_overrides={0: {"failure_scale": 9.0}}),
     "hall_overrides requires halls > 1"),
    (CampusWorld, dict(hall_overrides={0: {"failure_scale": 9.0}}),
     "hall_overrides requires halls > 1"),
], ids=["twin_planner", "impact", "controller_chaos", "hall_overrides",
        "campus_hall_overrides"])
def test_cross_feature_checks_fail_before_building(assemble, fields,
                                                   message):
    config = WorldConfig(topology_builder=_never_built, **fields)
    with pytest.raises(ValueError, match=message):
        assemble(config)


def test_cost_and_measurement_helpers():
    result = run_world(WorldConfig(
        horizon_days=5.0, seed=4, failure_scale=4.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION,
        fleet_config=FleetConfig(manipulators=2, cleaners=1)))
    assert result.robot_count() == 3
    assert result.robot_busy_seconds() >= 0
    cost = result.cost()
    assert cost.total_usd > 0
    amplification = result.amplification()
    assert amplification.amplification_factor >= 1.0


def test_failure_scale_zero_is_quiet():
    result = run_world(WorldConfig(horizon_days=5.0, seed=6,
                                   failure_scale=0.0,
                                   dust_rate_per_day=0.0,
                                   aging_rate_per_day=0.0))
    assert not result.injector.log
    assert not result.controller.closed_incidents
    assert result.availability().mean == 1.0
    assert result.repair_stats() is None
