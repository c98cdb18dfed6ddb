"""Unit tests for the impact-aware scheduler and automation levels."""

import pytest

from dcrobot.core import (
    AutomationLevel,
    ImpactAwareScheduler,
    LEVEL_SPECS,
    RepairAction,
    SchedulerConfig,
    WorkOrder,
    spec_for,
)
from dcrobot.traffic import EcmpRouter

HOUR = 3600.0


def test_scheduler_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(quiet_window_start_hour=5,
                        quiet_window_end_hour=4)
    with pytest.raises(ValueError):
        SchedulerConfig(quiet_window_start_hour=-1,
                        quiet_window_end_hour=4)


def test_quiet_window_timing():
    scheduler = ImpactAwareScheduler(
        config=SchedulerConfig(quiet_window_start_hour=1,
                               quiet_window_end_hour=5))
    # Midnight: window opens at 01:00.
    assert scheduler.seconds_until_quiet_window(0.0) == HOUR
    # 02:00: inside the window.
    assert scheduler.seconds_until_quiet_window(2 * HOUR) == 0.0
    assert scheduler.in_quiet_window(2 * HOUR)
    # 06:00: wait until tomorrow 01:00.
    assert scheduler.seconds_until_quiet_window(6 * HOUR) \
        == pytest.approx(19 * HOUR)
    # Next day 02:00 is again inside.
    assert scheduler.in_quiet_window(26 * HOUR)


def test_drain_and_undrain_cycle(world):
    router = EcmpRouter(world.fabric)
    scheduler = ImpactAwareScheduler(traffic=router)
    target = world.links[0]
    neighbor = world.links[1]
    order = WorkOrder(target.id, RepairAction.RESEAT, created_at=0.0,
                      announced_touches=[neighbor.id])
    drained = scheduler.before_repair(order)
    assert set(drained) == {target.id, neighbor.id}
    assert router.drained_links == {target.id, neighbor.id}
    scheduler.after_repair(order)
    assert router.drained_links == set()


def test_drain_announced_can_be_disabled(world):
    router = EcmpRouter(world.fabric)
    scheduler = ImpactAwareScheduler(
        traffic=router, config=SchedulerConfig(drain_announced=False))
    order = WorkOrder(world.links[0].id, RepairAction.RESEAT,
                      created_at=0.0,
                      announced_touches=[world.links[1].id])
    drained = scheduler.before_repair(order)
    assert drained == [world.links[0].id]


def test_scheduler_without_router_is_noop(world):
    scheduler = ImpactAwareScheduler()
    order = WorkOrder(world.links[0].id, RepairAction.RESEAT,
                      created_at=0.0)
    assert scheduler.before_repair(order) == []
    scheduler.after_repair(order)  # no error


# -- automation levels -------------------------------------------------------------

def test_all_five_levels_present():
    assert len(LEVEL_SPECS) == 5
    for level in AutomationLevel:
        assert spec_for(level).level is level


def test_level_progression_monotone():
    # Robot action sets grow, supervision shrinks, L0/L1 have no robots.
    l0, l1, l2, l3, l4 = [spec_for(level) for level in AutomationLevel]
    assert l0.robot_actions == frozenset()
    assert l1.robot_actions == frozenset()
    assert l2.robot_actions < l4.robot_actions
    assert l2.robot_actions == l3.robot_actions
    assert l2.supervision_ratio > l3.supervision_ratio \
        > l4.supervision_ratio
    assert l4.robot_actions == frozenset(RepairAction)


def test_l1_and_up_have_assist_devices():
    assert not spec_for(AutomationLevel.L0_NO_AUTOMATION) \
        .operator_assist_devices
    assert spec_for(AutomationLevel.L1_OPERATOR_ASSISTANCE) \
        .operator_assist_devices


def test_l2_has_approval_latency():
    assert spec_for(AutomationLevel.L2_PARTIAL_AUTOMATION) \
        .approval_latency_seconds > 0
    assert spec_for(AutomationLevel.L3_HIGH_AUTOMATION) \
        .approval_latency_seconds == 0
