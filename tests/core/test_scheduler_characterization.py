"""Characterization tests pinning ImpactAwareScheduler behavior.

The campus refactor leans on the scheduler exactly as-is (every hall
shard instantiates its own), so this suite pins the current contract —
quiet-window edge arithmetic, the columnar-traffic drain path, and the
outstanding-drain ledger — against accidental drift.
"""

import pytest

from dcrobot.core import (
    ImpactAwareScheduler,
    RepairAction,
    SchedulerConfig,
    WorkOrder,
)
from dcrobot.core.scheduler import SECONDS_PER_DAY
from dcrobot.traffic import EcmpRouter

HOUR = 3600.0


def order_for(link_id, touches=()):
    return WorkOrder(link_id, RepairAction.RESEAT, created_at=0.0,
                     announced_touches=list(touches))


class RecordingTraffic:
    """Duck-typed columnar traffic engine: drain/undrain log."""

    def __init__(self):
        self.calls = []

    def drain(self, link_id):
        self.calls.append(("drain", link_id))

    def undrain(self, link_id):
        self.calls.append(("undrain", link_id))


# -- quiet-window edges ---------------------------------------------------

def test_quiet_window_boundaries_are_half_open():
    scheduler = ImpactAwareScheduler(config=SchedulerConfig(
        quiet_window_start_hour=1, quiet_window_end_hour=5))
    # [start, end): the opening instant is inside, the closing instant
    # is not.
    assert scheduler.in_quiet_window(1 * HOUR)
    assert not scheduler.in_quiet_window(5 * HOUR)
    # One tick before closing is still inside.
    assert scheduler.in_quiet_window(5 * HOUR - 1.0)
    # At the closing instant the wait wraps to tomorrow's window.
    assert scheduler.seconds_until_quiet_window(5 * HOUR) \
        == SECONDS_PER_DAY - 5 * HOUR + 1 * HOUR


def test_quiet_window_supports_fractional_hours_and_midnight_end():
    scheduler = ImpactAwareScheduler(config=SchedulerConfig(
        quiet_window_start_hour=22.5, quiet_window_end_hour=24))
    assert scheduler.seconds_until_quiet_window(0.0) == 22.5 * HOUR
    assert scheduler.in_quiet_window(23 * HOUR)
    # Midnight itself belongs to the next day, outside the window.
    assert not scheduler.in_quiet_window(24 * HOUR)


def test_quiet_window_uses_time_of_day_not_absolute_time():
    scheduler = ImpactAwareScheduler(config=SchedulerConfig(
        quiet_window_start_hour=1, quiet_window_end_hour=5))
    for day in (0, 1, 7, 365):
        base = day * SECONDS_PER_DAY
        assert scheduler.in_quiet_window(base + 2 * HOUR)
        assert scheduler.seconds_until_quiet_window(base) == HOUR


def test_quiet_window_validation_rejects_degenerate_windows():
    with pytest.raises(ValueError):
        SchedulerConfig(quiet_window_start_hour=3,
                        quiet_window_end_hour=3)
    with pytest.raises(ValueError):
        SchedulerConfig(quiet_window_start_hour=1,
                        quiet_window_end_hour=25)


# -- columnar traffic drain path ------------------------------------------

def test_traffic_only_scheduler_drains_and_undrains(world):
    traffic = RecordingTraffic()
    scheduler = ImpactAwareScheduler(traffic=traffic)
    target, neighbor = world.links[0], world.links[1]
    order = order_for(target.id, [neighbor.id])
    drained = scheduler.before_repair(order)
    # The one drain target gets every drain, and the drained-id list
    # is reported.
    assert drained == [target.id, neighbor.id]
    assert traffic.calls == [("drain", target.id),
                             ("drain", neighbor.id)]
    scheduler.after_repair(order)
    assert traffic.calls[2:] == [("undrain", target.id),
                                 ("undrain", neighbor.id)]


def test_duplicate_announced_touch_drained_twice(world):
    # Characterize, don't judge: the target repeated in
    # announced_touches is drained (and undrained) once per mention.
    traffic = RecordingTraffic()
    scheduler = ImpactAwareScheduler(traffic=traffic)
    target = world.links[0]
    order = order_for(target.id, [target.id])
    assert scheduler.before_repair(order) \
        == [target.id, target.id]
    assert traffic.calls.count(("drain", target.id)) == 2


# -- outstanding-drain ledger ---------------------------------------------

def test_outstanding_drains_ledger_lifecycle(world):
    router = EcmpRouter(world.fabric)
    scheduler = ImpactAwareScheduler(traffic=router)
    first = order_for(world.links[0].id, [world.links[1].id])
    second = order_for(world.links[2].id)
    scheduler.before_repair(first)
    scheduler.before_repair(second)
    ledger = scheduler.outstanding_drains()
    assert ledger == {
        first.order_id: [world.links[0].id, world.links[1].id],
        second.order_id: [world.links[2].id]}
    # The ledger is a snapshot: mutating it never touches the
    # scheduler's own books.
    ledger[first.order_id].clear()
    scheduler.after_repair(first)
    assert router.drained_links == {world.links[2].id}
    assert scheduler.outstanding_drains() == {
        second.order_id: [world.links[2].id]}
    scheduler.after_repair(second)
    assert scheduler.outstanding_drains() == {}


def test_after_repair_for_unknown_order_is_noop(world):
    router = EcmpRouter(world.fabric)
    scheduler = ImpactAwareScheduler(traffic=router)
    known = order_for(world.links[0].id)
    scheduler.before_repair(known)
    scheduler.after_repair(order_for(world.links[1].id))  # never drained
    assert router.drained_links == {world.links[0].id}
    # ... and double-completion releases nothing twice.
    scheduler.after_repair(known)
    scheduler.after_repair(known)
    assert router.drained_links == set()
