"""Unit tests for the invariant-checking safety monitor."""

import pytest

from dcrobot.chaos import SafetyMonitor
from dcrobot.core import MaintenanceController, ReactivePolicy, RepairAction
from dcrobot.core.actions import WorkOrder
from dcrobot.core.controller import Incident
from dcrobot.core.recovery import _incident_from_payload
from dcrobot.telemetry import TelemetryMonitor


class StubExecutor:
    """Does nothing; exists so the controller constructor is happy."""

    executor_id = "stub"

    def __init__(self):
        self.busy_links = {}

    def can_execute(self, action):
        return True

    def covers(self, rack_id):
        return True

    def announce_touches(self, order):
        return []

    def submit(self, order):
        raise AssertionError("safety tests never dispatch")


def controller_for(world, stub):
    return MaintenanceController(
        world.sim, world.fabric, world.health,
        TelemetryMonitor(world.fabric),
        ReactivePolicy(world.fabric), humans=stub)


def build(world, **kwargs):
    stub = StubExecutor()
    controller = controller_for(world, stub)
    safety = SafetyMonitor(world.sim, controller, executors=[stub],
                           **kwargs).attach()
    return controller, safety, stub


def tick(world, steps=3, dt=10.0):
    """Schedule ``steps`` events so the step hook fires that often."""
    for index in range(steps):
        world.sim.timeout(dt * (index + 1))
    world.sim.run()


def claim(controller, link, executor="stub"):
    order = WorkOrder(link_id=link.id, action=RepairAction.RESEAT,
                      created_at=controller.sim.now)
    entry = controller._claim(order, executor)
    return order, entry


def test_constructor_validates_knobs(world):
    controller, _safety, _stub = build(world)
    with pytest.raises(ValueError, match="check_interval"):
        SafetyMonitor(world.sim, controller, check_interval_seconds=-1)
    with pytest.raises(ValueError, match="stuck_after"):
        SafetyMonitor(world.sim, controller, stuck_after_seconds=0)


def test_clean_world_reports_clean(world):
    _controller, safety, _stub = build(world)
    tick(world, steps=4)
    assert safety.checks_run == 4
    assert safety.violations == []
    report = safety.report()
    assert report.clean()
    assert report.stuck_order_count == 0


def test_double_owner_fires_once_at_onset(world):
    controller, safety, _stub = build(world)
    link = world.links[0]
    claim(controller, link)
    _order, second = claim(controller, link)

    tick(world, steps=3)
    kinds = [violation.kind for violation in safety.violations]
    assert kinds == [SafetyMonitor.DOUBLE_OWNER]  # persistent != repeated
    assert safety.violations[0].target == link.id

    # Clearing and re-breaking the invariant is a fresh onset.
    controller._release(second)
    tick(world, steps=2)
    _order, _again = claim(controller, link)
    tick(world, steps=2)
    kinds = [violation.kind for violation in safety.violations]
    assert kinds == [SafetyMonitor.DOUBLE_OWNER] * 2


def test_maintenance_orphan_detected(world):
    controller, safety, _stub = build(world)
    link = world.links[0]
    world.health.begin_maintenance(link, 0.0)
    tick(world, steps=2)
    assert [violation.kind for violation in safety.violations] \
        == [SafetyMonitor.MAINTENANCE_ORPHAN]
    assert safety.violations[0].target == link.id


def test_a_released_orphan_taken_again_is_a_new_onset(world):
    """The audit keeps its maintenance rows from the row-change feed:
    a release must drop the row, so the next orphaning is an onset."""
    _controller, safety, _stub = build(world)
    link = world.links[0]
    for when in (0.0, 200.0):
        world.health.begin_maintenance(link, when)
        safety.check(when + 10.0)
        world.health.release_from_maintenance(link, when + 50.0)
        safety.check(when + 60.0)
    assert [(violation.kind, violation.target, violation.time)
            for violation in safety.violations] \
        == [(SafetyMonitor.MAINTENANCE_ORPHAN, link.id, 10.0),
            (SafetyMonitor.MAINTENANCE_ORPHAN, link.id, 210.0)]


def test_maintenance_with_a_claim_or_a_touching_executor_is_fine(world):
    controller, safety, stub = build(world)
    link_claimed, link_touched = world.links[0], world.links[1]
    world.health.begin_maintenance(link_claimed, 0.0)
    world.health.begin_maintenance(link_touched, 0.0)
    claim(controller, link_claimed)
    stub.busy_links[link_touched.id] = 1
    tick(world, steps=2)
    assert safety.violations == []


def test_drain_orphan_detected(world):
    controller, safety, _stub = build(world)
    link = world.links[0]
    order = WorkOrder(link_id=link.id, action=RepairAction.RESEAT,
                      created_at=0.0)
    # Drains held for an order nobody has in flight: leaked capacity.
    controller.scheduler._drained_for_order[order.order_id] = [link.id]
    tick(world, steps=2)
    assert [violation.kind for violation in safety.violations] \
        == [SafetyMonitor.DRAIN_ORPHAN]
    assert safety.violations[0].target == str(order.order_id)


def test_escalation_regression_detected_incrementally(world):
    controller, safety, _stub = build(world)
    link = world.links[0]
    incident = Incident(link_id=link.id, opened_at=0.0, symptom="x")
    controller.open_incidents[link.id] = incident
    incident.attempt_history.append((0.0, RepairAction.CLEAN))
    tick(world, steps=2)
    assert safety.violations == []

    # Walking down the ladder is the violation...
    incident.attempt_history.append((20.0, RepairAction.RESEAT))
    tick(world, steps=2)
    kinds = [violation.kind for violation in safety.violations]
    assert kinds == [SafetyMonitor.ESCALATION_REGRESSION]

    # ...and the audit cursor never re-reports the same prefix, while
    # continuing upward stays legal.
    incident.attempt_history.append(
        (40.0, RepairAction.REPLACE_TRANSCEIVER))
    tick(world, steps=2)
    assert len(safety.violations) == 1


def test_rebind_audits_the_successors_rebuilt_incidents_once(world):
    controller, safety, stub = build(world)
    for link in world.links:
        incident = Incident(link_id=link.id, opened_at=0.0, symptom="x",
                            resolved=True)
        incident.attempt_history.append((0.0, RepairAction.RESEAT))
        controller.closed_incidents.append(incident)
    tick(world, steps=2)
    assert safety.violations == []

    # A failover: the successor rebuilds its one closed incident from
    # the journal, a new object whose history walked down the ladder.
    successor = controller_for(world, stub)
    successor.closed_incidents.append(_incident_from_payload({
        "link_id": world.links[0].id, "opened_at": 0.0, "symptom": "x",
        "attempt_history": [(0.0, "clean"), (20.0, "reseat")],
        "resolved": True}))
    safety.rebind(successor)
    tick(world, steps=3)
    assert [(violation.kind, violation.target)
            for violation in safety.violations] \
        == [(SafetyMonitor.ESCALATION_REGRESSION, world.links[0].id)]


def test_stuck_orders_gauge_and_interval_throttling(world):
    controller, safety, _stub = build(
        world, stuck_after_seconds=100.0, check_interval_seconds=25.0)
    link = world.links[0]
    claim(controller, link)

    tick(world, steps=30, dt=10.0)  # 30 steps over 300s of sim time
    # Interval throttle: far fewer audits than steps.
    assert safety.checks_run <= 300.0 / 25.0 + 1
    stuck = safety.stuck_orders()
    assert len(stuck) == 1 and stuck[0].link_id == link.id
    report = safety.report()
    assert report.stuck_order_count == 1
    assert report.clean()  # stuck is a gauge, not a violation


def test_detach_stops_auditing(world):
    _controller, safety, _stub = build(world)
    tick(world, steps=2)
    assert safety.checks_run == 2
    safety.detach()
    tick(world, steps=3)
    assert safety.checks_run == 2
