"""Hardened-controller behaviour: timeouts, retries, idempotency,
late acks, circuit breaking, and graceful degradation — driven through
scripted stub executors so every ack path is exercised deterministically.
"""

import numpy as np

from dcrobot.core import (
    AutomationLevel,
    BreakerPolicy,
    ControllerConfig,
    MaintenanceController,
    ReactivePolicy,
    RepairAction,
    ResilienceConfig,
    RetryPolicy,
)
from dcrobot.core.actions import RepairOutcome
from dcrobot.core.resilience import BreakerState
from dcrobot.telemetry import TelemetryMonitor
from dcrobot.telemetry.events import Symptom, TelemetryEvent

from tests.conftest import make_world

HOUR = 3600.0


class ScriptedExecutor:
    """Executor whose ack behaviour is scripted per submission.

    Script entries:
      * ``"fix"``        — physically repair the link, ack completed.
      * ``"fail"``       — ack completed=False.
      * ``"needs_human"``— ack completed=False, needs_human=True.
      * ``"lost"``       — never ack (the event never fires).
      * ``"lost-fix"``   — physically repair, but never ack.
      * ``("late-fix", t)`` — physically repair and ack after ``t``s.
    The script's last entry repeats for any further submissions.
    """

    def __init__(self, sim, world, executor_id, script=("fix",)):
        self.sim = sim
        self.world = world
        self.executor_id = executor_id
        self.script = list(script)
        self.cursor = 0
        self.submitted = []
        self.busy_links = {}

    def can_execute(self, action):
        return True

    def covers(self, rack_id):
        return True

    def operational(self):
        return True  # a scripted fleet never falls below quorum

    def announce_touches(self, order):
        return []

    def _next_step(self):
        step = self.script[min(self.cursor, len(self.script) - 1)]
        self.cursor += 1
        return step

    def _heal(self, order):
        link = self.world.fabric.links[order.link_id]
        link.transceiver_a.firmware_stuck = False

    def _outcome(self, order, completed, needs_human=False):
        return RepairOutcome(
            order=order, executor_id=self.executor_id,
            started_at=order.created_at, finished_at=self.sim.now,
            completed=completed, needs_human=needs_human)

    def submit(self, order):
        self.submitted.append(order)
        step = self._next_step()
        delay = 60.0
        if isinstance(step, tuple):
            step, delay = step
        done = self.sim.event()

        def finish():
            yield self.sim.timeout(delay)
            if step in ("fix", "lost-fix", "late-fix"):
                self._heal(order)
            if step in ("lost", "lost-fix"):
                return  # the ack fires into the void
            done.succeed(self._outcome(
                order, completed=step in ("fix", "late-fix"),
                needs_human=step == "needs_human"))

        self.sim.process(finish())
        return done


def fast_resilience(**overrides):
    defaults = dict(
        work_order_timeout_seconds=600.0,
        human_order_timeout_seconds=1200.0,
        retry=RetryPolicy(max_retries=2, base_delay_seconds=120.0,
                          multiplier=2.0, max_delay_seconds=600.0,
                          jitter_fraction=0.0),
        breaker=BreakerPolicy(failure_threshold=2,
                              cooldown_seconds=12 * HOUR))
    defaults.update(overrides)
    return ResilienceConfig(**defaults)


def build(world, resilience, humans_script=("fix",), fleet_script=None,
          level=AutomationLevel.L0_NO_AUTOMATION):
    monitor = TelemetryMonitor(world.fabric, poll_seconds=60.0)
    humans = ScriptedExecutor(world.sim, world, "stub-humans",
                              humans_script)
    fleet = None
    if fleet_script is not None:
        fleet = ScriptedExecutor(world.sim, world, "stub-robots",
                                 fleet_script)
    controller = MaintenanceController(
        world.sim, world.fabric, world.health, monitor,
        ReactivePolicy(world.fabric), level=level,
        humans=humans, fleet=fleet,
        config=ControllerConfig(verification_delay_seconds=60.0,
                                resilience=resilience),
        rng=np.random.default_rng(2))
    return monitor, humans, fleet, controller


def break_and_report(world, controller, link):
    link.transceiver_a.firmware_stuck = True
    world.health.evaluate_link(link, world.sim.now)
    controller.on_event(TelemetryEvent(
        time=world.sim.now, link_id=link.id,
        symptom=Symptom.LINK_DOWN))


def test_timeout_then_retry_recovers_a_lost_ack(world):
    _m, humans, _f, controller = build(
        world, fast_resilience(), humans_script=("lost", "fix"))
    link = world.links[0]
    break_and_report(world, controller, link)
    world.sim.run(until=2 * 86400.0)

    assert len(humans.submitted) == 2
    assert controller.timeout_count == 1
    assert controller.retry_count == 1
    assert len(controller.lost_ack_orders) == 1
    assert len(controller.closed_incidents) == 1
    assert controller.closed_incidents[0].resolved
    assert controller.active_orders == {}  # nothing leaked


def test_dispatches_never_exceed_the_retry_budget(world):
    _m, humans, _f, controller = build(
        world, fast_resilience(), humans_script=("lost",))
    link = world.links[0]
    break_and_report(world, controller, link)
    world.sim.run(until=2 * 86400.0)

    # 1 initial dispatch + max_retries re-dispatches, then the
    # controller re-arms telemetry rather than spinning.
    assert len(humans.submitted) == 1 + 2
    assert controller.timeout_count == 3
    incident = controller.open_incidents[link.id]
    assert not incident.in_flight
    assert not controller.monitor.is_muted(link.id)
    assert controller.active_orders == {}


def test_idempotency_guard_skips_redispatch_when_the_link_healed(world):
    _m, humans, _f, controller = build(
        world, fast_resilience(), humans_script=("lost-fix",))
    link = world.links[0]
    break_and_report(world, controller, link)
    world.sim.run(until=86400.0)

    # The repair landed; only its ack was lost.  One dispatch, no
    # double repair, incident verified closed.
    assert len(humans.submitted) == 1
    assert controller.timeout_count == 1
    assert controller.idempotent_skips == 1
    assert len(controller.closed_incidents) == 1


def test_disabling_the_guard_redispatches_even_after_the_fix(world):
    _m, humans, _f, controller = build(
        world, fast_resilience(verify_before_retry=False),
        humans_script=("lost-fix", "fix"))
    link = world.links[0]
    break_and_report(world, controller, link)
    world.sim.run(until=86400.0)

    assert len(humans.submitted) == 2  # the double repair we avoid
    assert controller.idempotent_skips == 0
    assert len(controller.closed_incidents) == 1


def test_late_ack_is_still_accounted(world):
    _m, humans, _f, controller = build(
        world, fast_resilience(),
        humans_script=(("late-fix", 2000.0), "fix"))
    link = world.links[0]
    break_and_report(world, controller, link)
    world.sim.run(until=86400.0)

    assert controller.timeout_count >= 1
    assert controller.late_ack_count == 1
    assert controller.late_outcomes[0].completed
    assert len(controller.closed_incidents) == 1


def test_breaker_benches_a_failing_fleet_and_degrades_to_humans(world):
    _m, humans, fleet, controller = build(
        world, fast_resilience(), humans_script=("fix",),
        fleet_script=("fail",),
        level=AutomationLevel.L3_HIGH_AUTOMATION)
    link = world.links[0]
    break_and_report(world, controller, link)
    world.sim.run(until=86400.0)

    assert len(fleet.submitted) == 2           # threshold trips at 2
    assert controller.fleet_breaker.trips == 1
    assert controller.fleet_breaker.state is BreakerState.OPEN
    assert controller.automation_degraded
    assert controller.degraded_dispatches == 1
    assert len(humans.submitted) == 1          # graceful degradation
    assert len(controller.closed_incidents) == 1


def test_needs_human_follow_up_runs_under_the_human_timeout(world):
    _m, humans, fleet, controller = build(
        world, fast_resilience(), humans_script=("fix",),
        fleet_script=("needs_human",),
        level=AutomationLevel.L3_HIGH_AUTOMATION)
    link = world.links[0]
    break_and_report(world, controller, link)
    world.sim.run(until=86400.0)

    assert len(fleet.submitted) == 1
    assert len(humans.submitted) == 1
    incident = controller.closed_incidents[0]
    assert incident.resolved
    assert incident.attempt_count == 2  # robot try + human follow-up


def test_timeout_budget_is_per_executor(world):
    resilience = fast_resilience()
    _m, humans, fleet, controller = build(
        world, resilience, fleet_script=("fix",),
        level=AutomationLevel.L3_HIGH_AUTOMATION)
    assert controller._timeout_for(humans) == 1200.0
    assert controller._timeout_for(fleet) == 600.0


def test_legacy_controller_leaks_a_stuck_order_on_ack_loss(world):
    _m, humans, _f, controller = build(
        world, resilience=None, humans_script=("lost",))
    link = world.links[0]
    break_and_report(world, controller, link)
    world.sim.run(until=5 * 86400.0)

    # The naive loop blocks forever on the lost ack: the claim never
    # releases, the incident never concludes — the failure mode the
    # resilience layer exists to prevent.
    assert len(humans.submitted) == 1
    assert controller.timeout_count == 0
    assert link.id in controller.active_orders
    assert link.id in controller.open_incidents
    assert controller.open_incidents[link.id].in_flight


def test_exhausted_ladder_escalates_to_human_instead_of_looping(world):
    _m, _h, _f, controller = build(world, fast_resilience())
    link = world.links[0]
    now = world.sim.now
    controller.repair_history[link.id] = [
        (now, action) for action in RepairAction]
    break_and_report(world, controller, link)
    world.sim.run(until=HOUR)

    assert len(controller.unresolved_incidents) == 1
    assert controller.unresolved_incidents[0].unresolvable_reason \
        == "escalation ladder exhausted"


def test_ladder_never_regresses_within_one_incident(world):
    _m, humans, _f, controller = build(world, fast_resilience())
    link = world.links[0]
    break_and_report(world, controller, link)
    world.sim.run(until=HOUR)
    incident = controller.closed_incidents[0]

    # Fabricate the long-lived-incident case: its own history holds a
    # high stage, but the escalation window has expired so the ladder
    # would restart at RESEAT.
    incident.attempt_history.append(
        (world.sim.now, RepairAction.REPLACE_CABLE))
    controller.open_incidents[link.id] = incident
    controller.repair_history[link.id] = []
    break_and_report(world, controller, link)
    world.sim.run(until=2 * HOUR)

    assert incident in controller.unresolved_incidents
    assert incident.unresolvable_reason == "escalation ladder exhausted"
    assert len(humans.submitted) == 1  # no second, regressive dispatch
