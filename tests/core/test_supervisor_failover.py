"""ControllerSupervisor end-to-end: restart recovery, standby
takeover with fencing, and the journal-less coldstart baseline —
driven through scripted executors that expose the real executors'
recovery surface (fencing guard + surviving work-order queue) — plus
one whole world in which a deposed primary tries to drain traffic."""

import numpy as np

from dcrobot.chaos.config import ChaosConfig
from dcrobot.core import (
    AutomationLevel,
    ControllerConfig,
    MaintenanceController,
    ReactivePolicy,
)
from dcrobot.core.actions import RepairOutcome
from dcrobot.core.impact import ImpactConfig
from dcrobot.core.journal import WriteAheadJournal
from dcrobot.core.leadership import (
    FencingGuard,
    LeaseConfig,
    LeaseCoordinator,
)
from dcrobot.core.recovery import ControllerSupervisor
from dcrobot.core.resilience import ResilienceConfig
from dcrobot.experiments.e17_twin_planning import TWIN
from dcrobot.experiments.runner import WorldConfig, build_world
from dcrobot.robots.health import RobotHealthParams
from dcrobot.telemetry import TelemetryMonitor
from dcrobot.telemetry.detectors import DetectorParams

from tests.conftest import start_sweeps
from tests.core.test_controller_resilience import (
    ScriptedExecutor,
    fast_resilience,
)


def _at(sim, when, action):
    """Generator: run ``action`` at absolute sim time ``when``."""
    yield sim.timeout(when)
    action()


class RecoverableScriptedExecutor(ScriptedExecutor):
    """Scripted executor with the recovery surface of the real ones:
    a fencing guard and a ``pending_acks`` work-order queue that
    survives the controller object's death."""

    def __init__(self, sim, world, executor_id, script=("fix",)):
        super().__init__(sim, world, executor_id, script)
        self.fence = None
        self.pending_acks = {}
        self.rejected_orders = []

    def submit(self, order):
        if self.fence is not None and not self.fence.admit(
                order.fencing_token, time=self.sim.now,
                order_id=order.order_id, link_id=order.link_id):
            self.rejected_orders.append(order)
            done = self.sim.event()
            done.succeed(RepairOutcome(
                order=order, executor_id=self.executor_id,
                started_at=self.sim.now, finished_at=self.sim.now,
                completed=False, rejected=True,
                notes="stale fencing token"))
            return done
        done = super().submit(order)
        self.pending_acks[order.order_id] = done
        return done


def build_recoverable(world, *, journal=None, leadership=False,
                      script=("fix",)):
    """A supervised stub world: monitor polling for real, one human
    executor, and a factory the supervisor uses to build successors."""
    monitor = TelemetryMonitor(
        world.fabric, params=DetectorParams(down_grace_seconds=60.0),
        poll_seconds=60.0)
    humans = RecoverableScriptedExecutor(
        world.sim, world, "stub-humans", script)
    coordinator = None
    if leadership:
        coordinator = LeaseCoordinator(LeaseConfig(), journal)
        humans.fence = FencingGuard()

    def factory(node_id):
        return MaintenanceController(
            world.sim, world.fabric, world.health, monitor,
            ReactivePolicy(world.fabric),
            level=AutomationLevel.L0_NO_AUTOMATION,
            humans=humans,
            config=ControllerConfig(verification_delay_seconds=60.0,
                                    resilience=fast_resilience()),
            rng=np.random.default_rng(2),
            journal=journal, node_id=node_id)

    supervisor = ControllerSupervisor(
        world.sim, factory("primary"), factory,
        coordinator=coordinator, journal=journal)
    supervisor.start()
    supervisor.controller.start()
    start_sweeps(world.sim, monitor=monitor)
    return monitor, humans, supervisor


def break_link(world, link):
    link.transceiver_a.firmware_stuck = True
    world.health.evaluate_link(link, world.sim.now)


def test_restart_mid_flight_adopts_without_redispatch(world):
    journal = WriteAheadJournal()
    _m, humans, supervisor = build_recoverable(world, journal=journal)
    break_link(world, world.links[0])
    # Detection at the t=60 scan dispatches immediately; the scripted
    # ack lands at t=120.  Restart dead-centre in that window.
    world.sim.process(_at(world.sim, 90.0,
                          lambda: supervisor.restart_primary("test")))
    world.sim.run(until=4000.0)

    successor = supervisor.controller
    assert supervisor.crashes == 1
    assert supervisor.recoveries == 1
    assert supervisor.adopted_order_count == 1
    assert len(humans.submitted) == 1  # adopted, never re-dispatched
    assert successor.recovered_incident_count == 1
    assert len(successor.closed_incidents) == 1
    assert successor.closed_incidents[0].resolved
    assert successor.active_orders == {}


def test_restart_during_backoff_resumes_the_incident(world):
    journal = WriteAheadJournal()
    _m, humans, supervisor = build_recoverable(
        world, journal=journal, script=("lost", "fix"))
    link = world.links[0]
    break_link(world, link)
    # Dispatch at t=60, the ack is lost, the human-order timeout fires
    # at t=1260 and schedules a 120s-backoff retry for t=1380.  The
    # crash at t=1320 lands in the backoff window: incident open,
    # nothing in flight, retry timer dead with its controller.
    world.sim.process(_at(world.sim, 1320.0,
                          lambda: supervisor.restart_primary("test")))
    world.sim.run(until=8000.0)

    successor = supervisor.controller
    assert supervisor.adopted_order_count == 0
    assert successor.recovered_incident_count == 1
    assert successor.timeout_count == 1  # the counter survived
    # Recovery re-verified the link, re-armed telemetry, and the
    # re-detection drove the second (scripted "fix") dispatch.
    assert len(humans.submitted) == 2
    assert len(successor.closed_incidents) == 1
    assert successor.closed_incidents[0].resolved
    assert successor.active_orders == {}


def test_partition_promotes_standby_and_fences_the_zombie(world):
    journal = WriteAheadJournal()
    _m, humans, supervisor = build_recoverable(
        world, journal=journal, leadership=True)
    zombie = supervisor.controller
    assert zombie.fencing_token == 1
    # Cut the primary off from the lock service.  It keeps running and
    # stays subscribed to telemetry, but its lease silently expires and
    # the watchdog promotes a standby with a fresh fencing token.
    world.sim.process(_at(world.sim, 1000.0,
                          lambda: supervisor.partition_primary(7200.0)))
    # Break a link after the takeover: both controllers see the
    # detection and both dispatch — the classic split-brain moment.
    world.sim.process(_at(
        world.sim, 2400.0,
        lambda: break_link(world, world.links[0])))
    world.sim.run(until=9000.0)

    successor = supervisor.controller
    assert successor is not zombie
    assert successor.node_id.startswith("standby-")
    assert supervisor.failovers == 1
    assert successor.fencing_token == 2
    # The zombie's dispatch was refused at the executor and it
    # self-fenced; only the successor's order ran physically.
    assert len(humans.rejected_orders) == 1
    assert humans.rejected_orders[0].fencing_token == 1
    assert zombie.crashed
    assert "fenced" in zombie.crash_reason
    assert len(humans.submitted) == 1  # zero double-dispatch
    assert humans.submitted[0].fencing_token == 2
    assert len(successor.closed_incidents) == 1


def test_coldstart_without_journal_loses_the_muted_link(world):
    monitor, humans, supervisor = build_recoverable(
        world, script=("lost",))
    link = world.links[0]
    break_link(world, link)
    world.sim.process(_at(world.sim, 90.0,
                          lambda: supervisor.restart_primary("test")))
    world.sim.run(until=2 * 86400.0)

    successor = supervisor.controller
    assert supervisor.failovers == 1
    assert supervisor.recoveries == 0  # no journal: nothing to replay
    assert successor.recovered_incident_count == 0
    # The predecessor muted the link at detection; the journal-less
    # successor has no record it exists.  Detection never re-fires, no
    # order is ever re-dispatched: the repair is silently lost — the
    # E14 coldstart baseline's failure mode.
    assert len(humans.submitted) == 1
    assert successor.open_incidents == {}
    assert successor.closed_incidents == []
    assert monitor.is_muted(link.id, world.sim.now)


def test_a_deposed_primary_drains_no_traffic():
    """Every subsystem on, seed 1: ``standby-2``'s promotion deposes
    ``standby-1``, which still reaches ``scheduler.before_repair`` for
    ``link-00000`` at t=273,900 before the executor's guard refuses its
    order.  The scheduler's own guard refuses it first, so nothing is
    drained and no drain outlives its order.  (Order ids are
    process-global, so the refusal is matched on time and link.)"""
    config = WorldConfig(
        horizon_days=4.0, seed=1, failure_scale=4.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION, policy="proactive",
        chaos=ChaosConfig.moderate(), controller_chaos=True,
        journal=True, leadership=True, safety=True,
        mute_ttl_seconds=2.0 * 86400.0,
        controller_config=ControllerConfig(resilience=ResilienceConfig()),
        robot_health=RobotHealthParams(self_healing=True),
        traffic=True, traffic_max_equal_paths=4,
        impact=ImpactConfig(), twin_planner=TWIN)
    result = build_world(config)
    result.sim.run(until=config.horizon_seconds)

    assert result.supervisor.failovers > 1
    assert result.safety.violations == []
    refused = [(rejection.time, rejection.link_id) for rejection
               in result.controller.scheduler.fence.rejections]
    assert (273900.0, "link-00000") in refused
