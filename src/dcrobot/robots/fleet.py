"""The robot fleet: a maintenance executor built from modular units.

"Rather than a small number of large robots ... there will be many small
robotic units that will need to collaborate to achieve network repair
and maintenance tasks" (§1).  A fleet pairs manipulator robots
(Figure 1) with cleaning robots (Figure 2): the manipulator unplugs the
transceiver and feeds the cleaning unit, then reverses the process
(§3.3.2).

Capabilities follow the prototypes: reseat, clean, and spare-transceiver
swap.  Cable laying and switchgear replacement stay human ("Currently,
we are not focusing on the replacement of fibers", §3.3) unless
``advanced_capabilities`` is enabled — the Level-4 future the paper
sketches in §4.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from dcrobot.core.actions import RepairAction, RepairOutcome, WorkOrder
from dcrobot.core.leadership import FencingGuard
from dcrobot.core.repairs import ROBOT_SKILL, RepairPhysics
from dcrobot.failures.cascade import ROBOT_GRIPPER, ContactProfile
from dcrobot.failures.health import HealthModel
from dcrobot.network.inventory import Fabric
from dcrobot.obs import NULL_OBS
from dcrobot.robots.cleaner import CleaningRobot
from dcrobot.robots.health import RobotHealthModel, UnitHealth
from dcrobot.robots.manipulator import ManipulatorRobot
from dcrobot.robots.mobility import MobilityScope
from dcrobot.sim.engine import Simulation
from dcrobot.sim.events import Event
from dcrobot.sim.resources import Store

BASIC_CAPABILITIES = frozenset({
    RepairAction.RESEAT,
    RepairAction.CLEAN,
    RepairAction.REPLACE_TRANSCEIVER,
})

ADVANCED_CAPABILITIES = frozenset(RepairAction)


@dataclasses.dataclass
class FleetConfig:
    """Fleet composition and policy."""

    manipulators: int = 2
    cleaners: int = 1
    scope: MobilityScope = MobilityScope.HALL
    manipulator_speed_m_s: float = 0.5
    cleaner_speed_m_s: float = 0.4
    #: "nearest" picks the closest idle unit; "fifo" the longest-idle.
    allocation: str = "nearest"
    #: Level-4 future: robots lay cables and swap switchgear too.
    advanced_capabilities: bool = False
    replace_cable_seconds: float = 2.0 * 3600
    replace_switchgear_seconds: float = 1.5 * 3600
    #: Home racks for units, round-robin; defaults to spreading across
    #: the hall's rows.
    home_racks: Optional[List[str]] = None

    def __post_init__(self) -> None:
        if self.manipulators < 1:
            raise ValueError("need at least one manipulator")
        if self.cleaners < 0:
            raise ValueError("cleaners must be >= 0")
        if self.allocation not in ("nearest", "fifo"):
            raise ValueError(
                f"allocation must be 'nearest' or 'fifo', "
                f"got {self.allocation!r}")


@dataclasses.dataclass
class Assignment:
    """One submitted order's dispatch state.

    Each (re)dispatch runs under a monotonically increasing *epoch*
    admitted through a per-order :class:`FencingGuard` — the literal
    S14 fencing mechanism, reused at order granularity.  The guard
    admits an epoch's conclusion once.  When the self-healing watchdog
    re-dispatches an orphaned order, the guard advances, and a zombie
    unit's late completion (stale epoch) is refused before it can
    double-conclude the order.
    """

    order: WorkOrder
    done: Event
    guard: FencingGuard
    epoch: int = 1
    #: Unit currently executing (None between loss and re-acquire).
    unit_id: Optional[str] = None
    redispatches: int = 0


class RobotFleet:
    """Maintenance executor backed by collaborating robot units."""

    def __init__(self, sim: Simulation, fabric: Fabric,
                 health: HealthModel, physics: RepairPhysics,
                 config: Optional[FleetConfig] = None,
                 rng: Optional[np.random.Generator] = None,
                 executor_id: str = "robots") -> None:
        self.sim = sim
        self.fabric = fabric
        self.health = health
        self.physics = physics
        self.config = config or FleetConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.executor_id = executor_id
        self.contact: ContactProfile = ROBOT_GRIPPER

        self.manipulators: List[ManipulatorRobot] = []
        self.cleaners: List[CleaningRobot] = []
        self._idle_manipulators = Store(sim)
        self._idle_cleaners = Store(sim)
        self._build_units()

        self.outcomes: List[RepairOutcome] = []
        #: Orders rejected because no unit's scope covers the target.
        self.unreachable_orders: List[WorkOrder] = []
        #: Leadership fencing guard (set by the world builder when
        #: failover is enabled); orders with stale tokens are refused.
        self.fence = None
        #: Orders refused for carrying a stale fencing token.
        self.rejected_orders: List[WorkOrder] = []
        #: order id -> completion event: the fleet's work-order queue is
        #: ground truth that survives a controller crash, so a recovered
        #: controller can re-attach to in-flight orders instead of
        #: dispatching the repair a second time.
        self.pending_acks: Dict[int, Event] = {}
        #: Mid-operation fault planner (set by the chaos engine).
        self.chaos = None
        #: link id -> number of operations physically touching it now
        #: (the safety monitor's "who is at the rack" ground truth).
        self.busy_links: Dict[str, int] = {}

        # -- robot health / self-healing (attach_health wires these) ----
        #: Per-robot health model; None keeps every unit in service.
        self.robot_health: Optional[RobotHealthModel] = None
        #: unit id -> health record (the model's table; empty, so every
        #: unit is in service, until ``attach_health``).
        self.records: Dict[str, UnitHealth] = {}
        #: In-service fraction below which the fleet takes no new work.
        self.quorum_fraction = 0.0
        #: Telemetry monitor receiving unit heartbeats.
        self.monitor = None
        self.obs = NULL_OBS
        #: Human escalation hook: ``rescue(unit_id, rack_id) -> Event``.
        self.rescue = None
        #: order id -> Assignment (fenced dispatch state per order).
        self.assignments: Dict[int, Assignment] = {}
        #: Spare robot modules for robot-repairs-robot work orders.
        self.spares_left = 0
        self.deaths = 0
        self.heartbeat_losses = 0
        self.redispatch_count = 0
        self.quarantine_count = 0
        #: Late completions refused by a per-order fencing guard.
        self.zombie_refusals = 0
        #: Tripwire: a late completion that *was* accepted after the
        #: order had already concluded.  Must stay zero — a non-zero
        #: value is a fencing violation.
        self.zombie_acks_accepted = 0
        self.repairs_done = 0
        self.human_rescues = 0
        #: Orders concluded needs-human because the fleet fell below
        #: quorum (or lost coverage) mid-incident.
        self.quorum_escalations = 0

    def _default_homes(self, count: int) -> List[str]:
        """Spread units across rows (one per row, round-robin)."""
        layout = self.fabric.layout
        homes = []
        for index in range(count):
            row = index % layout.rows
            homes.append(layout.rack_at(row, 0).id)
        return homes

    def _build_units(self) -> None:
        config = self.config
        homes = config.home_racks or self._default_homes(
            config.manipulators + config.cleaners)
        cursor = 0
        for index in range(config.manipulators):
            robot = ManipulatorRobot(
                self.sim, self.fabric, f"{self.executor_id}-manip-{index}",
                homes[cursor % len(homes)], scope=config.scope,
                speed_m_s=config.manipulator_speed_m_s,
                rng=np.random.default_rng(self.rng.integers(2 ** 31)))
            cursor += 1
            self.manipulators.append(robot)
            self._idle_manipulators.put(robot)
        for index in range(config.cleaners):
            robot = CleaningRobot(
                self.sim, self.fabric, f"{self.executor_id}-clean-{index}",
                homes[cursor % len(homes)], scope=config.scope,
                speed_m_s=config.cleaner_speed_m_s,
                rng=np.random.default_rng(self.rng.integers(2 ** 31)))
            cursor += 1
            self.cleaners.append(robot)
            self._idle_cleaners.put(robot)

    def __repr__(self) -> str:
        return (f"<RobotFleet manipulators={len(self.manipulators)} "
                f"cleaners={len(self.cleaners)} "
                f"done={len(self.outcomes)}>")

    # -- executor interface -----------------------------------------------------

    @property
    def capabilities(self) -> frozenset:
        if self.config.advanced_capabilities:
            return ADVANCED_CAPABILITIES
        caps = set(BASIC_CAPABILITIES)
        if not self.cleaners:
            caps.discard(RepairAction.CLEAN)
        return frozenset(caps)

    def can_execute(self, action: RepairAction) -> bool:
        return action in self.capabilities

    def _service_manipulators(self) -> List[ManipulatorRobot]:
        """Manipulators fit for dispatch: those without a record or
        whose record is in service."""
        records = self.records
        return [robot for robot in self.manipulators
                if robot.id not in records
                or records[robot.id].in_service]

    def covers(self, rack_id: str) -> bool:
        """Whether any in-service manipulator's scope includes the rack.

        With a health model attached, dead/lost/quarantined units drop
        out — coverage physically shrinks as the fleet degrades.
        """
        return any(robot.can_reach(rack_id)
                   for robot in self._service_manipulators())

    def healthy_fraction(self) -> float:
        """In-service fraction of the manipulator fleet (1.0 when no
        health model is attached)."""
        return len(self._service_manipulators()) / len(self.manipulators)

    def operational(self) -> bool:
        """Whether the fleet should take new work at all.

        Below quorum the controller falls back to humans (graceful
        degradation) instead of queueing orders on a dying fleet.
        """
        if not self._service_manipulators():
            return False
        return self.healthy_fraction() >= self.quorum_fraction

    def announce_touches(self, order: WorkOrder) -> List[str]:
        """Pre-maintenance contact announcement (§2)."""
        link = self.fabric.links[order.link_id]
        return self.physics.cascade.predict_touched(link, self.contact)

    def submit(self, order: WorkOrder) -> Event:
        """Queue an order; event fires with the RepairOutcome."""
        done = self.sim.event()
        if self.fence is not None and not self.fence.admit(
                order.fencing_token, time=self.sim.now,
                order_id=order.order_id, link_id=order.link_id):
            # Split-brain protection: this order was dispatched by a
            # deposed primary.  Refuse before any robot moves.
            self.rejected_orders.append(order)
            done.succeed(RepairOutcome(
                order=order, executor_id=self.executor_id,
                started_at=self.sim.now, finished_at=self.sim.now,
                completed=False, rejected=True,
                notes="stale fencing token: dispatching primary deposed"))
            return done
        self.pending_acks[order.order_id] = done
        # Fenced dispatch: each (re)dispatch of this order runs under an
        # epoch admitted through a per-order guard.
        self.assignments[order.order_id] = Assignment(
            order=order, done=done, guard=FencingGuard(obs=self.obs))
        self.sim.process(self._execute(order, done, epoch=1))
        return done

    def _depot_rack_id(self) -> str:
        """The spares depot: the hall's first rack by convention."""
        return self.fabric.layout.rack_at(0, 0).id

    def acquire_manipulator(self, rack_id: str):
        """Generator: claim an idle manipulator that can reach the rack.

        Public hook for non-repair choreographies (e.g. robotic
        rewiring); pair with :meth:`release_manipulator`.
        """
        robot = yield from self._acquire(self._idle_manipulators,
                                         rack_id)
        return robot

    def release_manipulator(self, robot) -> None:
        """Return a manipulator claimed via acquire_manipulator."""
        self._idle_manipulators.put(robot)

    # -- robot health, heartbeats, and self-healing ------------------------------

    def attach_health(self, model: RobotHealthModel, monitor=None,
                      obs=None) -> None:
        """Wire the per-robot health model (and start its processes).

        Every unit is registered and starts heartbeating into the
        telemetry ``monitor``; with ``self_healing`` enabled the
        watchdog detects stale units, re-dispatches their orphaned
        orders under an advanced fencing epoch, quarantines flaky
        units, and schedules robot-repairs-robot (or human rescue)
        recovery.
        """
        self.robot_health = model
        self.records = model.records
        self.quorum_fraction = model.params.quorum_fraction
        self.monitor = monitor
        if obs is not None:
            self.obs = obs
        self.spares_left = model.params.robot_spares
        for unit in self.manipulators + self.cleaners:
            model.register(unit)
            if monitor is not None:
                monitor.record_heartbeat(unit.id, self.sim.now)
        if monitor is not None:
            self.sim.process(self._heartbeat_loop())
            if model.params.self_healing:
                self.sim.process(self._watchdog_loop())

    def _unit_by_id(self, unit_id: str):
        for unit in self.manipulators + self.cleaners:
            if unit.id == unit_id:
                return unit
        return None

    def _record_for(self, unit) -> Optional[UnitHealth]:
        return self.records.get(unit.id)

    def _heartbeat_loop(self):
        """Generator: units report liveness into the telemetry monitor.

        Dead units simply stop appearing here — their absence, not any
        self-report, is what the watchdog detects.
        """
        sim = self.sim
        interval = self.robot_health.params.heartbeat_seconds
        while True:
            now = sim.now
            for record in self.robot_health.records.values():
                if record.beating(now):
                    self.monitor.record_heartbeat(record.unit_id, now)
            if self.obs.enabled:
                self.obs.gauge("dcrobot_fleet_healthy_fraction",
                               self.healthy_fraction())
                for record in self.robot_health.records.values():
                    self.obs.gauge("dcrobot_robot_wear", record.wear,
                                   unit=record.unit_id)
                    self.obs.gauge("dcrobot_robot_battery",
                                   record.battery,
                                   unit=record.unit_id)
            yield sim.timeout(interval)

    def _watchdog_loop(self):
        """Generator: detect lost units from heartbeat silence, then
        re-dispatch their orders and schedule recovery."""
        sim = self.sim
        params = self.robot_health.params
        interval = params.heartbeat_seconds
        timeout = params.heartbeat_timeout_seconds
        while True:
            yield sim.timeout(interval)
            now = sim.now
            stale = (set(self.monitor.stale_sources(now, timeout))
                     if self.monitor is not None else set())
            for unit_id in sorted(self.robot_health.records):
                record = self.robot_health.records[unit_id]
                if (unit_id in stale and not record.lost
                        and not record.quarantined):
                    # Silence is the only signal: the unit may be dead,
                    # wedged, or a zombie still working — either way it
                    # no longer owns its order.
                    record.lost = True
                    self.heartbeat_losses += 1
                    if self.obs.enabled:
                        self.obs.count(
                            "dcrobot_robot_heartbeat_losses_total",
                            unit=unit_id)
                    assignment = self._assignment_of(unit_id)
                    if assignment is not None:
                        self._redispatch(assignment)
                # Recovery starts only once the loss has been *detected*
                # (a dead unit looks identical to a healthy one until its
                # heartbeats go stale), so the orphaned order is always
                # re-dispatched before a rescue can revive the unit and
                # let its heartbeats resume.
                if (((record.lost and not record.alive)
                        or record.quarantined)
                        and not record.recovery_started):
                    record.recovery_started = True
                    sim.process(self._recover(record))

    def _assignment_of(self, unit_id: str) -> Optional[Assignment]:
        for order_id in sorted(self.assignments):
            assignment = self.assignments[order_id]
            if (assignment.unit_id == unit_id
                    and not assignment.done.triggered):
                return assignment
        return None

    def _redispatch(self, assignment: Assignment) -> None:
        """Fenced re-dispatch of an orphaned order to a healthy unit.

        Advances the order's fencing epoch *first*, so the previous
        owner's late completion is refused even if it arrives before
        the replacement finishes.  Idempotent: a concluded order is
        left alone.
        """
        if assignment.done.triggered:
            return
        order = assignment.order
        assignment.epoch += 1
        assignment.redispatches += 1
        assignment.unit_id = None
        assignment.guard.advance(assignment.epoch)
        self.redispatch_count += 1
        if self.obs.enabled:
            self.obs.count("dcrobot_robot_redispatches_total")
        link = self.fabric.links[order.link_id]
        rack_id = self.manipulators[0].rack_of_link(link)
        in_service = self._service_manipulators()
        reachable = any(robot.can_reach(rack_id)
                        for robot in in_service)
        if not reachable or self.healthy_fraction() < self.quorum_fraction:
            # Graceful degradation: too few healthy units (or none in
            # range) — conclude needs-human under the new epoch so the
            # controller escalates instead of waiting forever.
            self.quorum_escalations += 1
            if self.obs.enabled:
                self.obs.count("dcrobot_robot_quorum_escalations_total")
            self._finish(order, assignment.done, RepairOutcome(
                order=order, executor_id=self.executor_id,
                started_at=self.sim.now, finished_at=self.sim.now,
                completed=False, needs_human=True,
                notes="fleet degraded below quorum; escalating"),
                assignment.epoch)
            return
        self.sim.process(self._execute(order, assignment.done,
                                       epoch=assignment.epoch))

    def _quarantine(self, record: UnitHealth) -> None:
        """Bench a flaky or returned-zombie unit (kept out of the idle
        stores until repaired)."""
        record.quarantined = True
        record.lost = False
        self.quarantine_count += 1
        if self.obs.enabled:
            self.obs.count("dcrobot_robot_quarantines_total",
                           unit=record.unit_id)

    def _recover(self, record: UnitHealth):
        """Generator: bring a dead or quarantined unit back.

        Preferred path is robot-repairs-robot: a healthy peer travels
        to the unit with a spare module.  Out of spares (or peers), the
        fleet escalates to the human rescue hook; with neither, the
        unit stays down and the fleet is permanently smaller.
        """
        sim = self.sim
        params = self.robot_health.params
        unit = self._unit_by_id(record.unit_id)
        if record.holding_link_id is not None:
            link = self.fabric.links[record.holding_link_id]
            rack_id = self.manipulators[0].rack_of_link(link)
        else:
            rack_id = unit.mobility.current_rack_id
        helpers = [robot for robot in self._service_manipulators()
                   if robot.id != record.unit_id
                   and robot.can_reach(rack_id)]
        if (params.self_healing and self.spares_left > 0 and helpers):
            helper = yield from self._acquire(self._idle_manipulators,
                                              rack_id)
            yield from helper.travel_to(rack_id)
            yield from helper.work(params.robot_repair_seconds)
            self.spares_left -= 1
            self.repairs_done += 1
            if self.obs.enabled:
                self.obs.count("dcrobot_robot_repairs_total",
                               unit=record.unit_id)
            self._idle_manipulators.put(helper)
        elif self.rescue is not None:
            self.human_rescues += 1
            if self.obs.enabled:
                self.obs.count("dcrobot_robot_human_rescues_total",
                               unit=record.unit_id)
            yield self.rescue(record.unit_id, rack_id)
        else:
            return  # no spares, no humans: the unit stays down
        self._revive(record, unit)

    def _revive(self, record: UnitHealth, unit) -> None:
        """Return a repaired unit to service (fresh module, full pack)."""
        record.alive = True
        record.lost = False
        record.quarantined = False
        record.battery = 1.0
        record.wear = 0.0
        record.fault_times.clear()
        record.suppress_until = float("-inf")
        record.died_at = None
        record.death_cause = None
        record.recovery_started = False
        if record.holding_link_id is not None:
            # The carcass (and its tools) leave the rack.
            self._release_touch(record.holding_link_id)
            record.holding_link_id = None
        if self.monitor is not None:
            self.monitor.record_heartbeat(record.unit_id, self.sim.now)
        store = (self._idle_cleaners
                 if isinstance(unit, CleaningRobot)
                 else self._idle_manipulators)
        store.put(unit)

    def _release_touch(self, link_id: str) -> None:
        remaining = self.busy_links.get(link_id, 0) - 1
        if remaining <= 0:
            self.busy_links.pop(link_id, None)
        else:
            self.busy_links[link_id] = remaining

    # -- fleet internals -----------------------------------------------------------

    def _acquire(self, store: Store, rack_id: str):
        """Generator: claim an idle unit able to reach ``rack_id``."""
        if self.config.allocation == "nearest":
            layout = self.fabric.layout
            target = layout.racks[rack_id].position
            candidates = [robot for robot in store.items
                          if robot.can_reach(rack_id)]
            if candidates:
                best = min(candidates, key=lambda robot:
                           layout.travel_distance(
                               layout.racks[robot.mobility.current_rack_id]
                               .position, target))
                robot = yield store.get(lambda item: item is best)
                return robot
        robot = yield store.get(lambda item: item.can_reach(rack_id))
        return robot

    def _fail(self, order: WorkOrder, done: Event, note: str,
              epoch: int) -> None:
        outcome = RepairOutcome(
            order=order, executor_id=self.executor_id,
            started_at=self.sim.now, finished_at=self.sim.now,
            completed=False, needs_human=True, notes=note)
        self._finish(order, done, outcome, epoch)

    def _finish(self, order: WorkOrder, done: Event,
                outcome: RepairOutcome, epoch: int) -> bool:
        """Conclude an order through its fencing guard.

        A stale epoch (the order was re-dispatched while this unit was
        lost, or this epoch already concluded) is refused: the outcome
        is dropped and the ``done`` event left to the replacement.
        Returns whether the conclusion was accepted.
        """
        guard = self.assignments[order.order_id].guard
        if not guard.admit(epoch, time=self.sim.now,
                           order_id=order.order_id,
                           link_id=order.link_id):
            self.zombie_refusals += 1
            if self.obs.enabled:
                self.obs.count("dcrobot_robot_zombie_refusals_total")
            return False
        if done.triggered:
            # Fencing violation tripwire: the guard admitted a second
            # conclusion.  Count it (must stay zero) and do not raise
            # through Event.succeed.
            self.zombie_acks_accepted += 1
            return False
        self.outcomes.append(outcome)
        # Retire the epoch: conclusion is at-most-once, so even a
        # same-epoch duplicate is now refused as stale instead of
        # reaching the tripwire above.
        guard.advance(epoch + 1)
        done.succeed(outcome)
        return True

    def _superseded(self, order: WorkOrder, epoch: int) -> bool:
        """Whether this execution's epoch has been fenced out."""
        return self.assignments[order.order_id].epoch != epoch

    def _execute(self, order: WorkOrder, done: Event, epoch: int):
        sim = self.sim
        link = self.fabric.links[order.link_id]
        if not self.can_execute(order.action):
            self._fail(order, done,
                       f"fleet cannot perform {order.action.value}",
                       epoch=epoch)
            return
        rack_id = self.manipulators[0].rack_of_link(link)
        if not self.covers(rack_id):
            self.unreachable_orders.append(order)
            self._fail(order, done, f"no unit covers rack {rack_id}",
                       epoch=epoch)
            return

        manipulator = yield from self._acquire(
            self._idle_manipulators, rack_id)
        cleaner = None
        if order.action is RepairAction.CLEAN:
            cleaner = yield from self._acquire(self._idle_cleaners,
                                               rack_id)
        record = self._record_for(manipulator)
        assignment = self.assignments[order.order_id]
        if assignment.epoch == epoch:
            assignment.unit_id = manipulator.id
        plan = (self.chaos.plan_for(order, sim.now)
                if self.chaos is not None else None)
        #: (cause, seconds of rack work before dying), or None.
        death = None
        zombie = (plan is not None and plan.zombie
                  and record is not None)
        if record is not None:
            hazard = self.robot_health.plan_order(record)
            if plan is not None and plan.die:
                death = ("chaos", plan.die_after_seconds)
            elif plan is not None and plan.battery_lie:
                # The gauge lies high: the recharge check is skipped
                # and the unit dies when the true charge runs out.
                record.battery = plan.battery_lie_charge
                death = ("battery", plan.battery_lie_charge
                         * self.robot_health.params
                         .battery_capacity_seconds)
            elif hazard.dies:
                death = ("wear", hazard.after_seconds)
            if zombie and death is not None:
                zombie = False  # a dead unit does not report late
            if ((death is None or death[0] != "battery")
                    and self.robot_health.needs_charge(record)):
                yield from manipulator.work(
                    self.robot_health.params.recharge_seconds)
                self.robot_health.recharge(record)
        touching = False
        holding = False
        died = False
        try:
            started = sim.now
            travels = [sim.process(manipulator.travel_to(rack_id))]
            if cleaner is not None:
                travels.append(sim.process(cleaner.travel_to(rack_id)))
            yield sim.all_of(travels)
            if record is not None:
                self.robot_health.drain(record, sim.now - started)

            self.busy_links[link.id] = self.busy_links.get(link.id, 0) + 1
            touching = True
            rack_work_started = sim.now
            self.health.begin_maintenance(link, sim.now)
            holding = True
            touch = self.physics.reach_in(link, self.contact, sim.now)
            if death is not None:
                # The unit dies mid-order: no report, no release — the
                # link stays in maintenance with the carcass at the
                # rack until the watchdog notices the silence and a
                # replacement (or human) takes over.
                cause, after_seconds = death
                if after_seconds > 0:
                    yield from manipulator.work(after_seconds)
                died = True
                self._die(record, link, cause)
                return
            if plan is not None and plan.stall_seconds > 0:
                # The unit wedges mid-operation; it eventually recovers
                # and continues, but the ack is this much later.
                if record is not None:
                    self.robot_health.record_fault(record, sim.now)
                yield from manipulator.work(plan.stall_seconds)
            if zombie:
                # The unit goes dark but keeps working: heartbeats
                # stop (the watchdog will declare it lost) while the
                # operation silently drags on toward a late report.
                record.suppress_until = sim.now + plan.zombie_seconds
                self.robot_health.record_fault(record, sim.now)
                yield from manipulator.work(plan.zombie_seconds)
            if plan is not None and plan.crash and not zombie:
                # Aborted mid-operation: give the link back untouched,
                # sit out the recovery, then report failure upward.
                if record is not None:
                    self.robot_health.record_fault(record, sim.now)
                if not self._superseded(order, epoch):
                    self.health.release_from_maintenance(link, sim.now)
                    holding = False
                if plan.crash_recovery_seconds > 0:
                    yield from manipulator.work(
                        plan.crash_recovery_seconds)
                outcome = RepairOutcome(
                    order=order, executor_id=self.executor_id,
                    started_at=started, finished_at=sim.now,
                    completed=False, needs_human=True,
                    notes="robot crashed mid-operation",
                    secondary_disturbed=len(touch.disturbed_links),
                    secondary_damaged=len(touch.damaged_links))
                self._finish(order, done, outcome, epoch)
                return
            if self._superseded(order, epoch):
                # A replacement owns this order now (the watchdog
                # declared this unit lost while it was dark): walk away
                # without touching the link further; the per-order
                # guard formally refuses the late ack.
                outcome = RepairOutcome(
                    order=order, executor_id=self.executor_id,
                    started_at=started, finished_at=sim.now,
                    completed=False,
                    notes="late completion fenced (stale epoch)")
                self._finish(order, done, outcome, epoch)
                return
            completed, needs_human, notes = yield from self._perform(
                order, link, manipulator, cleaner)
            if plan is not None and plan.partial and completed:
                # The repair only half-landed; the robot does not know
                # and still reports success.
                self.chaos.apply_partial(link, sim.now)
            self.health.release_from_maintenance(link, sim.now)
            holding = False
            if record is not None:
                self.robot_health.drain(record,
                                        sim.now - rack_work_started)
                self.robot_health.record_operation(record)

            outcome = RepairOutcome(
                order=order, executor_id=self.executor_id,
                started_at=started, finished_at=sim.now,
                completed=completed, needs_human=needs_human,
                notes=notes,
                secondary_disturbed=len(touch.disturbed_links),
                secondary_damaged=len(touch.damaged_links))
            self._finish(order, done, outcome, epoch)
        finally:
            if touching and not died:
                self._release_touch(link.id)
            if holding and not died \
                    and not self._superseded(order, epoch):
                # An exception escaping the choreography above must not
                # leave the link stuck in maintenance forever.
                self.health.release_from_maintenance(link, sim.now)
            if not died:
                self._return_unit(manipulator, self._idle_manipulators)
            if cleaner is not None:
                self._return_unit(cleaner, self._idle_cleaners)

    def _die(self, record: UnitHealth, link, cause: str) -> None:
        """Mark a unit dead mid-order (its busy-links touch is kept:
        the carcass is physically at the rack until recovered)."""
        record.alive = False
        record.died_at = self.sim.now
        record.death_cause = cause
        record.holding_link_id = link.id
        self.deaths += 1
        if self.obs.enabled:
            self.obs.count("dcrobot_robot_deaths_total",
                           unit=record.unit_id, cause=cause)

    def _return_unit(self, unit, store: Store) -> None:
        """Restock a unit after an order — unless self-healing policy
        benches it (declared lost while out, or flaky)."""
        record = self._record_for(unit)
        if record is None:
            store.put(unit)
            return
        if self.robot_health.params.self_healing and (
                record.lost
                or self.robot_health.is_flaky(record, self.sim.now)):
            self._quarantine(record)
            return
        store.put(unit)

    def _perform(self, order: WorkOrder, link, manipulator, cleaner):
        """Generator: run the action's robot choreography.

        Returns (completed, needs_human, notes).
        """
        action = order.action
        if action is RepairAction.RESEAT:
            ok, note = yield from manipulator.reseat(link)
            return ok, not ok, note

        if action is RepairAction.CLEAN:
            notes = []
            for side in ("a", "b"):
                extracted = yield from manipulator.extract(link, side)
                if not extracted:
                    notes.append(f"extraction failed on side {side}")
                    return False, True, "; ".join(notes)
                verified, note = yield from cleaner.clean_cycle(link, side)
                yield from manipulator.reinsert(link, side)
                notes.append(note)
                if not verified:
                    # §3.3.2: the robot requests human support.
                    return False, True, "; ".join(notes)
            return True, False, "; ".join(notes)

        if action is RepairAction.REPLACE_TRANSCEIVER:
            # Spares ride in the manipulator's magazine; an empty one
            # costs a depot round trip before the swap can happen.
            yield from manipulator.ensure_spare(self._depot_rack_id())
            side = self.physics.pick_suspect_side(link)
            extracted = yield from manipulator.extract(link, side)
            if not extracted:
                return False, True, f"extraction failed on side {side}"
            ok, note = self.physics.do_replace_transceiver(
                link, self.sim.now)
            if ok:
                manipulator.consume_spare()
            yield from manipulator.work(
                manipulator.params.swap_spare_seconds)
            # On success the spare goes in; with no spare in stock the
            # old unit is put back so the link is not left disconnected.
            yield from manipulator.reinsert(link, side)
            if not ok:
                return False, False, note  # out of spares, not a skill gap
            return True, False, note

        # Advanced (Level 4) actions run through shared physics with
        # fleet-level durations.
        seconds = (self.config.replace_cable_seconds
                   if action is RepairAction.REPLACE_CABLE
                   else self.config.replace_switchgear_seconds)
        yield from manipulator.work(seconds)
        ok, note = self.physics.perform(action, link, self.sim.now,
                                        ROBOT_SKILL)
        return ok, False, note
