"""The shared experiment engine: build a world, run it, measure it.

Every closed-loop experiment (E1, E4–E7, E11, E12) assembles the same
stack — topology, environment, health, dust, injector, telemetry,
executors, controller — varying only the configuration.  This module
owns that assembly so experiments stay declarative.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Optional

import numpy as np

from dcrobot.chaos.config import ChaosConfig
from dcrobot.chaos.engine import ChaosEngine
from dcrobot.chaos.safety import SafetyMonitor
from dcrobot.core.actions import RepairAction
from dcrobot.core.automation import AutomationLevel, spec_for
from dcrobot.core.controller import ControllerConfig, MaintenanceController
from dcrobot.core.escalation import EscalationConfig, EscalationLadder
from dcrobot.core.journal import WriteAheadJournal
from dcrobot.core.leadership import FencingGuard, LeaseCoordinator
from dcrobot.core.recovery import ControllerSupervisor
from dcrobot.core.policy import (
    NullPolicy,
    ProactivePolicy,
    ReactivePolicy,
)
from dcrobot.core.impact import CongestionGate, ImpactConfig
from dcrobot.core.planner import TwinPlanner, TwinPlannerConfig
from dcrobot.core.repairs import (
    ASSISTED_TECHNICIAN_SKILL,
    RepairPhysics,
)
from dcrobot.core.scheduler import ImpactAwareScheduler
from dcrobot.failures.cascade import CascadeModel
from dcrobot.failures.aging import OxidationAging
from dcrobot.failures.dust import DustProcess
from dcrobot.failures.environment import Environment
from dcrobot.failures.health import HealthModel, HealthParams
from dcrobot.failures.injector import FailureRates, FaultInjector
from dcrobot.humans.workforce import TechnicianParams, TechnicianPool
from dcrobot.metrics.amplification import (
    AmplificationStats,
    amplification_from_outcomes,
)
from dcrobot.metrics.availability import (
    AvailabilitySummary,
    link_availability,
)
from dcrobot.metrics.cost import CostBreakdown, CostModel
from dcrobot.metrics.mttr import (
    RepairTimeStats,
    repair_time_stats,
)
from dcrobot.network.enums import FormFactor
from dcrobot.obs import NULL_OBS, observability_for_seed
from dcrobot.obs.export import metrics_snapshot
from dcrobot.robots.fleet import FleetConfig, RobotFleet
from dcrobot.robots.health import RobotHealthModel, RobotHealthParams
from dcrobot.sim.batch import BatchTicker
from dcrobot.sim.engine import Simulation
from dcrobot.sim.rng import RandomStreams
from dcrobot.telemetry.monitor import TelemetryMonitor
from dcrobot.topology.base import SwitchRole, Topology
from dcrobot.topology.fattree import build_fattree
from dcrobot.topology.smi import SmiTracker
from dcrobot.traffic.driver import TrafficDriver
from dcrobot.traffic.state import TrafficState

DAY = 86400.0

#: Cadence of the health tick, the telemetry poll and the safety check.
SWEEP_SECONDS = 300.0
#: Technicians on shift in every world that has human maintenance.
TECHNICIANS = 4
#: Spare stock: units per transceiver form factor, and cables.
SPARE_TRANSCEIVERS = 500
SPARE_CABLES = 200


@dataclasses.dataclass
class WorldConfig:
    """Everything that defines one experiment run.

    Only knobs some caller sets are fields.  The sweep cadence, the
    technician headcount and the spare stock are the module constants
    above; every other tunable no caller varies (failure rates,
    detector thresholds, scheduler, lease timing, traffic size and
    pattern, boundary links) is its subsystem's own default.
    """

    #: Builds the topology; receives an rng.
    topology_builder: Callable[..., Topology] = build_fattree
    topology_kwargs: Dict = dataclasses.field(
        default_factory=lambda: {"k": 4})
    horizon_days: float = 30.0
    seed: int = 0
    #: Fault-rate multiplier over FailureRates defaults.
    failure_scale: float = 1.0
    #: Replay this exact fault campaign instead of live injection
    #: (fabric link ids must match, i.e. same topology seed).
    fault_trace: Optional[object] = None
    dust_rate_per_day: float = 0.004
    aging_rate_per_day: float = 0.002
    level: AutomationLevel = AutomationLevel.L0_NO_AUTOMATION
    fleet_config: Optional[FleetConfig] = None
    #: "reactive" | "proactive" | "none", or a policy factory.
    policy: object = "reactive"
    proactive_trigger: int = 2
    escalation: Optional[EscalationConfig] = None
    controller_config: Optional[ControllerConfig] = None
    #: Maintenance-plane fault injection; ``None`` = no chaos.
    chaos: Optional[ChaosConfig] = None
    #: Telemetry mute TTL (lets dropped reports re-fire); ``None``
    #: keeps the legacy mute-until-unmuted behaviour.
    mute_ttl_seconds: Optional[float] = None
    #: Attach the invariant-checking safety monitor.
    safety: bool = False
    #: A claim older than this is a leaked ("stuck") work order.
    stuck_after_seconds: float = 7.0 * DAY
    #: Give the controller a write-ahead journal (crash recoverability).
    journal: bool = False
    #: Lease-based active/standby failover with fencing tokens; implies
    #: a supervisor that promotes a successor when the lease expires.
    leadership: bool = False
    #: Attach the control-plane chaos injector (crash/pause/restart,
    #: rates from the chaos config).  Requires ``chaos``.
    controller_chaos: bool = False
    controller_chaos_check_seconds: float = 3600.0
    #: Force a ControllerSupervisor even without journal/leadership —
    #: the journal-less cold-restart baseline still needs the restart
    #: machinery it is being measured without.
    supervise: bool = False
    #: Attach the observability layer (incident-lifecycle tracing +
    #: metrics registry); off by default so trials pay nothing for it.
    observe: bool = False
    #: Attach the columnar traffic engine (S17) and its window driver:
    #: synthetic traffic is offered over the ToR endpoints, repairs
    #: drain modelled traffic, and per-link utilization accumulates in
    #: fabric-state columns.  Off by default — zero cost, and every
    #: pre-traffic world is byte-identical.
    traffic: bool = False
    traffic_window_seconds: float = 1800.0
    #: Accounting period per offered window (None = the cadence).
    traffic_sample_seconds: Optional[float] = None
    #: Time-varying ``(flow_count, pattern)`` schedule; ``None`` offers
    #: the driver's default flow count over a uniform matrix.
    traffic_schedule: Optional[Callable] = None
    #: ECMP path-table width (equal-cost paths kept per pair).
    traffic_max_equal_paths: int = 8
    #: Congestion-gate maintenance on projected ECMP-group utilization
    #: (requires ``traffic``); ``None`` = congestion-blind scheduling.
    impact: Optional[ImpactConfig] = None
    #: Twin-guided plan ranking (requires ``traffic``): the controller
    #: forks the world per candidate proactive repair and dispatches
    #: the predicted-best plan each policy cycle (S18).  ``None`` =
    #: first-come dispatch.
    twin_planner: Optional[TwinPlannerConfig] = None
    #: Per-robot health model (wear, batteries, mid-order faults) plus
    #: heartbeats and — when ``self_healing`` is on — the fleet
    #: watchdog/re-dispatch/quarantine machinery (S19).  ``None``: no
    #: unit ever leaves service (orders still dispatch fenced).
    robot_health: Optional[RobotHealthParams] = None
    #: -- campus composition (S20) ------------------------------------
    #: Number of halls.  1 keeps the classic single-hall world and is
    #: what :func:`build_world` assembles; >1 describes a campus of
    #: independent hall shards that :class:`dcrobot.shard.CampusWorld`
    #: composes behind this same config surface.  ``build_world``
    #: itself always builds exactly one hall and rejects
    #: ``hall_overrides``; the shard layer strips both per hall, so a
    #: ``halls=1`` campus is bit-identical to the legacy world by
    #: construction.
    halls: int = 1
    #: Per-hall field overrides (``{hall_id: {field: value}}``), e.g.
    #: chaos or leadership on one hall only.  Requires halls > 1.
    hall_overrides: Optional[Dict[int, Dict]] = None

    @property
    def horizon_seconds(self) -> float:
        return self.horizon_days * DAY


@dataclasses.dataclass
class RunResult:
    """A built world plus measurement helpers.

    The measurements read the world as it stands, so a world run by
    hand (``build_world`` then ``sim.run``) measures the same as one
    from :func:`run_world`: spares consumed, for one, are the fabric's
    own count of what it handed out.
    """

    config: WorldConfig
    topology: Topology
    sim: Simulation
    environment: Environment
    health: HealthModel
    cascade: CascadeModel
    injector: FaultInjector
    monitor: TelemetryMonitor
    controller: MaintenanceController
    humans: Optional[TechnicianPool]
    fleet: Optional[RobotFleet]
    chaos_engine: Optional[ChaosEngine] = None
    safety: Optional[SafetyMonitor] = None
    supervisor: Optional[ControllerSupervisor] = None
    journal: Optional[WriteAheadJournal] = None
    coordinator: Optional[LeaseCoordinator] = None
    #: The observability bundle (``NULL_OBS`` unless config.observe).
    obs: object = NULL_OBS
    #: Columnar traffic engine + driver (None unless config.traffic).
    traffic: Optional[TrafficState] = None
    traffic_driver: Optional[TrafficDriver] = None
    #: Congestion gate (None unless config.impact with traffic).
    impact_gate: Optional[CongestionGate] = None
    #: Twin planner (None unless config.twin_planner with traffic).
    twin_planner: Optional[TwinPlanner] = None

    @property
    def fabric(self):
        return self.topology.fabric

    @property
    def live_controller(self) -> MaintenanceController:
        """The controller currently in charge (post-failover aware)."""
        if self.supervisor is not None:
            return self.supervisor.controller
        return self.controller

    @property
    def horizon_seconds(self) -> float:
        return self.config.horizon_seconds

    # -- measurements ---------------------------------------------------------

    def availability(self) -> AvailabilitySummary:
        return link_availability(self.fabric, 0.0, self.horizon_seconds)

    def repair_stats(self) -> Optional[RepairTimeStats]:
        times = self.live_controller.repair_times()
        return repair_time_stats(times) if times else None

    def amplification(self) -> AmplificationStats:
        outcomes = []
        if self.humans is not None:
            outcomes.extend(self.humans.outcomes)
        if self.fleet is not None:
            outcomes.extend(self.fleet.outcomes)
        return amplification_from_outcomes(outcomes)

    def attribution(self):
        """Root-cause attribution of all incidents (see
        :mod:`dcrobot.metrics.attribution`)."""
        from dcrobot.metrics.attribution import (
            attribute_incidents,
            disturbed_links_from_cascade,
        )

        controller = self.live_controller
        incidents = (controller.closed_incidents
                     + controller.unresolved_incidents
                     + list(controller.open_incidents.values()))
        return attribute_incidents(
            incidents, self.injector.log,
            disturbed_links_from_cascade(self.cascade.reports))

    def robot_busy_seconds(self) -> float:
        if self.fleet is None:
            return 0.0
        units = self.fleet.manipulators + self.fleet.cleaners
        return sum(unit.busy_seconds for unit in units)

    def robot_count(self) -> int:
        if self.fleet is None:
            return 0
        return len(self.fleet.manipulators) + len(self.fleet.cleaners)

    def cost(self, model: Optional[CostModel] = None) -> CostBreakdown:
        model = model or CostModel()
        return model.compute(
            horizon_seconds=self.horizon_seconds,
            technician_labor_seconds=(
                self.humans.labor_seconds if self.humans else 0.0),
            supervision_seconds=self.live_controller.supervision_seconds,
            robot_count=self.robot_count(),
            robot_busy_seconds=self.robot_busy_seconds(),
            transceivers_consumed=self.fabric.spare_transceivers_taken,
            cables_consumed=self.fabric.spare_cables_taken)


def _make_policy(config: WorldConfig, topology: Topology):
    if callable(config.policy):
        return config.policy(topology.fabric)
    if config.policy == "none":
        return NullPolicy(topology.fabric)
    if config.policy == "reactive":
        return ReactivePolicy(topology.fabric)
    if config.policy == "proactive":
        return ProactivePolicy(topology.fabric,
                               trigger_count=config.proactive_trigger)
    raise ValueError(f"unknown policy {config.policy!r}")


def build_world(config: WorldConfig) -> RunResult:
    """Assemble (but do not run) the full experiment stack."""
    if config.halls != 1:
        raise ValueError(
            f"build_world assembles exactly one hall; compose "
            f"halls={config.halls} with dcrobot.shard.CampusWorld")
    # Cross-feature requirements, checked before anything is built.
    if config.hall_overrides:
        raise ValueError("hall_overrides requires halls > 1")
    if config.impact is not None and not config.traffic:
        raise ValueError("impact requires traffic")
    if config.twin_planner is not None and not config.traffic:
        raise ValueError("twin_planner requires traffic")
    if config.controller_chaos and config.chaos is None:
        raise ValueError("controller_chaos requires a chaos config")

    topology = config.topology_builder(
        rng=np.random.default_rng(config.seed + 1),
        **config.topology_kwargs)
    fabric = topology.fabric
    fabric.stock_spares(
        {factor: SPARE_TRANSCEIVERS for factor in FormFactor},
        cables=SPARE_CABLES)

    sim = Simulation()
    obs = NULL_OBS
    if config.observe:
        # The tracer reads the clock for every span: getattr through a
        # partial is one C call where a lambda is a Python frame.
        obs = observability_for_seed(
            config.seed, clock=functools.partial(getattr, sim, "now"))
        obs.tracer.open_root("world", seed=config.seed,
                             horizon_days=config.horizon_days,
                             level=config.level.name)
    environment = Environment()
    health = HealthModel(
        fabric, environment,
        params=HealthParams(tick_seconds=SWEEP_SECONDS),
        rng=np.random.default_rng(config.seed + 2))
    cascade = CascadeModel(fabric, health, environment,
                           rng=np.random.default_rng(config.seed + 3))
    physics = RepairPhysics(fabric, cascade,
                            rng=np.random.default_rng(config.seed + 4))
    rates = FailureRates().scaled(config.failure_scale)
    injector = FaultInjector(fabric, health, rates=rates,
                             rng=np.random.default_rng(config.seed + 5))
    dust = DustProcess(fabric,
                       mean_rate_per_day=config.dust_rate_per_day,
                       rng=np.random.default_rng(config.seed + 6))
    aging = OxidationAging(fabric,
                           mean_rate_per_day=config.aging_rate_per_day,
                           rng=np.random.default_rng(config.seed + 9))
    monitor = TelemetryMonitor(fabric, poll_seconds=SWEEP_SECONDS,
                               mute_ttl_seconds=config.mute_ttl_seconds,
                               obs=obs)

    spec = spec_for(config.level)
    humans = None
    if config.level is not AutomationLevel.L4_FULL_AUTOMATION:
        params = TechnicianParams()
        if spec.operator_assist_devices:
            params = TechnicianParams(
                skill=ASSISTED_TECHNICIAN_SKILL,
                work_seconds={**params.work_seconds,
                              RepairAction.CLEAN: 15.0 * 60})
        humans = TechnicianPool(
            sim, fabric, health, physics, count=TECHNICIANS,
            params=params, rng=np.random.default_rng(config.seed + 7))

    fleet = None
    if spec.robot_actions:
        fleet_config = config.fleet_config or FleetConfig()
        if config.level is AutomationLevel.L4_FULL_AUTOMATION:
            fleet_config = dataclasses.replace(
                fleet_config, advanced_capabilities=True)
        fleet = RobotFleet(sim, fabric, health, physics,
                           config=fleet_config,
                           rng=np.random.default_rng(config.seed + 8))

    chaos_engine = None
    controller_humans, controller_fleet = humans, fleet
    if config.chaos is not None:
        chaos_engine = ChaosEngine(sim, config.chaos,
                                   RandomStreams(config.seed), obs=obs)
        chaos_engine.attach_monitor(monitor)
        if fleet is not None:
            chaos_engine.attach_fleet(fleet)
            controller_fleet = chaos_engine.wrap_executor(fleet)
        if humans is not None:
            controller_humans = chaos_engine.wrap_executor(humans)

    if fleet is not None and config.robot_health is not None:
        # Robots wear out, run on batteries, and die mid-order; their
        # heartbeats land in the telemetry monitor so losses are
        # detected, not assumed (S19).
        fleet.attach_health(
            RobotHealthModel(config.robot_health,
                             rng=np.random.default_rng(config.seed + 14)),
            monitor=monitor, obs=obs)
        if humans is not None:
            fleet.rescue = humans.rescue_robot

    journal = WriteAheadJournal() if config.journal else None
    coordinator = None
    if config.leadership:
        coordinator = LeaseCoordinator(journal=journal, obs=obs)
        # Fencing guards live at the *real* executors (not the chaos
        # wrappers): physical intake is where split-brain must stop.
        for executor in (fleet, humans):
            if executor is not None:
                executor.fence = FencingGuard(obs=obs)

    traffic = traffic_driver = impact_gate = None
    if config.traffic:
        endpoints = (topology.switches(SwitchRole.TOR)
                     or topology.switches())
        traffic = TrafficState(
            fabric, endpoints,
            rng=np.random.default_rng(config.seed + 11),
            max_equal_paths=config.traffic_max_equal_paths, obs=obs)
        traffic_driver = TrafficDriver(
            traffic, rng=np.random.default_rng(config.seed + 12),
            window_seconds=config.traffic_window_seconds,
            schedule=config.traffic_schedule,
            sample_seconds=config.traffic_sample_seconds)
        if config.impact is not None:
            impact_gate = CongestionGate(traffic, config.impact,
                                         obs=obs)

    twin_planner = None
    if config.twin_planner is not None:
        twin_planner = TwinPlanner(
            fabric, traffic, traffic_driver,
            streams=RandomStreams(config.seed + 13),
            smi_tracker=SmiTracker(topology),
            config=config.twin_planner, fleet=fleet)

    ladder = EscalationLadder(config.escalation)
    scheduler = ImpactAwareScheduler(traffic=traffic)
    policy = _make_policy(config, topology)
    controller_config = config.controller_config or ControllerConfig()

    def controller_factory(node_id: str) -> MaintenanceController:
        """Build a controller on the shared infrastructure.  Successors
        (standby promotion, restart) come from the same factory."""
        return MaintenanceController(
            sim, fabric, health, monitor,
            policy=policy, ladder=ladder, scheduler=scheduler,
            level=config.level, humans=controller_humans,
            fleet=controller_fleet,
            config=controller_config,
            rng=np.random.default_rng(config.seed + 10),
            journal=journal, node_id=node_id, obs=obs,
            impact_gate=impact_gate, planner=twin_planner)

    controller = controller_factory("primary")

    safety = None
    if config.safety:
        executors = [executor for executor in (fleet, humans)
                     if executor is not None]
        safety = SafetyMonitor(
            sim, controller, executors=executors,
            check_interval_seconds=SWEEP_SECONDS,
            stuck_after_seconds=config.stuck_after_seconds).attach()

    supervisor = None
    if (config.journal or config.leadership
            or config.controller_chaos or config.supervise):
        supervisor = ControllerSupervisor(
            sim, controller, controller_factory,
            coordinator=coordinator, journal=journal, safety=safety)

    # The periodic fleet sweeps run as batch kernels through one
    # process, one heap event per boundary.  Health ticks immediately
    # on start; the rest sleep one period first.
    ticker = BatchTicker(sim)
    ticker.add(health.tick_all, SWEEP_SECONDS, first_at=sim.now)
    ticker.add(monitor.poll_all, SWEEP_SECONDS)
    ticker.add(dust.step_all, dust.tick_seconds)
    ticker.add(aging.step_all, aging.tick_seconds)
    sim.process(ticker.run(sim))
    if traffic_driver is not None:
        sim.process(traffic_driver.run(sim))
    if config.fault_trace is not None:
        sim.process(config.fault_trace.replay(sim, injector))
    else:
        injector.start(sim)
    controller.start()
    if supervisor is not None:
        supervisor.start()
    if config.controller_chaos:
        chaos_engine.attach_supervisor(
            supervisor,
            check_seconds=config.controller_chaos_check_seconds)

    return RunResult(config=config, topology=topology, sim=sim,
                     environment=environment, health=health,
                     cascade=cascade, injector=injector,
                     monitor=monitor, controller=controller,
                     humans=humans, fleet=fleet,
                     chaos_engine=chaos_engine, safety=safety,
                     supervisor=supervisor, journal=journal,
                     coordinator=coordinator, obs=obs,
                     traffic=traffic, traffic_driver=traffic_driver,
                     impact_gate=impact_gate,
                     twin_planner=twin_planner)


def run_world(config: WorldConfig) -> RunResult:
    """Build the stack and run it to the horizon."""
    result = build_world(config)
    result.sim.run(until=config.horizon_seconds)
    return result


# -- picklable trial layer (the parallel executor's world unit) ---------------


@dataclasses.dataclass
class WorldSummary:
    """The measurements of one finished world, as plain picklable data.

    A :class:`RunResult` holds live simulation state (generator
    processes) and cannot cross a process boundary; this is the
    summary a worker sends back instead.  It carries everything the
    closed-loop experiments (E1, E5–E7, E9, E11) report on.
    """

    seed: int
    horizon_seconds: float
    incidents: int
    closed_incidents: int
    unresolved_incidents: int
    open_incidents: int
    repair_times: list
    availability_mean: float
    availability_nines: float
    amplification_factor: float
    labor_seconds: float
    supervision_seconds: float
    robot_count: int
    robot_busy_seconds: float
    proactive_ops: int
    human_outcome_count: int
    cost_total_usd: float
    spares_consumed_transceivers: int
    spares_consumed_cables: int
    link_count: int
    #: -- chaos / resilience observables (zero when chaos is off) -----
    chaos_fault_counts: Dict[str, int] = dataclasses.field(
        default_factory=dict)
    invariant_violations: int = 0
    violations_by_kind: Dict[str, int] = dataclasses.field(
        default_factory=dict)
    stuck_orders: int = 0
    work_order_timeouts: int = 0
    work_order_retries: int = 0
    idempotent_skips: int = 0
    late_acks: int = 0
    degraded_dispatches: int = 0
    breaker_trips: int = 0
    #: Incidents opened early enough (>= 4 days before the horizon —
    #: one full human ticket cycle) that a live controller must have
    #: concluded them by run end: the fair denominator for the
    #: resolution-rate acceptance metric.
    mature_incidents: int = 0
    mature_concluded: int = 0
    #: -- crash-recovery observables (zero without a supervisor) ------
    controller_crashes: int = 0
    controller_partitions: int = 0
    failovers: int = 0
    recoveries: int = 0
    adopted_orders: int = 0
    fenced_rejections: int = 0
    journal_records: int = 0
    journal_snapshots: int = 0
    recovered_incidents: int = 0
    #: Links muted by telemetry that no live incident, claim, or
    #: unresolvable case accounts for: repairs silently *lost* by a
    #: controller death (the journal-less baseline's failure mode).
    orphaned_muted_links: int = 0
    #: -- robot fleet health observables (defaults when no health
    #: model is attached) --------------------------------------------
    robot_deaths: int = 0
    robot_heartbeat_losses: int = 0
    robot_redispatches: int = 0
    robot_quarantines: int = 0
    robot_zombie_refusals: int = 0
    #: Fencing-violation tripwire; must stay zero.
    robot_zombie_accepted: int = 0
    robot_repairs: int = 0
    robot_human_rescues: int = 0
    robot_spares_left: int = 0
    #: Fleet work orders whose completion event never fired (a dead
    #: unit's silently hung order — the naive fleet's failure mode).
    robot_orphaned_orders: int = 0
    robot_quorum_escalations: int = 0
    fleet_healthy_fraction: float = 1.0
    #: -- observability exports (None unless config.observe) ----------
    #: Exported span dicts (plain data, picklable across workers).
    trace: Optional[list] = None
    #: Exported metrics snapshot (see obs.export.metrics_snapshot).
    metrics: Optional[dict] = None
    #: -- campus/shard fields (S20; legacy single-hall defaults) ------
    #: Which hall shard produced this summary (0 for a lone world).
    hall: int = 0
    #: Total halls in the world this summary belongs to.
    halls: int = 1
    #: Final fencing token of this hall's lease coordinator (0 when
    #: leadership is off); the federation's epoch registry reads it.
    fencing_token: int = 0

    @property
    def resolved_or_escalated_rate(self) -> float:
        """Fraction of incidents either verified-fixed or handed to a
        human — i.e. *not* silently stuck."""
        if self.incidents == 0:
            return 1.0
        return (self.closed_incidents
                + self.unresolved_incidents) / self.incidents

    @property
    def mature_resolution_rate(self) -> float:
        """Resolved-or-escalated rate over mature incidents only
        (excludes ones still legitimately in flight at the horizon)."""
        if self.mature_incidents == 0:
            return 1.0
        return self.mature_concluded / self.mature_incidents

    @property
    def repair_stats(self) -> Optional[RepairTimeStats]:
        if not self.repair_times:
            return None
        return repair_time_stats(self.repair_times)

    @property
    def tech_hours(self) -> float:
        return (self.labor_seconds + self.supervision_seconds) / 3600.0

    @property
    def robot_utilization_pct(self) -> float:
        capacity = self.robot_count * self.horizon_seconds
        return 100 * self.robot_busy_seconds / capacity if capacity \
            else 0.0


def _orphaned_muted_links(result: RunResult, controller) -> int:
    """Muted links the live controller no longer knows anything about.

    The monitor mutes a link while an incident is being worked so
    detections do not double-fire.  A live controller always unmutes on
    close (or deliberately leaves unresolvable links muted).  When a
    controller dies without a journal, its in-flight incidents vanish —
    and their links stay muted forever, invisible to redetection.  This
    counts those silently-lost repairs.
    """
    if result.monitor is None:
        return 0
    known = set(controller.open_incidents)
    known.update(controller.active_orders)
    known.update(incident.link_id
                 for incident in controller.unresolved_incidents)
    return len(set(result.monitor.muted_links()) - known)


def summarize_world(result: RunResult) -> WorldSummary:
    """Condense a run world into its :class:`WorldSummary`."""
    controller = result.live_controller
    availability = result.availability()
    amplification = result.amplification()
    cutoff = result.horizon_seconds - 4.0 * DAY
    concluded = (controller.closed_incidents
                 + controller.unresolved_incidents)
    mature_concluded = sum(1 for incident in concluded
                           if incident.opened_at <= cutoff)
    mature_open = sum(1 for incident
                      in controller.open_incidents.values()
                      if incident.opened_at <= cutoff)
    return WorldSummary(
        seed=result.config.seed,
        horizon_seconds=result.horizon_seconds,
        incidents=(len(controller.closed_incidents)
                   + len(controller.unresolved_incidents)
                   + len(controller.open_incidents)),
        closed_incidents=len(controller.closed_incidents),
        unresolved_incidents=len(controller.unresolved_incidents),
        open_incidents=len(controller.open_incidents),
        repair_times=list(controller.repair_times()),
        availability_mean=availability.mean,
        availability_nines=availability.nines,
        amplification_factor=amplification.amplification_factor,
        labor_seconds=(result.humans.labor_seconds
                       if result.humans else 0.0),
        supervision_seconds=controller.supervision_seconds,
        robot_count=result.robot_count(),
        robot_busy_seconds=result.robot_busy_seconds(),
        proactive_ops=len(controller.proactive_outcomes),
        human_outcome_count=(len(result.humans.outcomes)
                             if result.humans else 0),
        cost_total_usd=result.cost().total_usd,
        spares_consumed_transceivers=(
            result.fabric.spare_transceivers_taken),
        spares_consumed_cables=result.fabric.spare_cables_taken,
        link_count=result.topology.link_count,
        chaos_fault_counts=(result.chaos_engine.summary()
                            if result.chaos_engine else {}),
        invariant_violations=(len(result.safety.violations)
                              if result.safety else 0),
        violations_by_kind=(result.safety.report().by_kind
                            if result.safety else {}),
        stuck_orders=(len(result.safety.stuck_orders())
                      if result.safety else 0),
        work_order_timeouts=controller.timeout_count,
        work_order_retries=controller.retry_count,
        idempotent_skips=controller.idempotent_skips,
        late_acks=controller.late_ack_count,
        degraded_dispatches=controller.degraded_dispatches,
        breaker_trips=(controller.fleet_breaker.trips
                       if controller.fleet_breaker else 0),
        mature_incidents=mature_concluded + mature_open,
        mature_concluded=mature_concluded,
        controller_crashes=(result.supervisor.crashes
                            if result.supervisor else 0),
        controller_partitions=(result.supervisor.partitions
                               if result.supervisor else 0),
        failovers=(result.supervisor.failovers
                   if result.supervisor else 0),
        recoveries=(result.supervisor.recoveries
                    if result.supervisor else 0),
        adopted_orders=(result.supervisor.adopted_order_count
                        if result.supervisor else 0),
        fenced_rejections=sum(
            len(executor.fence.rejections)
            for executor in (result.fleet, result.humans)
            if executor is not None
            and getattr(executor, "fence", None) is not None),
        journal_records=(result.journal.record_count
                         if result.journal else 0),
        journal_snapshots=(result.journal.snapshot_count
                           if result.journal else 0),
        recovered_incidents=controller.recovered_incident_count,
        orphaned_muted_links=_orphaned_muted_links(result, controller),
        fencing_token=(result.coordinator.fencing_token
                      if result.coordinator else 0),
        **_fleet_health_fields(result.fleet),
        trace=_export_trace(result), metrics=_export_metrics(result))


def _fleet_health_fields(fleet: Optional[RobotFleet]) -> Dict:
    """Robot-health observables for the summary (defaults when the
    world has no fleet or no health model attached)."""
    if fleet is None or fleet.robot_health is None:
        return {}
    orphaned = sum(1 for event in fleet.pending_acks.values()
                   if not event.triggered)
    return dict(
        robot_deaths=fleet.deaths,
        robot_heartbeat_losses=fleet.heartbeat_losses,
        robot_redispatches=fleet.redispatch_count,
        robot_quarantines=fleet.quarantine_count,
        robot_zombie_refusals=fleet.zombie_refusals,
        robot_zombie_accepted=fleet.zombie_acks_accepted,
        robot_repairs=fleet.repairs_done,
        robot_human_rescues=fleet.human_rescues,
        robot_spares_left=fleet.spares_left,
        robot_orphaned_orders=orphaned,
        robot_quorum_escalations=fleet.quorum_escalations,
        fleet_healthy_fraction=fleet.healthy_fraction())


def _export_trace(result: RunResult) -> Optional[list]:
    if not result.obs.enabled:
        return None
    result.obs.tracer.finish()
    return [span.to_dict() for span in result.obs.tracer.spans]


def _export_metrics(result: RunResult) -> Optional[dict]:
    if not result.obs.enabled:
        return None
    return metrics_snapshot(result.obs.metrics)


def world_trial(params: Dict, seed: int) -> WorldSummary:
    """The common trial function: run ``params['config']`` under
    ``seed`` and return its summary.  Module-level (hence picklable)
    so :func:`dcrobot.experiments.parallel.run_trials` can ship it to
    worker processes."""
    config = dataclasses.replace(params["config"], seed=seed)
    if params.get("observe"):
        config = dataclasses.replace(config, observe=True)
    return summarize_world(run_world(config))
