"""The self-maintenance controller — the paper's software-defined
maintenance plane (§2, §4 "Software-defined controllers").

The controller closes the loop the paper describes: telemetry symptoms
come in, a policy decides what deserves work, the escalation ladder
picks the stage, the impact-aware scheduler drains traffic and defers
proactive work to quiet windows, an executor (robot fleet and/or
technician pool, per the automation level) performs the repair, and the
controller verifies the outcome and escalates until the link is healthy.

With a :class:`~dcrobot.core.resilience.ResilienceConfig` attached the
controller also survives a misbehaving maintenance plane: work orders
time out instead of blocking forever, timed-out or failed orders are
re-dispatched under bounded exponential backoff with jitter, a link
whose repair landed without an acknowledgement is *not* repaired twice
(health is re-verified before every re-dispatch), and a robot fleet
that keeps failing is circuit-broken back to the technician pool until
a half-open probe readmits it.  Without one (the default), behaviour is
the legacy trusting control loop.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from dcrobot.core.actions import Priority, RepairAction, RepairOutcome, WorkOrder
from dcrobot.core.automation import AutomationLevel, LevelSpec, spec_for
from dcrobot.core.escalation import EscalationLadder
from dcrobot.core.journal import RecordKind, WriteAheadJournal
from dcrobot.core.policy import PlanRequest, ReactivePolicy
from dcrobot.core.resilience import CircuitBreaker
from dcrobot.core.scheduler import ImpactAwareScheduler
from dcrobot.failures.health import HealthModel
from dcrobot.obs import NULL_OBS
from dcrobot.network.enums import LinkState
from dcrobot.network.inventory import Fabric
from dcrobot.sim.engine import Simulation
from dcrobot.telemetry.events import TelemetryEvent
from dcrobot.telemetry.monitor import TelemetryMonitor


@dataclasses.dataclass
class Incident:
    """One link-misbehaviour case, from detection to verified repair."""

    link_id: str
    opened_at: float
    symptom: str
    priority: Priority = Priority.NORMAL
    attempts: List[RepairOutcome] = dataclasses.field(default_factory=list)
    #: (time, action) pairs feeding the escalation ladder.
    attempt_history: List[Tuple[float, RepairAction]] = dataclasses.field(
        default_factory=list)
    resolved: bool = False
    closed_at: Optional[float] = None
    unresolvable_reason: Optional[str] = None
    in_flight: bool = False
    #: Attempts made before a controller crash; the outcome objects died
    #: with the old process, but the budget they consumed did not.
    prior_attempts: int = 0

    @property
    def time_to_repair(self) -> Optional[float]:
        """Detection-to-verified-fix duration (the service window)."""
        if self.closed_at is None:
            return None
        return self.closed_at - self.opened_at

    @property
    def attempt_count(self) -> int:
        return self.prior_attempts + len(self.attempts)


@dataclasses.dataclass(frozen=True)
class ActiveOrder:
    """One in-flight work order: who owns which link since when."""

    order: WorkOrder
    executor_id: str
    dispatched_at: float
    deadline: Optional[float] = None
    proactive: bool = False

    @property
    def link_id(self) -> str:
        return self.order.link_id


@dataclasses.dataclass
class ControllerConfig:
    """Controller behaviour knobs."""

    #: Wait after a repair before verifying (lets our own touch
    #: disturbances decay so we don't misjudge the repair).
    verification_delay_seconds: float = 1200.0
    #: Cadence of the proactive policy loop.
    policy_interval_seconds: float = 3600.0
    #: Attempts per incident before declaring it unresolvable.
    max_attempts: int = 8
    #: Defer proactive work to the scheduler's quiet window.
    defer_proactive: bool = True
    #: Chaos hardening (timeouts, retries, circuit breaking); ``None``
    #: keeps the legacy trusting behaviour.
    resilience: Optional["ResilienceConfig"] = None
    #: Cadence of journal snapshots (bounds replay work after a crash);
    #: 0 disables snapshotting, leaving full-journal replay.
    snapshot_interval_seconds: float = 6 * 3600.0

    def __post_init__(self) -> None:
        if self.verification_delay_seconds < 0:
            raise ValueError("verification delay must be >= 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.snapshot_interval_seconds < 0:
            raise ValueError("snapshot interval must be >= 0")


class MaintenanceController:
    """Routes symptoms to repairs and verifies the results."""

    def __init__(self, sim: Simulation, fabric: Fabric,
                 health: HealthModel, monitor: TelemetryMonitor,
                 policy: ReactivePolicy,
                 ladder: Optional[EscalationLadder] = None,
                 scheduler: Optional[ImpactAwareScheduler] = None,
                 level: AutomationLevel = AutomationLevel.L0_NO_AUTOMATION,
                 humans=None, fleet=None,
                 config: Optional[ControllerConfig] = None,
                 rng: Optional[np.random.Generator] = None,
                 journal: Optional[WriteAheadJournal] = None,
                 node_id: str = "primary", obs=NULL_OBS,
                 impact_gate=None, planner=None) -> None:
        self.sim = sim
        self.fabric = fabric
        self.health = health
        self.monitor = monitor
        self.policy = policy
        self.ladder = ladder or EscalationLadder()
        self.scheduler = scheduler or ImpactAwareScheduler()
        self.level = level
        self.spec: LevelSpec = spec_for(level)
        self.humans = humans
        self.fleet = fleet
        self.config = config or ControllerConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.journal = journal
        self.node_id = node_id
        self.obs = obs if obs is not None else NULL_OBS
        #: Congestion gate (:class:`~dcrobot.core.impact.CongestionGate`);
        #: ``None`` keeps the congestion-blind scheduling behaviour.
        self.impact_gate = impact_gate
        #: Twin planner (:class:`~dcrobot.core.planner.TwinPlanner`);
        #: ``None`` keeps first-come proactive dispatch.  When set,
        #: each policy cycle's candidate requests are ranked by forked
        #: what-if rollouts and only the predicted-best slice dispatches.
        self.planner = planner
        if humans is None and fleet is None:
            raise ValueError("need at least one executor")

        self.open_incidents: Dict[str, Incident] = {}
        #: Per-link (time, action) repair attempts across *all*
        #: incidents — the paper's escalation keys on re-tickets for the
        #: same link within a window (§3.2), not on one incident's
        #: lifetime, because gray failures re-ticket intermittently.
        self.repair_history: Dict[str, List[Tuple[float, RepairAction]]] \
            = {}
        self.closed_incidents: List[Incident] = []
        self.unresolved_incidents: List[Incident] = []
        self.proactive_outcomes: List[RepairOutcome] = []
        #: Supervision person-seconds consumed by robot work (L2/L3).
        self.supervision_seconds = 0.0
        self._proactive_pending: set = set()

        #: link id -> claims by in-flight work orders (the ownership
        #: registry the safety monitor audits for double-dispatch).
        self.active_orders: Dict[str, List[ActiveOrder]] = {}
        self.resilience = self.config.resilience
        self.fleet_breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(self.resilience.breaker, obs=self.obs)
            if self.resilience is not None and fleet is not None
            else None)
        #: Live trace spans: per-incident lifecycle spans and
        #: per-order execute spans (empty unless obs is enabled).
        self._incident_spans: Dict[str, object] = {}
        self._order_spans: Dict[int, object] = {}
        #: Orders whose acknowledgement never arrived in time.
        self.lost_ack_orders: List[WorkOrder] = []
        #: Acknowledgements that arrived after their timeout fired.
        self.late_outcomes: List[RepairOutcome] = []
        self.timeout_count = 0
        self.retry_count = 0
        self.late_ack_count = 0
        #: Re-dispatches skipped because the link healed meanwhile
        #: (idempotency guard: the repair landed, only the ack was lost).
        self.idempotent_skips = 0
        #: Orders routed to humans because the fleet breaker was open —
        #: the graceful automation-level degradation counter.
        self.degraded_dispatches = 0

        #: Leadership fencing token attached to every order this node
        #: dispatches; ``None`` until a lease hands one out (or forever,
        #: when leadership is disabled).
        self.fencing_token: Optional[int] = None
        #: Set once this controller dies (crash injection) or discovers
        #: it is a deposed zombie (an executor refused its token).
        self.crashed = False
        self.crash_reason: Optional[str] = None
        #: In-flight incidents adopted from a predecessor's journal.
        self.recovered_incident_count = 0
        self._processes: List = []

        monitor.subscribe(self.on_event)

    def __repr__(self) -> str:
        return (f"<MaintenanceController {self.level.name} open="
                f"{len(self.open_incidents)} closed="
                f"{len(self.closed_incidents)}>")

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Launch the proactive policy loop (and snapshotting)."""
        self._spawn(self._policy_loop())
        if self.journal is not None and self.config.snapshot_interval_seconds:
            self._spawn(self._snapshot_loop())

    def _spawn(self, generator):
        """Launch a controller-owned process, tracked so :meth:`crash`
        can kill it mid-yield."""
        self._processes = [p for p in self._processes if p.is_alive]
        proc = self.sim.process(generator)
        self._processes.append(proc)
        return proc

    def crash(self, reason: str = "crash") -> None:
        """Kill this controller: every owned process dies mid-yield and
        the telemetry subscription is dropped.

        In-memory state is deliberately *not* cleaned up — that is the
        failure being modelled.  Muted links stay muted, claimed orders
        stay claimed, open incidents go nowhere.  Only the journal (on
        its own durable store) survives; :mod:`dcrobot.core.recovery`
        rebuilds a successor from it.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_reason = reason
        if self.obs.enabled:
            self.obs.tracer.record("controller.crash", reason=reason,
                                   node_id=self.node_id)
            self.obs.count("dcrobot_controller_crashes_total")
        self.monitor.unsubscribe(self.on_event)
        active = self.sim.active_process
        for proc in self._processes:
            if proc is active or not proc.is_alive:
                continue
            proc.defused = True
            proc.interrupt(f"controller {reason}")
        self._processes = []

    def _demote(self) -> None:
        """An executor refused our fencing token: a newer primary holds
        the lease and this node is a zombie.  Self-fence immediately —
        the only safe move (§ split-brain) is to stop doing anything."""
        self.crash(reason="fenced by newer primary")

    # -- durability ----------------------------------------------------------

    def _journal(self, kind: RecordKind, **payload) -> None:
        """Write-ahead append (no-op when journalling is disabled)."""
        if self.journal is not None:
            self.journal.append(self.sim.now, kind, **payload)
            if self.obs.enabled:
                self.obs.tracer.record("journal.append", kind=kind.value)
                self.obs.count("dcrobot_journal_appends_total",
                               kind=kind.value)

    def _snapshot_loop(self):
        while True:
            yield self.sim.timeout(self.config.snapshot_interval_seconds)
            self.journal.snapshot(self.sim.now, self.snapshot_state())
            if self.obs.enabled:
                self.obs.tracer.record(
                    "journal.snapshot",
                    open_incidents=len(self.open_incidents))
                self.obs.count("dcrobot_journal_snapshots_total")

    def _incident_payload(self, incident: Incident) -> Dict[str, object]:
        return {
            "link_id": incident.link_id,
            "opened_at": incident.opened_at,
            "symptom": incident.symptom,
            "priority": incident.priority.name,
            "attempt_count": incident.attempt_count,
            "attempt_history": [[t, action.value]
                                for t, action in incident.attempt_history],
            "in_flight": incident.in_flight,
            "resolved": incident.resolved,
            "closed_at": incident.closed_at,
            "unresolvable_reason": incident.unresolvable_reason,
        }

    def _claim_payload(self, claim: ActiveOrder) -> Dict[str, object]:
        order = claim.order
        return {
            "order_id": order.order_id,
            "link_id": order.link_id,
            "action": order.action.value,
            "priority": order.priority.name,
            "symptom": order.symptom,
            "created_at": order.created_at,
            "announced_touches": list(order.announced_touches),
            "fencing_token": order.fencing_token,
            "executor_id": claim.executor_id,
            "dispatched_at": claim.dispatched_at,
            "deadline": claim.deadline,
            "proactive": claim.proactive,
        }

    def _breaker_payload(self) -> Optional[Dict[str, object]]:
        breaker = self.fleet_breaker
        if breaker is None:
            return None
        return {
            "state": breaker.state.value,
            "consecutive_failures": breaker.consecutive_failures,
            "opened_at": breaker.opened_at,
            "trips": breaker.trips,
        }

    def _journal_breaker(self, before) -> None:
        """Record a breaker state change (compared against ``before``)."""
        breaker = self.fleet_breaker
        if breaker is None or breaker.state is before:
            return
        payload = self._breaker_payload()
        self._journal(RecordKind.BREAKER_TRANSITION, **payload)

    def snapshot_state(self) -> Dict[str, object]:
        """The controller's full logical state as plain data.

        Everything a successor needs to carry on: open incidents,
        in-flight claims, per-link repair history (escalation-ladder
        input), concluded incidents (reporting continuity), counters,
        and breaker state.
        """
        return {
            "node_id": self.node_id,
            "time": self.sim.now,
            "fencing_token": self.fencing_token,
            "open_incidents": [self._incident_payload(incident)
                               for incident
                               in self.open_incidents.values()],
            "closed_incidents": [self._incident_payload(incident)
                                 for incident in self.closed_incidents],
            "unresolved_incidents": [self._incident_payload(incident)
                                     for incident
                                     in self.unresolved_incidents],
            "active_orders": [self._claim_payload(claim)
                              for claims in self.active_orders.values()
                              for claim in claims],
            "repair_history": {
                link_id: [[t, action.value] for t, action in entries]
                for link_id, entries in self.repair_history.items()},
            "counters": {
                "timeout_count": self.timeout_count,
                "retry_count": self.retry_count,
                "late_ack_count": self.late_ack_count,
                "idempotent_skips": self.idempotent_skips,
                "degraded_dispatches": self.degraded_dispatches,
                "supervision_seconds": self.supervision_seconds,
            },
            "breaker": self._breaker_payload(),
        }

    # -- ownership bookkeeping ----------------------------------------------

    def _claim(self, order: WorkOrder, executor,
               deadline: Optional[float] = None,
               proactive: bool = False) -> ActiveOrder:
        claim = ActiveOrder(order=order,
                            executor_id=self._executor_id(executor),
                            dispatched_at=self.sim.now,
                            deadline=deadline, proactive=proactive)
        self._journal(RecordKind.ORDER_DISPATCHED,
                      **self._claim_payload(claim))
        self.active_orders.setdefault(order.link_id, []).append(claim)
        if self.obs.enabled:
            parent = self._incident_spans.get(order.link_id)
            # The raw order id is a process-global counter; spans carry
            # the per-trace ordinal so exports reproduce bit-for-bit.
            order_seq = self.obs.ordinal("order", order.order_id)
            self.obs.tracer.record(
                "dispatch", parent=parent, order_id=order_seq,
                link_id=order.link_id, action=order.action.value,
                executor=claim.executor_id, proactive=claim.proactive)
            self._order_spans[order.order_id] = \
                self.obs.tracer.start_span(
                    "execute", parent=parent, order_id=order_seq,
                    link_id=order.link_id, executor=claim.executor_id)
            self.obs.count("dcrobot_dispatches_total",
                           executor=claim.executor_id)
            self.obs.gauge("dcrobot_active_orders",
                           sum(map(len, self.active_orders.values())))
        return claim

    def _release(self, claim: ActiveOrder) -> None:
        self._journal(RecordKind.ORDER_CONCLUDED,
                      order_id=claim.order.order_id,
                      link_id=claim.link_id,
                      proactive=claim.proactive)
        claims = self.active_orders.get(claim.link_id, [])
        if claim in claims:
            claims.remove(claim)
        if not claims:
            self.active_orders.pop(claim.link_id, None)
        if self.obs.enabled:
            self.obs.tracer.end_span(
                self._order_spans.pop(claim.order.order_id, None))
            self.obs.gauge("dcrobot_active_orders",
                           sum(map(len, self.active_orders.values())))

    def inflight_order_ids(self) -> Set[int]:
        """Order ids of every currently claimed work order."""
        return {claim.order.order_id
                for claims in self.active_orders.values()
                for claim in claims}

    @staticmethod
    def _executor_id(executor) -> str:
        return getattr(executor, "executor_id", "executor")

    @property
    def automation_degraded(self) -> bool:
        """True while the fleet breaker benches the robots."""
        from dcrobot.core.resilience import BreakerState
        return (self.fleet_breaker is not None
                and self.fleet_breaker.state is not BreakerState.CLOSED)

    # -- reactive path -----------------------------------------------------------

    def on_event(self, event: TelemetryEvent) -> None:
        """Telemetry callback: open or continue an incident."""
        if self.crashed:
            return
        request = self.policy.on_symptom(event)
        if request is None:
            self.monitor.unmute(event.link_id)
            return
        incident = self.open_incidents.get(event.link_id)
        if incident is None:
            self._journal(RecordKind.INCIDENT_OPENED,
                          link_id=event.link_id,
                          opened_at=event.time,
                          symptom=event.symptom.value,
                          priority=request.priority.name)
            incident = Incident(link_id=event.link_id,
                                opened_at=event.time,
                                symptom=event.symptom.value,
                                priority=request.priority)
            self.open_incidents[event.link_id] = incident
            if self.obs.enabled:
                self._incident_spans[event.link_id] = \
                    self.obs.tracer.start_span(
                        "incident", link_id=event.link_id,
                        symptom=incident.symptom,
                        priority=incident.priority.name)
                self.obs.count("dcrobot_incidents_opened_total",
                               symptom=incident.symptom)
                self.obs.gauge("dcrobot_open_incidents",
                               len(self.open_incidents))
        if incident.in_flight:
            return  # attempt already running; outcome loop handles it
        incident.in_flight = True
        self._spawn(self._attempt(incident, request))

    def _select_executor(self, action: RepairAction, link):
        """Pick the executor per automation level and capability."""
        node = self.fabric.node(link.port_a.parent_id)
        rack_id = node.rack_id
        robots_allowed = (self.fleet is not None
                          and action in self.spec.robot_actions
                          and self.fleet.can_execute(action)
                          and rack_id is not None
                          and self.fleet.covers(rack_id))
        if robots_allowed and not self.fleet.operational():
            # Graceful degradation: the fleet has fallen below its
            # health quorum — stop queueing orders on a dying fleet and
            # fall back to the technician pool.
            self.degraded_dispatches += 1
            if self.obs.enabled:
                self.obs.count("dcrobot_degraded_dispatches_total")
            robots_allowed = False
        if robots_allowed and self.fleet_breaker is not None:
            before = self.fleet_breaker.state
            allowed = self.fleet_breaker.allows(self.sim.now)
            self._journal_breaker(before)
            if not allowed:
                # Graceful degradation: the fleet is benched, fall back
                # to the technician pool (effectively a lower
                # automation level).
                self.degraded_dispatches += 1
                if self.obs.enabled:
                    self.obs.count(
                        "dcrobot_degraded_dispatches_total")
                robots_allowed = False
        if robots_allowed:
            return self.fleet
        if self.humans is not None and self.humans.can_execute(action):
            return self.humans
        return None

    def _attempt(self, incident: Incident, request: PlanRequest):
        sim = self.sim
        link = self.fabric.links[incident.link_id]
        history = self.repair_history.setdefault(link.id, [])
        action = request.action
        if action is None:
            if (self.resilience is not None
                    and self.ladder.is_exhausted(link, history, sim.now)):
                # Restarting the ladder mid-incident would loop robots
                # over a link they cannot fix and break stage
                # monotonicity; hand the case to a human instead.
                self._mark_unresolvable(
                    incident, "escalation ladder exhausted")
                return
            action = self.ladder.next_action(link, history, sim.now)
            if self._regresses(incident, action):
                # The escalation window expired mid-incident and the
                # ladder wants to walk back down; never regress within
                # one incident — escalate to a human instead.
                self._mark_unresolvable(
                    incident, "escalation ladder exhausted")
                return
        executor = self._select_executor(action, link)
        if executor is None:
            self._mark_unresolvable(
                incident, f"no executor for {action.value}")
            return
        if self.obs.enabled:
            self.obs.tracer.record(
                "plan",
                parent=self._incident_spans.get(incident.link_id),
                link_id=link.id, action=action.value,
                executor=self._executor_id(executor),
                attempt=incident.attempt_count)

        if self.impact_gate is not None:
            # Impact-aware scheduling: hold the repair (bounded) while
            # draining this link would run its ECMP siblings hot.
            yield from self.impact_gate.wait_while_hot(
                sim, link.id, incident.priority)

        if executor is self.fleet and self.spec.approval_latency_seconds:
            yield sim.timeout(self.spec.approval_latency_seconds)

        if self.resilience is None:
            yield from self._attempt_once(incident, link, history,
                                          action, executor)
        else:
            yield from self._attempt_resilient(incident, link, history,
                                               action, executor)

    def _make_order(self, link, action: RepairAction, priority: Priority,
                    symptom: str, executor) -> WorkOrder:
        """Build a work order carrying this node's fencing token."""
        probe = WorkOrder(link.id, action, self.sim.now)
        return WorkOrder(link_id=link.id, action=action,
                         created_at=self.sim.now, priority=priority,
                         symptom=symptom,
                         announced_touches=executor.announce_touches(probe),
                         fencing_token=self.fencing_token)

    # -- legacy single-shot attempt (no timeout, no retry) -------------------

    def _attempt_once(self, incident: Incident, link, history,
                      action: RepairAction, executor):
        sim = self.sim
        order = self._make_order(link, action, incident.priority,
                                 incident.symptom, executor)
        self.scheduler.before_repair(order)
        claim = self._claim(order, executor)
        outcome = yield executor.submit(order)
        self._release(claim)
        if outcome.rejected:
            self.scheduler.after_repair(order)
            self._demote()
            return
        self._account(executor, outcome)
        incident.attempts.append(outcome)
        incident.attempt_history.append((sim.now, action))
        history.append((sim.now, action))

        if outcome.needs_human and self.humans is not None \
                and executor is not self.humans:
            # §3.3.2: the robot requests human support; same action,
            # human hands.
            retry = self._make_order(link, action, incident.priority,
                                     incident.symptom, self.humans)
            retry_claim = self._claim(retry, self.humans)
            outcome = yield self.humans.submit(retry)
            self._release(retry_claim)
            if outcome.rejected:
                self.scheduler.after_repair(order)
                self._demote()
                return
            incident.attempts.append(outcome)
            incident.attempt_history.append((sim.now, action))
            history.append((sim.now, action))
        self.scheduler.after_repair(order)

        yield from self._verify_and_close(incident, link, action)

    # -- hardened attempt: timeout, backoff, idempotent re-dispatch ----------

    def _attempt_resilient(self, incident: Incident, link, history,
                           action: RepairAction, executor):
        sim = self.sim
        retry_policy = self.resilience.retry
        retry_index = 0
        while True:
            if self.active_orders.get(link.id):
                # Someone else (e.g. a proactive order) already touches
                # this link; back off instead of double-dispatching.
                if retry_index >= retry_policy.max_retries:
                    break
                yield from self._backoff(retry_policy, retry_index)
                retry_index += 1
                continue

            order = self._make_order(link, action, incident.priority,
                                     incident.symptom, executor)
            self.scheduler.before_repair(order)
            deadline = sim.now + self._timeout_for(executor)
            claim = self._claim(order, executor, deadline=deadline)
            outcome = yield from self._await_with_timeout(
                executor.submit(order), order, executor)
            self.scheduler.after_repair(order)
            self._release(claim)

            if outcome is not None and outcome.rejected:
                self._demote()
                return
            if outcome is None:
                outcome = self._timeout_outcome(order, executor)
                self._record_breaker(executor, success=False)
            else:
                self._account(executor, outcome)
                self._record_breaker(executor,
                                     success=outcome.completed)
            incident.attempts.append(outcome)
            incident.attempt_history.append((sim.now, action))
            history.append((sim.now, action))

            if outcome.needs_human and self.humans is not None \
                    and executor is not self.humans:
                follow = yield from self._human_follow_up(
                    incident, link, history, action)
                if self.crashed:
                    return  # follow-up was fenced; we are a zombie
                if follow is not None:
                    outcome = follow

            if outcome.completed:
                break
            # Idempotency guard: the physical repair may have landed
            # even though its acknowledgement did not.
            if self.resilience.verify_before_retry:
                self.health.evaluate_link(link, sim.now)
                if self._is_healthy(link):
                    self.idempotent_skips += 1
                    if self.obs.enabled:
                        self.obs.count(
                            "dcrobot_idempotent_skips_total")
                    break
            if incident.attempt_count >= self.config.max_attempts:
                break
            if retry_index >= retry_policy.max_retries:
                break
            yield from self._backoff(retry_policy, retry_index)
            retry_index += 1
            # The breaker may have opened (or healed) while we waited.
            executor = self._select_executor(action, link)
            if executor is None:
                self._mark_unresolvable(
                    incident, f"no executor for {action.value}")
                return
        yield from self._verify_and_close(incident, link, action)

    def _regresses(self, incident: Incident,
                   action: RepairAction) -> bool:
        """Whether ``action`` walks down this incident's own ladder."""
        ladder = self.ladder.config.ladder
        if action not in ladder:
            return False
        highest = max((ladder.index(attempted)
                       for _, attempted in incident.attempt_history
                       if attempted in ladder), default=-1)
        return ladder.index(action) < highest

    def _backoff(self, retry_policy, retry_index: int):
        """Generator: sleep one jittered exponential-backoff period."""
        self.retry_count += 1
        delay = float(retry_policy.jittered_backoff(retry_index, self.rng))
        self._journal(RecordKind.RETRY_SCHEDULED,
                      retry_index=retry_index, delay=delay)
        if self.obs.enabled:
            self.obs.tracer.record("retry.backoff",
                                   retry_index=retry_index, delay=delay)
            self.obs.count("dcrobot_work_order_retries_total")
        yield self.sim.timeout(delay)

    def _human_follow_up(self, incident: Incident, link, history,
                         action: RepairAction):
        """§3.3.2 robot-requests-human-support follow-up, with timeout."""
        sim = self.sim
        retry = self._make_order(link, action, incident.priority,
                                 incident.symptom, self.humans)
        self.scheduler.before_repair(retry)
        deadline = sim.now + self._timeout_for(self.humans)
        claim = self._claim(retry, self.humans, deadline=deadline)
        outcome = yield from self._await_with_timeout(
            self.humans.submit(retry), retry, self.humans)
        self.scheduler.after_repair(retry)
        self._release(claim)
        if outcome is not None and outcome.rejected:
            self._demote()
            return None
        if outcome is None:
            outcome = self._timeout_outcome(retry, self.humans)
        else:
            self._account(self.humans, outcome)
        incident.attempts.append(outcome)
        incident.attempt_history.append((sim.now, action))
        history.append((sim.now, action))
        return outcome

    def _timeout_for(self, executor) -> float:
        """The ack deadline for an executor (humans run on ticket
        timescales; robots on operation timescales)."""
        if executor is self.humans:
            return self.resilience.human_order_timeout_seconds
        return self.resilience.work_order_timeout_seconds

    def _await_with_timeout(self, done, order: WorkOrder, executor):
        """Generator: wait for an ack, give up after the timeout.

        Returns the :class:`RepairOutcome`, or ``None`` on timeout (a
        late ack is still observed, for accounting and the breaker).
        """
        sim = self.sim
        deadline = sim.timeout(self._timeout_for(executor))
        yield sim.any_of([done, deadline])
        if done.triggered:
            return done.value
        done.callbacks.append(
            lambda event: self._on_late_ack(executor, event))
        return None

    def _timeout_outcome(self, order: WorkOrder,
                         executor) -> RepairOutcome:
        self._journal(RecordKind.ORDER_TIMED_OUT,
                      order_id=order.order_id, link_id=order.link_id,
                      executor_id=self._executor_id(executor))
        self.timeout_count += 1
        if self.obs.enabled:
            self.obs.count("dcrobot_work_order_timeouts_total",
                           executor=self._executor_id(executor))
        self.lost_ack_orders.append(order)
        return RepairOutcome(
            order=order, executor_id=self._executor_id(executor),
            started_at=order.created_at, finished_at=self.sim.now,
            completed=False,
            notes="no acknowledgement before timeout")

    def _on_late_ack(self, executor, event) -> None:
        """A timed-out order's ack finally arrived; learn from it."""
        if not event.ok:
            return
        outcome = event.value
        self.late_ack_count += 1
        if self.obs.enabled:
            self.obs.count("dcrobot_late_acks_total")
        self.late_outcomes.append(outcome)
        self._account(executor, outcome)
        if outcome.completed:
            self._record_breaker(executor, success=True)

    def _record_breaker(self, executor, success: bool) -> None:
        if self.fleet_breaker is None or executor is not self.fleet:
            return
        before = self.fleet_breaker.state
        if success:
            self.fleet_breaker.record_success(self.sim.now)
        else:
            self.fleet_breaker.record_failure(self.sim.now)
        self._journal_breaker(before)

    # -- verification tail (shared by both attempt paths) --------------------

    def _verify_and_close(self, incident: Incident, link,
                          action: RepairAction):
        sim = self.sim
        verify_span = None
        if self.obs.enabled:
            verify_span = self.obs.tracer.start_span(
                "verify",
                parent=self._incident_spans.get(incident.link_id),
                link_id=link.id, action=action.value)
        yield sim.timeout(self.config.verification_delay_seconds)
        self.health.evaluate_link(link, sim.now)
        effective = self._is_healthy(link)
        if verify_span is not None:
            self.obs.tracer.end_span(verify_span, healthy=effective)
        self.policy.record_repair(link, action, effective, sim.now)

        if effective:
            self._close(incident)
        elif incident.attempt_count >= self.config.max_attempts:
            self._mark_unresolvable(incident, "attempt budget exhausted")
        else:
            # Re-arm telemetry: the next detection escalates the ladder.
            incident.in_flight = False
            self.monitor.unmute(link.id)

    def _is_healthy(self, link) -> bool:
        score = self.health.impairment_score(link, self.sim.now)
        return (link.state is LinkState.UP
                and score < self.health.params.marginal_threshold)

    def _account(self, executor, outcome: RepairOutcome) -> None:
        if executor is self.fleet:
            self.supervision_seconds += (outcome.duration
                                         * self.spec.supervision_ratio)

    def _close(self, incident: Incident) -> None:
        incident.resolved = True
        incident.closed_at = self.sim.now
        incident.in_flight = False
        self._journal(RecordKind.INCIDENT_CLOSED,
                      **self._incident_payload(incident))
        self.open_incidents.pop(incident.link_id, None)
        self.closed_incidents.append(incident)
        if self.obs.enabled:
            self._conclude(incident, outcome="resolved")
        self.monitor.unmute(incident.link_id)

    def _mark_unresolvable(self, incident: Incident, reason: str) -> None:
        incident.unresolvable_reason = reason
        incident.in_flight = False
        self._journal(RecordKind.INCIDENT_UNRESOLVABLE,
                      **self._incident_payload(incident))
        self.open_incidents.pop(incident.link_id, None)
        self.unresolved_incidents.append(incident)
        if self.obs.enabled:
            self._conclude(incident, outcome="unresolvable",
                           reason=reason)
        # The link stays muted: re-reporting an unfixable link would
        # spin forever; operators see it in unresolved_incidents.

    def _conclude(self, incident: Incident, outcome: str,
                  **attributes) -> None:
        """Trace + metrics tail shared by close and unresolvable."""
        span = self._incident_spans.pop(incident.link_id, None)
        self.obs.tracer.record(
            "conclude", parent=span, link_id=incident.link_id,
            outcome=outcome, attempts=incident.attempt_count,
            **attributes)
        self.obs.tracer.end_span(span, outcome=outcome)
        self.obs.count(f"dcrobot_incidents_{outcome}_total",
                       symptom=incident.symptom)
        if incident.time_to_repair is not None:
            self.obs.observe("dcrobot_incident_mttr_seconds",
                             incident.time_to_repair,
                             symptom=incident.symptom)
        self.obs.observe("dcrobot_incident_attempts",
                         incident.attempt_count)
        self.obs.gauge("dcrobot_open_incidents",
                       len(self.open_incidents))

    # -- proactive path -------------------------------------------------------------

    def _policy_loop(self):
        sim = self.sim
        while True:
            yield sim.timeout(self.config.policy_interval_seconds)
            eligible = [request
                        for request in self.policy.periodic(sim.now)
                        if request.link_id not in self.open_incidents
                        and request.link_id
                        not in self._proactive_pending]
            if self.planner is not None and len(eligible) > 1:
                # Twin-guided selection: fork the world per candidate,
                # roll each twin ahead, dispatch the predicted-best
                # slice this cycle (the rest re-offer next cycle).
                ranked = self.planner.rank(eligible, sim.now)
                eligible = [score.request for score in
                            ranked[:self.planner.dispatch_quota()]]
            for request in eligible:
                self._proactive_pending.add(request.link_id)
                self._spawn(self._proactive(request))

    def _proactive(self, request: PlanRequest):
        sim = self.sim
        try:
            if self.config.defer_proactive and request.proactive:
                yield sim.timeout(
                    self.scheduler.seconds_until_quiet_window(sim.now))
            if self.impact_gate is not None:
                yield from self.impact_gate.wait_while_hot(
                    sim, request.link_id, request.priority)
            if request.link_id in self.open_incidents:
                return  # it failed for real while we waited
            if (self.resilience is not None
                    and self.active_orders.get(request.link_id)):
                return  # a reactive order already owns this link
            link = self.fabric.links[request.link_id]
            action = request.action or RepairAction.RESEAT
            if not self.ladder.applicable(action, link):
                return
            executor = self._select_executor(action, link)
            if executor is None:
                return
            order = self._make_order(link, action, request.priority,
                                     request.reason, executor)
            self.scheduler.before_repair(order)
            claim = self._claim(order, executor, proactive=True)
            if self.resilience is None:
                outcome = yield executor.submit(order)
            else:
                outcome = yield from self._await_with_timeout(
                    executor.submit(order), order, executor)
            self.scheduler.after_repair(order)
            self._release(claim)
            if outcome is not None and outcome.rejected:
                self._demote()
                return
            if outcome is None:
                self._timeout_outcome(order, executor)
                self._record_breaker(executor, success=False)
                return
            self._account(executor, outcome)
            self.proactive_outcomes.append(outcome)
        finally:
            self._proactive_pending.discard(request.link_id)

    # -- reporting --------------------------------------------------------------------

    def repair_times(self) -> List[float]:
        """Service windows (seconds) of all resolved incidents."""
        return [incident.time_to_repair
                for incident in self.closed_incidents]

    def total_attempts(self) -> int:
        incidents = self.closed_incidents + self.unresolved_incidents \
            + list(self.open_incidents.values())
        return sum(incident.attempt_count for incident in incidents)
