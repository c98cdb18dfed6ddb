"""Crash recovery for the maintenance controller.

A controller object dying takes every open incident, in-flight claim,
and retry budget with it.  This module rebuilds a successor from the
write-ahead journal (:mod:`dcrobot.core.journal`):

* :func:`replay_journal` — fold the latest snapshot plus the journal
  tail into a plain-data :class:`RecoveredState`.  Replay is
  deterministic: the same journal always yields the same state.
* :func:`restore_controller` — inject a ``RecoveredState`` into a
  freshly built controller: open incidents come back with their attempt
  budgets, in-flight orders are re-claimed under their *original* order
  ids (so the scheduler's drains and the safety monitor's cross-checks
  stay consistent), counters and breaker state carry over.
* :class:`ControllerSupervisor` — the failure-handling harness: renews
  the primary's lease, watches for expiry, and performs takeover
  (standby promotion or same-node restart).  Takeover re-verifies every
  adopted in-flight order against the executor's surviving work queue
  and link health before doing anything physical, so recovery never
  repairs a link twice.

Without a journal the supervisor still fails over — to a cold, empty
controller.  That baseline is what experiment E14 measures: muted
telemetry never re-arms, so every incident open at the crash is lost.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple

from dcrobot.core.actions import Priority, RepairAction, WorkOrder
from dcrobot.core.controller import Incident, MaintenanceController
from dcrobot.core.journal import (JOURNAL_SCHEMA_VERSION, RecordKind,
                                  WriteAheadJournal)
from dcrobot.core.leadership import LeaseCoordinator
from dcrobot.core.resilience import BreakerState


class JournalReplayError(RuntimeError):
    """The journal cannot be replayed (e.g. schema version mismatch)."""


@dataclasses.dataclass
class RecoveredState:
    """The controller's logical state, rebuilt as plain data."""

    fencing_token: Optional[int] = None
    #: Open incident payload dicts (see controller._incident_payload).
    open_incidents: List[Dict[str, Any]] = dataclasses.field(
        default_factory=list)
    closed_incidents: List[Dict[str, Any]] = dataclasses.field(
        default_factory=list)
    unresolved_incidents: List[Dict[str, Any]] = dataclasses.field(
        default_factory=list)
    #: order id -> claim payload for orders in flight at the crash.
    active_orders: Dict[int, Dict[str, Any]] = dataclasses.field(
        default_factory=dict)
    repair_history: Dict[str, List[Tuple[float, str]]] = dataclasses.field(
        default_factory=dict)
    counters: Dict[str, Any] = dataclasses.field(default_factory=dict)
    breaker: Optional[Dict[str, Any]] = None
    replayed_records: int = 0
    snapshot_seq: Optional[int] = None


def _open_incident(state: RecoveredState,
                   link_id: str) -> Optional[Dict[str, Any]]:
    for payload in state.open_incidents:
        if payload["link_id"] == link_id:
            return payload
    return None


def replay_journal(journal: WriteAheadJournal) -> RecoveredState:
    """Deterministically rebuild controller state from the journal."""
    snapshot, tail = journal.tail()
    state = RecoveredState()
    if snapshot is not None:
        version = snapshot.payload.get("schema_version")
        if version != JOURNAL_SCHEMA_VERSION:
            raise JournalReplayError(
                f"snapshot schema v{version} != "
                f"supported v{JOURNAL_SCHEMA_VERSION}")
        snap = snapshot.payload["state"]
        state.fencing_token = snap.get("fencing_token")
        state.open_incidents = [dict(p) for p in snap["open_incidents"]]
        state.closed_incidents = [dict(p) for p in snap["closed_incidents"]]
        state.unresolved_incidents = [
            dict(p) for p in snap["unresolved_incidents"]]
        state.active_orders = {int(p["order_id"]): dict(p)
                               for p in snap["active_orders"]}
        state.repair_history = {
            link_id: [(t, action) for t, action in entries]
            for link_id, entries in snap["repair_history"].items()}
        state.counters = dict(snap["counters"])
        state.breaker = snap.get("breaker")
        state.snapshot_seq = snapshot.seq

    for record in tail:
        kind = record.kind
        payload = record.payload
        if kind is RecordKind.INCIDENT_OPENED:
            if _open_incident(state, payload["link_id"]) is None:
                incident = dict(payload)
                incident.setdefault("attempt_count", 0)
                incident.setdefault("attempt_history", [])
                state.open_incidents.append(incident)
        elif kind is RecordKind.ORDER_DISPATCHED:
            state.active_orders[int(payload["order_id"])] = dict(payload)
        elif kind is RecordKind.ORDER_CONCLUDED:
            dispatched = state.active_orders.pop(
                int(payload["order_id"]), None)
            if dispatched is None or payload.get("proactive"):
                continue
            incident = _open_incident(state, payload["link_id"])
            if incident is not None:
                incident["attempt_count"] = \
                    incident.get("attempt_count", 0) + 1
                incident.setdefault("attempt_history", []).append(
                    [record.time, dispatched["action"]])
            state.repair_history.setdefault(
                payload["link_id"], []).append(
                (record.time, dispatched["action"]))
        elif kind is RecordKind.ORDER_TIMED_OUT:
            state.counters["timeout_count"] = \
                state.counters.get("timeout_count", 0) + 1
        elif kind is RecordKind.RETRY_SCHEDULED:
            state.counters["retry_count"] = \
                state.counters.get("retry_count", 0) + 1
        elif kind is RecordKind.INCIDENT_CLOSED:
            state.open_incidents = [
                p for p in state.open_incidents
                if p["link_id"] != payload["link_id"]]
            state.closed_incidents.append(dict(payload))
        elif kind is RecordKind.INCIDENT_UNRESOLVABLE:
            state.open_incidents = [
                p for p in state.open_incidents
                if p["link_id"] != payload["link_id"]]
            state.unresolved_incidents.append(dict(payload))
        elif kind is RecordKind.BREAKER_TRANSITION:
            state.breaker = dict(payload)
        elif kind is RecordKind.LEASE_ACQUIRED:
            state.fencing_token = payload.get("token")
        # LEASE_LOST and stray SNAPSHOT records carry no foldable state.
        state.replayed_records += 1
    return state


def _incident_from_payload(payload: Dict[str, Any]) -> Incident:
    incident = Incident(
        link_id=payload["link_id"],
        opened_at=payload["opened_at"],
        symptom=payload["symptom"],
        priority=Priority[payload.get("priority", "NORMAL")],
        prior_attempts=payload.get("attempt_count", 0))
    incident.attempt_history = [
        (t, RepairAction(action))
        for t, action in payload.get("attempt_history", [])]
    incident.resolved = bool(payload.get("resolved", False))
    incident.closed_at = payload.get("closed_at")
    incident.unresolvable_reason = payload.get("unresolvable_reason")
    return incident


def _order_from_payload(payload: Dict[str, Any]) -> WorkOrder:
    return WorkOrder(
        link_id=payload["link_id"],
        action=RepairAction(payload["action"]),
        created_at=payload["created_at"],
        priority=Priority[payload.get("priority", "NORMAL")],
        symptom=payload.get("symptom", ""),
        announced_touches=list(payload.get("announced_touches", [])),
        fencing_token=payload.get("fencing_token"),
        order_id=int(payload["order_id"]))


def restore_controller(controller: MaintenanceController,
                       state: RecoveredState,
                       executors: Dict[str, Any]) -> List[Tuple]:
    """Inject recovered state into a freshly built controller.

    ``executors`` maps executor id to the executor object, for
    re-claiming in-flight orders.  Returns the adopted claims as
    ``(claim, incident-or-None, executor)`` tuples; the caller (the
    supervisor) runs the re-verification process for each one.
    """
    for payload in state.open_incidents:
        incident = _incident_from_payload(payload)
        controller.open_incidents[incident.link_id] = incident
    for payload in state.closed_incidents:
        controller.closed_incidents.append(
            _incident_from_payload(payload))
    for payload in state.unresolved_incidents:
        controller.unresolved_incidents.append(
            _incident_from_payload(payload))
    controller.repair_history = {
        link_id: [(t, RepairAction(action)) for t, action in entries]
        for link_id, entries in state.repair_history.items()}
    counters = state.counters
    controller.timeout_count = counters.get("timeout_count", 0)
    controller.retry_count = counters.get("retry_count", 0)
    controller.late_ack_count = counters.get("late_ack_count", 0)
    controller.idempotent_skips = counters.get("idempotent_skips", 0)
    controller.degraded_dispatches = counters.get(
        "degraded_dispatches", 0)
    controller.supervision_seconds = counters.get(
        "supervision_seconds", 0.0)
    if state.breaker is not None and controller.fleet_breaker is not None:
        breaker = controller.fleet_breaker
        breaker.state = BreakerState(state.breaker["state"])
        breaker.consecutive_failures = \
            state.breaker["consecutive_failures"]
        breaker.opened_at = state.breaker["opened_at"]
        breaker.trips = state.breaker["trips"]

    if controller.obs.enabled:
        # Recovered incidents get fresh lifecycle spans (the
        # predecessor's span handles died with it): subsequent
        # plan/verify/conclude spans re-attach to the trace tree.
        for incident in controller.open_incidents.values():
            controller._incident_spans[incident.link_id] = \
                controller.obs.tracer.start_span(
                    "incident", link_id=incident.link_id,
                    symptom=incident.symptom,
                    priority=incident.priority.name, recovered=True)
        controller.obs.count("dcrobot_recovered_incidents_total",
                             len(state.open_incidents))
    adopted = []
    for payload in state.active_orders.values():
        executor = executors.get(payload["executor_id"])
        if executor is None:
            continue
        order = _order_from_payload(payload)
        incident = None
        if not payload.get("proactive"):
            incident = controller.open_incidents.get(order.link_id)
            if incident is not None:
                incident.in_flight = True
        claim = controller._claim(order, executor,
                                  proactive=bool(payload.get("proactive")))
        adopted.append((claim, incident, executor))
    controller.recovered_incident_count = len(state.open_incidents)
    return adopted


class ControllerSupervisor:
    """Keeps exactly one live controller in charge of the fabric.

    The supervisor plays three infrastructure roles that outlive any
    controller object: the heartbeat relay (renewing the primary's
    lease), the standby watchdog (promoting a successor when the lease
    expires), and the recovery orchestrator (journal replay, fencing
    handshake, safety-monitor rebind, in-flight order adoption).

    Chaos injectors drive it through :meth:`crash_primary`,
    :meth:`partition_primary`, and :meth:`restart_primary`.
    """

    def __init__(self, sim, controller: MaintenanceController,
                 factory: Callable[[str], MaintenanceController],
                 coordinator: Optional[LeaseCoordinator] = None,
                 journal: Optional[WriteAheadJournal] = None,
                 safety=None,
                 extra_executors: Tuple = ()) -> None:
        self.sim = sim
        self.controller = controller
        self.factory = factory
        self.coordinator = coordinator
        self.journal = journal
        self.safety = safety
        self.extra_executors = tuple(extra_executors)
        #: How long an adopted order may stay silent before recovery
        #: stops waiting for its ack and re-verifies link health anyway.
        self.adoption_grace_seconds = 7 * 86400.0

        self.failovers = 0
        self.recoveries = 0
        self.crashes = 0
        self.partitions = 0
        self.adopted_order_count = 0
        self._node_counter = 0
        self._partitioned_until = float("-inf")
        self._partitioned_node: Optional[str] = None
        self._watching = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Acquire the initial lease and launch heartbeat + watchdog."""
        if self.coordinator is not None:
            token = self.coordinator.try_acquire(
                self.controller.node_id, self.sim.now)
            self.controller.fencing_token = token
            self.sim.process(self._heartbeat_loop())
            self.sim.process(self._watchdog_loop())
            self._watching = True

    def _executor_map(self) -> Dict[str, Any]:
        executors = {}
        for executor in ((self.controller.humans, self.controller.fleet)
                         + self.extra_executors):
            if executor is not None:
                executors[MaintenanceController._executor_id(
                    executor)] = executor
        return executors

    # -- fault-injection entry points ---------------------------------------

    def crash_primary(self, reason: str = "injected crash") -> None:
        """Kill the live controller outright (fail-stop)."""
        self.crashes += 1
        self.controller.crash(reason=reason)

    def partition_primary(self, duration_seconds: float) -> None:
        """Cut the primary off from the lock service for a while.

        The primary keeps running and dispatching — but its lease
        silently expires, a standby takes over, and the zombie's next
        order is fenced off at the executor.  The classic split-brain
        scenario the fencing tokens exist for.
        """
        self.partitions += 1
        self._partitioned_node = self.controller.node_id
        self._partitioned_until = max(
            self._partitioned_until,
            self.sim.now + duration_seconds)

    def restart_primary(self, reason: str = "injected restart") -> None:
        """Crash the controller and immediately recover in place."""
        self.crash_primary(reason=reason)
        self.promote(node_id=self.controller.node_id)

    # -- leadership machinery -----------------------------------------------

    def partitioned(self, node_id: str) -> bool:
        return (node_id == self._partitioned_node
                and self.sim.now < self._partitioned_until)

    def _heartbeat_loop(self):
        config = self.coordinator.config
        while True:
            yield self.sim.timeout(config.heartbeat_seconds)
            controller = self.controller
            if controller.crashed \
                    or self.partitioned(controller.node_id):
                continue  # no heartbeats from a dead/partitioned node
            self.coordinator.renew(controller.node_id, self.sim.now)

    def _watchdog_loop(self):
        config = self.coordinator.config
        while True:
            yield self.sim.timeout(config.heartbeat_seconds)
            holder = self.coordinator.holder_at(self.sim.now)
            if holder is not None:
                continue
            # The lease expired: the primary is dead (or unreachable,
            # which must be treated the same).  Promote a standby.
            self._node_counter += 1
            self.promote(node_id=f"standby-{self._node_counter}")

    # -- takeover ------------------------------------------------------------

    def promote(self, node_id: str) -> MaintenanceController:
        """Build, restore, fence, and start a successor controller."""
        now = self.sim.now
        token = None
        if self.coordinator is not None:
            token = self.coordinator.try_acquire(node_id, now)
            if token is None:  # somebody else holds a live lease
                return self.controller

        obs = self.controller.obs
        promote_span = None
        if obs.enabled:
            promote_span = obs.tracer.start_span(
                "failover.promote", node_id=node_id,
                fencing_token=token)
            obs.count("dcrobot_failovers_total")

        successor = self.factory(node_id)
        successor.fencing_token = token

        adopted = []
        if self.journal is not None:
            replay_span = None
            if obs.enabled:
                replay_span = obs.tracer.start_span(
                    "recovery.replay", parent=promote_span)
            state = replay_journal(self.journal)
            adopted = restore_controller(successor, state,
                                         self._executor_map())
            if obs.enabled:
                obs.tracer.end_span(
                    replay_span,
                    replayed_records=state.replayed_records,
                    snapshot_seq=state.snapshot_seq,
                    open_incidents=len(state.open_incidents),
                    adopted_orders=len(adopted))
                obs.count("dcrobot_recoveries_total")
            self._rearm_telemetry(successor, adopted)
        # Fencing handshake: executors and the shared scheduler learn
        # the new token *before* the successor's first dispatch, so a
        # zombie predecessor can neither slip an order in during the
        # gap nor drain traffic for one.
        if token is not None:
            for executor in self._executor_map().values():
                guard = getattr(executor, "fence", None)
                if guard is not None:
                    guard.advance(token)
            successor.scheduler.fence.advance(token)
        if self.safety is not None:
            self.safety.rebind(successor)
        self.controller = successor
        successor.start()
        for claim, incident, executor in adopted:
            successor._spawn(
                self._adopt(successor, claim, incident, executor))
        self.adopted_order_count += len(adopted)
        self.failovers += 1
        if self.journal is not None:
            self.recoveries += 1
        if obs.enabled:
            obs.count("dcrobot_adopted_orders_total", len(adopted))
            obs.tracer.end_span(promote_span,
                                adopted_orders=len(adopted))
        return successor

    def _rearm_telemetry(self, successor: MaintenanceController,
                         adopted: List[Tuple]) -> None:
        """Unmute links the recovered state does not account for.

        Two kinds of muted link must be re-armed so detection can fire
        again: (a) an open incident caught between attempts (the crash
        landed in a retry backoff — no order is in flight, so the
        normal telemetry path safely resumes it), and (b) a link whose
        detection fired during the dead window between crash and
        takeover (the monitor muted it, but no subscriber was alive to
        open an incident).  Only a journal-backed successor may do
        this: without the journal there is no way to tell a lost link
        from one a surviving robot is still physically working on, and
        a blind unmute would re-dispatch that repair.
        """
        monitor = successor.monitor
        now = self.sim.now
        for link_id, incident in successor.open_incidents.items():
            if incident.in_flight:
                continue  # an adopted order's verification owns it
            if not monitor.is_muted(link_id, now):
                continue  # re-armed before the crash; telemetry is live
            if incident.attempt_history:
                # Concluded-but-unverified at the crash: run the normal
                # verification tail.  If the crash actually landed
                # later (mid-escalation), re-verifying the last attempt
                # is harmless — it re-arms or closes — whereas skipping
                # it would strand a healthy link forever.
                incident.in_flight = True
                link = successor.fabric.links[link_id]
                successor._spawn(successor._verify_and_close(
                    incident, link, incident.attempt_history[-1][1]))
            else:
                monitor.unmute(link_id)  # never dispatched: re-detect
        accounted = set(successor.open_incidents)
        accounted.update(claim.order.link_id
                         for claim, _, _ in adopted)
        accounted.update(incident.link_id for incident
                         in successor.unresolved_incidents)
        for link_id in monitor.muted_links():
            if link_id not in accounted:
                monitor.unmute(link_id)

    def _adopt(self, controller: MaintenanceController, claim,
               incident, executor):
        """Generator: finish one inherited in-flight order safely.

        Waits for the executor's surviving queue entry to conclude (the
        physical work is already happening — dispatching again would
        repair the link twice), then re-verifies link health through
        the normal verification tail: healthy means close, unhealthy
        means re-arm telemetry and escalate through the usual path.
        """
        sim = controller.sim
        order = claim.order
        done = getattr(executor, "pending_acks", {}).get(order.order_id)
        if done is not None and not done.triggered:
            grace = sim.timeout(self.adoption_grace_seconds)
            yield sim.any_of([done, grace])
        controller.scheduler.after_repair(order)
        controller._release(claim)
        if controller.crashed:
            return
        if incident is None:
            return  # proactive order: traffic is back, nothing to verify
        # The inherited dispatch counts against the incident's budget,
        # exactly as it would have on the uncrashed controller.
        incident.prior_attempts += 1
        incident.attempt_history.append((sim.now, order.action))
        controller.repair_history.setdefault(
            order.link_id, []).append((sim.now, order.action))
        link = controller.fabric.links[order.link_id]
        yield from controller._verify_and_close(incident, link,
                                                order.action)


__all__ = [
    "JournalReplayError",
    "RecoveredState",
    "replay_journal",
    "restore_controller",
    "ControllerSupervisor",
]
