"""Runtime invariant checking for the maintenance control plane.

The :class:`SafetyMonitor` hangs off the simulation engine's step hook
and audits the control plane's externally observable state every step
(or every ``check_interval_seconds`` of simulated time):

* **maintenance-orphan** — a link sits in ``MAINTENANCE`` state with no
  in-flight work order claiming it and no executor physically touching
  it: someone forgot to give the link back.
* **double-owner** — two in-flight work orders claim the same link: the
  controller double-dispatched a repair.
* **escalation-regression** — an incident's attempt history walked
  *down* the escalation ladder: the §3.2 stage ordering was violated.
* **drain-orphan** — the scheduler still holds traffic drained for a
  work order that is no longer in flight: drained capacity was never
  restored.

Violations are recorded once at onset (a persistent condition is one
violation, not one per step) as structured
:class:`InvariantViolation` records.  A separate *gauge* counts stuck
work orders — claims older than ``stuck_after_seconds`` — which is the
signature failure of the naive (no-timeout) controller under ack loss.

Each check costs O(change), not O(fabric + every incident ever
opened): the orphan audit keeps the ``MAINTENANCE_CODE`` rows from the
columnar state's row-change feed and reads nothing while none is under
maintenance, the escalation audit visits only open incidents plus
those concluded since the previous check, and the drain-orphan audit
builds the in-flight order ids only while the scheduler holds a drain.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from dcrobot.network.state import MAINTENANCE_CODE


@dataclasses.dataclass(frozen=True)
class InvariantViolation:
    """One invariant breach, recorded at onset."""

    time: float
    kind: str
    #: Link id, order id, or incident link id the breach concerns.
    target: str
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class SafetyReport:
    """Summary of a run's safety posture."""

    checks_run: int
    total_violations: int
    by_kind: Dict[str, int]
    stuck_order_count: int

    def clean(self) -> bool:
        return self.total_violations == 0


class SafetyMonitor:
    """Audits control-plane invariants as the simulation runs.

    A check costs O(change): the orphan audit re-tests only the rows
    the state's row-change feed reports (a rescan rebuilds its set of
    maintenance rows in one vector pass) and returns at once while that
    set is empty, and the escalation audit visits the open incidents
    plus those concluded since the previous check, each from its
    audited-history cursor.
    """

    MAINTENANCE_ORPHAN = "maintenance-orphan"
    DOUBLE_OWNER = "double-owner"
    ESCALATION_REGRESSION = "escalation-regression"
    DRAIN_ORPHAN = "drain-orphan"

    def __init__(self, sim, controller,
                 executors: Sequence = (),
                 check_interval_seconds: float = 0.0,
                 stuck_after_seconds: float = 86400.0) -> None:
        if check_interval_seconds < 0:
            raise ValueError("check_interval_seconds must be >= 0")
        if stuck_after_seconds <= 0:
            raise ValueError("stuck_after_seconds must be > 0")
        self.sim = sim
        self.controller = controller
        self.fabric = controller.fabric
        self.scheduler = controller.scheduler
        self.ladder = controller.ladder
        self.executors = list(executors)
        self.check_interval_seconds = check_interval_seconds
        self.stuck_after_seconds = stuck_after_seconds

        self.checks_run = 0
        self.violations: List[InvariantViolation] = []
        #: Currently-violating (kind, target) pairs, for onset dedup.
        self._active_keys: Set[Tuple[str, str]] = set()
        #: Attempt-history prefix already audited, per open incident
        #: (keyed by identity; dropped once the incident concludes).
        self._audited: Dict[int, int] = {}
        #: How much of the controller's ``closed_incidents`` and
        #: ``unresolved_incidents`` lists the escalation audit has seen.
        self._closed_seen = 0
        self._unresolved_seen = 0
        self._last_check: Optional[float] = None
        self._attached = False
        #: The state's row-change cursor and the rows in MAINTENANCE.
        self._cursor = None
        self._maintenance: Set[int] = set()

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> "SafetyMonitor":
        """Register with the engine's per-step hook."""
        if not self._attached:
            self.sim.add_step_hook(self.check)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.sim.remove_step_hook(self.check)
            self._attached = False

    def rebind(self, controller) -> None:
        """Audit a successor controller after a failover.

        The fabric, scheduler, ladder, and executors are shared
        infrastructure — only the controller object is replaced.  The
        successor rebuilds its incidents from the journal as new
        objects, so every audit cursor starts over: each of its
        incidents, concluded ones included, is audited once from the
        start of its history.
        """
        self.controller = controller
        self.scheduler = controller.scheduler
        self.ladder = controller.ladder
        self._audited = {}
        self._closed_seen = 0
        self._unresolved_seen = 0

    # -- checking ------------------------------------------------------------

    def check(self, now: float) -> None:
        """One audit pass (throttled to the check interval)."""
        if (self.check_interval_seconds > 0
                and self._last_check is not None
                and now - self._last_check < self.check_interval_seconds):
            return
        self._last_check = now
        self.checks_run += 1

        current: List[Tuple[Tuple[str, str], str]] = []
        current.extend(self._check_maintenance_orphans())
        current.extend(self._check_double_owners())
        current.extend(self._check_drain_orphans())

        keys_now = {key for key, _ in current}
        for key, detail in current:
            if key not in self._active_keys:
                self._record(InvariantViolation(
                    time=now, kind=key[0], target=key[1], detail=detail))
        self._active_keys = keys_now

        # History audits record directly (the cursor prevents repeats).
        self._check_escalation_monotone(now)

    def _record(self, violation: InvariantViolation) -> None:
        """Append one violation (and surface it to observability)."""
        self.violations.append(violation)
        obs = self.controller.obs
        if obs.enabled:
            target = violation.target
            if violation.kind == self.DRAIN_ORPHAN:
                # The target is a raw (process-global) order id; spans
                # carry the per-trace ordinal to stay reproducible.
                target = f"order-{obs.ordinal('order', int(target))}"
            obs.tracer.record("safety.violation", kind=violation.kind,
                              target=target)
            obs.count("dcrobot_safety_violations_total",
                      kind=violation.kind)

    def _touched_by_executor(self, link_id: str) -> bool:
        return any(link_id in getattr(executor, "busy_links", ())
                   for executor in self.executors)

    def _check_maintenance_orphans(self):
        found = []
        state = self.fabric.state
        rows, self._cursor = state.row_changes(self._cursor)
        if rows is None:
            self._maintenance = set(
                (state.state_code[:state.n_links]
                 == MAINTENANCE_CODE).nonzero()[0].tolist())
        elif rows:
            maintenance = self._maintenance
            codes = state.state_code
            for row in rows:
                if codes[row] == MAINTENANCE_CODE:
                    maintenance.add(row)
                else:
                    maintenance.discard(row)
        if not self._maintenance:
            return found
        claimed = self.controller.active_orders
        for row in state.rows_in_insertion_order(sorted(self._maintenance)):
            link_id = state.links_by_row[row].id
            if link_id in claimed or self._touched_by_executor(link_id):
                continue
            found.append(((self.MAINTENANCE_ORPHAN, link_id),
                          "link under maintenance with no owner"))
        return found

    def _check_double_owners(self):
        found = []
        for link_id, claims in self.controller.active_orders.items():
            if len(claims) > 1:
                owners = ", ".join(
                    f"order {claim.order.order_id} "
                    f"({claim.executor_id})" for claim in claims)
                found.append(((self.DOUBLE_OWNER, link_id), owners))
        return found

    def _check_drain_orphans(self):
        found = []
        drains = self.scheduler.outstanding_drains()
        if not drains:
            return found  # no drain, no orphan: skip the in-flight set
        in_flight = self.controller.inflight_order_ids()
        for order_id, links in drains.items():
            if order_id not in in_flight:
                found.append(
                    ((self.DRAIN_ORPHAN, str(order_id)),
                     f"drains held for finished order: {links}"))
        return found

    def _check_escalation_monotone(self, now: float) -> None:
        """Audit the history each incident gained since the last check.

        Open incidents keep a cursor.  An incident concluded since the
        last check is audited once more and its cursor dropped:
        ``_close`` and ``_mark_unresolvable`` are the last step of its
        attempt process, so a concluded history never grows.
        """
        controller = self.controller
        closed = controller.closed_incidents
        unresolved = controller.unresolved_incidents
        concluded = (closed[self._closed_seen:]
                     + unresolved[self._unresolved_seen:])
        self._closed_seen = len(closed)
        self._unresolved_seen = len(unresolved)
        for incident in controller.open_incidents.values():
            self._audit(incident, now)
        for incident in concluded:
            self._audit(incident, now)
            self._audited.pop(id(incident), None)

    def _audit(self, incident, now: float) -> None:
        ladder = self.ladder.config.ladder
        history = incident.attempt_history
        cursor = self._audited.get(id(incident), 0)
        if cursor >= len(history):
            return
        prev_rank = -1
        if cursor > 0:
            ranked = [ladder.index(action)
                      for _, action in history[:cursor]
                      if action in ladder]
            prev_rank = max(ranked, default=-1)
        for index in range(cursor, len(history)):
            when, action = history[index]
            if action not in ladder:
                continue
            rank = ladder.index(action)
            if rank < prev_rank:
                self._record(InvariantViolation(
                    time=now, kind=self.ESCALATION_REGRESSION,
                    target=incident.link_id,
                    detail=f"{action.value} (stage {rank}) after "
                           f"stage {prev_rank} at t={when:.0f}"))
            prev_rank = max(prev_rank, rank)
        self._audited[id(incident)] = len(history)

    # -- gauges and reporting ------------------------------------------------

    def stuck_orders(self, now: Optional[float] = None) -> List:
        """Claims older than the stuck threshold (leaked work orders)."""
        now = self.sim.now if now is None else now
        return [claim
                for claims in self.controller.active_orders.values()
                for claim in claims
                if now - claim.dispatched_at > self.stuck_after_seconds]

    def report(self, now: Optional[float] = None) -> SafetyReport:
        by_kind: Dict[str, int] = {}
        for violation in self.violations:
            by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
        return SafetyReport(
            checks_run=self.checks_run,
            total_violations=len(self.violations),
            by_kind=by_kind,
            stuck_order_count=len(self.stuck_orders(now)))
