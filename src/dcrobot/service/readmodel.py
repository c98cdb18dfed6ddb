"""The service plane's materialized read model (S21).

Every query the old facade served walked live world state: ``status()``
rescanned all link objects and re-summed every repair time per call.
That is fine for one dashboard and fatal for "heavy traffic from
millions of users" (ROADMAP north star).  :class:`ReadModel` is the
query-path half of the refactor: a materialized view refreshed once
per sim-bridge slice, so any number of queries between slices are O(1)
snapshot reads.

The view is fed incrementally:

* **incident counters** — O(1) ``len()`` reads off the live
  controller's ledgers;
* **MTTR** — the closed-incident list is append-only, so the running
  ``(count, sum)`` pair only folds in the tail appended since the last
  refresh (never a rescan);
* **link-state counts** — one vectorized ``bincount`` over the
  columnar :class:`~dcrobot.network.state.FabricState` state codes;
* **SMI** — the hall's :class:`~dcrobot.topology.smi.SmiTracker`
  (S18), which rescans only after a structural change;
* **external telemetry** — last-report-per-source materialized from
  the ingest stream (:meth:`record_external`), never touching the sim.

``full_scan_status`` (:mod:`dcrobot.core.api`) stays the parity
oracle: :meth:`verify_status_parity` asserts a refreshed snapshot
equals the legacy full scan exactly, and the server's ``audit_every``
knob re-runs that comparison on live traffic.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

import numpy as np

from dcrobot.core.api import MaintenanceStatus, full_scan_status
from dcrobot.network.state import (
    DOWN_CODE,
    FLAPPING_CODE,
    MAINTENANCE_CODE,
    STATE_OF,
)

__all__ = ["ReadSnapshot", "ReadModel", "ReadModelParityError"]


class ReadModelParityError(AssertionError):
    """A materialized snapshot diverged from the full-scan oracle."""


@dataclasses.dataclass(frozen=True)
class ReadSnapshot:
    """One immutable point-in-time view; queries read only this."""

    time: float
    refresh_seq: int
    open_incidents: int
    closed_incidents: int
    unresolved_incidents: int
    proactive_operations: int
    repair_count: int
    repair_seconds_total: float
    links_down: int
    links_flapping: int
    links_maintenance: int
    links_total: int
    smi: Optional[float] = None

    @property
    def mean_time_to_repair_seconds(self) -> Optional[float]:
        if self.repair_count == 0:
            return None
        return self.repair_seconds_total / self.repair_count

    def status(self) -> MaintenanceStatus:
        """The snapshot as the classic facade status (O(1))."""
        return MaintenanceStatus(
            open_incidents=self.open_incidents,
            closed_incidents=self.closed_incidents,
            unresolved_incidents=self.unresolved_incidents,
            proactive_operations=self.proactive_operations,
            mean_time_to_repair_seconds=(
                self.mean_time_to_repair_seconds),
            links_down=self.links_down,
            links_total=self.links_total,
        )


class ReadModel:
    """Materialized maintenance-plane view over one live world."""

    def __init__(self, controller, fabric,
                 smi_tracker=None) -> None:
        """``controller`` may be the controller itself or a zero-arg
        callable returning the *live* controller (failover-aware, the
        way :class:`~dcrobot.experiments.runner.RunResult` resolves
        it)."""
        self._controller_fn: Callable = (
            controller if callable(controller)
            else (lambda: controller))
        self.fabric = fabric
        self.smi_tracker = smi_tracker
        #: Closed incidents already folded into the MTTR accumulators.
        self._closed_seen = 0
        self._repair_seconds = 0.0
        self.refresh_count = 0
        self.snapshot: Optional[ReadSnapshot] = None
        #: source id -> last ingested telemetry report (plain data).
        self.external_last: Dict[str, object] = {}
        self.external_ingested = 0

    @property
    def controller(self):
        return self._controller_fn()

    # -- refresh (called once per bridge slice) -------------------------------

    def _fold_closed_tail(self, controller) -> None:
        closed = controller.closed_incidents
        for incident in closed[self._closed_seen:]:
            self._repair_seconds += incident.time_to_repair
        self._closed_seen = len(closed)

    def refresh(self, now: Optional[float] = None) -> ReadSnapshot:
        """Re-materialize the snapshot; O(new closed incidents) plus
        one vectorized pass over the state codes."""
        controller = self.controller
        if self._closed_seen > len(controller.closed_incidents):
            # A failover successor may restart its ledgers; re-fold.
            self._closed_seen = 0
            self._repair_seconds = 0.0
        self._fold_closed_tail(controller)
        state = self.fabric.state
        n = state.n_links
        counts = np.bincount(state.state_code[:n].astype(np.int64),
                             minlength=len(STATE_OF))
        self.refresh_count += 1
        self.snapshot = ReadSnapshot(
            time=(now if now is not None else controller.sim.now),
            refresh_seq=self.refresh_count,
            open_incidents=len(controller.open_incidents),
            closed_incidents=len(controller.closed_incidents),
            unresolved_incidents=len(controller.unresolved_incidents),
            proactive_operations=len(controller.proactive_outcomes),
            repair_count=self._closed_seen,
            repair_seconds_total=self._repair_seconds,
            links_down=int(counts[DOWN_CODE]),
            links_flapping=int(counts[FLAPPING_CODE]),
            links_maintenance=int(counts[MAINTENANCE_CODE]),
            links_total=int(n),
            smi=(self.smi_tracker.report().smi
                 if self.smi_tracker is not None else None))
        return self.snapshot

    def _snapshot(self) -> ReadSnapshot:
        if self.snapshot is None:
            return self.refresh()
        return self.snapshot

    # -- queries (all O(1) against the snapshot) ------------------------------

    def status(self) -> MaintenanceStatus:
        return self._snapshot().status()

    def smi(self) -> Optional[float]:
        return self._snapshot().smi

    def incident(self, link_id: str):
        """The open incident on a link, if any (O(1) dict lookup)."""
        return self.controller.open_incidents.get(link_id)

    def link_health(self, link_id: str) -> Dict[str, object]:
        """Per-link health row straight from the columns (O(1))."""
        state = self.fabric.state
        row = state.index_of.get(link_id)
        if row is None:
            raise KeyError(f"unknown link {link_id}")
        down_since = float(state.down_since[row])
        report = self.external_last.get(link_id)
        return {
            "link_id": link_id,
            "state": STATE_OF[int(state.state_code[row])].value,
            "loss_rate": float(state.loss_rate[row]),
            "down_since": (None if np.isnan(down_since)
                           else down_since),
            "oxidation": float(state.ox[:, row].max()),
            "cable_damaged": bool(state.cable_damaged[row]),
            "external_report": report,
        }

    # -- external telemetry materialization -----------------------------------

    def record_external(self, report) -> None:
        """Fold one ingested telemetry report into the view.

        Reports are keyed by ``source_id`` (falling back to
        ``link_id``) and only the latest per source is kept — the
        service plane materializes device streams for queries, it
        never feeds them into the simulation (so a served world stays
        bit-identical to an unserved one).
        """
        key = (getattr(report, "source_id", None)
               or getattr(report, "link_id", None))
        if key is None and isinstance(report, dict):
            key = report.get("source_id") or report.get("link_id")
        if key is None:
            key = "anonymous"
        self.external_last[key] = report
        self.external_ingested += 1

    # -- parity oracle ---------------------------------------------------------

    def verify_status_parity(self) -> MaintenanceStatus:
        """Assert the refreshed snapshot equals the legacy full scan.

        Must be called at a refresh point (the server audits between
        bridge slices, where no sim event can have run since the last
        refresh).  Returns the oracle status on success.
        """
        oracle = full_scan_status(self.controller)
        got = self._snapshot().status()
        if got != oracle:
            raise ReadModelParityError(
                f"read model diverged from full scan: {got} != "
                f"{oracle}")
        return oracle


class CampusReadModel:
    """Aggregated O(1) status over per-hall read models (S20 x S21)."""

    def __init__(self, hall_models: Dict[int, ReadModel]) -> None:
        self.halls = dict(hall_models)

    def hall(self, hall_id: int) -> ReadModel:
        return self.halls[hall_id]

    def refresh(self, now: Optional[float] = None) -> None:
        for model in self.halls.values():
            model.refresh(now)

    def status(self) -> MaintenanceStatus:
        """Campus-wide sum of every hall's snapshot (link-weighted
        MTTR, matching how a federated scan would aggregate)."""
        snaps = [model._snapshot() for model in self.halls.values()]
        repair_count = sum(snap.repair_count for snap in snaps)
        repair_sum = sum(snap.repair_seconds_total for snap in snaps)
        return MaintenanceStatus(
            open_incidents=sum(s.open_incidents for s in snaps),
            closed_incidents=sum(s.closed_incidents for s in snaps),
            unresolved_incidents=sum(s.unresolved_incidents
                                     for s in snaps),
            proactive_operations=sum(s.proactive_operations
                                     for s in snaps),
            mean_time_to_repair_seconds=(
                repair_sum / repair_count if repair_count else None),
            links_down=sum(s.links_down for s in snaps),
            links_total=sum(s.links_total for s in snaps))

    def verify_status_parity(self) -> None:
        for model in self.halls.values():
            model.verify_status_parity()

