"""Incident attribution: what actually caused each ticket?

The controller only sees symptoms; the injector keeps ground truth.
Joining them answers questions operators care about and the paper
raises: how many tickets were *collateral* from repairs (cascading
failures, §1), how many were slow environmental degradation (dust,
oxidation aging), and how many were phantom tickets that self-healed
("false positives on repairs", §2)?

An incident is attributed to the most recent injected fault on its link
within ``attribution_window_seconds`` before detection; incidents with
no such fault are split by whether a repair-touch disturbance was
recorded for the link (collateral) or not (environmental drift /
phantom).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from dcrobot.core.controller import Incident
from dcrobot.failures.injector import InjectedFault
from dcrobot.network.enums import DegradationKind


@dataclasses.dataclass(frozen=True)
class AttributionSummary:
    """Ticket counts by root-cause category."""

    by_cause: Dict[DegradationKind, int]
    collateral: int
    environmental: int
    total: int

    @property
    def injected(self) -> int:
        return sum(self.by_cause.values())

    def share(self, kind: DegradationKind) -> float:
        if self.total == 0:
            return 0.0
        return self.by_cause.get(kind, 0) / self.total

    def __repr__(self) -> str:
        return (f"<AttributionSummary total={self.total} "
                f"injected={self.injected} "
                f"collateral={self.collateral} "
                f"environmental={self.environmental}>")


def attribute_incidents(
        incidents: Sequence[Incident],
        faults: Sequence[InjectedFault],
        disturbed_link_ids: Sequence[str] = (),
        attribution_window_seconds: float = 7 * 86400.0,
) -> AttributionSummary:
    """Join incidents with ground truth.

    ``disturbed_link_ids`` is the set of links that cascade touches
    disturbed at some point (from ``CascadeModel.reports``); incidents
    on those links with no injected fault are classed *collateral*.
    """
    if attribution_window_seconds <= 0:
        raise ValueError("attribution window must be > 0")
    faults_by_link: Dict[str, List[InjectedFault]] = {}
    for fault in faults:
        faults_by_link.setdefault(fault.link_id, []).append(fault)
    disturbed = set(disturbed_link_ids)

    by_cause: Dict[DegradationKind, int] = {}
    collateral = 0
    environmental = 0
    for incident in incidents:
        candidates = [
            fault for fault in faults_by_link.get(incident.link_id, [])
            if (incident.opened_at - attribution_window_seconds
                <= fault.time <= incident.opened_at)]
        if candidates:
            cause = max(candidates, key=lambda fault: fault.time).kind
            by_cause[cause] = by_cause.get(cause, 0) + 1
        elif incident.link_id in disturbed:
            collateral += 1
        else:
            environmental += 1
    return AttributionSummary(
        by_cause=by_cause, collateral=collateral,
        environmental=environmental, total=len(incidents))


def disturbed_links_from_cascade(cascade_reports) -> List[str]:
    """The link ids ever disturbed or damaged by repair touches."""
    seen = []
    for report in cascade_reports:
        for link_id in (list(report.disturbed_links)
                        + list(report.damaged_links)):
            if link_id not in seen:
                seen.append(link_id)
    return seen
