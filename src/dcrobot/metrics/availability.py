"""Availability accounting over link state timelines."""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List

import numpy as np

from dcrobot.network.inventory import Fabric
from dcrobot.network.state import FLAPPING_CODE


@dataclasses.dataclass(frozen=True)
class AvailabilitySummary:
    """Fleet availability over a window."""

    mean: float
    worst: float
    per_link: Dict[str, float]

    @property
    def nines(self) -> float:
        """The 'number of nines' of the mean availability."""
        if self.mean >= 1.0:
            return math.inf
        if self.mean <= 0.0:
            return 0.0
        return -math.log10(1.0 - self.mean)

    def __repr__(self) -> str:
        return (f"<AvailabilitySummary mean={self.mean:.6f} "
                f"({self.nines:.2f} nines) worst={self.worst:.6f}>")


def link_availability(fabric: Fabric, start: float,
                      end: float) -> AvailabilitySummary:
    """Per-link traffic-carrying fraction over [start, end)."""
    state = fabric.state
    if (start == 0.0 and end > start
            and end >= state.last_transition_time
            and state.n_links == len(fabric.links)):
        # Columnar fast path: the uptime accumulators sum the exact
        # float terms, in the exact order, that the per-link timeline
        # walk does, so whole-run queries (the overwhelmingly common
        # call: experiment summaries at the horizon) reduce to one
        # masked add.  Windowed queries fall back to the walk.
        n = state.n_links
        total = end - start
        uptime = state.uptime_accum[:n].copy()
        carrying = state.state_code[:n] <= FLAPPING_CODE
        uptime[carrying] += end - state.last_change[:n][carrying]
        fractions = uptime / total
        per_link = {link.id: float(fractions[link._row])
                    for link in fabric.links.values()}
    else:
        per_link = {link.id: link.uptime_fraction(start, end)
                    for link in fabric.links.values()}
    if not per_link:
        return AvailabilitySummary(mean=1.0, worst=1.0, per_link={})
    values = list(per_link.values())
    return AvailabilitySummary(
        mean=float(np.mean(values)),
        worst=float(min(values)),
        per_link=per_link)


def downtime_seconds(fabric: Fabric, start: float, end: float) -> float:
    """Total link-downtime (link-seconds not carrying traffic)."""
    horizon = end - start
    return sum((1.0 - fraction) * horizon
               for fraction in link_availability(
                   fabric, start, end).per_link.values())


def availability_from_incidents(repair_times: List[float],
                                incident_count: int,
                                horizon_seconds: float,
                                link_count: int) -> float:
    """Analytic availability: 1 - (incidents x MTTR) / link-time.

    Useful as a cross-check against the timeline-based measurement.
    """
    if link_count <= 0 or horizon_seconds <= 0:
        raise ValueError("need positive link_count and horizon")
    if not repair_times or incident_count == 0:
        return 1.0
    mean_ttr = float(np.mean(repair_times))
    downtime = incident_count * mean_ttr
    return max(0.0, 1.0 - downtime / (link_count * horizon_seconds))
