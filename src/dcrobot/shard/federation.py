"""The thin federation layer over a campus's hall shards (S20).

Halls heal locally; the federation handles only what crosses a hall
wall:

* **cross-hall incidents** — boundary-link failures are detected,
  routed to an *owner* hall (least-loaded of the link's two endpoint
  halls, ties to the lower id), and repaired on a drawn repair time;
  the boundary link stays failed (shedding its share of every
  overlapping traffic window) until the repair lands;
* **epochs** — a campus-wide registry of each hall's S14 fencing
  token, so a hall failing over independently is visible (and
  monotonicity violations are a recorded tripwire, held at zero by
  the property suite);
* **metrics** — per-shard S15 metrics snapshots merge associatively
  into one campus snapshot;
* **SMI** — campus-wide SMI is the link-weighted mean of the per-hall
  SMI values plus the boundary shard's live-fraction aggregate.

Everything here runs on the dedicated ``seed + 16`` campus substream
and never reads hall internals, so the schedule is identical whether
halls ran serially, in parallel worker processes, or not at all —
which is what keeps serial and parallel campus runs bit-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from dcrobot.shard.boundary import BoundaryConfig, BoundaryShard

__all__ = [
    "CrossHallIncident",
    "FederationReport",
    "FederationRegistry",
    "CampusFederation",
    "merge_metric_snapshots",
    "campus_smi",
]

#: Offset of the campus federation RNG substream relative to the
#: campus seed; hall worlds consume ``hall_seed + 1 .. + 14``, so with
#: the hall stride this never collides with any hall stream.
FEDERATION_SEED_OFFSET = 16


@dataclasses.dataclass
class CrossHallIncident:
    """One boundary-link failure routed through the federation."""

    link_id: str
    pair: Tuple[int, int]
    opened_at: float
    detected_at: float
    owner_hall: int
    #: Repair landing time; None = still open at the horizon.
    concluded_at: Optional[float] = None

    @property
    def concluded(self) -> bool:
        return self.concluded_at is not None


@dataclasses.dataclass
class FederationReport:
    """What the federation did over one campus run."""

    windows: int
    incidents: List[CrossHallIncident]
    routed_by_hall: Dict[int, int]
    offered_bytes: float
    delivered_bytes: float
    lost_bytes: float
    offered_flows: int
    delivered_flows: int
    conservation_error: float

    @property
    def concluded(self) -> int:
        return sum(1 for incident in self.incidents
                   if incident.concluded)

    @property
    def open(self) -> int:
        return len(self.incidents) - self.concluded


class FederationRegistry:
    """Campus-wide view of per-hall leadership epochs.

    Each hall's lease coordinator hands out monotonically increasing
    fencing tokens (S14); the registry records the highest token seen
    per hall and trips on any regression — the cross-shard fencing
    invariant the hypothesis suite holds.
    """

    def __init__(self) -> None:
        self.epochs: Dict[int, int] = {}
        #: (hall_id, stale_token, highest_seen) regressions; must
        #: stay empty.
        self.regressions: List[Tuple[int, int, int]] = []

    def __repr__(self) -> str:
        return (f"<FederationRegistry halls={len(self.epochs)} "
                f"regressions={len(self.regressions)}>")

    def observe(self, hall_id: int, token: int) -> bool:
        """Record a hall's announced epoch; False (and a tripwire
        entry) if it regressed below the highest already seen."""
        current = self.epochs.get(hall_id, 0)
        if token < current:
            self.regressions.append((hall_id, token, current))
            return False
        self.epochs[hall_id] = token
        return True

    def epoch(self, hall_id: int) -> int:
        return self.epochs.get(hall_id, 0)


class CampusFederation:
    """Drives the boundary shard deterministically over the horizon."""

    def __init__(self, boundary: BoundaryShard, seed: int,
                 horizon_seconds: float,
                 config: Optional[BoundaryConfig] = None) -> None:
        self.boundary = boundary
        self.config = config or boundary.config
        self.seed = seed
        self.horizon_seconds = horizon_seconds
        self.registry = FederationRegistry()
        self.report: Optional[FederationReport] = None

    def run(self) -> FederationReport:
        """Play the whole boundary schedule: failures, routing,
        repairs, and offered traffic windows, in time order."""
        rng = np.random.default_rng(self.seed + FEDERATION_SEED_OFFSET)
        config = self.config
        boundary = self.boundary
        windows = int(self.horizon_seconds // config.window_seconds)
        per_window_rate = (config.failure_rate_per_day
                           * config.window_seconds / 86400.0)
        incidents: List[CrossHallIncident] = []
        routed: Dict[int, int] = {hall: 0
                                  for hall in range(boundary.halls)}
        open_by_link: Dict[str, CrossHallIncident] = {}
        pending_repairs: List[Tuple[float, str]] = []
        lids = sorted(boundary.links)
        pairs = sorted(boundary.pairs)

        for window in range(windows):
            now = window * config.window_seconds
            # 1. land repairs due by this window.
            due = [item for item in pending_repairs if item[0] <= now]
            for when, lid in sorted(due):
                boundary.repair(lid)
                open_by_link.pop(lid, None)
            pending_repairs = [item for item in pending_repairs
                               if item[0] > now]
            # 2. draw failures.  One draw per link per window
            # regardless of its state, so the stream's position never
            # depends on what already failed.
            draws = rng.random(len(lids)) if lids else []
            for lid, draw in zip(lids, draws):
                link = boundary.links[lid]
                if draw >= per_window_rate or not link.live \
                        or lid in open_by_link:
                    continue
                boundary.fail(lid)
                detected = now + config.detect_seconds
                owner = self._route(link.pair, routed)
                repair_seconds = float(rng.exponential(
                    config.repair_hours_mean * 3600.0))
                concluded = detected + repair_seconds
                incident = CrossHallIncident(
                    link_id=lid, pair=link.pair, opened_at=now,
                    detected_at=detected, owner_hall=owner)
                routed[owner] += 1
                if concluded <= self.horizon_seconds:
                    incident.concluded_at = concluded
                    pending_repairs.append((concluded, lid))
                incidents.append(incident)
                open_by_link[lid] = incident
            # 3. offer this window's cross-hall traffic.
            for pair in pairs:
                flows = int(rng.poisson(config.flows_per_window))
                boundary.offer(pair[0], pair[1],
                               flows * config.mean_flow_bytes, flows)

        for when, lid in sorted(pending_repairs):
            if when <= self.horizon_seconds:
                boundary.repair(lid)
                open_by_link.pop(lid, None)

        self.report = FederationReport(
            windows=windows,
            incidents=incidents,
            routed_by_hall=routed,
            offered_bytes=boundary.offered_bytes,
            delivered_bytes=boundary.delivered_bytes,
            lost_bytes=boundary.lost_bytes,
            offered_flows=boundary.offered_flows,
            delivered_flows=boundary.delivered_flows,
            conservation_error=boundary.conservation_error())
        return self.report

    @staticmethod
    def _route(pair: Tuple[int, int],
               routed: Dict[int, int]) -> int:
        """Owner hall for a boundary incident: the less-loaded of the
        link's two endpoint halls, ties to the lower id."""
        hall_a, hall_b = pair
        if routed.get(hall_b, 0) < routed.get(hall_a, 0):
            return hall_b
        return hall_a


def merge_metric_snapshots(snapshots: List[dict]) -> Optional[dict]:
    """Associatively merge per-shard S15 metrics snapshots.

    Counter and gauge samples sum per (name, labels) — a campus gauge
    is the campus-wide level, e.g. total open incidents; histogram
    samples sum count/sum/bucket_counts (bucket layouts must match).
    Returns ``None`` when no shard carried metrics.
    """
    live = [snap for snap in snapshots if snap]
    if not live:
        return None
    merged: dict = {"kind": "metrics",
                    "schema_version": live[0]["schema_version"],
                    "metrics": {}}
    out = merged["metrics"]
    for snapshot in live:
        for name, entry in snapshot["metrics"].items():
            target = out.setdefault(
                name, {"kind": entry["kind"], "help": entry["help"],
                       **({"buckets": list(entry["buckets"])}
                          if "buckets" in entry else {}),
                       "samples": []})
            if "buckets" in entry \
                    and target.get("buckets") != entry["buckets"]:
                raise ValueError(
                    f"histogram {name!r} bucket layouts differ")
            index = {tuple(sorted(sample["labels"].items())): sample
                     for sample in target["samples"]}
            for sample in entry["samples"]:
                key = tuple(sorted(sample["labels"].items()))
                current = index.get(key)
                if current is None:
                    copy = {"labels": dict(sample["labels"])}
                    if "value" in sample:
                        copy["value"] = sample["value"]
                    else:
                        copy["count"] = sample["count"]
                        copy["sum"] = sample["sum"]
                        copy["bucket_counts"] = list(
                            sample["bucket_counts"])
                    target["samples"].append(copy)
                    index[key] = copy
                elif "value" in sample:
                    current["value"] += sample["value"]
                else:
                    current["count"] += sample["count"]
                    current["sum"] += sample["sum"]
                    current["bucket_counts"] = [
                        a + b for a, b in zip(current["bucket_counts"],
                                              sample["bucket_counts"])]
    for entry in out.values():
        entry["samples"].sort(
            key=lambda sample: sorted(sample["labels"].items()))
    return merged


def campus_smi(hall_smis: List[float], hall_link_counts: List[int],
               boundary: BoundaryShard) -> float:
    """Campus-wide SMI: link-weighted mean of per-shard SMI plus the
    boundary aggregate, each hall weighted by its link count and the
    boundary by its."""
    total = 0.0
    weight = 0.0
    for smi, links in zip(hall_smis, hall_link_counts):
        total += smi * links
        weight += links
    boundary_links = len(boundary.links)
    if boundary_links:
        total += boundary.smi_factor() * boundary_links
        weight += boundary_links
    return total / weight if weight else 1.0
