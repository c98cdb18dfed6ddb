"""The five canonical worlds of the perf ledger and how each is checked.

Every config is written out here from public ``WorldConfig`` fields,
with values copied from the experiment that introduced the world (E13,
E15, E17, E19).  Nothing private is imported from an experiment, so a
later refactor of an experiment cannot silently change a workload; if
it changes a public name used here (``MixedCampaign``, ``TWIN``), the
pinned digests in ``expected.json`` catch it.

The program receives only what the benchmark generates from the seed:
the world seed, and for ``served_campus`` the query plan drawn by
:class:`QueryPlan`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    # Measure the checkout's source, never an installed copy.
    sys.path.insert(0, str(SRC))

from dcrobot.chaos.config import ChaosConfig  # noqa: E402
from dcrobot.core.automation import AutomationLevel  # noqa: E402
from dcrobot.core.controller import ControllerConfig  # noqa: E402
from dcrobot.core.resilience import ResilienceConfig  # noqa: E402
from dcrobot.experiments.e17_twin_planning import (  # noqa: E402
    TWIN,
    MixedCampaign,
)
from dcrobot.experiments.runner import WorldConfig  # noqa: E402
from dcrobot.network.enums import FormFactor  # noqa: E402
from dcrobot.traffic.patterns import HotspotPattern, UniformPattern  # noqa: E402

DAY = 86400.0

#: Wall-clock fields of a CampusSummary; everything else is simulated
#: output and goes into the digest.
WALL_FIELDS = ("hall_build_seconds", "hall_run_seconds",
               "total_wall_seconds")

#: Process-pool width of campus10 (the contract caps it at nproc = 2).
CAMPUS_JOBS = 2


def _chaos_hall(seed: int, days: float) -> WorldConfig:
    """E13 hardened controller at 1x moderate chaos."""
    return WorldConfig(
        horizon_days=days, seed=seed, failure_scale=4.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION,
        chaos=ChaosConfig.moderate().scaled(1.0),
        safety=True,
        stuck_after_seconds=5.0 * DAY,
        mute_ttl_seconds=2.0 * DAY,
        controller_config=ControllerConfig(resilience=ResilienceConfig()))


def _hall_k16(seed: int, days: float) -> WorldConfig:
    """E15's k=16 fat-tree: no chaos, no safety monitor."""
    return WorldConfig(
        topology_kwargs={"k": 16}, horizon_days=days, seed=seed,
        level=AutomationLevel.L3_HIGH_AUTOMATION)


def _diurnal_schedule():
    """E17's day/night matrix: 2400 hotspot flows from the first two
    ToRs (p=0.75) between 08:00 and 20:00, 400 uniform flows else."""
    day_pattern = HotspotPattern(hot_endpoints=2, hot_probability=0.75)
    night_pattern = UniformPattern()

    def schedule(now: float):
        hour = (now % DAY) / 3600.0
        if 8.0 <= hour < 20.0:
            return 2400, day_pattern
        return 400, night_pattern

    return schedule


def _twin_hall(seed: int, days: float) -> WorldConfig:
    """E17's twin arm: reseat campaign ranked by forked rollouts."""
    return WorldConfig(
        topology_kwargs={"k": 4, "form_factor": FormFactor.SFP28},
        horizon_days=days, seed=seed,
        failure_scale=0.0, dust_rate_per_day=0.0,
        aging_rate_per_day=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION,
        policy=MixedCampaign,
        controller_config=ControllerConfig(defer_proactive=False),
        traffic=True,
        traffic_window_seconds=900.0,
        traffic_sample_seconds=1.0,
        traffic_schedule=_diurnal_schedule(),
        traffic_max_equal_paths=4,
        twin_planner=TWIN)


def _campus(halls: int) -> Callable[[int, float], WorldConfig]:
    """E19's campus: the E13-style chaos world in every hall."""

    def config(seed: int, days: float) -> WorldConfig:
        return WorldConfig(
            horizon_days=days, seed=seed, failure_scale=3.0,
            level=AutomationLevel.L3_HIGH_AUTOMATION,
            chaos=ChaosConfig.moderate(), safety=True,
            stuck_after_seconds=5.0 * DAY,
            mute_ttl_seconds=2.0 * DAY,
            controller_config=ControllerConfig(
                resilience=ResilienceConfig()),
            halls=halls)

    return config


@dataclasses.dataclass(frozen=True)
class Workload:
    """One canonical world: how to configure it and how it runs."""

    name: str
    #: "world" (build_world + sim.run), "campus" (run_campus on a
    #: process pool) or "served" (serve_world under query load).
    kind: str
    horizon_days: float
    make_config: Callable[[int, float], WorldConfig]
    why: str

    def horizon(self, quick: bool = False) -> float:
        return self.horizon_days / 10.0 if quick else self.horizon_days

    def config(self, seed: int, quick: bool = False) -> WorldConfig:
        return self.make_config(seed, self.horizon(quick))


#: Horizons are cut from the experiments' (180, 40, 5, 40 and 80 days)
#: so one repeat runs about 3 s: the host is noisy per process, and a
#: median over several short repeats is steadier than one long run.
#: Each workload's dominant layer stays dominant at these horizons;
#: served_campus keeps 50 days so one repeat serves over 1000 reads.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "chaos_hall", "world", 90.0, _chaos_hall,
        "small fabric over many ticks: per-call cost of the periodic "
        "kernels and the O(history) safety check dominate"),
    Workload(
        "hall_k16", "world", 15.0, _hall_k16,
        "2048 links: vector cost of the sweeps, executors and repair "
        "physics at scale; the safety layer does no work"),
    Workload(
        "twin_hall", "world", 2.0, _twin_hall,
        "the only world where traffic and twin rollouts dominate; "
        "fault physics and safety do little"),
    Workload(
        "campus10", "campus", 15.0, _campus(10),
        "10 chaos halls on the process-pool shard path plus the "
        "federation pass; wall is set by shard packing, not the sum"),
    Workload(
        "served_campus", "served", 50.0, _campus(4),
        "4 chaos halls behind the service plane under a 300 rps "
        "open-loop query mix; latency is bounded by bridge slices"),
)}


# -- simulated-output digests -------------------------------------------------


def summary_digest(summary, windows: Optional[List] = None) -> str:
    """sha256 of a WorldSummary/CampusSummary without its wall-clock
    fields, plus (for twin_hall) the traffic driver's window log."""
    data = dataclasses.asdict(summary)
    for name in WALL_FIELDS:
        data.pop(name, None)
    if windows is not None:
        data["traffic_windows"] = [dataclasses.asdict(w) for w in windows]
    blob = json.dumps(data, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def invariant_failures(summary) -> List[str]:
    """The tripwires every canonical world must hold at zero."""
    halls = getattr(summary, "hall_summaries", None) or [summary]
    failures = []
    violations = sum(hall.invariant_violations for hall in halls)
    if violations:
        failures.append(f"{violations} safety invariant violations")
    zombies = sum(hall.robot_zombie_accepted for hall in halls)
    if zombies:
        failures.append(f"{zombies} zombie completions accepted")
    offered = getattr(summary, "boundary_offered_bytes", None)
    if offered is not None:
        accounted = (summary.boundary_delivered_bytes
                     + summary.boundary_lost_bytes)
        if abs(offered - accounted) > 1e-12 * max(1.0, offered):
            failures.append("boundary bytes not conserved: offered "
                            f"{offered!r} != {accounted!r}")
    return failures


# -- served_campus query plan --------------------------------------------------

#: Offered rate of the open-loop generator (arrivals per wall second).
QUERY_RATE = 300.0
#: Request mix, in draw order; the shares sum to 1.
QUERY_MIX = (("status", 0.40), ("link_health", 0.30), ("incident", 0.10),
             ("smi", 0.13), ("smi_audit", 0.05), ("command", 0.02))
#: Derives the plan's stream from the workload seed without touching
#: any stream the world itself draws from.
PLAN_STREAM = 0x10AD


class QueryPlan:
    """The seeded arrival sequence: arrival n's kind, hall and link
    depend only on the seed and n, never on timing."""

    def __init__(self, seed: int, link_ids: Dict[int, List[str]]) -> None:
        self.rng = np.random.default_rng([seed, PLAN_STREAM])
        self.halls = sorted(link_ids)
        self.link_ids = link_ids
        self.kinds = [kind for kind, _ in QUERY_MIX]
        self.shares = [share for _, share in QUERY_MIX]

    def next(self):
        """(kind, hall, link_id) of the next arrival."""
        kind = self.kinds[self.rng.choice(len(self.kinds), p=self.shares)]
        hall = self.halls[int(self.rng.integers(len(self.halls)))]
        links = self.link_ids[hall]
        return kind, hall, links[int(self.rng.integers(len(links)))]
