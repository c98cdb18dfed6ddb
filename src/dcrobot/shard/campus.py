"""CampusWorld: N hall shards behind the one-world surface (S20).

``WorldConfig(halls=N)`` describes a campus; :class:`CampusWorld`
composes it from N independent :class:`~dcrobot.shard.hall.HallShard`
worlds plus a :class:`~dcrobot.shard.boundary.BoundaryShard` of
cross-hall links driven by the
:class:`~dcrobot.shard.federation.CampusFederation`.  Halls run
either serially in-process (keeping live ``RunResult`` access for
tests) or fanned out over a process pool (``jobs > 1``), with
bit-identical summaries either way — workers rebuild their hall from
its picklable config, exactly the PR-1 trial-engine pattern.

The contract the test battery pins:

* ``halls=1`` is **bit-identical** to the legacy single-hall world
  (same summary, same RNG streams, same parity goldens);
* a hall's shard never perturbs a sibling (columns, substreams,
  conclusions) — chaos or failover on one hall leaves the others
  equal to an undisturbed control run;
* campus wall-clock is bounded by the slowest shard, not the sum,
  once halls run in parallel — and per-hall cost stays near-flat even
  serially (the ``bench_campus_scale`` CI gate).
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional

from dcrobot.experiments.runner import WorldConfig, WorldSummary
from dcrobot.shard.boundary import BoundaryShard
from dcrobot.shard.federation import (
    CampusFederation,
    FederationReport,
    campus_smi,
    merge_metric_snapshots,
)
from dcrobot.shard.hall import HallShard, hall_config

__all__ = ["CampusSummary", "CampusWorld", "run_campus"]


@dataclasses.dataclass
class CampusSummary:
    """One finished campus, as plain picklable data.

    Carries every hall's :class:`WorldSummary` verbatim (hall 0 of a
    1-hall campus is bit-identical to the legacy world's summary)
    plus the federated aggregates and the boundary accounting.
    """

    halls: int
    seed: int
    horizon_seconds: float
    hall_summaries: List[WorldSummary]
    #: -- federated aggregates ----------------------------------------
    incidents: int
    closed_incidents: int
    unresolved_incidents: int
    open_incidents: int
    link_count: int
    #: Link-weighted mean availability across halls.
    availability_mean: float
    invariant_violations: int
    failovers: int
    #: hall id -> final fencing token (epoch registry view).
    hall_epochs: Dict[int, int]
    #: -- boundary / cross-hall ---------------------------------------
    boundary_links: int
    boundary_offered_bytes: float
    boundary_delivered_bytes: float
    boundary_lost_bytes: float
    cross_hall_incidents: int
    cross_hall_concluded: int
    cross_hall_routed: Dict[int, int]
    #: -- campus SMI ---------------------------------------------------
    hall_smi: List[float]
    boundary_smi: float
    campus_smi: float
    #: -- wall-clock telemetry ----------------------------------------
    hall_build_seconds: List[float]
    hall_run_seconds: List[float]
    #: Wall-clock of the whole run() call (includes pool overhead).
    total_wall_seconds: float = 0.0
    #: Merged per-shard S15 metrics (None unless observing).
    merged_metrics: Optional[dict] = None

    @property
    def hall_wall_seconds(self) -> List[float]:
        return [build + run for build, run
                in zip(self.hall_build_seconds, self.hall_run_seconds)]

    @property
    def slowest_shard_seconds(self) -> float:
        return max(self.hall_wall_seconds) if self.halls else 0.0

    @property
    def per_hall_wall_seconds(self) -> float:
        """Mean wall-clock per hall — the near-flat scaling metric."""
        return (sum(self.hall_wall_seconds) / self.halls
                if self.halls else 0.0)

    @property
    def mature_resolution_rate(self) -> float:
        mature = sum(summary.mature_incidents
                     for summary in self.hall_summaries)
        if mature == 0:
            return 1.0
        return sum(summary.mature_concluded
                   for summary in self.hall_summaries) / mature


def _hall_worker(payload) -> tuple:
    """Process-pool unit: rebuild one hall from its config and run it
    (module-level, hence picklable)."""
    hall_id, campus_halls, config = payload
    shard = HallShard(hall_id, config, campus_halls=campus_halls)
    summary = shard.run()
    return (hall_id, summary, shard.build_wall_seconds,
            shard.run_wall_seconds, shard.smi)


class CampusWorld:
    """N hall shards + boundary shard + federation, one surface."""

    def __init__(self, config: WorldConfig) -> None:
        if config.halls < 1:
            raise ValueError("halls must be >= 1")
        if config.hall_overrides and config.halls == 1:
            raise ValueError("hall_overrides requires halls > 1")
        for hall_id in (config.hall_overrides or {}):
            if not 0 <= hall_id < config.halls:
                raise ValueError(
                    f"hall_overrides key {hall_id} outside "
                    f"0..{config.halls - 1}")
        self.config = config
        self.shards = [
            HallShard(hall_id, hall_config(config, hall_id),
                      campus_halls=config.halls)
            for hall_id in range(config.halls)]
        self.boundary = BoundaryShard(config.halls)
        self.federation = CampusFederation(
            self.boundary, seed=config.seed,
            horizon_seconds=config.horizon_seconds)
        self.federation_report: Optional[FederationReport] = None
        self.summary: Optional[CampusSummary] = None

    def __repr__(self) -> str:
        return (f"<CampusWorld halls={self.config.halls} "
                f"seed={self.config.seed} "
                f"{'run' if self.summary else 'cold'}>")

    def hall(self, hall_id: int) -> HallShard:
        return self.shards[hall_id]

    def build(self) -> "CampusWorld":
        """Assemble every hall in-process (serial mode prep)."""
        for shard in self.shards:
            shard.build()
        return self

    # -- execution ----------------------------------------------------

    def run(self, jobs: Optional[int] = None) -> CampusSummary:
        """Run every hall to the horizon plus the federation pass.

        ``jobs`` > 1 fans un-built halls out over a process pool;
        summaries are bit-identical to the serial path because each
        worker rebuilds the same hall config.  Already-built halls
        (or ``jobs in (None, 1)``) run serially in-process.
        """
        if self.summary is not None:
            return self.summary
        started = time.perf_counter()
        parallel = (jobs or 1) > 1 and len(self.shards) > 1 \
            and not any(shard.built for shard in self.shards)
        if parallel:
            payloads = [(shard.hall_id, self.config.halls,
                         shard.config) for shard in self.shards]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for hall_id, summary, build_wall, run_wall, smi \
                        in pool.map(_hall_worker, payloads):
                    shard = self.shards[hall_id]
                    shard.summary = summary
                    shard.build_wall_seconds = build_wall
                    shard.run_wall_seconds = run_wall
                    shard.smi = smi
        else:
            for shard in self.shards:
                shard.run()
        self.federation_report = self.federation.run()
        for shard in self.shards:
            self.federation.registry.observe(
                shard.hall_id, shard.summary.fencing_token)
        self.summary = self._assemble(
            time.perf_counter() - started)
        return self.summary

    # -- assembly -----------------------------------------------------

    def _assemble(self, total_wall: float) -> CampusSummary:
        summaries = [shard.summary for shard in self.shards]
        report = self.federation_report
        links = sum(summary.link_count for summary in summaries)
        availability = (
            sum(summary.availability_mean * summary.link_count
                for summary in summaries) / links if links else 1.0)
        hall_smis = [shard.smi for shard in self.shards]
        return CampusSummary(
            halls=self.config.halls,
            seed=self.config.seed,
            horizon_seconds=self.config.horizon_seconds,
            hall_summaries=summaries,
            incidents=sum(s.incidents for s in summaries),
            closed_incidents=sum(s.closed_incidents
                                 for s in summaries),
            unresolved_incidents=sum(s.unresolved_incidents
                                     for s in summaries),
            open_incidents=sum(s.open_incidents for s in summaries),
            link_count=links,
            availability_mean=availability,
            invariant_violations=sum(s.invariant_violations
                                     for s in summaries),
            failovers=sum(s.failovers for s in summaries),
            hall_epochs=dict(self.federation.registry.epochs),
            boundary_links=len(self.boundary.links),
            boundary_offered_bytes=report.offered_bytes,
            boundary_delivered_bytes=report.delivered_bytes,
            boundary_lost_bytes=report.lost_bytes,
            cross_hall_incidents=len(report.incidents),
            cross_hall_concluded=report.concluded,
            cross_hall_routed=dict(report.routed_by_hall),
            hall_smi=hall_smis,
            boundary_smi=self.boundary.smi_factor(),
            campus_smi=campus_smi(
                hall_smis,
                [s.link_count for s in summaries], self.boundary),
            hall_build_seconds=[shard.build_wall_seconds
                                for shard in self.shards],
            hall_run_seconds=[shard.run_wall_seconds
                              for shard in self.shards],
            total_wall_seconds=total_wall,
            merged_metrics=merge_metric_snapshots(
                [s.metrics for s in summaries]))


def run_campus(config: WorldConfig,
               jobs: Optional[int] = None) -> CampusSummary:
    """Build and run a campus (or, at ``halls=1`` with the legacy
    in-process path, a plain world wrapped as a 1-hall campus) —
    the campus counterpart of
    :func:`~dcrobot.experiments.runner.run_world`."""
    return CampusWorld(config).run(jobs=jobs)
