"""E20 — The service plane under open-loop load (S21).

Paper anchor: §2 — the maintenance API must "mask the complexity but
enable complex control" for cloud services, which at datacenter scale
means *heavy traffic*: far more status/health/SMI queries than one
simulation loop can answer synchronously.  This experiment drives an
always-on served world (E13-style chaos per hall, single hall and a
4-hall campus) with an **open-loop** query generator — arrivals are
scheduled on a fixed clock grid and latency is measured from the
*scheduled* arrival, not dispatch, so overload shows up as queueing
instead of being hidden by a slowed-down generator.

Each arm offers the same load (a calibrated multiple of the measured
deep-query capacity; every query is a "deep" SMI read audited against
the full :func:`~dcrobot.topology.smi.compute_smi` rescan, making the
parity oracle itself load-bearing) and every 50th arrival is an
urgent HIGH-priority maintenance command:

* **uncontrolled** (``admission=None``) — every query is served;
  the backlog grows without bound, p99 explodes, and the sim bridge
  records stalls (the event loop cannot wake it inside its budget);
* **admission-controlled** — queries beyond a sustainable token rate
  are shed immediately; served p99 stays flat, the bridge stays
  inside its stall budget, and HIGH commands are *never* shed.

``benchmarks/bench_service_load.py`` gates the controlled arm (p99 at
most half the uncontrolled arm's, zero stalls, zero parity failures,
zero HIGH sheds) in CI.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import List, Optional

import numpy as np

from dcrobot.experiments.e19_campus_scale import campus_config
from dcrobot.experiments.parallel import Execution
from dcrobot.experiments.result import ExperimentResult
from dcrobot.experiments.runner import WorldConfig
from dcrobot.metrics.report import Table
from dcrobot.topology.smi import compute_smi

# NOTE: dcrobot.service is imported lazily inside the harness — the
# experiments package initializes before the service package (which
# builds on the runner), so a module-level import would be circular.

EXPERIMENT_ID = "e20"
TITLE = "Service plane under load: admission control over a live campus"
PAPER_ANCHOR = "§2: the maintenance API as an always-on service"

#: Offered load as a multiple of measured deep-query capacity.
OVERLOAD_FACTOR = 4.0
#: Controlled arms admit this fraction of measured capacity.
SUSTAINABLE_FRACTION = 0.5
#: Every Nth arrival is an urgent HIGH maintenance command.
COMMAND_EVERY = 50


def service_load_config(halls: int, horizon_days: float,
                        seed: int) -> WorldConfig:
    """The E13-style chaos world (per hall) the plane serves over."""
    return campus_config(halls, horizon_days, seed)


@dataclasses.dataclass
class LoadReport:
    """One arm of the load matrix, fully measured."""

    halls: int
    admission: bool
    offered_rps: float
    offered: int
    served_queries: int
    shed_queries: int
    commands: int
    shed_commands_high: int
    p50_seconds: float
    p99_seconds: float
    max_seconds: float
    serve_wall_seconds: float
    achieved_rps: float
    stalls: int
    max_gap_seconds: float
    slices: int
    events: int
    parity_audits: int
    parity_failures: int

    @property
    def shed_fraction(self) -> float:
        total = self.served_queries + self.shed_queries
        return self.shed_queries / total if total else 0.0


def measure_deep_query_cost(config: WorldConfig,
                            samples: int = 30) -> float:
    """Mean wall-seconds of one deep query's oracle work (the full
    SMI rescan) on this config's topology — the calibration both
    arms' offered load derives from."""
    topology = config.topology_builder(
        rng=np.random.default_rng(config.seed + 1),
        **config.topology_kwargs)
    compute_smi(topology)  # warm caches outside the timed region
    started = time.perf_counter()
    for _ in range(samples):
        compute_smi(topology)
    return (time.perf_counter() - started) / samples


async def _one_query(service, scheduled: float, hall: int,
                     record: dict) -> None:
    from dcrobot.service import ServiceOverloadError
    from dcrobot.service.readmodel import ReadModelParityError

    try:
        await service.smi(hall=hall, audit=True)
        record["latencies"].append(time.perf_counter() - scheduled)
    except ServiceOverloadError:
        record["shed"] += 1
    except ReadModelParityError:
        # Already counted in service.parity_failures; the report
        # surfaces it and the bench gate fails on it.
        record["errors"] += 1


async def _one_command(service, link_id: str, hall: int,
                       record: dict) -> None:
    from dcrobot.service import ServiceOverloadError

    try:
        await service.request_maintenance(link_id, urgent=True,
                                          hall=hall)
        record["commands"] += 1
    except ServiceOverloadError:  # pragma: no cover - gated to zero
        record["command_shed"] += 1


async def _generate(service, stop: asyncio.Event, offered_rps: float,
                    halls: int, max_offered: int, record: dict,
                    tasks: List) -> None:
    """Open-loop arrival process on a fixed clock grid.

    When the event loop falls behind, *all* due arrivals are spawned
    in a batch — the generator never slows down to match the server,
    which is exactly what makes the uncontrolled arm's queueing
    visible from the scheduled-arrival latencies."""
    link_ids = {hall: list(world.fabric.links)
                for hall, world in service.worlds.items()}
    interval = 1.0 / offered_rps
    start = time.perf_counter()
    n = 0
    while not stop.is_set() and n < max_offered:
        due = int((time.perf_counter() - start) / interval) + 1
        while n < min(due, max_offered):
            scheduled = start + n * interval
            hall = n % halls
            record["offered"] += 1
            if COMMAND_EVERY and n % COMMAND_EVERY == COMMAND_EVERY - 1:
                links = link_ids[hall]
                tasks.append(asyncio.ensure_future(_one_command(
                    service, links[(n // COMMAND_EVERY) % len(links)],
                    hall, record)))
            else:
                tasks.append(asyncio.ensure_future(_one_query(
                    service, scheduled, hall, record)))
            n += 1
        delay = (start + n * interval) - time.perf_counter()
        await asyncio.sleep(max(delay, 0.0))


def run_load_arm(halls: int, horizon_days: float, seed: int,
                 serve_seconds: float, offered_rps: float,
                 admission) -> LoadReport:
    """Serve one world/campus for ``serve_seconds`` of wall time under
    ``offered_rps`` of open-loop query load; ``admission`` is an
    :class:`~dcrobot.service.AdmissionConfig` or ``None``."""
    from dcrobot.service import BridgeConfig, ServiceConfig, serve_world

    config = service_load_config(halls, horizon_days, seed)
    pace = config.horizon_seconds / serve_seconds
    served = serve_world(config, ServiceConfig(
        admission=admission, bridge=BridgeConfig(pace=pace)))
    service = served.service
    record = {"latencies": [], "shed": 0, "errors": 0, "offered": 0,
              "commands": 0, "command_shed": 0}
    max_offered = int(offered_rps * serve_seconds * 1.5)
    tasks: List = []

    async def main():
        stop = asyncio.Event()
        generator = asyncio.ensure_future(_generate(
            service, stop, offered_rps, halls, max_offered, record,
            tasks))
        started = time.perf_counter()
        await served.serve()
        wall = time.perf_counter() - started
        stop.set()
        await generator
        await asyncio.gather(*tasks, return_exceptions=True)
        return wall

    wall = asyncio.run(main())
    latencies = np.asarray(record["latencies"], dtype=np.float64)
    served_queries = len(latencies)
    return LoadReport(
        halls=halls,
        admission=admission is not None,
        offered_rps=offered_rps,
        offered=record["offered"],
        served_queries=served_queries,
        shed_queries=record["shed"],
        commands=record["commands"],
        shed_commands_high=(
            int(service.admission.shed("command-high"))
            if service.admission is not None
            else record["command_shed"]),
        p50_seconds=(float(np.percentile(latencies, 50))
                     if served_queries else 0.0),
        p99_seconds=(float(np.percentile(latencies, 99))
                     if served_queries else 0.0),
        max_seconds=(float(latencies.max())
                     if served_queries else 0.0),
        serve_wall_seconds=wall,
        achieved_rps=(served_queries / wall if wall else 0.0),
        stalls=service.bridge.stalls,
        max_gap_seconds=service.bridge.max_gap_seconds,
        slices=service.bridge.slices,
        events=service.bridge.events_processed,
        parity_audits=service.parity_audits,
        parity_failures=service.parity_failures)


def run_load_pair(halls: int, horizon_days: float, seed: int,
                  serve_seconds: float,
                  overload: float = OVERLOAD_FACTOR):
    """(uncontrolled, controlled) arms under identical offered load."""
    from dcrobot.service import AdmissionConfig

    config = service_load_config(halls, horizon_days, seed)
    cost = measure_deep_query_cost(config)
    capacity = 1.0 / cost
    offered_rps = overload * capacity
    controlled = AdmissionConfig(
        query_rate=SUSTAINABLE_FRACTION * capacity,
        query_burst=max(10.0, 0.02 * capacity))
    uncontrolled_report = run_load_arm(
        halls, horizon_days, seed, serve_seconds, offered_rps,
        admission=None)
    controlled_report = run_load_arm(
        halls, horizon_days, seed, serve_seconds, offered_rps,
        admission=controlled)
    return uncontrolled_report, controlled_report


def run(quick: bool = True, seed: int = 0,
        execution: Optional[Execution] = None) -> ExperimentResult:
    # Load arms are wall-clock measurements on one event loop; they
    # run serially in-process (``execution`` is part of the common
    # experiment signature but parallel workers would distort them).
    del execution
    halls_sweep = (1, 4)
    horizon_days = 1.0 if quick else 2.0
    serve_seconds = 1.5 if quick else 4.0
    result = ExperimentResult(EXPERIMENT_ID, TITLE, PAPER_ANCHOR)

    table = Table(
        ["halls", "admission", "offered rps", "served", "shed %",
         "p50 ms", "p99 ms", "stalls", "parity audits (failed)"],
        title="Open-loop service load: uncontrolled vs "
              "admission-controlled, same offered load")
    p99_series_off, p99_series_on = [], []
    reports = []
    for halls in halls_sweep:
        uncontrolled, controlled = run_load_pair(
            halls, horizon_days, seed, serve_seconds)
        reports.append((uncontrolled, controlled))
        for report in (uncontrolled, controlled):
            table.add_row(
                str(halls),
                "on" if report.admission else "off",
                f"{report.offered_rps:.0f}",
                str(report.served_queries),
                f"{100 * report.shed_fraction:.1f}",
                f"{1e3 * report.p50_seconds:.1f}",
                f"{1e3 * report.p99_seconds:.1f}",
                str(report.stalls),
                f"{report.parity_audits} "
                f"({report.parity_failures})")
        p99_series_off.append((halls, uncontrolled.p99_seconds))
        p99_series_on.append((halls, controlled.p99_seconds))
    result.add_table(table)
    result.add_series("p99_uncontrolled_vs_halls", p99_series_off)
    result.add_series("p99_controlled_vs_halls", p99_series_on)

    for uncontrolled, controlled in reports:
        ratio = (controlled.p99_seconds / uncontrolled.p99_seconds
                 if uncontrolled.p99_seconds else float("inf"))
        result.note(
            f"halls={uncontrolled.halls}: admission cut served p99 "
            f"from {1e3 * uncontrolled.p99_seconds:.0f}ms to "
            f"{1e3 * controlled.p99_seconds:.0f}ms ({ratio:.2f}x) by "
            f"shedding {100 * controlled.shed_fraction:.0f}% of an "
            f"offered {uncontrolled.offered_rps:.0f} rps; sim-loop "
            f"stalls {uncontrolled.stalls} -> {controlled.stalls}; "
            f"{controlled.commands} urgent commands, "
            f"{controlled.shed_commands_high} shed (must be 0)")
    total_audits = sum(c.parity_audits for _, c in reports) \
        + sum(u.parity_audits for u, _ in reports)
    total_failures = sum(c.parity_failures for _, c in reports) \
        + sum(u.parity_failures for u, _ in reports)
    result.note(
        f"every served query re-verified the served SMI against "
        f"the full rescan: {total_audits} audits, {total_failures} "
        f"divergences")
    return result


if __name__ == "__main__":
    print(run(quick=True).render())
