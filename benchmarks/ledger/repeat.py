"""One repeat of one workload, in a fresh interpreter.

    python benchmarks/ledger/repeat.py '{"workload": "chaos_hall", "seed": 0}'

A repeat has three phases: the build (``setup_s``, the median of
several builds so a 10 ms build still repeats), the run to the horizon
(timed around the same calls ``run_world``, ``run_campus`` and
``serve_world`` make), and the summary, which is digested and checked
against the tripwires.  The repeat prints one JSON object as the last
line of its standard output.  Peak RSS is this process's own (plus its
pool workers' for the campus), which is why every repeat is a fresh
process.

With ``"traced": true`` the layer wrappers of :mod:`tracer` are
installed before anything is built, and the repeat reports per-layer
self times instead of set-up time.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from tracer import Tracer, merge
from workloads import (
    CAMPUS_JOBS,
    QUERY_RATE,
    WORKLOADS,
    QueryPlan,
    invariant_failures,
    summary_digest,
)

from dcrobot.experiments.parallel import code_version
from dcrobot.experiments.runner import build_world, summarize_world
from dcrobot.service import ServiceConfig, TelemetryReport, serve_world
from dcrobot.shard import CampusWorld, HallShard, run_campus

#: Builds per untraced repeat; ``setup_s`` is their median.
BUILDS = 5


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def _peak_rss_mb(with_children: bool) -> float:
    """ru_maxrss is in KiB on Linux; the children's figure is the
    largest single waited-for child, i.e. the biggest pool worker."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def _setup(build: Callable, builds: int, keep_last: bool = True):
    """Build ``builds`` times; return (last build or None, seconds)."""
    seconds = []
    built = None
    for index in range(builds):
        started = perf_counter()
        built = build()
        seconds.append(perf_counter() - started)
        if index < builds - 1 or not keep_last:
            # Free the discarded build before the next one so peak RSS
            # holds one world, not several.
            built = None
            gc.collect()
    return built, seconds


class _Phase:
    """Wall and CPU seconds of one run phase."""

    wall = cpu = 0.0


@contextlib.contextmanager
def _timed(tracer: Optional[Tracer]):
    """Time the run phase (as a traced region when tracing)."""
    phase = _Phase()
    with tracer.region() if tracer else contextlib.nullcontext():
        cpu, started = _cpu_seconds(), perf_counter()
        yield phase
        phase.wall = perf_counter() - started
        phase.cpu = _cpu_seconds() - cpu


# -- batch world ---------------------------------------------------------------


def _run_world(config, tracer, builds) -> Dict:
    world, setup = _setup(lambda: build_world(config), builds)
    fabric = world.fabric
    transceivers = sum(fabric.spare_transceivers.values())
    cables = fabric.spare_cables
    with _timed(tracer) as phase:
        world.sim.run(until=config.horizon_seconds)
    world.spares_consumed_transceivers = (
        transceivers - sum(fabric.spare_transceivers.values()))
    world.spares_consumed_cables = cables - fabric.spare_cables
    summary = summarize_world(world)
    driver = world.traffic_driver
    return dict(
        setup=setup, phase=phase,
        digest=summary_digest(
            summary, driver.windows if driver is not None else None),
        failures=invariant_failures(summary), attempted=1,
        trace=tracer.snapshot() if tracer else None)


# -- campus on a process pool ---------------------------------------------------


@contextlib.contextmanager
def _traced_halls(tracer: Tracer, scratch: Path):
    """Trace hall runs inside forked pool workers.

    The layer wrappers and the tracer reach the workers through fork.
    Each worker zeroes the tracer before a hall, times the hall's run
    as a region, and leaves its totals in ``scratch``; the context
    yields a function that collects them in the parent.
    """
    original = HallShard.run
    parent = os.getpid()

    def run(shard):
        if os.getpid() == parent:
            return original(shard)
        tracer.reset()
        shard.build()
        with tracer.region():
            summary = original(shard)
        (scratch / f"hall{shard.hall_id}.json").write_text(
            json.dumps(tracer.snapshot()))
        return summary

    def collect(halls: int) -> List[Dict]:
        return [json.loads((scratch / f"hall{hall}.json").read_text())
                for hall in range(halls)]

    scratch.mkdir(parents=True, exist_ok=True)
    HallShard.run = run
    try:
        yield collect
    finally:
        HallShard.run = original
        shutil.rmtree(scratch, ignore_errors=True)


def _run_campus(config, tracer, builds, scratch: Path, jobs: int) -> Dict:
    # The pool path needs un-built halls, so set-up builds are timed
    # and discarded; the run builds its halls inside the workers.
    _, setup = _setup(lambda: CampusWorld(config).build(), builds,
                      keep_last=False)
    trace = None
    with (_traced_halls(tracer, scratch) if tracer
          else contextlib.nullcontext()) as collect:
        with _timed(None) as phase:
            summary = run_campus(config, jobs=jobs)
        if tracer is not None:
            parent = tracer.snapshot()
            # The parent's own traced work is the federation pass; the
            # halls' regions come from the workers.
            parent["wall"] = parent["stats"].get(
                "shard.federation", [0, 0.0])[1]
            trace = merge([parent] + collect(config.halls))
    walls = summary.hall_wall_seconds
    campus = {
        "hall_run_sum_s": sum(summary.hall_run_seconds),
        "hall_run_max_s": max(summary.hall_run_seconds),
        # Wall beyond a perfect packing of the halls onto the pool:
        # start-up, pickling, imbalance and the federation pass.
        "pool_overhead_s": summary.total_wall_seconds - sum(walls) / jobs,
    }
    return dict(
        setup=setup, phase=phase,
        digest=summary_digest(summary),
        failures=invariant_failures(summary), attempted=1,
        campus=campus, trace=trace)


# -- served campus under open-loop load ----------------------------------------


class LoadGenerator:
    """Open-loop arrivals at a fixed rate from one asyncio task.

    Arrival n is due at ``start + n / rate`` whatever the service is
    doing; when the loop falls behind, every due arrival is issued as
    soon as the task runs again.  Latency is timed from the *scheduled*
    arrival, so a stall shows up as waiting on every request behind it.
    Each arrival also offers one telemetry report, so ingest runs
    beside the reads.
    """

    def __init__(self, service, plan: QueryPlan,
                 tracer: Optional[Tracer] = None) -> None:
        self.service = service
        self.plan = plan
        self.tracer = tracer
        self.interval = 1.0 / QUERY_RATE
        self.offered = 0
        self.late: List[float] = []
        self.queries: List[float] = []
        self.commands: List[float] = []
        self.errors: Counter = Counter()

    async def run(self, stop: asyncio.Event) -> None:
        start = perf_counter()
        n = 0
        while not stop.is_set():
            due = int((perf_counter() - start) / self.interval) + 1
            while n < due:
                scheduled = start + n * self.interval
                self.late.append(perf_counter() - scheduled)
                await self._request(n, scheduled)
                n += 1
            await asyncio.sleep(
                max(start + n * self.interval - perf_counter(), 0.0))
        self.offered = n

    async def _request(self, n: int, scheduled: float) -> None:
        kind, hall, link_id = self.plan.next()
        tracer = self.tracer
        if tracer is not None:
            tracer.request_id = n
        try:
            with (tracer.span("loadgen.request") if tracer
                  else contextlib.nullcontext()):
                await self._issue(kind, hall, link_id, n)
        except Exception as error:
            # Any failed request is counted against fail_frac; the
            # load keeps arriving regardless, as real clients would.
            self.errors[type(error).__name__] += 1
            return
        finally:
            if tracer is not None:
                tracer.request_id = None
        latency = perf_counter() - scheduled
        (self.commands if kind == "command" else self.queries).append(
            latency)

    async def _issue(self, kind: str, hall: int, link_id: str,
                     n: int) -> None:
        service = self.service
        service.offer_telemetry(TelemetryReport(
            source_id=f"probe:{hall}:{link_id}", link_id=link_id,
            value=float(n), time=service.bridge.sim_now, hall=hall))
        if kind == "status":
            await service.status()
        elif kind == "link_health":
            await service.link_health(link_id, hall=hall)
        elif kind == "incident":
            await service.incident(link_id, hall=hall)
        elif kind == "smi":
            await service.smi(hall=hall)
        elif kind == "smi_audit":
            await service.smi(hall=hall, audit=True)
        else:
            await service.request_maintenance(link_id, urgent=True,
                                              hall=hall)


def _ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def _run_served(config, tracer, builds, seed: int) -> Dict:
    served, setup = _setup(
        lambda: serve_world(config, ServiceConfig(admission=None)),
        builds)
    service = served.service
    cycles: List[float] = []
    last = [perf_counter()]

    def slice_hook(sim_now: float) -> None:
        now = perf_counter()
        cycles.append(now - last[0])
        last[0] = now

    service.bridge.add_slice_hook(slice_hook)
    plan = QueryPlan(seed, {hall: list(world.fabric.links)
                            for hall, world in service.worlds.items()})
    load = LoadGenerator(service, plan, tracer)

    async def serve():
        stop = asyncio.Event()
        task = asyncio.ensure_future(load.run(stop))
        last[0] = perf_counter()
        try:
            await served.serve()
        finally:
            stop.set()
            await task

    with _timed(tracer) as phase:
        asyncio.run(serve())
    summary = served.summarize()

    failures = invariant_failures(summary)
    if service.parity_failures:
        failures.append(f"{service.parity_failures} parity failures")
    bridge = service.bridge
    return dict(
        setup=setup, phase=phase,
        # Commands land at wall-dependent sim times: checked by
        # invariants, not by a digest.
        digest=None, failures=failures, attempted=load.offered,
        errors=dict(load.errors),
        loadgen={
            "offered": load.offered,
            "query_samples": len(load.queries),
            "query_p50_ms": _ms(load.queries, 50),
            "query_p99_ms": _ms(load.queries, 99),
            "late_p99_ms": _ms(load.late, 99),
        },
        service={
            "slices": bridge.slices,
            "events_per_slice": (bridge.events_processed / bridge.slices
                                 if bridge.slices else 0.0),
            "stalls": bridge.stalls,
            "max_gap_ms": bridge.max_gap_seconds * 1e3,
            "parity_audits": service.parity_audits,
            "parity_failures": service.parity_failures,
            "ingest_applied": service.ingest_applied,
            "ingest_shed": service.ingest_shed,
            "cmd_p50_ms": _ms(load.commands, 50),
            "slice_p99_ms": _ms(cycles, 99),
        },
        trace=tracer.snapshot() if tracer else None)


# -- one repeat -----------------------------------------------------------------


def run(spec: Dict) -> Dict:
    """Run the repeat ``spec`` describes and return its record."""
    workload = WORKLOADS[spec["workload"]]
    seed = int(spec.get("seed", 0))
    quick = bool(spec.get("quick", False))
    traced = bool(spec.get("traced", False))
    config = workload.config(seed, quick)
    tracer = None
    if traced:
        tracer = Tracer(config.horizon_seconds,
                        keep_spans=bool(spec.get("keep_spans", False)))
        tracer.install()
    builds = 1 if traced else BUILDS
    try:
        if workload.kind == "world":
            record = _run_world(config, tracer, builds)
        elif workload.kind == "campus":
            record = _run_campus(config, tracer, builds,
                                 Path(spec["scratch"]),
                                 int(spec.get("jobs", CAMPUS_JOBS)))
        else:
            record = _run_served(config, tracer, builds, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase = record.pop("phase")
    setup = record.pop("setup")
    failures = record.pop("failures")
    errors = sum(record.get("errors", {}).values())
    days = workload.horizon(quick)
    if record["trace"] is not None:
        spans = record["trace"].pop("spans")
        if spec.get("trace_dir"):
            _write_spans(Path(spec["trace_dir"]) /
                         f"spans_{workload.name}.jsonl", spans)
    record.update(
        workload=workload.name, seed=seed, quick=quick, traced=traced,
        setup_s=statistics.median(setup), setup_samples=setup,
        run_wall_s=phase.wall, cpu_s=phase.cpu, horizon_days=days,
        wall_per_sim_day_s=phase.wall / days,
        peak_rss_mb=_peak_rss_mb(workload.kind == "campus"),
        invariant_failures=failures,
        failed=errors + len(failures),
        code_version=code_version(),
        python=platform.python_version(), numpy=np.__version__)
    return record


def _write_spans(path: Path, spans: List) -> None:
    """One JSON object per span, times in seconds from the first span."""
    origin = min((span[4] for span in spans), default=0.0)
    with path.open("w") as handle:
        for pid, span_id, parent, name, start, end, request in spans:
            handle.write(json.dumps({
                "pid": pid, "id": span_id, "parent": parent, "name": name,
                "start": start - origin, "end": end - origin,
                "request": request}) + "\n")


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: repeat.py '<json spec>'", file=sys.stderr)
        return 2
    record = run(json.loads(argv[0]))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
