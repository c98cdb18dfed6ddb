"""Per-layer timing from outside the program.

A :class:`Tracer` wraps public callables of each layer at class level
(before any world is built, so bound methods captured at build time
are the wrapped ones) and keeps, per layer, a call count and a *self*
time: the call's inclusive time minus the time of wrapped calls nested
inside it.  Self times therefore add up to the inclusive time of the
outermost wrapped calls.

Process resumes are attributed through the engine's public
``Simulation.profiler`` hook: a recorder attached to every new
``Simulation`` receives each callback's wall time and files the
controller, executor and periodic-process resumes into buckets
(:data:`PROCESS_BUCKETS`), net of any wrapped layer time that ran
inside the callback.  The same recorder counts events and splits wall
time into fifths of the simulated horizon.

Nothing here changes what the program computes; the self-test checks
that a world run under the tracer is bit-identical to one run without.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

#: (metric prefix, module, class or None for a module function, attribute,
#: extra counter fed with len(result) or None).
LAYERS = (
    ("failures.health_tick", "dcrobot.failures.health", "HealthModel",
     "tick_all", None),
    ("failures.dust_step", "dcrobot.failures.dust", "DustProcess",
     "step_all", None),
    ("failures.aging_step", "dcrobot.failures.aging", "OxidationAging",
     "step_all", None),
    ("failures.cascade_touch", "dcrobot.failures.cascade", "CascadeModel",
     "touch", None),
    ("network.bundle_neighbors", "dcrobot.network.inventory", "Fabric",
     "bundle_neighbor_links", None),
    ("telemetry.poll", "dcrobot.telemetry.monitor", "TelemetryMonitor",
     "poll_all", "telemetry.poll.detections"),
    ("core.on_event", "dcrobot.core.controller", "MaintenanceController",
     "on_event", None),
    ("core.repair_perform", "dcrobot.core.repairs", "RepairPhysics",
     "perform", None),
    ("core.twin_rank", "dcrobot.core.planner", "TwinPlanner", "rank",
     None),
    ("chaos.safety_check", "dcrobot.chaos.safety", "SafetyMonitor",
     "check", None),
    ("traffic.driver_offer", "dcrobot.traffic.driver", "TrafficDriver",
     "offer", None),
    ("traffic.offer_window", "dcrobot.traffic.state", "TrafficState",
     "offer_window", None),
    ("twin.fork", "dcrobot.twin.world", "TwinWorld", "fork", None),
    ("twin.roll", "dcrobot.twin.world", "TwinWorld", "roll", None),
    # Patched where the service plane imports it: only the audit
    # rescans behind served queries are meant here.
    ("topology.smi_rescan", "dcrobot.service.server", None, "compute_smi",
     None),
    ("service.readmodel_refresh", "dcrobot.service.readmodel",
     "ReadModel", "refresh", None),
    ("shard.federation", "dcrobot.shard.federation", "CampusFederation",
     "run", None),
)

#: Process-resume buckets, keyed by the generator function name the
#: engine reports for a ``Process._resume`` callback.  ``run`` is the
#: periodic processes (the BatchTicker and the traffic driver): their
#: own loop, net of the sweeps and offers wrapped above.
PROCESS_BUCKETS = {
    "_attempt": "core.processes",
    "_proactive": "core.processes",
    "_policy_loop": "core.processes",
    "_execute": "executors.execute",
    "run": "sim.periodic",
}

#: Buckets the benchmark times around its own code (load generator).
OWN_BUCKETS = ("loadgen.request",)

BUCKETS = tuple(layer[0] for layer in LAYERS) + tuple(
    dict.fromkeys(PROCESS_BUCKETS.values())) + OWN_BUCKETS
COUNTERS = tuple(layer[4] for layer in LAYERS if layer[4])

FIFTHS = 5


class Tracer:
    """Self-time accounting for wrapped calls plus sim recorders.

    ``keep_spans`` keeps every wrapped call as a span
    ``(id, parent, name, start, end, request)`` in memory; without it
    only the per-layer totals are kept, which is what the ledger
    reports.
    """

    def __init__(self, horizon_seconds: float,
                 keep_spans: bool = False) -> None:
        self.horizon_seconds = float(horizon_seconds)
        self.keep_spans = keep_spans
        self._undo: List = []
        self.reset()

    def reset(self) -> None:
        """Forget everything measured (a forked worker inherits its
        parent's totals and must start from zero)."""
        #: bucket -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counters: Dict[str, int] = defaultdict(int)
        #: One frame per open wrapped call: [nested seconds, span id].
        self._stack: List[List] = []
        #: (start, end) of outermost wrapped calls since the recorder
        #: last looked; the recorder nets them out of its callbacks.
        self._outer: List = []
        self.spans: List[tuple] = []
        self._next_span = 0
        #: Spans opened while this is set carry it (served requests).
        self.request_id: Optional[int] = None
        self.wall = 0.0
        self.events = 0
        self.fifth_wall = [0.0] * FIFTHS
        self._last_event = perf_counter()

    # -- spans ----------------------------------------------------------------

    def _open(self) -> List:
        frame = [0.0, None]
        if self.keep_spans:
            self._next_span += 1
            frame[1] = self._next_span
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: List, start: float,
               end: float) -> None:
        stack = self._stack
        stack.pop()
        total = end - start
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += total - frame[0]
        if stack:
            stack[-1][0] += total
        else:
            self._outer.append((start, end))
        if self.keep_spans:
            parent = stack[-1][1] if stack else None
            self.spans.append((frame[1], parent, name, start, end,
                               self.request_id))

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as bucket ``name``."""
        frame = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, perf_counter())

    def _wrap(self, name: str, fn, counter: Optional[str]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, start, perf_counter())
            if counter is not None:
                tracer.counters[counter] += len(result)
            return result

        return traced

    @contextlib.contextmanager
    def region(self):
        """Count the block's wall time as traced wall (the run phase)."""
        start = perf_counter()
        self._last_event = start
        try:
            yield
        finally:
            self.wall += perf_counter() - start

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer and attach a recorder to each new sim."""
        from dcrobot.sim.engine import Simulation

        for name, module_name, class_name, attr, counter in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__,
                                                 counter))
            else:
                patched = self._wrap(name, raw, counter)
            self._patch(owner, attr, raw, patched)

        init = Simulation.__dict__["__init__"]
        tracer = self

        def sim_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            sim.profiler = _Recorder(tracer, sim)

        self._patch(Simulation, "__init__", init, sim_init)

    def _patch(self, owner, attr, raw, patched) -> None:
        setattr(owner, attr, patched)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results --------------------------------------------------------------

    def snapshot(self) -> Dict:
        """Plain-data totals (merged across processes by :func:`merge`)."""
        return {
            "wall": self.wall,
            "events": self.events,
            "fifth_wall": list(self.fifth_wall),
            "stats": {name: list(stat) for name, stat in self.stats.items()},
            "counters": dict(self.counters),
            # Span ids are per process; the pid keeps them apart once
            # pool workers' spans are merged.
            "spans": [[os.getpid(), *span] for span in self.spans],
        }


class _Recorder:
    """The ``Simulation.profiler`` of one traced sim (duck typed)."""

    __slots__ = ("tracer", "sim")

    def __init__(self, tracer: Tracer, sim) -> None:
        self.tracer = tracer
        self.sim = sim

    def record_callback(self, label: str, wall: float) -> None:
        tracer = self.tracer
        if tracer._stack:
            # A sim stepped from inside a wrapped layer: that layer's
            # span already owns the time.
            return
        began = perf_counter() - wall
        nested = 0.0
        for start, end in tracer._outer:
            if end > began:
                nested += end - start
        tracer._outer.clear()
        bucket = PROCESS_BUCKETS.get(label)
        if bucket is not None:
            stat = tracer.stats[bucket]
            stat[0] += 1
            stat[1] += wall - nested

    def record_event(self, name: str, wall: float,
                     sim_advance: float) -> None:
        tracer = self.tracer
        if tracer._stack:
            return
        now = perf_counter()
        tracer.events += 1
        fifth = int(FIFTHS * self.sim.now / tracer.horizon_seconds)
        tracer.fifth_wall[min(max(fifth, 0), FIFTHS - 1)] += \
            now - tracer._last_event
        tracer._last_event = now


def merge(snapshots: List[Dict]) -> Dict:
    """Sum tracer snapshots taken in several processes."""
    merged = {"wall": 0.0, "events": 0, "fifth_wall": [0.0] * FIFTHS,
              "stats": {}, "counters": {}, "spans": []}
    for snap in snapshots:
        merged["wall"] += snap["wall"]
        merged["events"] += snap["events"]
        merged["fifth_wall"] = [a + b for a, b in
                                zip(merged["fifth_wall"], snap["fifth_wall"])]
        for name, (calls, seconds) in snap["stats"].items():
            stat = merged["stats"].setdefault(name, [0, 0.0])
            stat[0] += calls
            stat[1] += seconds
        for name, count in snap["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + count
        merged["spans"].extend(snap["spans"])
    return merged
