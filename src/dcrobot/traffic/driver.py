"""The traffic driver: offers synthetic windows as a sim process.

One process, one heap event per window: draw a traffic matrix sample
(pattern + mice/elephant sizes), offer it to the columnar engine, and
log per-window stats — p99 FCT, congestion drops, and whether
maintenance (drains or links under physical work) was active during
the window, which is what E16's naive-vs-impact-aware comparison
slices on.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

import numpy as np

from dcrobot.network.state import MAINTENANCE_CODE
from dcrobot.traffic.flows import sample_sizes
from dcrobot.traffic.patterns import UniformPattern
from dcrobot.traffic.state import TrafficState, WindowResult


@dataclasses.dataclass
class WindowStats:
    """One offered window, as the driver's log records it."""

    time: float
    flows: int
    unroutable: int
    p99_fct: float
    p50_fct: float
    offered_bytes: float
    congestion_lost_bytes: float
    #: Drains or in-progress physical work overlapped this window.
    maintenance_active: bool


def window_stats(now: float, traffic: TrafficState,
                 result: WindowResult) -> WindowStats:
    """The log record of one window ``traffic`` just offered."""
    samples = result.fct[result.routable]
    p50 = p99 = float("nan")
    if len(samples):
        p50, p99 = (float(q) for q in np.percentile(samples, [50, 99]))
    fs = traffic.fabric.state
    maintenance = bool(traffic.drained_links) or bool(
        (fs.state_code[:fs.n_links] == MAINTENANCE_CODE).any())
    return WindowStats(
        time=now,
        flows=result.flows,
        unroutable=result.unroutable,
        p99_fct=p99,
        p50_fct=p50,
        offered_bytes=float(result.offered.sum()),
        congestion_lost_bytes=float(
            (result.offered * result.congestion).sum()),
        maintenance_active=maintenance)


class TrafficDriver:
    """Periodically offers traffic windows to a :class:`TrafficState`.

    ``schedule`` customizes intensity over simulated time: called with
    ``now``, it returns ``(flow_count, pattern)`` for the window that
    just elapsed.  The default offers ``flows_per_window`` uniform
    flows every window.
    """

    def __init__(self, traffic: TrafficState,
                 rng: Optional[np.random.Generator] = None,
                 window_seconds: float = 1800.0,
                 flows_per_window: int = 500,
                 pattern=None,
                 schedule: Optional[
                     Callable[[float], Tuple[int, object]]] = None,
                 sample_seconds: Optional[float] = None) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        if flows_per_window < 1:
            raise ValueError("flows_per_window must be >= 1")
        if sample_seconds is not None and sample_seconds <= 0:
            raise ValueError("sample_seconds must be > 0")
        self.traffic = traffic
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.window_seconds = window_seconds
        #: Accounting period each offered window represents.  Defaults
        #: to the cadence; set smaller to model each window as a short
        #: peak-rate sample taken every ``window_seconds`` (capacity
        #: and congestion are normalized over this, not the cadence).
        self.sample_seconds = (sample_seconds if sample_seconds
                               is not None else window_seconds)
        self.flows_per_window = flows_per_window
        self.pattern = pattern or UniformPattern()
        self.schedule = schedule
        self.windows: List[WindowStats] = []
        self._next_flow_id = 0

    def fork(self, traffic: TrafficState,
             rng: np.random.Generator) -> "TrafficDriver":
        """This driver's workload continued on another engine.

        The fork keeps the cadence, sample period, flow count, pattern,
        schedule and flow-id watermark, so its next window is the one
        this driver would offer next; it draws from ``rng`` and logs
        into its own empty window list.
        """
        child = TrafficDriver(traffic, rng=rng,
                              window_seconds=self.window_seconds,
                              flows_per_window=self.flows_per_window,
                              pattern=self.pattern,
                              schedule=self.schedule,
                              sample_seconds=self.sample_seconds)
        child._next_flow_id = self._next_flow_id
        return child

    def run(self, sim):
        """The generator process: one offered window per period."""
        while True:
            yield sim.timeout(self.window_seconds)
            self.offer(sim.now)

    def offer(self, now: float) -> WindowResult:
        """Offer one window at simulated time ``now``.

        Logs the window's :class:`WindowStats` and returns the engine's
        per-flow :class:`~dcrobot.traffic.state.WindowResult`.
        """
        count, pattern = self.flows_per_window, self.pattern
        if self.schedule is not None:
            count, pattern = self.schedule(now)
        traffic = self.traffic
        n_endpoints = len(traffic.endpoints)
        src, dst = pattern.pairs(self.rng, count, n_endpoints)
        sizes = sample_sizes(self.rng, count)
        flow_ids = np.arange(self._next_flow_id,
                             self._next_flow_id + count,
                             dtype=np.int64)
        self._next_flow_id += count
        result = traffic.offer_window(src, dst, sizes, flow_ids,
                                      self.sample_seconds)
        self.windows.append(window_stats(now, traffic, result))
        return result

    # -- reporting -----------------------------------------------------------

    def p99_over(self, windows: List[WindowStats]) -> float:
        """p99 of the per-window p99s (NaN-free; NaN if none)."""
        samples = [w.p99_fct for w in windows
                   if not np.isnan(w.p99_fct)]
        if not samples:
            return float("nan")
        return float(np.percentile(samples, 99))

    def maintenance_windows(self) -> List[WindowStats]:
        return [w for w in self.windows if w.maintenance_active]
