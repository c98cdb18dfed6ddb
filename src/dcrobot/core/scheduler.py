"""Impact-aware repair scheduling (§2).

Before hardware is touched the scheduler (i) drains the target link —
and the links the executor announces it may contact — out of routing, so
traffic migrates ahead of the physical disturbance, and (ii) defers
non-urgent proactive work to low-utilization windows ("During periods of
low utilization, automation hardware can be used for proactive
maintenance at little to no additional cost").

The scheduler is shared by every controller a supervisor promotes, so
it keeps its own :class:`~dcrobot.core.leadership.FencingGuard`: a
deposed primary's order drains nothing, just as the executors refuse
to run it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from dcrobot.core.actions import WorkOrder
from dcrobot.core.leadership import FencingGuard

SECONDS_PER_DAY = 86400.0


@dataclasses.dataclass
class SchedulerConfig:
    """Scheduling knobs."""

    #: Drain announced-contact neighbours too (the ablation knob for
    #: impact-aware vs naive scheduling).
    drain_announced: bool = True
    #: Daily low-utilization window for proactive work, as fractional
    #: day-of-hours [start, end).
    quiet_window_start_hour: float = 1.0
    quiet_window_end_hour: float = 5.0

    def __post_init__(self) -> None:
        if not (0 <= self.quiet_window_start_hour
                < self.quiet_window_end_hour <= 24):
            raise ValueError("invalid quiet window")


class ImpactAwareScheduler:
    """Drains traffic around repairs and times proactive work."""

    def __init__(self, config: Optional[SchedulerConfig] = None,
                 traffic=None) -> None:
        #: The drain target (duck-typed: ``drain``/``undrain``), the
        #: columnar traffic engine in a built world, so modelled
        #: traffic migrates before the physical disturbance.  Without
        #: one the scheduler drains nothing.
        self.traffic = traffic
        self.config = config or SchedulerConfig()
        #: link ids drained per order id, for symmetric undrain.
        self._drained_for_order = {}
        #: Refuses orders from a deposed primary; a supervisor advances
        #: it in the same fencing handshake as the executors' guards.
        self.fence = FencingGuard()

    # -- quiet-window timing ------------------------------------------------

    def seconds_until_quiet_window(self, now: float) -> float:
        """Delay until the next proactive-maintenance window opens."""
        config = self.config
        day_seconds = now % SECONDS_PER_DAY
        start = config.quiet_window_start_hour * 3600.0
        end = config.quiet_window_end_hour * 3600.0
        if start <= day_seconds < end:
            return 0.0
        if day_seconds < start:
            return start - day_seconds
        return SECONDS_PER_DAY - day_seconds + start

    def in_quiet_window(self, now: float) -> bool:
        return self.seconds_until_quiet_window(now) == 0.0

    # -- drain management ---------------------------------------------------------

    def before_repair(self, order: WorkOrder) -> List[str]:
        """Drain the target (and announced touches); returns drained ids.

        An order whose fencing token the guard refuses drains nothing.
        """
        if self.traffic is None:
            return []
        if not self.fence.admit(order.fencing_token,
                                time=order.created_at,
                                order_id=order.order_id,
                                link_id=order.link_id):
            return []
        drained = [order.link_id]
        if self.config.drain_announced:
            drained.extend(order.announced_touches)
        for link_id in drained:
            self.traffic.drain(link_id)
        self._drained_for_order[order.order_id] = drained
        return drained

    def after_repair(self, order: WorkOrder) -> None:
        """Undrain everything drained for this order."""
        for link_id in self._drained_for_order.pop(order.order_id, []):
            self.traffic.undrain(link_id)

    def outstanding_drains(self) -> Dict[int, List[str]]:
        """Order id -> link ids still drained on its behalf.

        The safety monitor cross-checks this against the controller's
        in-flight orders: a drain whose order is no longer in flight is
        traffic that was never given back.
        """
        return {order_id: list(links) for order_id, links
                in self._drained_for_order.items()}
