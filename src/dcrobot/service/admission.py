"""Token-bucket + priority admission control for the service plane.

The service plane sits between "millions of users" and one simulation
loop; without admission, an open-loop query flood queues without bound
and both the query tail *and* the sim loop drown.  The policy here is
deliberately small:

* **queries are sheddable** — a token bucket caps the sustained query
  rate (with a burst allowance); excess queries are refused
  immediately (cheap) instead of queued (expensive for everyone).
* **commands are precious** — maintenance commands get their own
  bucket, and HIGH-priority (urgent) commands are *exempt*: a human
  asking for an emergency repair window is never shed, no matter what
  the query plane is doing.  (``bench_service_load`` holds
  ``high_shed == 0`` as a tripwire.)

Every decision lands in the S15 metrics registry
(``dcrobot_service_admitted_total`` / ``dcrobot_service_shed_total``
by request class), beside the front-end's
``dcrobot_service_request_latency_seconds`` histogram for served
requests, so the experiment/bench layer reads accept/shed/latency
straight from the same instruments a Prometheus scrape would.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from typing import Callable, Optional

from dcrobot.core.actions import Priority
from dcrobot.obs.metrics import MetricsRegistry

__all__ = ["RequestKind", "AdmissionConfig", "TokenBucket",
           "AdmissionController"]


class RequestKind(enum.Enum):
    """The two service-plane request classes."""

    QUERY = "query"
    COMMAND = "command"


@dataclasses.dataclass(frozen=True)
class AdmissionConfig:
    """Sustained rates (tokens/second) and burst depths per class."""

    query_rate: float = 500.0
    query_burst: float = 50.0
    command_rate: float = 20.0
    command_burst: float = 10.0
    #: HIGH-priority commands bypass the buckets entirely.
    exempt_high_priority: bool = True

    def __post_init__(self) -> None:
        for name in ("query_rate", "query_burst", "command_rate",
                     "command_burst"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class TokenBucket:
    """A classic token bucket on an injectable clock."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float]) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self.tokens = float(burst)
        self._last: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._last is not None and now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last)
                              * self.rate)
        self._last = now

    def try_take(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        self._refill(self.clock())
        if self.tokens >= tokens:
            self.tokens -= tokens
            return True
        return False


class AdmissionController:
    """Admit-or-shed decisions plus their S15 accounting."""

    def __init__(self, config: Optional[AdmissionConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or AdmissionConfig()
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.clock = clock
        self._buckets = {
            RequestKind.QUERY: TokenBucket(
                self.config.query_rate, self.config.query_burst,
                clock),
            RequestKind.COMMAND: TokenBucket(
                self.config.command_rate, self.config.command_burst,
                clock),
        }
        self._admitted = self.metrics.counter(
            "dcrobot_service_admitted_total",
            help="Service requests admitted, by class")
        self._shed = self.metrics.counter(
            "dcrobot_service_shed_total",
            help="Service requests shed by admission control")

    def _class_label(self, kind: RequestKind,
                     priority: Priority) -> str:
        if kind is RequestKind.COMMAND \
                and priority is Priority.HIGH:
            return "command-high"
        return kind.value

    def admit(self, kind: RequestKind,
              priority: Priority = Priority.NORMAL) -> bool:
        """True to serve the request, False to shed it."""
        label = self._class_label(kind, priority)
        if (kind is RequestKind.COMMAND
                and priority is Priority.HIGH
                and self.config.exempt_high_priority):
            self._admitted.inc(cls=label)
            return True
        if self._buckets[kind].try_take():
            self._admitted.inc(cls=label)
            return True
        self._shed.inc(cls=label)
        return False

    # -- accounting reads ------------------------------------------------------

    def admitted(self, cls: Optional[str] = None) -> float:
        if cls is None:
            return self._admitted.total()
        return self._admitted.value(cls=cls)

    def shed(self, cls: Optional[str] = None) -> float:
        if cls is None:
            return self._shed.total()
        return self._shed.value(cls=cls)
