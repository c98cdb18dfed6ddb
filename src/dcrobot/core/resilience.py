"""Control-plane robustness primitives: retry, backoff, circuit breaking.

The paper's maintenance plane assumes its own actuators and sensors can
misbehave — robots jam mid-reseat, acknowledgements get lost, telemetry
drops out (§2, §4).  This module provides the machinery the controller
uses to stay live anyway:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  bounded jitter (drawn from the simulation's RNG, so chaos runs stay
  seed-deterministic).
* :class:`CircuitBreaker` — takes a repeatedly failing executor (the
  robot fleet) out of rotation for a cooldown, routing work back to the
  technician pool; a half-open probe readmits it.
* :class:`ResilienceConfig` — the controller-facing bundle: per-work-
  order timeout plus the two policies above.  ``None`` on the controller
  means the legacy trusting behaviour (no timeout, no retry).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional, Tuple

import numpy as np

from dcrobot.obs import NULL_OBS


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and bounded jitter.

    The *base* schedule ``base_delay * multiplier**retry`` (capped at
    ``max_delay_seconds``) is deterministic and monotone non-decreasing;
    jitter perturbs each delay multiplicatively within
    ``[1 - jitter_fraction, 1 + jitter_fraction]``.
    """

    #: Re-dispatches allowed after the first attempt of a work order.
    max_retries: int = 3
    base_delay_seconds: float = 120.0
    multiplier: float = 2.0
    max_delay_seconds: float = 4.0 * 3600.0
    #: Multiplicative jitter half-width in [0, 1).
    jitter_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay_seconds < 0:
            raise ValueError("base_delay_seconds must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay_seconds < self.base_delay_seconds:
            raise ValueError("max_delay_seconds must be >= base delay")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")

    def backoff_seconds(self, retry_index: int) -> float:
        """The deterministic base delay before retry ``retry_index``."""
        if retry_index < 0:
            raise ValueError("retry_index must be >= 0")
        delay = self.base_delay_seconds * self.multiplier ** retry_index
        return float(min(delay, self.max_delay_seconds))

    def schedule(self) -> List[float]:
        """All base delays, first retry first (monotone non-decreasing)."""
        return [self.backoff_seconds(index)
                for index in range(self.max_retries)]

    def jittered_backoff(self, retry_index: int,
                         rng: np.random.Generator) -> float:
        """A jittered delay for retry ``retry_index``, drawn from ``rng``."""
        base = self.backoff_seconds(retry_index)
        if self.jitter_fraction == 0.0 or base == 0.0:
            return base
        factor = 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return float(base * factor)


class BreakerState(enum.Enum):
    """Circuit-breaker states (classic three-state machine)."""

    CLOSED = "closed"        #: executor trusted, all traffic flows
    OPEN = "open"            #: executor benched for the cooldown
    HALF_OPEN = "half-open"  #: one probe order in flight


@dataclasses.dataclass(frozen=True)
class BreakerPolicy:
    """When to bench an executor and when to probe it again."""

    #: Consecutive failures (or timeouts) that open the breaker.
    failure_threshold: int = 3
    #: Bench duration before a half-open probe is allowed.
    cooldown_seconds: float = 4.0 * 3600.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_seconds <= 0:
            raise ValueError("cooldown_seconds must be > 0")


class CircuitBreaker:
    """Tracks one executor's reliability and gates dispatch to it."""

    def __init__(self, policy: Optional[BreakerPolicy] = None,
                 obs=NULL_OBS) -> None:
        self.policy = policy or BreakerPolicy()
        self.obs = obs if obs is not None else NULL_OBS
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        #: Times the breaker tripped CLOSED/HALF_OPEN -> OPEN.
        self.trips = 0
        #: (time, new state) transition log, for reporting.
        self.transitions: List[Tuple[float, BreakerState]] = []

    def __repr__(self) -> str:
        return (f"<CircuitBreaker {self.state.value} "
                f"failures={self.consecutive_failures} "
                f"trips={self.trips}>")

    def _transition(self, now: float, state: BreakerState) -> None:
        if state is self.state:
            return
        self.state = state
        self.transitions.append((now, state))
        if self.obs.enabled:
            self.obs.tracer.record("breaker.transition",
                                   state=state.value)
            self.obs.count("dcrobot_breaker_transitions_total",
                           state=state.value)

    def allows(self, now: float) -> bool:
        """Whether a new order may be dispatched to the executor.

        While OPEN, returns True exactly once per elapsed cooldown —
        the half-open probe; further requests are refused until the
        probe's outcome is recorded.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self.opened_at is not None
            if now - self.opened_at >= self.policy.cooldown_seconds:
                self._transition(now, BreakerState.HALF_OPEN)
                return True
            return False
        return False  # HALF_OPEN: probe already outstanding

    def record_success(self, now: float) -> None:
        """A dispatched order completed successfully."""
        self.consecutive_failures = 0
        self._transition(now, BreakerState.CLOSED)

    def record_failure(self, now: float) -> None:
        """A dispatched order failed, timed out, or was lost."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
        elif (self.state is BreakerState.CLOSED
                and self.consecutive_failures
                >= self.policy.failure_threshold):
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.opened_at = now
        self.trips += 1
        self._transition(now, BreakerState.OPEN)


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """The hardened controller's knobs (``None`` = legacy behaviour)."""

    #: Give up waiting for a work-order acknowledgement after this long.
    work_order_timeout_seconds: float = 8.0 * 3600.0
    #: Human orders get a day-scale budget: ticket dispatch alone has a
    #: ~36 h median, and timing that out as "lost" would churn every
    #: legitimate human repair into retries.
    human_order_timeout_seconds: float = 4.0 * 86400.0
    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = dataclasses.field(
        default_factory=BreakerPolicy)
    #: Re-check link health before re-dispatching (idempotency guard:
    #: a lost ack does not mean a lost repair).
    verify_before_retry: bool = True

    def __post_init__(self) -> None:
        if self.work_order_timeout_seconds <= 0:
            raise ValueError("work_order_timeout_seconds must be > 0")
        if self.human_order_timeout_seconds <= 0:
            raise ValueError("human_order_timeout_seconds must be > 0")
