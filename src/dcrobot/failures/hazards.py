"""Hazard (failure-time) models.

Component faults arrive according to these processes.  Exponential
hazards model memoryless faults (firmware wedges, random dirt events);
Weibull hazards with shape > 1 model wear-out (transceiver electronics
aging).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0
SECONDS_PER_HOUR = 3600.0


def per_year(events: float) -> float:
    """Convert an events-per-year figure to events-per-second."""
    return events / SECONDS_PER_YEAR


class Hazard(Protocol):
    """Anything that can sample a time-to-next-event."""

    def sample(self, rng: np.random.Generator) -> float:
        """Draw the next inter-event time in seconds."""
        ...  # pragma: no cover


class ExponentialHazard:
    """Memoryless hazard with a constant rate (events/second)."""

    def __init__(self, rate_per_second: float) -> None:
        if rate_per_second <= 0:
            raise ValueError(f"rate must be > 0, got {rate_per_second}")
        self.rate = float(rate_per_second)

    def __repr__(self) -> str:
        return f"<ExponentialHazard rate={self.rate:.3e}/s>"

    @classmethod
    def per_year(cls, events: float) -> "ExponentialHazard":
        """Hazard with ``events`` expected per year."""
        return cls(per_year(events))

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))

    @property
    def mean(self) -> float:
        """Mean time between events (seconds)."""
        return 1.0 / self.rate


class WeibullHazard:
    """Weibull-distributed inter-event times.

    ``shape`` > 1 gives increasing hazard (wear-out); < 1 infant
    mortality; == 1 reduces to exponential.  ``scale`` is the
    characteristic life in seconds.
    """

    def __init__(self, shape: float, scale_seconds: float) -> None:
        if shape <= 0:
            raise ValueError(f"shape must be > 0, got {shape}")
        if scale_seconds <= 0:
            raise ValueError(f"scale must be > 0, got {scale_seconds}")
        self.shape = float(shape)
        self.scale = float(scale_seconds)

    def __repr__(self) -> str:
        return f"<WeibullHazard shape={self.shape} scale={self.scale:.3e}s>"

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.scale * rng.weibull(self.shape))

    @property
    def mean(self) -> float:
        """Mean time between events (seconds)."""
        from math import gamma
        return self.scale * gamma(1.0 + 1.0 / self.shape)
