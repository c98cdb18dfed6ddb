"""Hall environment: temperature cycles and vibration episodes.

Transient failures "are a function of ... environmental changes in
temperature, vibration and so forth" (§1).  The environment modulates
how strongly physical degradation (especially end-face dirt) manifests
as link impairment, and vibration episodes — raised by nearby physical
activity — temporarily push marginal links over the edge.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

SECONDS_PER_DAY = 86400.0


class Environment:
    """Deterministic diurnal temperature plus decaying vibration events."""

    def __init__(self, base_temperature_c: float = 24.0,
                 diurnal_amplitude_c: float = 2.0,
                 period_seconds: float = SECONDS_PER_DAY,
                 reference_temperature_c: float = 24.0) -> None:
        self.base_temperature_c = base_temperature_c
        self.diurnal_amplitude_c = diurnal_amplitude_c
        self.period_seconds = period_seconds
        self.reference_temperature_c = reference_temperature_c
        #: Active vibration episodes as (expires_at, magnitude) pairs.
        self._vibrations: List[Tuple[float, float]] = []

    def __repr__(self) -> str:
        return (f"<Environment base={self.base_temperature_c}C "
                f"amp={self.diurnal_amplitude_c}C>")

    def temperature_c(self, now: float) -> float:
        """Hall temperature at time ``now`` (deterministic sinusoid)."""
        phase = 2.0 * np.pi * (now % self.period_seconds) / self.period_seconds
        return (self.base_temperature_c
                + self.diurnal_amplitude_c * float(np.sin(phase)))

    def add_vibration(self, now: float, magnitude: float,
                      duration_seconds: float) -> None:
        """Register a vibration episode (e.g. someone working nearby)."""
        if magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {magnitude}")
        if duration_seconds <= 0:
            raise ValueError(
                f"duration must be > 0, got {duration_seconds}")
        self._vibrations.append((now + duration_seconds, magnitude))

    def vibration_level(self, now: float) -> float:
        """Sum of magnitudes of vibration episodes still active."""
        if not self._vibrations:
            # Every health scoring asks; most find no episode at all.
            return 0.0
        self._vibrations = [(expiry, magnitude)
                            for expiry, magnitude in self._vibrations
                            if expiry > now]
        return sum(magnitude for _expiry, magnitude in self._vibrations)

    def stress_multiplier(self, now: float) -> float:
        """How much the current environment amplifies marginal faults.

        1.0 at reference conditions; grows with temperature deviation
        (0.1 per °C) and vibration (1.0 per unit magnitude).  This is the
        knob that makes contaminated links flap *intermittently over
        time* (§3.2) rather than failing cleanly.
        """
        temperature_dev = abs(self.temperature_c(now)
                              - self.reference_temperature_c)
        return 1.0 + 0.1 * temperature_dev + self.vibration_level(now)
