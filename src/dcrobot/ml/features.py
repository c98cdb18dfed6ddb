"""Feature extraction from *observable* telemetry.

The predictor must work from what a production system can see: flap
counters, loss rates, DDM optical power readings, component age and
repair history — never the hidden physical state.  The DDM receive-power
margin is the key signal: end-face dirt and contact corrosion both eat
optical budget, so the margin is a noisy proxy for the degradations that
precede failure (§4 "potentially leveraging data collected by robotic
systems").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from dcrobot.failures.environment import Environment
from dcrobot.network.link import Link

FEATURE_NAMES = (
    "transitions_6h",
    "transitions_24h",
    "log10_loss",
    "rx_margin_db",
    "age_days",
    "reseat_count",
    "core_count",
    "cleanable",
    "temperature_dev_c",
)


#: Healthy optical margin (dB) of a fresh link.
BASE_MARGIN_DB = 3.5
#: dB of margin lost per unit of worst-core contamination.
DIRT_MARGIN_PENALTY_DB = 6.0
#: dB of margin lost per unit of contact oxidation.
OXIDATION_MARGIN_PENALTY_DB = 2.5
#: Gaussian read noise of the DDM sensor (dB).
MARGIN_NOISE_DB = 0.25


class FeatureExtractor:
    """Computes observable feature vectors for links."""

    def __init__(self, environment: Environment,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.environment = environment
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def rx_margin_db(self, link: Link) -> float:
        """Noisy DDM optical-margin reading for the link's worse end.

        Physically grounded in the hidden state but observed through a
        noisy sensor — the model never sees the state itself.
        """
        dirt = link.cable.worst_contamination
        for unit in link.transceivers():
            if unit.receptacle is not None:
                dirt = max(dirt, unit.receptacle.worst_contamination)
        oxidation = max(link.transceiver_a.oxidation,
                        link.transceiver_b.oxidation)
        margin = (BASE_MARGIN_DB
                  - DIRT_MARGIN_PENALTY_DB * dirt
                  - OXIDATION_MARGIN_PENALTY_DB * oxidation)
        return float(margin + self.rng.normal(0.0, MARGIN_NOISE_DB))

    def extract(self, link: Link, now: float) -> np.ndarray:
        """The feature vector (see :data:`FEATURE_NAMES`) at time now."""
        age_days = max(0.0, (now - link.cable.install_time) / 86400.0)
        reseats = (link.transceiver_a.reseat_count
                   + link.transceiver_b.reseat_count)
        temperature_dev = abs(
            self.environment.temperature_c(now)
            - self.environment.reference_temperature_c)
        return np.array([
            link.transitions_in_window(now - 6 * 3600.0, now),
            link.transitions_in_window(now - 24 * 3600.0, now),
            np.log10(max(link.loss_rate, 1e-12)),
            self.rx_margin_db(link),
            age_days,
            reseats,
            link.cable.core_count,
            1.0 if link.cable.cleanable else 0.0,
            temperature_dev,
        ], dtype=float)
