"""Pinned world configurations for golden parity.

These small fixed-seed worlds were characterized *before* the columnar
``FabricState`` refactor: ``tools/capture_parity_goldens.py`` ran each
one through the per-link loops that the batch kernels later replaced,
and froze its :class:`~dcrobot.experiments.runner.WorldSummary` under
``tests/golden/parity/``.  The parity suite re-runs the same configs on
the current code and requires bit-identical summaries — any drift in
the health model, dust/oxidation processes, telemetry poll, or
availability accounting fails loudly.

The shapes deliberately mirror the experiments the refactor must not
disturb: E1 (L0 vs L3 service window), E7 (escalation ladder), E13
(chaos + safety + resilience), E14 (journal + controller chaos), E5
(proactive policy), plus a dust-heavy world that forces links through
the marginal Gilbert–Elliott band so the flap/RNG path is exercised.
"""

from __future__ import annotations

import dataclasses
import math

from dcrobot.chaos.config import ChaosConfig
from dcrobot.core.automation import AutomationLevel
from dcrobot.core.controller import ControllerConfig
from dcrobot.core.resilience import ResilienceConfig
from dcrobot.experiments.runner import WorldConfig

DAY = 86400.0


def parity_configs() -> dict:
    """Name -> WorldConfig for every pinned parity world."""
    return {
        "e1_l0": WorldConfig(
            horizon_days=6.0, seed=0, failure_scale=3.0,
            level=AutomationLevel.L0_NO_AUTOMATION),
        "e1_l3": WorldConfig(
            horizon_days=6.0, seed=0, failure_scale=3.0,
            level=AutomationLevel.L3_HIGH_AUTOMATION),
        "e7_escalation": WorldConfig(
            horizon_days=8.0, seed=1, failure_scale=4.0,
            level=AutomationLevel.L0_NO_AUTOMATION),
        "e13_chaos": WorldConfig(
            horizon_days=6.0, seed=2, failure_scale=3.0,
            level=AutomationLevel.L3_HIGH_AUTOMATION,
            chaos=ChaosConfig.moderate(), safety=True,
            stuck_after_seconds=5.0 * DAY,
            mute_ttl_seconds=2.0 * DAY,
            controller_config=ControllerConfig(
                resilience=ResilienceConfig())),
        "e14_journal": WorldConfig(
            horizon_days=10.0, seed=3, failure_scale=4.0,
            level=AutomationLevel.L3_HIGH_AUTOMATION,
            chaos=ChaosConfig.moderate(), safety=True,
            journal=True, supervise=True,
            mute_ttl_seconds=2.0 * DAY,
            controller_config=ControllerConfig(
                resilience=ResilienceConfig())),
        "e5_proactive": WorldConfig(
            horizon_days=8.0, seed=4, failure_scale=2.0,
            level=AutomationLevel.L3_HIGH_AUTOMATION,
            policy="proactive", dust_rate_per_day=0.02),
        "gray_dust": WorldConfig(
            horizon_days=10.0, seed=5, failure_scale=1.0,
            level=AutomationLevel.L0_NO_AUTOMATION,
            dust_rate_per_day=0.08, aging_rate_per_day=0.01),
    }


def summary_to_plain(summary) -> dict:
    """A WorldSummary as pure JSON-serializable builtins.

    Floats pass through untouched (json round-trips doubles exactly);
    numpy scalars are collapsed to their Python equivalents so the
    comparison is about *values*, not carrier types.
    """
    return _plain(dataclasses.asdict(summary))


def _plain(value):
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (int,)):
        return int(value)
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        return value
    return value
