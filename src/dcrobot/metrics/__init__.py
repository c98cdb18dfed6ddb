"""Measurement & economics (S11)."""

from dcrobot.metrics.amplification import amplification_from_outcomes
from dcrobot.metrics.attribution import (
    attribute_incidents,
    disturbed_links_from_cascade,
)
from dcrobot.metrics.availability import link_availability
from dcrobot.metrics.cost import CostModel, CostParams
from dcrobot.metrics.energy import TRANSCEIVER_WATTS, EnergyModel, EnergyParams
from dcrobot.metrics.mttr import (
    format_duration,
    mtbf_seconds,
    repair_time_stats,
)
from dcrobot.metrics.report import Table
from dcrobot.metrics.viz import (
    availability_bar,
    hall_map,
    link_state_strip,
    sparkline,
)

__all__ = [
    "link_availability",
    "repair_time_stats",
    "format_duration",
    "mtbf_seconds",
    "amplification_from_outcomes",
    "CostModel",
    "CostParams",
    "Table",
    "EnergyModel",
    "EnergyParams",
    "TRANSCEIVER_WATTS",
    "sparkline",
    "link_state_strip",
    "hall_map",
    "availability_bar",
    "attribute_incidents",
    "disturbed_links_from_cascade",
]
