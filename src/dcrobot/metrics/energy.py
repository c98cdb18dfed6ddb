"""Energy accounting (§4 "Energy efficiency").

"The community could also rethink how to enhance energy efficiency
through optimized resource management facilitated by robotic systems."

Two concrete levers are modeled:

* **right-provisioning** — every redundant link an operator no longer
  buys stops burning transceiver power 24/7 (the dominant term: optics
  run hot whether or not they carry traffic);
* **robot energy** — the fleet itself consumes power while working and
  (far less) while idle.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from dcrobot.network.enums import FormFactor
from dcrobot.network.inventory import Fabric

HOUR = 3600.0

#: Typical module power draw (watts) per form factor — optics burn the
#: same power at idle as under load.
TRANSCEIVER_WATTS: Dict[FormFactor, float] = {
    FormFactor.SFP28: 1.0,
    FormFactor.SFP56: 1.5,
    FormFactor.QSFP28: 3.5,
    FormFactor.QSFP56: 5.0,
    FormFactor.QSFP_DD: 14.0,
    FormFactor.OSFP: 15.0,
}


@dataclasses.dataclass(frozen=True)
class EnergyParams:
    """Power-model constants."""

    robot_active_watts: float = 150.0
    robot_idle_watts: float = 8.0
    #: Facility overhead multiplier (cooling etc.).
    pue: float = 1.3

    def __post_init__(self) -> None:
        if self.pue < 1.0:
            raise ValueError("PUE must be >= 1.0")


@dataclasses.dataclass(frozen=True)
class EnergyReport:
    """Energy over a horizon, in kWh (at the facility meter, PUE
    included)."""

    link_kwh: float
    robot_kwh: float

    @property
    def total_kwh(self) -> float:
        return self.link_kwh + self.robot_kwh

    def co2_kg(self, grid_kg_per_kwh: float = 0.35) -> float:
        """Carbon at a given grid intensity."""
        return self.total_kwh * grid_kg_per_kwh

    def __repr__(self) -> str:
        return (f"<EnergyReport links={self.link_kwh:.1f}kWh "
                f"robots={self.robot_kwh:.1f}kWh>")


class EnergyModel:
    """Computes fabric + fleet energy over a horizon."""

    def __init__(self, params: EnergyParams = EnergyParams()) -> None:
        self.params = params

    def link_watts(self, fabric: Fabric) -> float:
        """Instantaneous optics power of all installed links."""
        total = 0.0
        for link in fabric.links.values():
            for unit in link.transceivers():
                total += TRANSCEIVER_WATTS[unit.form_factor]
        return total

    def compute(self, fabric: Fabric, horizon_seconds: float,
                robot_count: int = 0,
                robot_busy_seconds: float = 0.0) -> EnergyReport:
        """Facility energy over the horizon."""
        if horizon_seconds <= 0:
            raise ValueError("horizon must be > 0")
        params = self.params
        link_joules = self.link_watts(fabric) * horizon_seconds
        idle_seconds = max(
            0.0, robot_count * horizon_seconds - robot_busy_seconds)
        robot_joules = (robot_busy_seconds * params.robot_active_watts
                        + idle_seconds * params.robot_idle_watts)
        to_kwh = params.pue / 3.6e6
        return EnergyReport(link_kwh=link_joules * to_kwh,
                            robot_kwh=robot_joules * to_kwh)

    def redundancy_power_saved(self, fabric: Fabric,
                               links_removed: int,
                               per_link_watts: float = None) -> float:
        """Watts saved by right-provisioning away ``links_removed``
        links (two transceivers each).

        ``per_link_watts`` defaults to the fabric's mean per-link
        optics power.
        """
        if links_removed < 0:
            raise ValueError("links_removed must be >= 0")
        if per_link_watts is None:
            count = max(len(fabric.links), 1)
            per_link_watts = self.link_watts(fabric) / count
        return links_removed * per_link_watts
