"""Enumerations describing the physical networking inventory (§3.1)."""

from __future__ import annotations

import enum


class ComponentState(enum.Enum):
    """Lifecycle state shared by all serviceable components."""

    ACTIVE = "active"            #: installed and nominally working
    DEGRADED = "degraded"        #: installed, working with elevated errors
    FAILED = "failed"            #: installed but not carrying traffic
    MAINTENANCE = "maintenance"  #: taken out of service for repair
    SPARE = "spare"              #: in stock, not installed


class FormFactor(enum.Enum):
    """Transceiver form factors found in large datacenters (§4).

    Values carry (lanes, gbps_per_lane): the marketing rate is their
    product.  The paper notes the *mechanical* backend diversity on top of
    these standardized electrical front-ends.
    """

    SFP28 = ("SFP28", 1, 25)
    SFP56 = ("SFP56", 1, 50)
    QSFP28 = ("QSFP28", 4, 25)
    QSFP56 = ("QSFP56", 4, 50)
    QSFP_DD = ("QSFP-DD", 8, 50)
    OSFP = ("OSFP", 8, 100)

    def __init__(self, label: str, lanes: int, gbps_per_lane: int) -> None:
        self.label = label
        self.lanes = lanes
        self.gbps_per_lane = gbps_per_lane

    @property
    def gbps(self) -> int:
        """Nominal aggregate data rate in Gbit/s."""
        return self.lanes * self.gbps_per_lane


class CableKind(enum.Enum):
    """Cable families by reach and construction (§3.1).

    * DAC — passive copper, short (integrated "transceiver" ends).
    * AEC / AOC — active copper / optical, transceivers integrated at
      manufacture (not separable, hence not cleanable in the field).
    * LC / MPO — separate fiber cables plugged into transceivers on site;
      LC carries one channel, MPO packages several fiber cores.
    """

    DAC = "dac"
    AEC = "aec"
    AOC = "aoc"
    LC = "lc"
    MPO = "mpo"

    @property
    def is_optical(self) -> bool:
        return self in (CableKind.AOC, CableKind.LC, CableKind.MPO)

    @property
    def is_separable(self) -> bool:
        """True if the cable detaches from the transceiver (cleanable)."""
        return self in (CableKind.LC, CableKind.MPO)


class EndFacePolish(enum.Enum):
    """Fiber end-face polish geometry.

    The paper highlights that some MPO cables have an 8-degree angle
    (APC) while others are flat (UPC) — a robot gripper/inspection design
    constraint (§3.3.3).
    """

    UPC = 0.0   #: flat polish
    APC = 8.0   #: 8-degree angled polish

    @property
    def angle_degrees(self) -> float:
        return float(self.value)


class LinkState(enum.Enum):
    """Operational state of a network link as seen by the fabric."""

    UP = "up"
    FLAPPING = "flapping"
    DOWN = "down"
    MAINTENANCE = "maintenance"

    @property
    def carries_traffic(self) -> bool:
        """Whether the link can carry (possibly lossy) traffic."""
        return self in (LinkState.UP, LinkState.FLAPPING)


def is_flap(old: LinkState, new: LinkState) -> bool:
    """Whether ``old -> new`` counts as a flap: it crosses UP<->non-UP.

    Transitions into or out of MAINTENANCE are administrative: a repair
    taking a link out of service is not the gray failure the flap
    counter exists to catch.
    """
    return ((old is LinkState.UP) != (new is LinkState.UP)
            and LinkState.MAINTENANCE not in (old, new))


class DegradationKind(enum.Enum):
    """Root causes of link misbehaviour, mapped to the repairs that fix
    them (§3.2).

    The controller never observes these directly — it only sees symptoms
    — which is exactly why the escalation ladder exists.
    """

    OXIDATION = "oxidation"          #: contact corrosion; fixed by reseat
    FIRMWARE_STUCK = "firmware"      #: wedged transceiver; fixed by reseat
    CONTAMINATION = "contamination"  #: end-face dirt; fixed by cleaning
    TRANSCEIVER_HW = "transceiver"   #: electronics fault; replace transceiver
    CABLE_DAMAGE = "cable"           #: bent/broken fiber; replace cable
    SWITCH_HW = "switch"             #: port/line-card fault; replace switchgear
