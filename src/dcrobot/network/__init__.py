"""Physical network inventory (substrate S2).

Everything the paper's §3.1 enumerates — switches, line cards, ports,
transceivers, fiber/copper cables with per-core end-faces — plus the
physical geometry (racks, rows, halls, cable bundles) that robot
mobility and cascading failures depend on.
"""

from dcrobot.network.cable import Cable, cores_for, kind_for_length
from dcrobot.network.endface import INSPECTION_PASS_THRESHOLD, EndFace
from dcrobot.network.enums import (
    CableKind,
    ComponentState,
    DegradationKind,
    EndFacePolish,
    FormFactor,
    LinkState,
)
from dcrobot.network.inventory import Fabric
from dcrobot.network.layout import HallLayout, Position
from dcrobot.network.switchgear import Switch, SwitchRole
from dcrobot.network.transceiver import Transceiver, generate_model_catalog

__all__ = [
    "Fabric",
    "Switch",
    "SwitchRole",
    "Transceiver",
    "generate_model_catalog",
    "Cable",
    "CableKind",
    "kind_for_length",
    "cores_for",
    "EndFace",
    "EndFacePolish",
    "ComponentState",
    "DegradationKind",
    "FormFactor",
    "LinkState",
    "HallLayout",
    "Position",
    "INSPECTION_PASS_THRESHOLD",
]
