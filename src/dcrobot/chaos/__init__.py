"""Chaos layer (S11): fault injection for the maintenance plane itself.

The paper's central risk is not that links fail — that is the job — but
that the *maintenance* plane misbehaves: robots stall or crash
mid-reseat, work-order acknowledgements get lost between executor and
controller, telemetry drops out or lies (§2 "robots will themselves
fail", §4).  This package wraps the simulated robot fleet, the
telemetry monitor, and the controller↔executor boundary with
seed-deterministic fault injectors, and provides a runtime
:class:`SafetyMonitor` that checks control-plane invariants every
simulation step.

Everything draws from dedicated chaos RNG substreams, so enabling chaos
never perturbs the physical world's random sequences: the same seed
produces the same link failures with chaos on or off.
"""

from dcrobot.chaos.config import ChaosConfig
from dcrobot.chaos.controller import ControllerChaos
from dcrobot.chaos.engine import ChaosEngine
from dcrobot.chaos.executor import ChaoticExecutor
from dcrobot.chaos.faults import ChaosFaultKind, ChaosLog
from dcrobot.chaos.robot import RobotChaos
from dcrobot.chaos.safety import SafetyMonitor
from dcrobot.chaos.telemetry import TelemetryChaos

__all__ = [
    "ChaosConfig",
    "ChaosEngine",
    "ControllerChaos",
    "ChaoticExecutor",
    "ChaosFaultKind",
    "ChaosLog",
    "RobotChaos",
    "TelemetryChaos",
    "SafetyMonitor",
]
