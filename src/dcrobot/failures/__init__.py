"""Failure physics (substrate S4): hazards, environment, link health,
fault injection, and touch-induced cascading failures."""

from dcrobot.failures.cascade import (
    HUMAN_HANDS,
    ROBOT_GRIPPER,
    CascadeModel,
    ContactProfile,
)
from dcrobot.failures.dust import DustProcess
from dcrobot.failures.environment import Environment
from dcrobot.failures.hazards import (
    SECONDS_PER_YEAR,
    ExponentialHazard,
    WeibullHazard,
    per_year,
)
from dcrobot.failures.health import HealthModel, HealthParams
from dcrobot.failures.trace import FaultTrace, TraceEntry
from dcrobot.failures.injector import FailureRates, FaultInjector

__all__ = [
    "Environment",
    "DustProcess",
    "HealthModel",
    "HealthParams",
    "FaultInjector",
    "FailureRates",
    "FaultTrace",
    "TraceEntry",
    "CascadeModel",
    "ContactProfile",
    "HUMAN_HANDS",
    "ROBOT_GRIPPER",
    "ExponentialHazard",
    "WeibullHazard",
    "per_year",
    "SECONDS_PER_YEAR",
]
