"""The self-maintenance control plane (S9) — the paper's core
contribution: work orders, repair physics, escalation, policies,
impact-aware scheduling, automation levels, controller, service API."""

from dcrobot.core.actions import Priority, RepairAction, WorkOrder
from dcrobot.core.api import MaintenanceServiceAPI
from dcrobot.core.audit import (
    AuditLog,
    AuthorizationError,
    MaintenanceAuthorizer,
)
from dcrobot.core.automation import LEVEL_SPECS, AutomationLevel, spec_for
from dcrobot.core.controller import ControllerConfig, MaintenanceController
from dcrobot.core.escalation import EscalationConfig, EscalationLadder
from dcrobot.core.policy import (
    NullPolicy,
    PredictivePolicy,
    ProactivePolicy,
    ReactivePolicy,
)
from dcrobot.core.planner import FleetPlanner, erlang_c
from dcrobot.core.reconfigure import RoboticRewirer, plan_rewiring
from dcrobot.core.resilience import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    ResilienceConfig,
    RetryPolicy,
)
from dcrobot.core.scheduler import ImpactAwareScheduler, SchedulerConfig

__all__ = [
    "RepairAction",
    "Priority",
    "WorkOrder",
    "EscalationLadder",
    "EscalationConfig",
    "ReactivePolicy",
    "NullPolicy",
    "ProactivePolicy",
    "PredictivePolicy",
    "ImpactAwareScheduler",
    "SchedulerConfig",
    "AutomationLevel",
    "LEVEL_SPECS",
    "spec_for",
    "MaintenanceController",
    "ControllerConfig",
    "RetryPolicy",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ResilienceConfig",
    "MaintenanceServiceAPI",
    "AuditLog",
    "MaintenanceAuthorizer",
    "AuthorizationError",
    "FleetPlanner",
    "erlang_c",
    "plan_rewiring",
    "RoboticRewirer",
]
