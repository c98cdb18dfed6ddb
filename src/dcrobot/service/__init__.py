"""The always-on async service plane (S21).

Layered per the ISSUE's refactor: a materialized read model
(:mod:`~dcrobot.service.readmodel`) makes queries O(1) snapshots, the
sim bridge (:mod:`~dcrobot.service.bridge`) steps the world
cooperatively inside an asyncio loop, admission control
(:mod:`~dcrobot.service.admission`) sheds load before it queues, and
the front-end (:mod:`~dcrobot.service.server`) ties them into a
servable :func:`serve_world` over a single hall or a whole campus.
"""

from dcrobot.service.admission import (
    AdmissionConfig,
    AdmissionController,
    RequestKind,
    TokenBucket,
)
from dcrobot.service.bridge import BridgeConfig, SimBridge
from dcrobot.service.readmodel import (
    CampusReadModel,
    ReadModel,
    ReadModelParityError,
    ReadSnapshot,
)
from dcrobot.service.server import (
    MaintenanceService,
    ServedWorld,
    ServiceConfig,
    ServiceOverloadError,
    TelemetryReport,
    serve_world,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "BridgeConfig",
    "CampusReadModel",
    "MaintenanceService",
    "ReadModel",
    "ReadModelParityError",
    "ReadSnapshot",
    "RequestKind",
    "ServedWorld",
    "ServiceConfig",
    "ServiceOverloadError",
    "SimBridge",
    "TelemetryReport",
    "TokenBucket",
    "serve_world",
]
