"""Telemetry & symptom detection (S6)."""

from dcrobot.telemetry.detectors import DetectorParams, LinkDetector
from dcrobot.telemetry.events import Symptom, TelemetryEvent
from dcrobot.telemetry.localization import ProbeLocalizer
from dcrobot.telemetry.monitor import TelemetryMonitor

__all__ = [
    "Symptom",
    "TelemetryEvent",
    "DetectorParams",
    "LinkDetector",
    "TelemetryMonitor",
    "ProbeLocalizer",
]
