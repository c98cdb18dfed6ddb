"""Robotics substrate (S7): modular maintenance robot units and fleet."""

from dcrobot.robots.cleaner import CleanerParams, CleaningRobot
from dcrobot.robots.fleet import FleetConfig, RobotFleet
from dcrobot.robots.manipulator import ManipulatorParams, ManipulatorRobot
from dcrobot.robots.mobility import MobilityModel, MobilityScope
from dcrobot.robots.perception import PerceptionModel, PerceptionParams

__all__ = [
    "ManipulatorRobot",
    "ManipulatorParams",
    "CleaningRobot",
    "CleanerParams",
    "RobotFleet",
    "FleetConfig",
    "MobilityModel",
    "MobilityScope",
    "PerceptionModel",
    "PerceptionParams",
]
