"""Traffic substrate (S5): flows, ECMP routing, and FCT/latency model.

The columnar engine (S17) lives in :mod:`dcrobot.traffic.state`; the
object-path modules stay the API for single-flow work.  The per-flow
parity oracle for the batch path lives with its tests, in
``tests/oracles/traffic.py``.
"""

from dcrobot.traffic.driver import TrafficDriver
from dcrobot.traffic.flows import Flow, FlowGenerator, sample_sizes
from dcrobot.traffic.latency import LatencyModel, LatencyParams, percentile
from dcrobot.traffic.patterns import (
    HotspotPattern,
    IncastPattern,
    UniformPattern,
)
from dcrobot.traffic.routing import EcmpRouter, NoRouteError
from dcrobot.traffic.state import TrafficState

__all__ = [
    "Flow",
    "FlowGenerator",
    "sample_sizes",
    "EcmpRouter",
    "NoRouteError",
    "LatencyModel",
    "LatencyParams",
    "percentile",
    "TrafficState",
    "TrafficDriver",
    "UniformPattern",
    "HotspotPattern",
    "IncastPattern",
]
