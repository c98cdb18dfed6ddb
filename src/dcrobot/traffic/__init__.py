"""Traffic substrate (S5): flows, ECMP routing, and FCT/latency model.

The columnar engine (S17) lives in :mod:`dcrobot.traffic.state`; the
object-path modules stay the API for single-flow work.  The per-flow
parity oracle for the batch path lives with its tests, in
``tests/oracles/traffic.py``.
"""

from dcrobot.traffic.driver import TrafficDriver, WindowStats
from dcrobot.traffic.flows import Flow, FlowGenerator, sample_sizes
from dcrobot.traffic.latency import (
    MTU_BYTES,
    PROPAGATION_S_PER_M,
    LatencyModel,
    LatencyParams,
    combined_loss,
    congestion_loss,
    percentile,
)
from dcrobot.traffic.patterns import (
    HotspotPattern,
    IncastPattern,
    UniformPattern,
)
from dcrobot.traffic.routing import (
    EcmpRouter,
    NoRouteError,
    lexicographic_shortest_paths,
)
from dcrobot.traffic.state import TrafficState, WindowResult

__all__ = [
    "Flow",
    "FlowGenerator",
    "sample_sizes",
    "EcmpRouter",
    "NoRouteError",
    "lexicographic_shortest_paths",
    "LatencyModel",
    "LatencyParams",
    "percentile",
    "congestion_loss",
    "combined_loss",
    "MTU_BYTES",
    "PROPAGATION_S_PER_M",
    "TrafficState",
    "WindowResult",
    "TrafficDriver",
    "WindowStats",
    "UniformPattern",
    "HotspotPattern",
    "IncastPattern",
]
