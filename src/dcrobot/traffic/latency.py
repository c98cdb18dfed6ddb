"""Flow-completion latency model: where flapping links poison the tail.

Per §1, layers above retransmit what a flapping link drops, so the
damage shows up as tail latency, not as hard unavailability.  The model
composes:

* propagation — 5 ns/m of fiber per hop;
* switching — per-hop forwarding latency;
* serialization — flow size over bottleneck link capacity;
* retransmissions — each packet independently lost with the path's
  aggregate loss rate; every loss costs a retransmission timeout.

Sampled per flow with real randomness so percentiles behave like
measured FCT distributions.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from dcrobot.network.link import Link
from dcrobot.traffic.flows import Flow

#: Speed of light in fiber: ~5 ns per metre.
PROPAGATION_S_PER_M = 5e-9

MTU_BYTES = 1500


@dataclasses.dataclass
class LatencyParams:
    """Latency model constants."""

    switch_hop_seconds: float = 1e-6
    retransmission_timeout_seconds: float = 0.005
    max_retries_per_packet: int = 6

    def __post_init__(self) -> None:
        if self.retransmission_timeout_seconds <= 0:
            raise ValueError("RTO must be > 0")
        if self.max_retries_per_packet < 0:
            raise ValueError("max_retries must be >= 0")


class LatencyModel:
    """Samples flow-completion times over a concrete link path."""

    def __init__(self, params: Optional[LatencyParams] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.params = params or LatencyParams()
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def path_loss_rate(self, path: Sequence[Link]) -> float:
        """Aggregate packet-loss probability along the path."""
        survival = 1.0
        for link in path:
            survival *= (1.0 - min(link.loss_rate, 1.0))
        return 1.0 - survival

    def base_latency(self, flow: Flow, path: Sequence[Link]) -> float:
        """Loss-free completion time for the flow on this path."""
        propagation = sum(link.cable.length_m for link in path) \
            * PROPAGATION_S_PER_M
        switching = len(path) * self.params.switch_hop_seconds
        bottleneck_gbps = min(link.capacity_gbps for link in path)
        serialization = flow.size_bytes * 8 / (bottleneck_gbps * 1e9)
        return propagation + switching + serialization

    def sample_fct(self, flow: Flow, path: Sequence[Link]) -> float:
        """One flow-completion-time sample including retransmissions."""
        if not path:
            raise ValueError("empty path")
        base = self.base_latency(flow, path)
        loss = self.path_loss_rate(path)
        if loss <= 0.0:
            return base
        packets = max(1, int(np.ceil(flow.size_bytes / MTU_BYTES)))
        # Each packet needs a geometric number of attempts; the total
        # number of retransmissions across the flow is negative binomial
        # (failures before ``packets`` successes), sampled in one draw.
        effective_loss = min(loss, 0.5)
        retries = int(self.rng.negative_binomial(
            packets, 1.0 - effective_loss))
        retries = min(retries,
                      packets * self.params.max_retries_per_packet)
        return base + retries * self.params.retransmission_timeout_seconds


def congestion_loss(offered_bytes, capacity_gbps,
                    window_seconds: float) -> np.ndarray:
    """Fraction of offered bytes an overloaded link cannot carry.

    Shared by the columnar engine and the per-flow oracle — one float
    expression, scalar or array, so the two paths agree bit for bit.
    """
    offered = np.asarray(offered_bytes, dtype=np.float64)
    capacity_bytes = (np.asarray(capacity_gbps, dtype=np.float64)
                      * 1e9 / 8.0 * window_seconds)
    ratio = np.ones_like(offered)
    np.divide(capacity_bytes, offered, out=ratio,
              where=offered > capacity_bytes)
    return 1.0 - ratio


def combined_loss(physical, congestion) -> np.ndarray:
    """Independent physical + congestion loss composed per link."""
    physical = np.minimum(np.asarray(physical, dtype=np.float64), 1.0)
    return 1.0 - (1.0 - physical) * (1.0 - np.asarray(
        congestion, dtype=np.float64))


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile (q in [0, 100]) of a non-empty sample set."""
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if len(samples) == 0:
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(samples, dtype=float), q))
