"""Flow workload model.

Flows are sampled, not individually simulated: experiments periodically
draw a batch of flows between attachment points and push them through
the routing + latency models to observe the fabric as applications
would.  Sizes follow the heavy-tailed mice/elephants mix standard in
datacenter measurement studies.

Batch sampling is vectorized: one blocked draw per quantity (sources,
destination offsets, mixture thresholds, lognormal sizes) instead of a
Python loop interleaving four scalar draws per flow.  The blocked
stream is the *defined* batch order — numpy fills array-parameter
distributions element by element, so a scalar loop making the same
blocked draws consumes the identical stream (see
``tests/traffic/test_traffic_parity.py``).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Mice/elephant mixture: (probability, lognormal mean, sigma).
SIZE_MIX: Sequence[Tuple[float, float, float]] = (
    (0.8, np.log(20e3), 1.0),    # mice ~20 KB
    (0.2, np.log(10e6), 1.2),    # elephants ~10 MB
)

MIN_FLOW_BYTES = 64

#: ``SIZE_MIX`` as arrays for :func:`sample_sizes`: cumulative
#: component probabilities, lognormal means and sigmas.
_SIZE_CUMULATIVE = np.cumsum([probability for probability, _, _
                              in SIZE_MIX])
_SIZE_MEANS = np.array([mean for _, mean, _ in SIZE_MIX])
_SIZE_SIGMAS = np.array([sigma for _, _, sigma in SIZE_MIX])


@dataclasses.dataclass(frozen=True)
class Flow:
    """One application flow between two attachment nodes."""

    flow_id: int
    src: str
    dst: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("flow endpoints must differ")
        if self.size_bytes <= 0:
            raise ValueError(f"size must be > 0, got {self.size_bytes}")


def sample_sizes(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` flow sizes (int64 bytes) from the mice/elephant mix.

    Three blocked draws: mixture thresholds, then lognormals with
    array-valued (mean, sigma) selected per flow.
    """
    thresholds = rng.random(count)
    component = np.searchsorted(_SIZE_CUMULATIVE, thresholds,
                                side="right")
    component = np.minimum(component, len(SIZE_MIX) - 1)
    sizes = rng.lognormal(_SIZE_MEANS[component],
                          _SIZE_SIGMAS[component]).astype(np.int64)
    return np.maximum(MIN_FLOW_BYTES, sizes)


class FlowGenerator:
    """Draws flows between uniformly chosen distinct endpoints."""

    def __init__(self, endpoints: Sequence[str],
                 rng: Optional[np.random.Generator] = None) -> None:
        if len(endpoints) < 2:
            raise ValueError("need at least two endpoints")
        self.endpoints = list(endpoints)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._counter = itertools.count()

    def sample_arrays(self, count: int):
        """``count`` flows as columns: (flow_ids, src_idx, dst_idx,
        sizes) — the columnar engine's native input shape."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        n = len(self.endpoints)
        src_index = self.rng.integers(n, size=count)
        dst_index = self.rng.integers(n - 1, size=count)
        dst_index = dst_index + (dst_index >= src_index)
        sizes = sample_sizes(self.rng, count)
        flow_ids = np.array([next(self._counter)
                             for _ in range(count)], dtype=np.int64)
        return flow_ids, src_index.astype(np.int64), \
            dst_index.astype(np.int64), sizes

    def sample_batch(self, count: int) -> List[Flow]:
        """``count`` independent flows (one vectorized blocked draw)."""
        flow_ids, src_index, dst_index, sizes = self.sample_arrays(count)
        endpoints = self.endpoints
        return [Flow(int(fid), endpoints[int(si)], endpoints[int(di)],
                     int(size))
                for fid, si, di, size
                in zip(flow_ids, src_index, dst_index, sizes)]
