"""Sharded multi-hall worlds with a federated control plane (S20).

One columnar shard per hall (:class:`HallShard`), cross-hall links on
a :class:`BoundaryShard`, and a :class:`CampusWorld` composing N
halls behind the existing ``WorldConfig`` surface with a thin
:class:`CampusFederation` routing cross-hall incidents, merging
per-shard metrics, and keeping campus-wide SMI.
"""

from dcrobot.shard.boundary import (
    BoundaryConfig,
    BoundaryShard,
    boundary_pairs,
)
from dcrobot.shard.campus import CampusWorld, run_campus
from dcrobot.shard.federation import (
    CampusFederation,
    FederationRegistry,
    campus_smi,
    merge_metric_snapshots,
)
from dcrobot.shard.hall import HALL_SEED_STRIDE, HallShard, hall_config

__all__ = [
    "BoundaryConfig",
    "BoundaryShard",
    "boundary_pairs",
    "CampusWorld",
    "run_campus",
    "CampusFederation",
    "FederationRegistry",
    "campus_smi",
    "merge_metric_snapshots",
    "HALL_SEED_STRIDE",
    "HallShard",
    "hall_config",
]
