"""Datacenter fabric builders and the self-maintainability metric (S3)."""

from dcrobot.topology.base import Topology
from dcrobot.topology.fattree import build_fattree
from dcrobot.topology.gpu import build_gpu_cluster, healthy_server_fraction
from dcrobot.topology.jellyfish import build_jellyfish
from dcrobot.topology.leafspine import build_leafspine
from dcrobot.topology.smi import compute_smi
from dcrobot.topology.xpander import build_xpander, xpander_edges

__all__ = [
    "Topology",
    "build_fattree",
    "build_leafspine",
    "build_jellyfish",
    "build_xpander",
    "xpander_edges",
    "build_gpu_cluster",
    "healthy_server_fraction",
    "compute_smi",
]
