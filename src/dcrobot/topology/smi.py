"""SMI — the Self-Maintainability Index.

§4 of the paper asks: *"perhaps we can create a metric for
self-maintainability of a network design?"*.  This module proposes one.

SMI is a weighted geometric mean of five structural factors, each in
(0, 1], computed from the built fabric (no simulation required):

* **reach** — fraction-weighted accessibility of link endpoints by a
  robot of given vertical reach.  Ports above the reach limit score the
  ratio ``reach / z`` (taller masts/lifts help but cost time).
* **occlusion** — how uncluttered the cable trays are: per link,
  ``1 / (1 + (bundle_density - 1) / occlusion_scale)``, averaged.  Dense
  looms defeat perception and grasping (§3.3.3).
* **serviceability** — fraction of links whose cable is separable
  (LC/MPO): those admit the full reseat→clean→replace ladder instead of
  jumping straight to replacement.
* **uniformity** — Simpson concentration of transceiver models in use
  (probability two random units share a design).  Diversity is the
  paper's top automation obstacle (§4 "Hardware redesign").
* **granularity** — repair parallelism: distinct bundles relative to
  links.  Finer bundling means touching one cable endangers fewer
  neighbours and independent repairs can proceed concurrently.

A geometric mean is used because the factors gate each other: a fabric
whose ports are unreachable is not redeemed by uniform transceivers.

SMI is structural: link state never enters it, so it moves only when a
link is wired or unwired, has a part replaced, or has its cable
(un)bundled.  :func:`compute_smi` is the one definition;
:class:`SmiTracker` serves live reads from it, rescanning only after
such a change.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, Optional, Tuple

import numpy as np

from dcrobot.topology.base import Topology

DEFAULT_WEIGHTS: Dict[str, float] = {
    "reach": 1.0,
    "occlusion": 1.0,
    "serviceability": 1.0,
    "uniformity": 1.0,
    "granularity": 1.0,
}

#: Vertical reach (metres) of the reference rack-scale robot.
DEFAULT_ROBOT_REACH_M = 2.2

#: Bundle density at which occlusion halves the score.
DEFAULT_OCCLUSION_SCALE = 8.0

_FLOOR = 1e-3  # factors are clamped here so the geometric mean stays > 0


@dataclasses.dataclass(frozen=True)
class SMIReport:
    """The index plus its factor decomposition."""

    smi: float
    factors: Dict[str, float]

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={value:.3f}"
                          for name, value in sorted(self.factors.items()))
        return f"<SMIReport smi={self.smi:.3f} ({parts})>"


def _reach_factor(topology: Topology, reach_m: float) -> float:
    scores = []
    fabric = topology.fabric
    for link in fabric.links.values():
        for port in link.ports():
            node = fabric.node(port.parent_id)
            z = fabric.position_of(node.id).z
            scores.append(1.0 if z <= reach_m else reach_m / z)
    return float(np.mean(scores)) if scores else 1.0


def _occlusion_factor(topology: Topology, scale: float) -> float:
    fabric = topology.fabric
    scores = []
    for link in fabric.links.values():
        bundle = fabric.bundles.bundle_of(link.cable.id)
        density = bundle.density if bundle else 1
        scores.append(1.0 / (1.0 + max(0, density - 1) / scale))
    return float(np.mean(scores)) if scores else 1.0


def _serviceability_factor(topology: Topology) -> float:
    links = topology.fabric.links.values()
    if not links:
        return 1.0
    separable = sum(1 for link in links if link.cable.cleanable)
    return separable / len(links)


def _uniformity_factor(topology: Topology) -> float:
    models = Counter()
    for link in topology.fabric.links.values():
        models[link.transceiver_a.model.model_id] += 1
        models[link.transceiver_b.model.model_id] += 1
    total = sum(models.values())
    if total == 0:
        return 1.0
    return sum((count / total) ** 2 for count in models.values())


def _granularity_factor(topology: Topology) -> float:
    links = len(topology.fabric.links)
    if links == 0:
        return 1.0
    bundles = len([b for b in topology.fabric.bundles.bundles.values()
                   if len(b) > 0])
    return min(1.0, bundles / np.sqrt(links))


def compute_smi(topology: Topology,
                robot_reach_m: float = DEFAULT_ROBOT_REACH_M,
                occlusion_scale: float = DEFAULT_OCCLUSION_SCALE,
                weights: Optional[Dict[str, float]] = None) -> SMIReport:
    """Compute the Self-Maintainability Index of a built topology."""
    weight_map = dict(DEFAULT_WEIGHTS)
    if weights:
        unknown = set(weights) - set(weight_map)
        if unknown:
            raise ValueError(f"unknown SMI weights: {sorted(unknown)}")
        weight_map.update(weights)
    factors = {
        "reach": _reach_factor(topology, robot_reach_m),
        "occlusion": _occlusion_factor(topology, occlusion_scale),
        "serviceability": _serviceability_factor(topology),
        "uniformity": _uniformity_factor(topology),
        "granularity": _granularity_factor(topology),
    }
    log_sum = 0.0
    weight_total = 0.0
    for name, value in factors.items():
        weight = weight_map[name]
        if weight <= 0:
            continue
        log_sum += weight * np.log(max(value, _FLOOR))
        weight_total += weight
    smi = float(np.exp(log_sum / weight_total)) if weight_total else 1.0
    return SMIReport(smi=smi, factors=factors)


class SmiTracker:
    """The live SMI of one topology, memoized on its fabric's structure.

    Every structural change bumps ``FabricState.generation`` (a link
    wired or unwired, a transceiver or cable replaced) or
    ``BundleRegistry.membership`` (a cable assigned to or removed from
    a bundle), so :meth:`report` reruns :func:`compute_smi` only when
    that pair has moved since the last read.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._key: Optional[Tuple[int, int]] = None
        self._report: Optional[SMIReport] = None

    def report(self) -> SMIReport:
        """The topology's SMI as its fabric stands now."""
        fabric = self._topology.fabric
        key = (fabric.state.generation, fabric.bundles.membership)
        if key != self._key:
            self._report = compute_smi(self._topology)
            self._key = key
        return self._report
