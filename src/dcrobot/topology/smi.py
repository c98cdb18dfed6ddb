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

Two query paths share the factor definitions:

* :func:`compute_smi` — the full rescan, O(links) per query.  Kept as
  the parity oracle.
* :class:`SmiTracker` — incremental: subscribes to ``FabricState``
  structure events and ``BundleRegistry`` membership events and keeps
  the five factor aggregates as integer histograms/counters, so a query
  after touching one link is O(changed links) to update and
  O(distinct aggregate keys) to assemble.  ``report()`` must equal the
  rescan to 1e-12 on every factor (see
  ``tests/topology/test_smi_incremental.py``).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, Optional

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


def _resolve_weights(weights: Optional[Dict[str, float]]) \
        -> Dict[str, float]:
    weight_map = dict(DEFAULT_WEIGHTS)
    if weights:
        unknown = set(weights) - set(weight_map)
        if unknown:
            raise ValueError(f"unknown SMI weights: {sorted(unknown)}")
        weight_map.update(weights)
    return weight_map


def _assemble(factors: Dict[str, float],
              weight_map: Dict[str, float]) -> SMIReport:
    """Fold factor values into the weighted geometric mean."""
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


def compute_smi(topology: Topology,
                robot_reach_m: float = DEFAULT_ROBOT_REACH_M,
                occlusion_scale: float = DEFAULT_OCCLUSION_SCALE,
                weights: Optional[Dict[str, float]] = None) -> SMIReport:
    """Compute the Self-Maintainability Index of a built topology."""
    weight_map = _resolve_weights(weights)
    factors = {
        "reach": _reach_factor(topology, robot_reach_m),
        "occlusion": _occlusion_factor(topology, occlusion_scale),
        "serviceability": _serviceability_factor(topology),
        "uniformity": _uniformity_factor(topology),
        "granularity": _granularity_factor(topology),
    }
    return _assemble(factors, weight_map)


class SmiTracker:
    """Incrementally-maintained SMI over a live fabric.

    The tracker subscribes to ``FabricState`` structure events
    (link add/remove, transceiver/cable replacement) and
    ``BundleRegistry`` membership events (assign/unassign) and folds
    each one into integer factor aggregates:

    * reach — histogram of per-port reach scores (scores are static
      per rack position, so add/remove just moves integer counts);
    * occlusion — histogram of bundle density → wired-link count,
      kept consistent through density changes of whole bundles;
    * serviceability — count of links with a cleanable cable;
    * uniformity — the transceiver-model ``Counter`` itself;
    * granularity — count of non-empty bundles.

    Because every aggregate is an integer count keyed by an exact
    value, repeated updates cannot drift: :meth:`report` reassembles
    the factors from the counts and matches the full-rescan
    :func:`compute_smi` to float summation-order error (≪ 1e-12).

    Link *state* (up/down/drained) never enters the factors — SMI is a
    structural metric — so state flips are free.  ``report()`` guards
    on ``FabricState.generation``: if a structural change happened
    while the tracker was not subscribed, it falls back to a full
    :meth:`resync`.

    :meth:`fork` returns a detached copy (no subscriptions) whose
    aggregates a digital twin can advance with
    :meth:`apply_transceiver_swap` / :meth:`apply_cable_swap` —
    the two structural deltas a simulated repair plan can cause.
    """

    def __init__(self, topology: Topology,
                 robot_reach_m: float = DEFAULT_ROBOT_REACH_M,
                 occlusion_scale: float = DEFAULT_OCCLUSION_SCALE,
                 weights: Optional[Dict[str, float]] = None) -> None:
        self._topology = topology
        self._reach_m = float(robot_reach_m)
        self._scale = float(occlusion_scale)
        self._weight_map = _resolve_weights(weights)
        self._fs = topology.fabric.state
        self._registry = topology.fabric.bundles
        self._fs.subscribe_structure(self._on_structure)
        self._registry.subscribe(self._on_bundle)
        self._subscribed = True
        self.resync()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Unsubscribe from the fabric (tracker becomes inert).

        Detaching ``_fs`` also disarms :meth:`report`'s generation
        guard, so the last synced aggregates stay frozen instead of
        silently rescanning a fabric we no longer listen to.
        """
        if self._subscribed:
            self._fs.unsubscribe_structure(self._on_structure)
            self._registry.unsubscribe(self._on_bundle)
            self._subscribed = False
        self._fs = None
        self._registry = None

    def fork(self) -> "SmiTracker":
        """A detached aggregate snapshot for a digital twin.

        The clone holds copies of every counter and never subscribes;
        advance it with the ``apply_*`` deltas and query ``report()``.
        """
        clone = SmiTracker.__new__(SmiTracker)
        clone._topology = self._topology
        clone._reach_m = self._reach_m
        clone._scale = self._scale
        clone._weight_map = dict(self._weight_map)
        clone._fs = None
        clone._registry = None
        clone._subscribed = False
        clone._generation = self._generation
        clone._n_links = self._n_links
        clone._reach_hist = Counter(self._reach_hist)
        clone._density_hist = Counter(self._density_hist)
        clone._wired_of_bundle = Counter(self._wired_of_bundle)
        clone._link_bundle = dict(self._link_bundle)
        clone._cleanable = self._cleanable
        clone._models = Counter(self._models)
        clone._nonempty = self._nonempty
        return clone

    # -- full rebuild (parity oracle path) -----------------------------------

    def resync(self) -> None:
        """Rebuild every aggregate with a full rescan."""
        fabric = self._topology.fabric
        self._n_links = 0
        self._reach_hist = Counter()
        self._density_hist = Counter()
        self._wired_of_bundle = Counter()
        self._link_bundle = {}
        self._cleanable = 0
        self._models = Counter()
        for link in fabric.links.values():
            self._add_link(link)
        self._nonempty = sum(
            1 for bundle in fabric.bundles.bundles.values()
            if len(bundle) > 0)
        if self._fs is not None:
            self._generation = self._fs.generation

    # -- factor assembly ------------------------------------------------------

    def report(self) -> SMIReport:
        """The SMI from the aggregates — O(distinct aggregate keys)."""
        if self._fs is not None \
                and self._generation != self._fs.generation:
            self.resync()
        n = self._n_links
        if n == 0:
            factors = {name: 1.0 for name in DEFAULT_WEIGHTS}
            return _assemble(factors, self._weight_map)
        total_ports = 2 * n
        reach = sum(score * count
                    for score, count in self._reach_hist.items()) \
            / total_ports
        occlusion = sum(count * self._occlusion_score(density)
                        for density, count
                        in self._density_hist.items()) / n
        serviceability = self._cleanable / n
        uniformity = sum((count / total_ports) ** 2
                         for count in self._models.values())
        granularity = float(min(1.0, self._nonempty / np.sqrt(n)))
        factors = {
            "reach": float(reach),
            "occlusion": float(occlusion),
            "serviceability": float(serviceability),
            "uniformity": float(uniformity),
            "granularity": granularity,
        }
        return _assemble(factors, self._weight_map)

    # -- twin deltas -----------------------------------------------------------

    def apply_transceiver_swap(self, old_model_id: str,
                               new_model_id: str) -> None:
        """A simulated replacement changed one unit's model."""
        if old_model_id == new_model_id:
            return
        self._models[old_model_id] -= 1
        if self._models[old_model_id] == 0:
            del self._models[old_model_id]
        self._models[new_model_id] += 1

    def apply_cable_swap(self, old_cleanable: bool,
                         new_cleanable: bool) -> None:
        """A simulated replacement changed one cable's separability."""
        self._cleanable += int(new_cleanable) - int(old_cleanable)

    # -- per-factor helpers ----------------------------------------------------

    def _occlusion_score(self, density: int) -> float:
        return 1.0 / (1.0 + max(0, density - 1) / self._scale)

    def _port_score(self, port) -> float:
        fabric = self._topology.fabric
        node = fabric.node(port.parent_id)
        z = fabric.position_of(node.id).z
        return 1.0 if z <= self._reach_m else self._reach_m / z

    def _bump_density(self, hist_key: int, delta: int) -> None:
        self._density_hist[hist_key] += delta
        if self._density_hist[hist_key] == 0:
            del self._density_hist[hist_key]

    def _link_density(self, bundle_id: Optional[str]) -> int:
        if bundle_id is None:
            return 1
        return self._registry.bundles[bundle_id].density

    # -- event folding ---------------------------------------------------------

    def _add_link(self, link) -> None:
        cable = link.cable
        bundle = self._registry.bundle_of(cable.id) \
            if self._registry is not None else None
        bundle_id = bundle.id if bundle is not None else None
        self._link_bundle[link.id] = bundle_id
        self._bump_density(self._link_density(bundle_id), 1)
        if bundle_id is not None:
            self._wired_of_bundle[bundle_id] += 1
        self._cleanable += int(cable.cleanable)
        self._models[link.transceiver_a.model.model_id] += 1
        self._models[link.transceiver_b.model.model_id] += 1
        for port in link.ports():
            self._reach_hist[self._port_score(port)] += 1
        self._n_links += 1

    def _remove_link(self, link) -> None:
        cable = link.cable
        bundle_id = self._link_bundle.pop(link.id, None)
        self._bump_density(self._link_density(bundle_id), -1)
        if bundle_id is not None:
            self._wired_of_bundle[bundle_id] -= 1
            if self._wired_of_bundle[bundle_id] == 0:
                del self._wired_of_bundle[bundle_id]
        self._cleanable -= int(cable.cleanable)
        for unit in (link.transceiver_a, link.transceiver_b):
            self._models[unit.model.model_id] -= 1
            if self._models[unit.model.model_id] == 0:
                del self._models[unit.model.model_id]
        for port in link.ports():
            self._reach_hist[self._port_score(port)] -= 1
            if self._reach_hist[self._port_score(port)] == 0:
                del self._reach_hist[self._port_score(port)]
        self._n_links -= 1

    def _on_structure(self, event: str, **info) -> None:
        if event == "link-added":
            self._add_link(info["link"])
        elif event == "link-removed":
            self._remove_link(info["link"])
        elif event == "xcvr-replaced":
            self.apply_transceiver_swap(info["old"].model.model_id,
                                        info["new"].model.model_id)
        elif event == "cable-replaced":
            self._rebind_cable(info["link"], info["old"], info["new"])
        self._generation = self._fs.generation

    def _rebind_cable(self, link, old, new) -> None:
        # The link keeps its row but swaps cables; the old cable is
        # still in its bundle here (the registry unassign follows),
        # the new one is typically unbundled until re-assigned.
        old_bundle_id = self._link_bundle.get(link.id)
        self._bump_density(self._link_density(old_bundle_id), -1)
        if old_bundle_id is not None:
            self._wired_of_bundle[old_bundle_id] -= 1
            if self._wired_of_bundle[old_bundle_id] == 0:
                del self._wired_of_bundle[old_bundle_id]
        new_bundle = self._registry.bundle_of(new.id)
        new_bundle_id = new_bundle.id if new_bundle is not None else None
        self._link_bundle[link.id] = new_bundle_id
        self._bump_density(self._link_density(new_bundle_id), 1)
        if new_bundle_id is not None:
            self._wired_of_bundle[new_bundle_id] += 1
        self.apply_cable_swap(old.cleanable, new.cleanable)

    def _on_bundle(self, event: str, cable_id: str,
                   bundle_id: str) -> None:
        # Density of the whole bundle changed: every wired link whose
        # cable shares the tray moves between histogram buckets, and
        # the (un)assigned cable's own link may join or leave.
        if event == "assigned":
            density = self._registry.bundles[bundle_id].density
            if density == 1:
                self._nonempty += 1
            wired = self._wired_of_bundle.get(bundle_id, 0)
            if wired:
                self._bump_density(density - 1, -wired)
                self._bump_density(density, wired)
            link = self._topology.fabric.link_of_cable(cable_id)
            if link is not None:
                self._bump_density(1, -1)
                self._bump_density(density, 1)
                self._wired_of_bundle[bundle_id] = wired + 1
                self._link_bundle[link.id] = bundle_id
        elif event == "unassigned":
            density = self._registry.bundles[bundle_id].density
            if density == 0:
                self._nonempty -= 1
            link = self._topology.fabric.link_of_cable(cable_id)
            if link is not None \
                    and self._link_bundle.get(link.id) == bundle_id:
                self._bump_density(density + 1, -1)
                self._bump_density(1, 1)
                self._wired_of_bundle[bundle_id] -= 1
                if self._wired_of_bundle[bundle_id] == 0:
                    del self._wired_of_bundle[bundle_id]
                self._link_bundle[link.id] = None
            wired = self._wired_of_bundle.get(bundle_id, 0)
            if wired:
                self._bump_density(density + 1, -wired)
                self._bump_density(density, wired)
