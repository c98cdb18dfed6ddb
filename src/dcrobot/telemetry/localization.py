"""Probe-based fault localization (§4 "Fault detection and isolation").

"Integrating robotics with network monitoring tools and developing
algorithms for precise fault localization is another area of interest."

Before a robot is dispatched, the control plane wants to know *which*
link in a multi-hop path is sick.  This module implements boolean
network tomography: end-to-end probes succeed or fail per path, and the
localizer infers a minimal set of suspect links explaining the
observations:

* every link on a *passing* path is exonerated,
* the remaining candidates are ranked by how many failing paths they
  appear on, and a greedy set cover picks the smallest explanation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set

from dcrobot.network.inventory import Fabric
from dcrobot.network.link import Link


@dataclasses.dataclass(frozen=True)
class ProbeObservation:
    """One end-to-end probe: the link path it took and whether it
    succeeded."""

    src: str
    dst: str
    link_ids: tuple
    success: bool


@dataclasses.dataclass
class LocalizationReport:
    """The localizer's verdict."""

    suspects: List[str]
    exonerated: Set[str]
    observations: int
    failing_paths: int

    def __repr__(self) -> str:
        return (f"<LocalizationReport suspects={self.suspects} "
                f"from {self.observations} probes>")


class ProbeLocalizer:
    """Sends probes across the fabric and infers faulty links."""

    def __init__(self, fabric: Fabric,
                 loss_failure_threshold: float = 1e-4) -> None:
        self.fabric = fabric
        self.loss_failure_threshold = loss_failure_threshold
        self._graph = None
        self._graph_key = None

    # -- probing ---------------------------------------------------------------

    def probe(self, src: str, dst: str,
              flow_hash: int = 0) -> Optional[ProbeObservation]:
        """One probe along the ECMP path chosen by ``flow_hash``.

        A probe fails if any hop is non-operational... which ECMP
        already routes around — so we probe over the *full* topology
        view (drained/failed links included) to test the sick parts.
        """
        path_nodes = self._any_path(src, dst, flow_hash)
        if path_nodes is None:
            return None
        links = self._links_for(path_nodes, flow_hash)
        if links is None:
            return None
        success = all(
            link.operational
            and link.loss_rate <= self.loss_failure_threshold
            for link in links)
        return ProbeObservation(src, dst,
                                tuple(link.id for link in links),
                                success)

    def _any_path(self, src: str, dst: str,
                  flow_hash: int = 0) -> Optional[List[str]]:
        """A shortest node path, diversified over equal-cost choices so
        a probe mesh covers every parallel plane of the fabric."""
        import itertools

        import networkx as nx

        graph = self._full_graph()
        try:
            paths = list(itertools.islice(
                nx.all_shortest_paths(graph, src, dst), 8))
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None
        if not paths:
            return None
        return paths[flow_hash % len(paths)]

    def _full_graph(self):
        """The full-view graph (sick links included), built once per
        fabric structure rather than once per probe.  It ignores link
        state, so only a structural change rebuilds it: a link added,
        removed or rebound moves ``generation``, and a switch or host
        added moves the node counts (``add_switch`` and ``add_host``
        bind no row, so they leave ``generation`` alone)."""
        fabric = self.fabric
        key = (fabric.state.generation, len(fabric.switches),
               len(fabric.hosts))
        if key != self._graph_key:
            self._graph = fabric.graph()
            self._graph_key = key
        return self._graph

    def _links_for(self, path_nodes: List[str],
                   flow_hash: int) -> Optional[List[Link]]:
        links = []
        for a, b in zip(path_nodes, path_nodes[1:]):
            candidates = [link for link in self.fabric.links_of(a)
                          if set(link.endpoint_ids) == {a, b}]
            if not candidates:
                return None
            links.append(candidates[flow_hash % len(candidates)])
        return links

    def probe_mesh(self, endpoints: Sequence[str],
                   probes_per_pair: int = 2) -> List[ProbeObservation]:
        """Probe all endpoint pairs, spreading over parallel links."""
        observations = []
        for index, src in enumerate(endpoints):
            for dst in endpoints[index + 1:]:
                for attempt in range(probes_per_pair):
                    observation = self.probe(src, dst,
                                             flow_hash=attempt)
                    if observation is not None:
                        observations.append(observation)
        return observations

    # -- inference ---------------------------------------------------------------

    def localize(self, observations: Sequence[ProbeObservation]
                 ) -> LocalizationReport:
        """Greedy set-cover localization over probe outcomes."""
        exonerated: Set[str] = set()
        failing: List[Set[str]] = []
        for observation in observations:
            if observation.success:
                exonerated.update(observation.link_ids)
            else:
                failing.append(set(observation.link_ids))

        suspects: List[str] = []
        uncovered = [path - exonerated for path in failing]
        uncovered = [path for path in uncovered if path]
        # Paths fully exonerated yet failing are unexplainable noise —
        # they are dropped (counted in the report via failing_paths).
        while uncovered:
            counts: Dict[str, int] = {}
            for path in uncovered:
                for link_id in path:
                    counts[link_id] = counts.get(link_id, 0) + 1
            best = max(sorted(counts), key=lambda lid: counts[lid])
            suspects.append(best)
            uncovered = [path for path in uncovered
                         if best not in path]
        return LocalizationReport(
            suspects=suspects, exonerated=exonerated,
            observations=len(observations),
            failing_paths=len(failing))
