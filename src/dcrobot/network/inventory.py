"""The fabric inventory: every physical object, and how to wire them up.

:class:`Fabric` is the single source of truth the rest of the library
operates on — topology builders populate it, failure processes mutate
component state inside it, telemetry reads it, and maintenance executors
(humans or robots) physically manipulate it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from dcrobot.network.bundles import BundleRegistry, CableBundle
from dcrobot.network.cable import Cable, cores_for, kind_for_length
from dcrobot.network.enums import (
    CableKind,
    ComponentState,
    EndFacePolish,
    FormFactor,
)
from dcrobot.network.ids import IdFactory
from dcrobot.network.layout import HallLayout, Position
from dcrobot.network.link import Link
from dcrobot.network.state import FabricState
from dcrobot.network.switchgear import Host, Port, Switch, SwitchRole
from dcrobot.network.transceiver import (
    Transceiver,
    TransceiverModel,
    generate_model_catalog,
)

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

#: Extra cable length over straight-line rack distance (routing slack).
CABLE_SLACK_FACTOR = 1.4
CABLE_SLACK_FIXED_M = 2.0

#: Cables per tray bundle before a new bundle is opened.
DEFAULT_BUNDLE_CAPACITY = 24


class Fabric:
    """All physical inventory of one datacenter hall plus its wiring."""

    def __init__(self, layout: Optional[HallLayout] = None,
                 rng: Optional[np.random.Generator] = None,
                 model_catalog: Optional[List[TransceiverModel]] = None,
                 bundle_capacity: int = DEFAULT_BUNDLE_CAPACITY) -> None:
        self.layout = layout or HallLayout(rows=1, racks_per_row=4)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.ids = IdFactory()
        self.model_catalog = (model_catalog
                              or generate_model_catalog(24, self.rng))
        self.bundle_capacity = bundle_capacity

        self.switches: Dict[str, Switch] = {}
        self.hosts: Dict[str, Host] = {}
        self.transceivers: Dict[str, Transceiver] = {}
        self.cables: Dict[str, Cable] = {}
        self.links: Dict[str, Link] = {}
        #: Columnar single source of truth for every wired link; the
        #: batch kernels (health/dust/aging/telemetry/availability)
        #: sweep these arrays instead of the object graph.
        self.state = FabricState()
        self.bundles = BundleRegistry()
        self._ports: Dict[str, Port] = {}
        self._links_of_node: Dict[str, List[str]] = {}
        self._bundle_fill: Dict[str, Tuple[str, int]] = {}

        #: Spare stock available to maintenance executors, and how
        #: much of it has been drawn (what a run consumed).
        self.spare_transceivers: Dict[FormFactor, int] = {}
        self.spare_cables: int = 0
        self.spare_transceivers_taken: int = 0
        self.spare_cables_taken: int = 0

    def __repr__(self) -> str:
        return (f"<Fabric switches={len(self.switches)} "
                f"hosts={len(self.hosts)} links={len(self.links)}>")

    # -- node management -------------------------------------------------------

    def add_switch(self, role: SwitchRole, radix: int,
                   form_factor: FormFactor = FormFactor.QSFP_DD,
                   rack_id: Optional[str] = None, u_position: int = 1,
                   ports_per_line_card: Optional[int] = None) -> Switch:
        """Create and register a switch (optionally placed in a rack)."""
        switch = Switch(self.ids.make("sw"), role, radix, form_factor,
                        rack_id=rack_id, u_position=u_position,
                        ports_per_line_card=ports_per_line_card)
        self.switches[switch.id] = switch
        self._links_of_node[switch.id] = []
        for port in switch.ports:
            self._ports[port.id] = port
        return switch

    def add_host(self, port_count: int = 1,
                 form_factor: FormFactor = FormFactor.QSFP56,
                 rack_id: Optional[str] = None, u_position: int = 1) -> Host:
        """Create and register a server/GPU node."""
        host = Host(self.ids.make("host"), port_count, form_factor,
                    rack_id=rack_id, u_position=u_position)
        self.hosts[host.id] = host
        self._links_of_node[host.id] = []
        for port in host.ports:
            self._ports[port.id] = port
        return host

    def node(self, node_id: str) -> Union[Switch, Host]:
        if node_id in self.switches:
            return self.switches[node_id]
        if node_id in self.hosts:
            return self.hosts[node_id]
        raise KeyError(f"unknown node {node_id}")

    def port(self, port_id: str) -> Port:
        return self._ports[port_id]

    # -- physical placement ----------------------------------------------------

    def position_of(self, node_id: str) -> Position:
        """Hall-space position of a node (rack slot, or origin if
        unplaced)."""
        node = self.node(node_id)
        if node.rack_id is None:
            return Position(0.0, 0.0, 0.0)
        rack = self.layout.racks[node.rack_id]
        return rack.u_position(min(node.u_position, rack.height_u))

    def distance_between(self, node_a: str, node_b: str) -> float:
        """Aisle travel distance between two nodes' racks."""
        return self.layout.travel_distance(
            self.position_of(node_a), self.position_of(node_b))

    def cable_length(self, node_a: str, node_b: str) -> float:
        """Physical cable run between two nodes, with routing slack."""
        if node_a == node_b:
            return CABLE_SLACK_FIXED_M
        direct = self.distance_between(node_a, node_b)
        return direct * CABLE_SLACK_FACTOR + CABLE_SLACK_FIXED_M

    # -- wiring ------------------------------------------------------------------

    def _pick_model(self, form_factor: FormFactor) -> TransceiverModel:
        candidates = [model for model in self.model_catalog
                      if model.form_factor is form_factor]
        if not candidates:
            candidates = self.model_catalog
        return candidates[int(self.rng.integers(len(candidates)))]

    def new_transceiver(self, form_factor: FormFactor, optical: bool,
                        install_time: float = 0.0) -> Transceiver:
        """Mint a transceiver of a random catalog model."""
        unit = Transceiver(self.ids.make("xcvr"),
                           self._pick_model(form_factor),
                           optical=optical, install_time=install_time)
        self.transceivers[unit.id] = unit
        return unit

    def new_cable(self, kind: CableKind, length_m: float, gbps: int,
                  install_time: float = 0.0) -> Cable:
        """Mint a cable; MPO polish is drawn APC/UPC at random (§3.3.3)."""
        polish = EndFacePolish.UPC
        if kind is CableKind.MPO and self.rng.random() < 0.5:
            polish = EndFacePolish.APC
        cable = Cable(self.ids.make("cbl"), kind, length_m,
                      core_count=cores_for(kind, gbps), polish=polish,
                      install_time=install_time)
        self.cables[cable.id] = cable
        return cable

    def connect(self, node_a: str, node_b: str,
                port_a: Optional[Port] = None,
                port_b: Optional[Port] = None,
                kind: Optional[CableKind] = None) -> Link:
        """Wire two nodes together: ports, transceivers, cable, bundle, link.

        Cable construction is chosen from physical distance unless forced
        via ``kind`` (§3.1: DAC short, AOC medium, LC/MPO long).
        """
        end_a = port_a or self.node(node_a).next_free_port()
        if port_b is not None:
            end_b = port_b
        else:
            # Loopback wiring (node_a == node_b) must not grab the same
            # cage twice.
            candidates = [port for port in
                          self.node(node_b).free_ports()
                          if port is not end_a]
            if not candidates:
                raise ValueError(
                    f"node {node_b} has no free port distinct "
                    f"from {end_a.id}")
            end_b = candidates[0]
        gbps = min(end_a.form_factor.gbps, end_b.form_factor.gbps)
        length = self.cable_length(node_a, node_b)
        cable_kind = kind or kind_for_length(length, gbps)
        cable = self.new_cable(cable_kind, length, gbps)
        unit_a = self.new_transceiver(end_a.form_factor,
                                      optical=cable_kind.is_optical)
        unit_b = self.new_transceiver(end_b.form_factor,
                                      optical=cable_kind.is_optical)
        end_a.plug(unit_a.id)
        end_b.plug(unit_b.id)
        bundle = self._bundle_for(node_a, node_b)
        self.bundles.assign(cable.id, bundle.id)
        link = Link(self.ids.make("link"), end_a, end_b, unit_a, unit_b,
                    cable, capacity_gbps=gbps, bundle_id=bundle.id)
        self.links[link.id] = link
        self.state.add_link(link)
        self._links_of_node[end_a.parent_id].append(link.id)
        self._links_of_node[end_b.parent_id].append(link.id)
        return link

    def disconnect(self, link_id: str) -> Link:
        """Physically remove a link: unplug both transceivers, retire
        the cable from its bundle, drop the link from the fabric.

        The transceiver and cable objects stay in their registries
        (they exist as retired inventory) but are no longer wired.
        Returns the removed link.
        """
        link = self.links.pop(link_id, None)
        if link is None:
            raise KeyError(f"unknown link {link_id}")
        # Unbind from the columnar store first so the unplug/unseat
        # mutations below land on plain attributes of retired inventory.
        self.state.remove_link(link)
        for port in link.ports():
            if port.occupied:
                port.unplug()
        for unit in link.transceivers():
            unit.unseat()
            unit.state = ComponentState.SPARE
        self.bundles.unassign(link.cable.id)
        link.cable.state = ComponentState.SPARE
        for node_id in link.endpoint_ids:
            node_links = self._links_of_node.get(node_id, [])
            if link_id in node_links:
                node_links.remove(link_id)
        return link

    def _bundle_for(self, node_a: str, node_b: str) -> CableBundle:
        """Bundle cables by the row pair their tray segment serves."""
        row_a = self._row_of_node(node_a)
        row_b = self._row_of_node(node_b)
        key = f"rows{min(row_a, row_b):02d}-{max(row_a, row_b):02d}"
        current = self._bundle_fill.get(key)
        if current is not None:
            bundle_id, fill = current
            if fill < self.bundle_capacity:
                self._bundle_fill[key] = (bundle_id, fill + 1)
                return self.bundles.bundles[bundle_id]
        bundle = self.bundles.create(self.ids.make(f"bundle-{key}"))
        self._bundle_fill[key] = (bundle.id, 1)
        return bundle

    def rebundle(self, old_cable_id: str, new_cable_id: str,
                 node_a: str, node_b: str) -> None:
        """Move a replacement cable into the tray bundle of its route."""
        self.bundles.unassign(old_cable_id)
        self.bundles.assign(new_cable_id,
                            self._bundle_for(node_a, node_b).id)

    def _row_of_node(self, node_id: str) -> int:
        node = self.node(node_id)
        if node.rack_id is None:
            return 0
        return self.layout.racks[node.rack_id].row

    # -- queries -----------------------------------------------------------------

    def links_of(self, node_id: str) -> List[Link]:
        """All links attached to a node."""
        return [self.links[link_id]
                for link_id in self._links_of_node.get(node_id, [])]

    def link_of_cable(self, cable_id: str) -> Optional[Link]:
        """The wired link carrying ``cable_id`` (None if retired/unknown).

        O(1) through the columnar binding: a wired cable is bound to
        its link's row, and ``add_link``/``remove_link``/``rebind_cable``
        keep that binding current, so no separate index is needed.
        """
        return self._link_at_binding(self.cables.get(cable_id))

    def link_of_transceiver(self, unit_id: str) -> Optional[Link]:
        """The wired link holding ``unit_id`` (None if spare/unknown);
        O(1) through the columnar binding, like :meth:`link_of_cable`."""
        return self._link_at_binding(self.transceivers.get(unit_id))

    def _link_at_binding(self, component) -> Optional[Link]:
        if component is None or component._fs is not self.state:
            return None
        return self.state.links_by_row[component._row]

    def bundle_neighbor_links(self, link: Link) -> List[Link]:
        """Links whose cables share a tray bundle with ``link``'s cable."""
        neighbors = []
        for cable_id in self.bundles.neighbors_of(link.cable.id):
            other = self.link_of_cable(cable_id)
            if other is not None:
                neighbors.append(other)
        return neighbors

    def graph(self, operational_only: bool = False) -> nx.MultiGraph:
        """The fabric as a multigraph (nodes = switches/hosts).

        networkx is imported here, not with this module: building,
        running, sharding or serving a world never asks for a graph,
        so those processes never load it.
        """
        import networkx as nx

        graph = nx.MultiGraph()
        graph.add_nodes_from(self.switches)
        graph.add_nodes_from(self.hosts)
        for link in self.links.values():
            if operational_only and not link.operational:
                continue
            a, b = link.endpoint_ids
            graph.add_edge(a, b, key=link.id,
                           capacity=link.capacity_gbps, link_id=link.id)
        return graph

    # -- spares -------------------------------------------------------------------

    def stock_spares(self, transceivers: Dict[FormFactor, int],
                     cables: int = 0) -> None:
        """Provision the spare pool maintenance executors draw from."""
        for form_factor, count in transceivers.items():
            self.spare_transceivers[form_factor] = (
                self.spare_transceivers.get(form_factor, 0) + count)
        self.spare_cables += cables

    def take_spare_transceiver(self, form_factor: FormFactor, optical: bool,
                               now: float = 0.0) -> Optional[Transceiver]:
        """Draw a fresh unit from stock; None if out of spares."""
        if self.spare_transceivers.get(form_factor, 0) <= 0:
            return None
        self.spare_transceivers[form_factor] -= 1
        self.spare_transceivers_taken += 1
        return self.new_transceiver(form_factor, optical, install_time=now)

    def take_spare_cable(self, template: Cable,
                         now: float = 0.0) -> Optional[Cable]:
        """Draw a replacement cable matching ``template``'s construction."""
        if self.spare_cables <= 0:
            return None
        self.spare_cables -= 1
        self.spare_cables_taken += 1
        gbps = template.core_count * 100
        return self.new_cable(template.kind, template.length_m, gbps,
                              install_time=now)
