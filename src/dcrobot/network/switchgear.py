"""Switches, line cards, ports, and server NICs."""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from dcrobot.network.enums import ComponentState, FormFactor


class SwitchRole(enum.Enum):
    """Where the switch sits in the fabric."""

    TOR = "tor"        #: top-of-rack / leaf in 2-tier designs
    LEAF = "leaf"
    SPINE = "spine"
    AGG = "agg"        #: aggregation (fat-tree pod layer)
    CORE = "core"
    NODE = "node"      #: generic node in expander-style flat fabrics


class Port:
    """One front-panel cage on a switch or NIC."""

    def __init__(self, port_id: str, parent_id: str, index: int,
                 form_factor: FormFactor) -> None:
        #: Columnar binding while part of a wired link (see
        #: :class:`~dcrobot.network.state.FabricState`); must exist
        #: before the mirrored ``hw_fault`` property is assigned.
        self._fs = None
        self._row = -1
        self._side = 0
        self.id = port_id
        self.parent_id = parent_id
        self.index = index
        self.form_factor = form_factor
        self.hw_fault = False
        #: id of the transceiver currently plugged in, if any.
        self.transceiver_id: Optional[str] = None
        #: id of the line card the port belongs to, if any.
        self.line_card_id: Optional[str] = None

    def __repr__(self) -> str:
        return f"<Port {self.id} on {self.parent_id}>"

    @property
    def hw_fault(self) -> bool:
        return self._hw_fault

    @hw_fault.setter
    def hw_fault(self, value: bool) -> None:
        self._hw_fault = value
        fs = self._fs
        if fs is not None:
            fs.port_hw_fault[self._side, self._row] = value
            fs.input_writes += 1

    @property
    def occupied(self) -> bool:
        return self.transceiver_id is not None

    def plug(self, transceiver_id: str) -> None:
        if self.occupied:
            raise ValueError(f"port {self.id} already occupied")
        self.transceiver_id = transceiver_id

    def unplug(self) -> str:
        if not self.occupied:
            raise ValueError(f"port {self.id} is empty")
        unit, self.transceiver_id = self.transceiver_id, None
        return unit


class LineCard:
    """A replaceable card carrying a group of ports."""

    def __init__(self, card_id: str, switch_id: str,
                 port_ids: List[str]) -> None:
        self.id = card_id
        self.switch_id = switch_id
        self.port_ids = list(port_ids)
        self.hw_fault = False
        self.state = ComponentState.ACTIVE

    def __repr__(self) -> str:
        return f"<LineCard {self.id} ports={len(self.port_ids)}>"

    def fail_hardware(self) -> None:
        self.hw_fault = True
        self.state = ComponentState.FAILED

    def replace(self) -> None:
        self.hw_fault = False
        self.state = ComponentState.ACTIVE


class Switch:
    """A switch chassis: ports, optional line cards, physical placement."""

    def __init__(self, switch_id: str, role: SwitchRole, radix: int,
                 form_factor: FormFactor = FormFactor.QSFP_DD,
                 rack_id: Optional[str] = None, u_position: int = 1,
                 ports_per_line_card: Optional[int] = None) -> None:
        if radix < 1:
            raise ValueError(f"radix must be >= 1, got {radix}")
        self.id = switch_id
        self.role = role
        self.radix = radix
        self.rack_id = rack_id
        self.u_position = u_position
        self.state = ComponentState.ACTIVE
        self.ports: List[Port] = [
            Port(f"{switch_id}/p{index:03d}", switch_id, index, form_factor)
            for index in range(radix)]
        self.line_cards: List[LineCard] = []
        if ports_per_line_card:
            for start in range(0, radix, ports_per_line_card):
                chunk = self.ports[start:start + ports_per_line_card]
                card = LineCard(
                    f"{switch_id}/lc{start // ports_per_line_card:02d}",
                    switch_id, [port.id for port in chunk])
                for port in chunk:
                    port.line_card_id = card.id
                self.line_cards.append(card)

    def __repr__(self) -> str:
        return f"<Switch {self.id} {self.role.value} radix={self.radix}>"

    def port(self, index: int) -> Port:
        return self.ports[index]

    def free_ports(self) -> List[Port]:
        """Unoccupied, healthy ports."""
        return [port for port in self.ports
                if not port.occupied and not port.hw_fault]

    def next_free_port(self) -> Port:
        free = self.free_ports()
        if not free:
            raise ValueError(f"switch {self.id} has no free ports")
        return free[0]

    def line_card_of(self, port_id: str) -> Optional[LineCard]:
        by_id: Dict[str, LineCard] = {card.id: card
                                      for card in self.line_cards}
        for port in self.ports:
            if port.id == port_id and port.line_card_id:
                return by_id[port.line_card_id]
        return None


class Host:
    """A server with a NIC exposing one or more ports (e.g. a GPU node)."""

    def __init__(self, host_id: str, port_count: int = 1,
                 form_factor: FormFactor = FormFactor.QSFP56,
                 rack_id: Optional[str] = None, u_position: int = 1) -> None:
        self.id = host_id
        self.rack_id = rack_id
        self.u_position = u_position
        self.state = ComponentState.ACTIVE
        self.ports: List[Port] = [
            Port(f"{host_id}/p{index:03d}", host_id, index, form_factor)
            for index in range(port_count)]

    def __repr__(self) -> str:
        return f"<Host {self.id} ports={len(self.ports)}>"

    def free_ports(self) -> List[Port]:
        """Unoccupied, healthy ports."""
        return [port for port in self.ports
                if not port.occupied and not port.hw_fault]

    def next_free_port(self) -> Port:
        free = self.free_ports()
        if not free:
            raise ValueError(f"host {self.id} has no free ports")
        return free[0]
