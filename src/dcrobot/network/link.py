"""Network links: two ports, two transceivers, one cable, one state.

A :class:`Link` is the unit of failure and repair throughout the library.
Its operational state is *derived* from the physical condition of its
constituent components by the health model in
:mod:`dcrobot.failures.health`; the link itself records the resulting
state timeline, which is what telemetry, availability accounting, and
flap detection consume.

While wired into a fabric, a link is a thin view over a row of the
columnar :class:`~dcrobot.network.state.FabricState`: state changes
mirror into the arrays (so the batch kernels see them) and
``loss_rate`` — which the health kernel writes densely — reads straight
from its column.  A standalone link (not yet connected, or a test
fixture) behaves exactly as before on plain attributes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from dcrobot.network.cable import Cable
from dcrobot.network.enums import LinkState, is_flap
from dcrobot.network.state import CODE_OF
from dcrobot.network.switchgear import Port
from dcrobot.network.transceiver import Transceiver


class Link:
    """One point-to-point link in the fabric."""

    def __init__(self, link_id: str, port_a: Port, port_b: Port,
                 transceiver_a: Transceiver, transceiver_b: Transceiver,
                 cable: Cable, capacity_gbps: float,
                 bundle_id: Optional[str] = None) -> None:
        #: The FabricState this link is bound to (None while standalone)
        #: and its dense row there.  Must exist before any property set.
        self._fs = None
        self._row = -1
        self.id = link_id
        self.port_a = port_a
        self.port_b = port_b
        self.transceiver_a = transceiver_a
        self.transceiver_b = transceiver_b
        self.cable = cable
        self.capacity_gbps = float(capacity_gbps)
        self.bundle_id = bundle_id
        self.state = LinkState.UP
        #: Timeline of (time, new_state) transitions, starting implicit UP.
        self.history: List[Tuple[float, LinkState]] = []
        #: Current packet-loss probability (set by the health model).
        self.loss_rate = 0.0

    # -- columnar mirror -------------------------------------------------------

    @property
    def state(self) -> LinkState:
        return self._state

    @state.setter
    def state(self, value: LinkState) -> None:
        self._state = value
        fs = self._fs
        if fs is not None:
            fs.state_code[self._row] = CODE_OF[value]

    @property
    def loss_rate(self) -> float:
        fs = self._fs
        if fs is None:
            return self._loss_rate
        return float(fs.loss_rate[self._row])

    @loss_rate.setter
    def loss_rate(self, value: float) -> None:
        fs = self._fs
        if fs is None:
            self._loss_rate = value
        else:
            fs.loss_rate[self._row] = value
            fs.note_row(self._row)

    def __repr__(self) -> str:
        return (f"<Link {self.id} {self.port_a.parent_id}<->"
                f"{self.port_b.parent_id} {self.state.value}>")

    # -- identity helpers ------------------------------------------------------

    @property
    def endpoint_ids(self) -> Tuple[str, str]:
        """(switch/host id, switch/host id) of the two ends."""
        return (self.port_a.parent_id, self.port_b.parent_id)

    def ports(self) -> Tuple[Port, Port]:
        return (self.port_a, self.port_b)

    def transceivers(self) -> Tuple[Transceiver, Transceiver]:
        return (self.transceiver_a, self.transceiver_b)

    def transceiver_at(self, side: str) -> Transceiver:
        return {"a": self.transceiver_a, "b": self.transceiver_b}[side]

    def replace_transceiver(self, side: str, new_unit: Transceiver) -> Transceiver:
        """Swap in a spare; returns the removed unit."""
        if side == "a":
            old, self.transceiver_a = self.transceiver_a, new_unit
            self.port_a.transceiver_id = new_unit.id
        elif side == "b":
            old, self.transceiver_b = self.transceiver_b, new_unit
            self.port_b.transceiver_id = new_unit.id
        else:
            raise ValueError(f"side must be 'a' or 'b', got {side!r}")
        if self._fs is not None:
            self._fs.rebind_transceiver(self, side, old, new_unit)
        return old

    def replace_cable(self, new_cable: Cable) -> Cable:
        """Swap in a new cable; returns the removed one."""
        old, self.cable = self.cable, new_cable
        if self._fs is not None:
            self._fs.rebind_cable(self, old, new_cable)
        return old

    # -- state timeline -------------------------------------------------------

    @property
    def operational(self) -> bool:
        """True while the link can carry traffic (possibly degraded)."""
        return self.state.carries_traffic

    def set_state(self, now: float, new_state: LinkState) -> bool:
        """Record a state transition; returns True if the state changed.

        Administrative MAINTENANCE transitions do not count as flaps
        (see :func:`~dcrobot.network.enums.is_flap`).
        """
        old_state = self._state
        if new_state is old_state:
            return False
        self.state = new_state
        self.history.append((now, new_state))
        fs = self._fs
        if fs is not None:
            fs.on_transition(self._row, now, old_state, new_state,
                             is_flap(old_state, new_state))
        return True

    def uptime_fraction(self, start: float, end: float) -> float:
        """Fraction of [start, end) the link spent carrying traffic.

        Walks the recorded transition timeline; the state before the
        first recorded transition is assumed UP (links start healthy).
        """
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        total = end - start
        up_time = 0.0
        current_state = LinkState.UP
        cursor = start
        for when, new_state in self.history:
            if when <= start:
                current_state = new_state
                continue
            if when >= end:
                break
            if current_state.carries_traffic:
                up_time += when - cursor
            cursor = when
            current_state = new_state
        if current_state.carries_traffic:
            up_time += end - cursor
        return up_time / total

    def transitions_in_window(self, start: float, end: float) -> int:
        """UP<->non-UP flap transitions recorded within [start, end).

        Transitions into or out of MAINTENANCE are administrative and
        excluded (see :func:`~dcrobot.network.enums.is_flap`).
        """
        count = 0
        previous_state = LinkState.UP
        # Determine state entering the window.
        for when, new_state in self.history:
            if when <= start:
                previous_state = new_state
                continue
            if when >= end:
                break
            if is_flap(previous_state, new_state):
                count += 1
            previous_state = new_state
        return count
