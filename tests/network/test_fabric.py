"""Unit tests for Fabric wiring, links, bundles, and spares."""

import numpy as np
import pytest

from dcrobot.network import (
    CableKind,
    Fabric,
    FormFactor,
    HallLayout,
    LinkState,
    SwitchRole,
)
from dcrobot.network.enums import is_flap
from dcrobot.network.state import FlapWindow


@pytest.fixture
def fabric():
    return Fabric(layout=HallLayout(rows=2, racks_per_row=4),
                  rng=np.random.default_rng(5))


def place(fabric, row, col):
    return fabric.layout.rack_at(row, col).id


def test_add_switch_registers_ports(fabric):
    switch = fabric.add_switch(SwitchRole.TOR, radix=8,
                               rack_id=place(fabric, 0, 0))
    assert switch.id in fabric.switches
    assert fabric.port(switch.ports[0].id) is switch.ports[0]
    assert fabric.node(switch.id) is switch


def test_unknown_node_raises(fabric):
    with pytest.raises(KeyError):
        fabric.node("nope")


def test_connect_creates_full_link(fabric):
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 0))
    b = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 1, 3))
    link = fabric.connect(a.id, b.id)
    assert link.id in fabric.links
    assert link.state is LinkState.UP
    assert link.port_a.occupied and link.port_b.occupied
    assert link.transceiver_a.id in fabric.transceivers
    assert link.cable.id in fabric.cables
    assert link.endpoint_ids == (a.id, b.id)
    assert fabric.links_of(a.id) == [link]
    assert fabric.links_of(b.id) == [link]


def test_connect_same_rack_uses_dac(fabric):
    rack = place(fabric, 0, 0)
    a = fabric.add_switch(SwitchRole.TOR, radix=4, rack_id=rack,
                          u_position=10)
    b = fabric.add_switch(SwitchRole.TOR, radix=4, rack_id=rack,
                          u_position=20)
    link = fabric.connect(a.id, b.id)
    assert link.cable.kind is CableKind.DAC
    assert not link.transceiver_a.optical


def test_connect_cross_row_uses_separable_fiber():
    # Long runs (across a real-sized hall) exceed AOC reach and get
    # separate transceivers + MPO fiber.
    fabric = Fabric(layout=HallLayout(rows=8, racks_per_row=20),
                    rng=np.random.default_rng(5))
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=fabric.layout.rack_at(0, 0).id)
    b = fabric.add_switch(SwitchRole.SPINE, radix=4,
                          rack_id=fabric.layout.rack_at(7, 19).id)
    link = fabric.connect(a.id, b.id)
    # QSFP-DD default (400G): long runs get MPO with >= 4 cores.
    assert link.cable.kind is CableKind.MPO
    assert link.cable.core_count >= 4
    assert link.cable.cleanable
    assert link.transceiver_a.optical


def test_forced_cable_kind(fabric):
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 0))
    b = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 1))
    link = fabric.connect(a.id, b.id, kind=CableKind.AOC)
    assert link.cable.kind is CableKind.AOC


def test_capacity_is_min_of_port_rates(fabric):
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          form_factor=FormFactor.QSFP28,
                          rack_id=place(fabric, 0, 0))
    b = fabric.add_switch(SwitchRole.SPINE, radix=4,
                          form_factor=FormFactor.OSFP,
                          rack_id=place(fabric, 0, 1))
    link = fabric.connect(a.id, b.id)
    assert link.capacity_gbps == 100


def test_links_share_bundles_per_row_pair(fabric):
    a = fabric.add_switch(SwitchRole.TOR, radix=8,
                          rack_id=place(fabric, 0, 0))
    b = fabric.add_switch(SwitchRole.SPINE, radix=8,
                          rack_id=place(fabric, 1, 0))
    link1 = fabric.connect(a.id, b.id)
    link2 = fabric.connect(a.id, b.id)
    assert link1.bundle_id == link2.bundle_id
    neighbors = fabric.bundle_neighbor_links(link1)
    assert neighbors == [link2]


def test_bundle_capacity_opens_new_bundle():
    fabric = Fabric(layout=HallLayout(rows=1, racks_per_row=2),
                    rng=np.random.default_rng(1), bundle_capacity=2)
    a = fabric.add_switch(SwitchRole.TOR, radix=8,
                          rack_id=fabric.layout.rack_at(0, 0).id)
    b = fabric.add_switch(SwitchRole.TOR, radix=8,
                          rack_id=fabric.layout.rack_at(0, 1).id)
    links = [fabric.connect(a.id, b.id) for _ in range(3)]
    bundles = {link.bundle_id for link in links}
    assert len(bundles) == 2


def test_graph_reflects_links(fabric):
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 0))
    b = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 1))
    link = fabric.connect(a.id, b.id)
    graph = fabric.graph()
    assert graph.has_edge(a.id, b.id)
    link.set_state(1.0, LinkState.DOWN)
    operational = fabric.graph(operational_only=True)
    assert not operational.has_edge(a.id, b.id)
    assert a.id in operational  # nodes stay


def test_link_lookup_by_component(fabric):
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 0))
    b = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 1))
    link = fabric.connect(a.id, b.id)
    assert fabric.link_of_cable(link.cable.id) is link
    assert fabric.link_of_transceiver(link.transceiver_b.id) is link
    assert fabric.link_of_cable("cbl-99999") is None


def test_spare_stock_and_draw(fabric):
    fabric.stock_spares({FormFactor.QSFP_DD: 2}, cables=1)
    unit = fabric.take_spare_transceiver(FormFactor.QSFP_DD, optical=True)
    assert unit is not None
    assert fabric.spare_transceivers[FormFactor.QSFP_DD] == 1
    assert fabric.take_spare_transceiver(FormFactor.QSFP_DD,
                                         optical=True) is not None
    assert fabric.take_spare_transceiver(FormFactor.QSFP_DD,
                                         optical=True) is None
    assert fabric.take_spare_transceiver(FormFactor.OSFP,
                                         optical=True) is None


def test_spare_cable_matches_template(fabric):
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 0))
    b = fabric.add_switch(SwitchRole.SPINE, radix=4,
                          rack_id=place(fabric, 1, 3))
    link = fabric.connect(a.id, b.id)
    fabric.stock_spares({}, cables=1)
    replacement = fabric.take_spare_cable(link.cable)
    assert replacement is not None
    assert replacement.kind is link.cable.kind
    assert replacement.core_count == link.cable.core_count
    assert fabric.take_spare_cable(link.cable) is None


def test_link_state_timeline_and_uptime(fabric):
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 0))
    b = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 1))
    link = fabric.connect(a.id, b.id)
    assert link.set_state(10.0, LinkState.DOWN)
    assert not link.set_state(10.0, LinkState.DOWN)  # no-op
    assert link.set_state(30.0, LinkState.UP)
    assert link.uptime_fraction(0.0, 100.0) == pytest.approx(0.8)
    assert link.transitions_in_window(0.0, 100.0) == 2
    assert link.transitions_in_window(15.0, 100.0) == 1


def test_maintenance_transitions_are_not_flaps(fabric):
    """Taking a link out of service and back is administrative: the
    setter, the window count and the fabric's flap log (as a sliding
    window counts it) all apply ``is_flap``, which counts only
    UP<->non-UP crossings outside MAINTENANCE."""
    assert [state for state in LinkState
            if is_flap(LinkState.UP, state)] \
        == [LinkState.FLAPPING, LinkState.DOWN]
    assert not is_flap(LinkState.MAINTENANCE, LinkState.UP)
    assert not is_flap(LinkState.DOWN, LinkState.FLAPPING)
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 0))
    b = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 1))
    link = fabric.connect(a.id, b.id)
    for when, state in ((10.0, LinkState.MAINTENANCE),
                        (20.0, LinkState.UP),
                        (30.0, LinkState.DOWN),
                        (40.0, LinkState.MAINTENANCE),
                        (50.0, LinkState.UP)):
        link.set_state(when, state)
    # Only UP -> DOWN at t=30.
    assert link.transitions_in_window(0.0, 100.0) == 1
    window = FlapWindow(fabric.state, width=100.0, threshold=2)
    window.advance(100.0)
    assert window.counts == {int(fabric.state.lid_of_row[link._row]): 1}


def test_uptime_counts_flapping_as_carrying(fabric):
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 0))
    b = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 1))
    link = fabric.connect(a.id, b.id)
    link.set_state(50.0, LinkState.FLAPPING)
    assert link.uptime_fraction(0.0, 100.0) == pytest.approx(1.0)
    link.set_state(60.0, LinkState.DOWN)
    assert link.uptime_fraction(0.0, 100.0) == pytest.approx(0.6)


def test_replace_transceiver_updates_port(fabric):
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 0))
    b = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=place(fabric, 0, 1))
    link = fabric.connect(a.id, b.id)
    new_unit = fabric.new_transceiver(FormFactor.QSFP_DD, optical=True)
    old = link.replace_transceiver("a", new_unit)
    assert link.transceiver_a is new_unit
    assert link.port_a.transceiver_id == new_unit.id
    assert old.id != new_unit.id


def test_cable_length_grows_with_distance(fabric):
    near_a = fabric.add_switch(SwitchRole.TOR, radix=4,
                               rack_id=place(fabric, 0, 0))
    near_b = fabric.add_switch(SwitchRole.TOR, radix=4,
                               rack_id=place(fabric, 0, 1))
    far_b = fabric.add_switch(SwitchRole.TOR, radix=4,
                              rack_id=place(fabric, 1, 3))
    short = fabric.cable_length(near_a.id, near_b.id)
    long = fabric.cable_length(near_a.id, far_b.id)
    assert long > short > 0
