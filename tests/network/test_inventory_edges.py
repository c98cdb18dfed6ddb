"""Edge-case tests for fabric inventory operations."""

import numpy as np

from dcrobot.network import (
    CableKind,
    ComponentState,
    Fabric,
    HallLayout,
    SwitchRole,
)
from dcrobot.network.ids import IdFactory


def test_id_factory_sequences():
    ids = IdFactory()
    assert ids.make("sw") == "sw-00000"
    assert ids.make("sw") == "sw-00001"
    assert ids.make("link") == "link-00000"
    assert ids.issued("sw") == 2
    assert ids.issued("never") == 0


def test_connect_with_explicit_ports(world):
    fabric, a, b = world.fabric, world.switch_a, world.switch_b
    # Fixture wires all 4 ports; free two first.
    fabric.disconnect(world.links[3].id)
    port_a = a.ports[3]
    port_b = b.ports[3]
    link = fabric.connect(a.id, b.id, port_a=port_a, port_b=port_b,
                          kind=CableKind.MPO)
    assert link.port_a is port_a
    assert port_a.transceiver_id == link.transceiver_a.id


def test_disconnect_marks_components_spare(world):
    link = world.links[0]
    world.fabric.disconnect(link.id)
    assert link.transceiver_a.state is ComponentState.SPARE
    assert link.cable.state is ComponentState.SPARE
    assert not link.transceiver_a.seated


def test_disconnect_then_reconnect_reuses_ports(world):
    fabric = world.fabric
    before = len(world.switch_a.free_ports())
    fabric.disconnect(world.links[0].id)
    assert len(world.switch_a.free_ports()) == before + 1
    link = fabric.connect(world.switch_a.id, world.switch_b.id,
                          kind=CableKind.MPO)
    assert len(world.switch_a.free_ports()) == before
    assert link.id in fabric.links


def test_same_node_connection_allowed_for_loopback():
    fabric = Fabric(layout=HallLayout(rows=1, racks_per_row=2),
                    rng=np.random.default_rng(0))
    switch = fabric.add_switch(SwitchRole.TOR, radix=4,
                               rack_id=fabric.layout.rack_at(0, 0).id)
    link = fabric.connect(switch.id, switch.id)
    assert link.endpoint_ids == (switch.id, switch.id)
    assert link.cable.kind is CableKind.DAC  # minimum-length run


def test_bundle_neighbor_links_excludes_self(world):
    link = world.links[0]
    neighbors = world.fabric.bundle_neighbor_links(link)
    assert link not in neighbors
    assert len(neighbors) == len(world.links) - 1


def test_graph_multiedges(world):
    graph = world.fabric.graph()
    a, b = world.switch_a.id, world.switch_b.id
    assert graph.number_of_edges(a, b) == len(world.links)


def test_position_of_unplaced_node_is_origin():
    fabric = Fabric(rng=np.random.default_rng(0))
    switch = fabric.add_switch(SwitchRole.TOR, radix=2)
    position = fabric.position_of(switch.id)
    assert (position.x, position.y, position.z) == (0.0, 0.0, 0.0)


def test_topology_wrapper_helpers():
    import numpy as np

    from dcrobot.topology import build_leafspine

    topo = build_leafspine(leaves=3, spines=2,
                           rng=np.random.default_rng(1))
    spine = topo.switches(SwitchRole.SPINE)[0]
    assert topo.fabric.switches[spine].role is SwitchRole.SPINE
    assert len(topo.switches()) == 5
    assert "leafspine" in repr(topo)
