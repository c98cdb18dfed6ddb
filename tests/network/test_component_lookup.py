"""Component→link lookups agree with a linear scan through any churn.

``Fabric.link_of_cable``/``link_of_transceiver`` answer through the
columnar binding (component ``_fs``/``_row``) instead of scanning
``fabric.links``.  The binding is moved by swap-with-last removal and
re-aimed by replacements, so random sequences of connect, disconnect,
cable swap + rebundle and transceiver swap must leave every lookup —
retired and unknown ids included — equal to the obvious scan.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrobot.network import CableKind, Fabric, HallLayout, SwitchRole


def scan_link_of_cable(fabric, cable_id):
    for link in fabric.links.values():
        if link.cable.id == cable_id:
            return link
    return None


def scan_link_of_transceiver(fabric, unit_id):
    for link in fabric.links.values():
        if unit_id in (link.transceiver_a.id, link.transceiver_b.id):
            return link
    return None


def scan_bundle_neighbors(fabric, link):
    found = (scan_link_of_cable(fabric, cable_id)
             for cable_id in fabric.bundles.neighbors_of(link.cable.id))
    return [other for other in found if other is not None]


def assert_lookups_match_scan(fabric):
    for cable_id in list(fabric.cables) + ["cbl-unknown"]:
        assert fabric.link_of_cable(cable_id) \
            is scan_link_of_cable(fabric, cable_id), cable_id
    for unit_id in list(fabric.transceivers) + ["xcvr-unknown"]:
        assert fabric.link_of_transceiver(unit_id) \
            is scan_link_of_transceiver(fabric, unit_id), unit_id
    for link in fabric.links.values():
        got = fabric.bundle_neighbor_links(link)
        want = scan_bundle_neighbors(fabric, link)
        assert [other.id for other in got] == [other.id for other in want]


def make_fabric(seed):
    layout = HallLayout(rows=2, racks_per_row=2, height_u=48)
    fabric = Fabric(layout=layout, rng=np.random.default_rng(seed),
                    bundle_capacity=3)
    for row in range(2):
        for col in range(2):
            fabric.add_switch(SwitchRole.TOR, radix=6,
                              rack_id=layout.rack_at(row, col).id)
    return fabric


def connect(fabric, pick):
    switches = list(fabric.switches.values())
    free = [switch for switch in switches if switch.free_ports()]
    if len(free) < 2:
        return
    offset = 1 + (pick // len(free)) % (len(free) - 1)
    a = free[pick % len(free)]
    b = free[(pick + offset) % len(free)]
    kinds = (None, CableKind.MPO, CableKind.LC, CableKind.DAC)
    fabric.connect(a.id, b.id, kind=kinds[pick % len(kinds)])


def pick_link(fabric, pick):
    links = list(fabric.links.values())
    return links[pick % len(links)] if links else None


OPS = ("connect", "disconnect", "replace_cable", "replace_transceiver")


@given(seed=st.integers(min_value=0, max_value=1000),
       ops=st.lists(st.tuples(st.sampled_from(OPS),
                              st.integers(min_value=0, max_value=10**6)),
                    max_size=30))
@settings(max_examples=60, deadline=None)
def test_lookups_match_linear_scan_through_churn(seed, ops):
    fabric = make_fabric(seed)
    for pick in range(5):
        connect(fabric, pick)
    assert_lookups_match_scan(fabric)
    for op, pick in ops:
        if op == "connect":
            connect(fabric, pick)
            assert_lookups_match_scan(fabric)
            continue
        link = pick_link(fabric, pick)
        if link is None:
            continue
        if op == "disconnect":
            fabric.disconnect(link.id)
        elif op == "replace_cable":
            old = link.cable
            new = fabric.new_cable(old.kind, old.length_m,
                                   int(link.capacity_gbps))
            link.replace_cable(new)
            # The new cable is wired but not yet in a tray bundle.
            assert_lookups_match_scan(fabric)
            fabric.rebundle(old.id, new.id, *link.endpoint_ids)
        else:
            side = "ab"[pick % 2]
            old = link.transceiver_at(side)
            link.replace_transceiver(side, fabric.new_transceiver(
                old.model.form_factor, optical=old.optical))
            assert fabric.link_of_transceiver(old.id) is None
        assert_lookups_match_scan(fabric)
