"""The served SMI vs a fresh rescan: randomized-op invalidation battery.

:class:`SmiTracker` memoizes :func:`compute_smi` on the fabric's
structure key (``FabricState.generation`` plus
``BundleRegistry.membership``).  These tests drive randomized
sequences of every structural mutation the fabric supports and
require the served report to equal a fresh rescan, on the index and
every factor, after *every* op: a mutation that moved SMI without
moving the key would serve a stale report and fail here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dcrobot.topology.smi as smi_module
from dcrobot.network import (
    Fabric,
    HallLayout,
    LinkState,
    SwitchRole,
    generate_model_catalog,
)
from dcrobot.topology.base import Topology
from dcrobot.topology.smi import SmiTracker, compute_smi

FACTORS = ("reach", "occlusion", "serviceability", "uniformity",
           "granularity")


def make_topology(seed=3, pairs=3, links_per_pair=4,
                  bundle_capacity=3, model_count=8):
    """A hall with several ToR pairs, multi-link trunks, small bundles
    (so bundle edits actually move occlusion/granularity), and a mixed
    model catalog (so transceiver swaps move uniformity)."""
    rng = np.random.default_rng(seed)
    fabric = Fabric(layout=HallLayout(rows=6, racks_per_row=12,
                                      height_u=48),
                    rng=rng,
                    model_catalog=generate_model_catalog(
                        model_count, rng),
                    bundle_capacity=bundle_capacity)
    switches = []
    for index in range(2 * pairs):
        switches.append(fabric.add_switch(
            SwitchRole.TOR, radix=2 * links_per_pair, u_position=45,
            rack_id=fabric.layout.rack_at(
                index % 6, (2 * index) % 12).id))
    for pair in range(pairs):
        a, b = switches[2 * pair], switches[2 * pair + 1]
        for _ in range(links_per_pair):
            fabric.connect(a.id, b.id)
    topology = Topology(name="smi-incremental", fabric=fabric,
                        params={},
                        switches_by_role={
                            SwitchRole.TOR: [s.id for s in switches]},
                        host_ids=[])
    return topology, switches


def assert_parity(tracker, topology, context=""):
    served = tracker.report()
    oracle = compute_smi(topology)
    for factor in FACTORS:
        assert served.factors[factor] == oracle.factors[factor], \
            (factor, context)
    assert served.smi == oracle.smi, context


# -- one op at a time ---------------------------------------------------------


def test_initial_report_matches_oracle():
    topology, _ = make_topology()
    tracker = SmiTracker(topology)
    assert_parity(tracker, topology)


def test_state_flips_do_not_move_smi():
    topology, _ = make_topology()
    tracker = SmiTracker(topology)
    before = tracker.report()
    link = next(iter(topology.fabric.links.values()))
    link.set_state(1.0, LinkState.DOWN)
    link.set_state(2.0, LinkState.UP)
    link.set_state(3.0, LinkState.MAINTENANCE)
    assert tracker.report().factors == before.factors
    assert_parity(tracker, topology, "after state flips")


def test_connect_and_disconnect_track():
    topology, switches = make_topology()
    tracker = SmiTracker(topology)
    link = topology.fabric.connect(switches[0].id, switches[3].id)
    assert_parity(tracker, topology, "after connect")
    topology.fabric.disconnect(link.id)
    assert_parity(tracker, topology, "after disconnect")


def test_transceiver_replace_tracks():
    topology, _ = make_topology()
    fabric = topology.fabric
    tracker = SmiTracker(topology)
    for link in list(fabric.links.values())[:4]:
        for side in ("a", "b"):
            old_unit = link.transceiver_at(side)
            new_unit = fabric.new_transceiver(
                old_unit.model.form_factor, optical=old_unit.optical)
            link.replace_transceiver(side, new_unit)
            assert_parity(tracker, topology,
                          f"swap {link.id}:{side}")


def test_cable_replace_and_rebundle_track():
    topology, _ = make_topology()
    fabric = topology.fabric
    tracker = SmiTracker(topology)
    link = next(iter(fabric.links.values()))
    old_cable = link.cable
    new_cable = fabric.new_cable(link.cable.kind,
                                 link.cable.length_m,
                                 link.capacity_gbps)
    link.replace_cable(new_cable)
    assert_parity(tracker, topology, "after cable swap (unbundled)")
    fabric.rebundle(old_cable.id, new_cable.id, *link.endpoint_ids)
    assert_parity(tracker, topology, "after rebundle")


def test_raw_bundle_assign_unassign_track():
    topology, _ = make_topology()
    fabric = topology.fabric
    tracker = SmiTracker(topology)
    links = list(fabric.links.values())
    cable = links[0].cable
    donor_bundle = fabric.bundles.bundle_of(links[-1].cable.id)
    fabric.bundles.unassign(cable.id)
    assert_parity(tracker, topology, "after unassign")
    fabric.bundles.assign(cable.id, donor_bundle.id)
    assert_parity(tracker, topology, "after cross-assign")


def test_reads_rescan_once_per_structural_change(monkeypatch):
    """Counted, not timed: reads between structural changes are memo
    hits, and each structural change costs exactly one rescan."""
    topology, _ = make_topology()
    fabric = topology.fabric
    rescans = []
    rescan = smi_module.compute_smi

    def counted(topo):
        rescans.append(topo)
        return rescan(topo)

    monkeypatch.setattr(smi_module, "compute_smi", counted)
    tracker = SmiTracker(topology)
    link = next(iter(fabric.links.values()))
    for step in range(100):
        tracker.report()
        link.set_state(float(step + 1),
                       LinkState.DOWN if step % 2 else LinkState.UP)
    assert len(rescans) == 1

    old_unit = link.transceiver_at("a")
    link.replace_transceiver("a", fabric.new_transceiver(
        old_unit.model.form_factor, optical=old_unit.optical))
    tracker.report()
    tracker.report()
    assert len(rescans) == 2

    link.replace_cable(fabric.new_cable(link.cable.kind,
                                        link.cable.length_m,
                                        link.capacity_gbps))
    tracker.report()
    tracker.report()
    assert len(rescans) == 3

    fabric.bundles.unassign(list(fabric.links.values())[-1].cable.id)
    tracker.report()
    tracker.report()
    assert len(rescans) == 4


# -- randomized sequences -----------------------------------------------------

op_codes = st.lists(
    st.tuples(st.sampled_from(["flip", "xcvr", "cable", "connect",
                               "disconnect", "rebundle"]),
              st.integers(min_value=0, max_value=10 ** 6)),
    min_size=1, max_size=20)


@given(seed=st.integers(min_value=0, max_value=40),
       sequence=op_codes)
@settings(max_examples=25, deadline=None)
def test_randomized_op_sequences_stay_in_parity(seed, sequence):
    topology, switches = make_topology(seed=seed)
    fabric = topology.fabric
    tracker = SmiTracker(topology)
    for step, (kind, pick) in enumerate(sequence):
        links = list(fabric.links.values())
        if kind == "flip" and links:
            link = links[pick % len(links)]
            link.set_state(float(step + 1),
                           [LinkState.DOWN, LinkState.UP,
                            LinkState.FLAPPING][pick % 3])
        elif kind == "xcvr" and links:
            link = links[pick % len(links)]
            side = "a" if pick % 2 else "b"
            old_unit = link.transceiver_at(side)
            link.replace_transceiver(side, fabric.new_transceiver(
                old_unit.model.form_factor,
                optical=old_unit.optical))
        elif kind == "cable" and links:
            link = links[pick % len(links)]
            old_cable = link.cable
            link.replace_cable(fabric.new_cable(
                link.cable.kind, link.cable.length_m,
                link.capacity_gbps))
            if pick % 2:
                fabric.rebundle(old_cable.id, link.cable.id,
                                *link.endpoint_ids)
        elif kind == "connect":
            a = switches[pick % len(switches)]
            b = switches[(pick // 7 + 1) % len(switches)]
            if a.id != b.id and a.free_ports() and b.free_ports():
                fabric.connect(a.id, b.id)
        elif kind == "disconnect" and len(links) > 1:
            fabric.disconnect(links[pick % len(links)].id)
        elif kind == "rebundle" and links:
            link = links[pick % len(links)]
            donor = links[(pick // 3) % len(links)]
            donor_bundle = fabric.bundles.bundle_of(donor.cable.id)
            fabric.bundles.unassign(link.cable.id)
            if donor_bundle is not None and pick % 2 \
                    and link.cable is not donor.cable:
                fabric.bundles.assign(link.cable.id, donor_bundle.id)
        assert_parity(tracker, topology, f"step {step}: {kind}")
