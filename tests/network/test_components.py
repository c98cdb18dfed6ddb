"""Unit tests for transceivers, cables, ports, switches, layout."""

import numpy as np
import pytest

from dcrobot.network import (
    Cable,
    CableKind,
    ComponentState,
    FormFactor,
    HallLayout,
    Position,
    Switch,
    SwitchRole,
    Transceiver,
    cores_for,
    generate_model_catalog,
    kind_for_length,
)
from dcrobot.network.switchgear import Host


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def model(rng):
    return generate_model_catalog(1, rng)[0]


# -- transceiver models ------------------------------------------------------

def test_catalog_generates_requested_count(rng):
    catalog = generate_model_catalog(24, rng)
    assert len(catalog) == 24
    assert len({model.model_id for model in catalog}) == 24


def test_catalog_difficulty_in_range(rng):
    for model in generate_model_catalog(50, rng):
        assert 0.0 <= model.grip_difficulty <= 1.0


def test_catalog_count_validation(rng):
    with pytest.raises(ValueError):
        generate_model_catalog(0, rng)


def test_form_factor_rates():
    assert FormFactor.QSFP28.gbps == 100
    assert FormFactor.QSFP_DD.gbps == 400
    assert FormFactor.OSFP.gbps == 800


# -- transceiver unit --------------------------------------------------------

def test_new_transceiver_is_healthy(model):
    unit = Transceiver("xcvr-0", model)
    assert unit.state is ComponentState.ACTIVE
    assert not unit.degraded
    assert unit.seated


def test_reseat_clears_oxidation_and_firmware(model, rng):
    unit = Transceiver("xcvr-0", model)
    unit.oxidation = 0.9
    unit.firmware_stuck = True
    unit.unseat()
    assert not unit.seated
    unit.seat(now=100.0, rng=rng)
    assert unit.seated
    assert unit.oxidation < 0.2
    assert not unit.firmware_stuck
    assert unit.reseat_count == 1
    assert unit.last_seated_time == 100.0


def test_reseat_does_not_fix_hardware(model, rng):
    unit = Transceiver("xcvr-0", model)
    unit.fail_hardware()
    unit.unseat()
    unit.seat(now=1.0, rng=rng)
    assert unit.hw_fault
    assert unit.degraded


def test_degraded_reflects_each_dimension(model):
    unit = Transceiver("xcvr-0", model)
    unit.oxidation = 0.5
    assert unit.degraded
    unit.oxidation = 0.0
    unit.firmware_stuck = True
    assert unit.degraded
    unit.firmware_stuck = False
    unit.receptacle.add_contamination(0.5)
    assert unit.degraded


def test_electrical_transceiver_has_no_receptacle(model):
    unit = Transceiver("xcvr-0", model, optical=False)
    assert unit.receptacle is None


# -- cables --------------------------------------------------------------------

def test_kind_for_length_bands():
    assert kind_for_length(2.0) is CableKind.DAC
    assert kind_for_length(10.0) is CableKind.AOC
    assert kind_for_length(50.0, gbps=100) is CableKind.LC
    assert kind_for_length(50.0, gbps=800) is CableKind.MPO


def test_cores_for_mpo_matches_paper_example():
    # §3.2: an 800 Gbps link uses 8 fibers in a single MPO cable.
    assert cores_for(CableKind.MPO, 800) == 8
    assert cores_for(CableKind.MPO, 400) == 4
    assert cores_for(CableKind.LC, 100) == 1


def test_separable_cables_have_endfaces():
    mpo = Cable("c0", CableKind.MPO, 50.0, core_count=8)
    assert mpo.cleanable
    assert mpo.end_a is not None and mpo.end_b is not None
    assert mpo.end_a.core_count == 8


def test_integrated_cables_have_no_endfaces():
    aoc = Cable("c1", CableKind.AOC, 10.0)
    assert not aoc.cleanable
    assert aoc.end_a is None
    with pytest.raises(ValueError):
        aoc.endface("a")
    with pytest.raises(ValueError):
        aoc.detach("a")


def test_cable_validation():
    with pytest.raises(ValueError):
        Cable("c", CableKind.LC, length_m=0.0)
    with pytest.raises(ValueError):
        Cable("c", CableKind.LC, 5.0, core_count=0)
    with pytest.raises(ValueError):
        Cable("c", CableKind.DAC, 2.0, core_count=8)


def test_cable_detach_attach_cycle():
    cable = Cable("c0", CableKind.MPO, 40.0, core_count=8)
    cable.detach("a")
    assert not cable.attached_a and cable.attached_b
    cable.attach("a")
    assert cable.attached_a


def test_cable_side_validation():
    cable = Cable("c0", CableKind.LC, 40.0)
    with pytest.raises(ValueError):
        cable.detach("c")


def test_cable_damage_is_permanent_impairment():
    cable = Cable("c0", CableKind.MPO, 40.0, core_count=8)
    assert not cable.impaired
    cable.damage()
    assert cable.impaired
    assert cable.state is ComponentState.FAILED


def test_cable_worst_contamination_spans_both_ends():
    cable = Cable("c0", CableKind.MPO, 40.0, core_count=4)
    cable.end_b.add_contamination(0.6, cores=[2])
    assert cable.worst_contamination == pytest.approx(0.6)


# -- switchgear -------------------------------------------------------------------

def test_switch_creates_radix_ports():
    switch = Switch("sw0", SwitchRole.TOR, radix=32)
    assert len(switch.ports) == 32
    assert switch.ports[5].index == 5
    assert switch.ports[5].parent_id == "sw0"


def test_switch_line_cards_partition_ports():
    switch = Switch("sw0", SwitchRole.SPINE, radix=32,
                    ports_per_line_card=8)
    assert len(switch.line_cards) == 4
    covered = [pid for card in switch.line_cards for pid in card.port_ids]
    assert sorted(covered) == sorted(port.id for port in switch.ports)
    card = switch.line_card_of(switch.ports[9].id)
    assert card is switch.line_cards[1]


def test_port_plug_unplug():
    switch = Switch("sw0", SwitchRole.TOR, radix=2)
    port = switch.port(0)
    port.plug("xcvr-1")
    assert port.occupied
    with pytest.raises(ValueError):
        port.plug("xcvr-2")
    assert port.unplug() == "xcvr-1"
    with pytest.raises(ValueError):
        port.unplug()


def test_next_free_port_skips_occupied_and_faulty():
    switch = Switch("sw0", SwitchRole.TOR, radix=3)
    switch.port(0).plug("x")
    switch.port(1).hw_fault = True
    assert switch.next_free_port() is switch.port(2)
    switch.port(2).plug("y")
    with pytest.raises(ValueError):
        switch.next_free_port()


def test_host_ports():
    host = Host("h0", port_count=2)
    assert len(host.ports) == 2
    assert host.ports[1].parent_id == "h0"


# -- layout ------------------------------------------------------------------------

def test_hall_layout_grid():
    hall = HallLayout(rows=3, racks_per_row=4)
    assert len(hall.racks) == 12
    rack = hall.rack_at(2, 3)
    assert rack.row == 2 and rack.index == 3


def test_rack_u_position_height():
    hall = HallLayout(rows=1, racks_per_row=1, height_u=52)
    rack = hall.rack_at(0, 0)
    top = rack.u_position(52)
    assert top.z == pytest.approx(52 * 0.0445)
    with pytest.raises(ValueError):
        rack.u_position(0)
    with pytest.raises(ValueError):
        rack.u_position(53)


def test_travel_distance_is_manhattan():
    hall = HallLayout(rows=2, racks_per_row=2)
    a = hall.rack_at(0, 0).position
    b = hall.rack_at(1, 1).position
    assert hall.travel_distance(a, b) == pytest.approx(
        abs(a.x - b.x) + abs(a.y - b.y))


def test_position_distances():
    a = Position(0, 0, 0)
    b = Position(3, 4, 12)
    assert a.floor_distance_to(b) == pytest.approx(5.0)


def test_neighbors_within_radius():
    hall = HallLayout(rows=1, racks_per_row=5)
    center = hall.rack_at(0, 2)
    close = hall.neighbors(center.id, radius_m=0.7)
    ids = {rack.id for rack in close}
    assert hall.rack_at(0, 1).id in ids
    assert hall.rack_at(0, 3).id in ids
    assert hall.rack_at(0, 0).id not in ids
    assert center.id not in ids


def test_layout_validation():
    with pytest.raises(ValueError):
        HallLayout(rows=0, racks_per_row=1)
