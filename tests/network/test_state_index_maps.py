"""FabricState index-map edge cases: dense rows must survive churn.

The columnar store keeps rows dense with swap-with-last removal and
re-aims every bound component view at its new row.  These tests pin the
bookkeeping the batch kernels depend on: ``index_of``/``links_by_row``
consistency, view re-aiming after removals and replacements, lid
(insertion-ordinal) ordering, consumer-column alignment, and capacity
growth.
"""

import numpy as np
import pytest

from dcrobot.network import Fabric, HallLayout, SwitchRole
from dcrobot.network.enums import LinkState
from dcrobot.network.state import CODE_OF, DOWN_CODE, UP_CODE, FlapWindow


@pytest.fixture
def fabric():
    layout = HallLayout(rows=1, racks_per_row=2, height_u=48)
    fab = Fabric(layout=layout, rng=np.random.default_rng(7))
    rack_a, rack_b = layout.rack_at(0, 0), layout.rack_at(0, 1)
    fab.add_switch(SwitchRole.TOR, radix=16, rack_id=rack_a.id)
    fab.add_switch(SwitchRole.TOR, radix=16, rack_id=rack_b.id)
    return fab


def _connect(fab, count):
    switch_a, switch_b = list(fab.switches.values())[:2]
    return [fab.connect(switch_a.id, switch_b.id) for _ in range(count)]


def _assert_consistent(fab):
    """Every map agrees with every other map, for all live rows."""
    state = fab.state
    assert state.n_links == len(fab.links)
    assert len(state.links_by_row) == state.n_links
    for row, link in enumerate(state.links_by_row):
        assert state.index_of[link.id] == row
        assert link._fs is state and link._row == row
        assert state._row_of_lid[int(state.lid_of_row[row])] == row
        for side, unit in enumerate(link.transceivers()):
            assert unit._fs is state
            assert (unit._row, unit._side) == (row, side)
        assert link.cable._row == row
        for port in link.ports():
            assert port._row == row
    # Sorting rows by lid reproduces fabric.links insertion order.
    rows = state.rows_in_insertion_order(np.arange(state.n_links))
    assert [state.links_by_row[row].id for row in rows] \
        == list(fab.links)


def test_swap_with_last_removal_keeps_rows_dense(fabric):
    links = _connect(fabric, 5)
    state = fabric.state
    # Remove a middle link: the last row must be swapped into its slot.
    victim, moved = links[1], links[4]
    moved.set_state(5.0, LinkState.DOWN)
    fabric.disconnect(victim.id)
    assert state.n_links == 4
    assert state.index_of[moved.id] == 1
    assert state.state_code[1] == DOWN_CODE
    _assert_consistent(fabric)
    # The removed link is fully unbound and works standalone.
    assert victim._fs is None and victim._row == -1
    victim.set_state(6.0, LinkState.DOWN)
    assert victim.state is LinkState.DOWN


def test_rows_skip_the_lid_sort_until_a_row_moves(fabric):
    links = _connect(fabric, 4)
    state = fabric.state
    rows = np.arange(state.n_links)
    assert state.rows_in_insertion_order(rows) is rows
    # Removing the last row, then appending, keeps lids ascending.
    fabric.disconnect(links[-1].id)
    _connect(fabric, 2)
    rows = np.arange(state.n_links)
    assert state.rows_in_insertion_order(rows) is rows
    # A removal that swaps the last row into a freed slot does not.
    fabric.disconnect(links[0].id)
    rows = np.arange(state.n_links)
    assert state.rows_in_insertion_order(rows) is not rows
    _assert_consistent(fabric)
    forked = state.fork()
    assert [forked.links_by_row[row].id
            for row in forked.rows_in_insertion_order(rows)] \
        == list(fabric.links)


def test_removed_last_row_needs_no_swap(fabric):
    links = _connect(fabric, 3)
    fabric.disconnect(links[-1].id)
    assert fabric.state.n_links == 2
    _assert_consistent(fabric)


def test_moved_views_write_to_their_new_row(fabric):
    links = _connect(fabric, 4)
    moved = links[3]
    fabric.disconnect(links[0].id)
    state = fabric.state
    row = state.index_of[moved.id]
    # Mutations through every component view land on the moved row.
    moved.transceiver_a.seated = False
    moved.cable.damaged = True
    moved.port_b.hw_fault = True
    assert not state.seated[0, row]
    assert state.cable_damaged[row]
    assert state.port_hw_fault[1, row]
    if moved.cable.end_a is not None:  # integrated DAC ends have none
        moved.cable.end_a.add_contamination(0.4)
        assert state.cable_end_worst[0, row] == pytest.approx(0.4)


def test_reconnect_after_remove_reuses_dense_row(fabric):
    links = _connect(fabric, 2)
    generation = fabric.state.generation
    fabric.disconnect(links[0].id)
    fresh = _connect(fabric, 1)[0]
    state = fabric.state
    assert state.n_links == 2
    # A fresh bind gets a fresh lid, so insertion order stays exact.
    assert int(state.lid_of_row[state.index_of[fresh.id]]) == 2
    assert state.generation > generation
    _assert_consistent(fabric)


def test_transceiver_replacement_rebinds_views(fabric):
    link = _connect(fabric, 1)[0]
    state = fabric.state
    old = link.transceiver_a
    old.oxidation = 0.7
    if old.receptacle is not None:
        old.receptacle.add_contamination(0.5)
    fabric.stock_spares({old.form_factor: 1})
    spare = fabric.take_spare_transceiver(old.form_factor, old.optical)
    replaced = link.replace_transceiver("a", spare)
    assert replaced is old
    # Old unit keeps its physics on plain attributes; the row now
    # reflects the pristine spare.
    assert old._fs is None
    assert old.oxidation == pytest.approx(0.7)
    assert state.ox[0, 0] == 0.0
    assert state.recept_worst[0, 0] == 0.0
    assert spare._fs is state and spare._row == 0
    _assert_consistent(fabric)


def test_cable_replacement_resets_end_columns(fabric):
    link = _connect(fabric, 1)[0]
    state = fabric.state
    old = link.cable
    if old.end_a is not None:
        old.end_a.add_contamination(0.9)
        old.end_a.scratch(0)
    fabric.stock_spares({}, cables=1)
    spare = fabric.take_spare_cable(old)
    link.replace_cable(spare)
    assert old._fs is None
    assert state.cable_end_worst[0, 0] == 0.0
    assert not state.cable_end_scratched[0, 0]
    assert spare._fs is state and spare._row == 0
    _assert_consistent(fabric)


def test_consumer_columns_track_removal(fabric):
    links = _connect(fabric, 4)
    state = fabric.state
    column = state.add_link_column(False)
    target = links[3]
    column.values[state.index_of[target.id]] = True
    fabric.disconnect(links[0].id)
    assert column.values[state.index_of[target.id]]
    assert not column.values[1:4].any() or \
        column.values[state.index_of[target.id]]


def test_capacity_growth_preserves_rows_and_columns():
    layout = HallLayout(rows=1, racks_per_row=2, height_u=48)
    fabric = Fabric(layout=layout, rng=np.random.default_rng(7))
    rack_a, rack_b = layout.rack_at(0, 0), layout.rack_at(0, 1)
    fabric.add_switch(SwitchRole.TOR, radix=128, rack_id=rack_a.id)
    fabric.add_switch(SwitchRole.TOR, radix=128, rack_id=rack_b.id)
    state = fabric.state
    column = state.add_link_column(0.0)
    links = _connect(fabric, 70)  # past the initial capacity of 64
    column.values[state.index_of[links[0].id]] = 2.5
    assert state.n_links == 70
    assert len(column.values) >= 70
    assert column.values[state.index_of[links[0].id]] == 2.5
    _assert_consistent(fabric)


def test_state_mirror_round_trip(fabric):
    link = _connect(fabric, 1)[0]
    state = fabric.state
    for value in (LinkState.DOWN, LinkState.MAINTENANCE, LinkState.UP):
        link.set_state(1.0, value)
        assert state.state_code[0] == CODE_OF[value]
    assert state.state_code[0] == UP_CODE


def test_flap_log_matches_object_walk(fabric):
    link_a, link_b = _connect(fabric, 2)
    link_a.set_state(10.0, LinkState.DOWN)
    link_a.set_state(20.0, LinkState.UP)
    link_b.set_state(25.0, LinkState.DOWN)
    # Administrative transitions must not enter the flap log.
    link_b.set_state(30.0, LinkState.MAINTENANCE)
    link_b.set_state(35.0, LinkState.UP)
    state = fabric.state
    window = FlapWindow(state, width=100.0, threshold=2)
    assert window.advance(100.0) == [state.index_of[link_a.id]]
    for row, link in enumerate(state.links_by_row):
        assert window.counts.get(int(state.lid_of_row[row]), 0) \
            == link.transitions_in_window(0.0, 100.0)


def test_double_bind_rejected(fabric):
    link = _connect(fabric, 1)[0]
    with pytest.raises(ValueError):
        fabric.state.add_link(link)
