"""The fabric state's row-change feed and the sliding flap window.

The feed is what lets the telemetry poll and the safety monitor's
orphan audit pay per changed row: each writer of a bound row's state
code, down-since time or loss rate must report the row, and everything
else (a full health pass, a structural change, an overgrown log) must
ask for a rescan.  The sliding :class:`FlapWindow` is held to the
per-link object walk (``Link.transitions_in_window``), with
out-of-order log inserts and a clock that goes backwards.
"""

import numpy as np
import pytest

from dcrobot.failures import Environment, HealthModel
from dcrobot.network.enums import LinkState
from dcrobot.network.state import FlapWindow
from dcrobot.topology import build_fattree
from dcrobot.twin.world import TwinWorld


@pytest.fixture
def fabric():
    return build_fattree(k=4, rng=np.random.default_rng(3)).fabric


def _changes(state, cursor):
    """The rows reported since ``cursor`` (as a set, or None for a
    rescan) and the next cursor."""
    rows, cursor = state.row_changes(cursor)
    return (None if rows is None else set(rows)), cursor


class _Draws:
    """Scripted Gilbert-Elliott draws: ``random(n)`` returns the next
    ``n`` of ``values``."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        drawn, self.values = self.values[:n], self.values[n:]
        return np.array(drawn)


def test_every_writer_reports_its_row(fabric):
    state = fabric.state
    links = list(fabric.links.values())
    # Row 0 is the one marginal row: 0.99 keeps it in the good phase,
    # 0.0 starts a bad episode.
    health = HealthModel(fabric, Environment(),
                         rng=_Draws([0.99, 0.99, 0.0]))
    links[0].transceiver_a.oxidation = 0.6  # a live, marginal row
    rows, cursor = _changes(state, None)
    assert rows is None  # a first call rescans
    rows, cursor = _changes(state, cursor)
    assert rows == set()

    def row(index):
        return state.index_of[links[index].id]

    links[4].set_state(10.0, LinkState.DOWN)
    rows, cursor = _changes(state, cursor)
    assert rows == {row(4)}
    links[5].loss_rate = 1e-3
    rows, cursor = _changes(state, cursor)
    assert rows == {row(5)}
    health.evaluate_link(links[6], 20.0)
    rows, cursor = _changes(state, cursor)
    assert rows == {row(6)}
    # The first tick is a full pass: every row was written.
    health.tick_all(60.0)
    rows, cursor = _changes(state, cursor)
    assert rows is None
    # A live pass that rewrites row 0's loss to the same value reports
    # nothing; one whose phase flip moves the loss reports row 0.
    loss = state.loss_rate[row(0)]
    health.tick_all(120.0)
    assert state.loss_rate[row(0)] == loss
    rows, cursor = _changes(state, cursor)
    assert rows == set()
    health.tick_all(180.0)
    assert state.loss_rate[row(0)] == 1.0
    rows, cursor = _changes(state, cursor)
    assert rows == {row(0)}
    # A structural change asks for a rescan.
    fabric.disconnect(links[9].id)
    rows, cursor = _changes(state, cursor)
    assert rows is None
    # So does a log longer than the fabric has rows.
    for index in range(state.n_links + 1):
        links[index % 4].loss_rate = 0.0
    rows, cursor = _changes(state, cursor)
    assert rows is None


def test_a_fork_has_its_own_empty_feed(fabric):
    state = fabric.state
    links = list(fabric.links.values())
    _rows, live = _changes(state, None)
    twin = TwinWorld.fork(fabric)
    rows, forked = _changes(twin.state, None)
    assert rows is None
    twin.set_link_state(links[1].id, LinkState.DOWN, now=10.0)
    twin.set_loss_rate(links[2].id, 1e-3)
    twin.repair_link(links[3].id, now=20.0)
    # The twin's writes reach the twin's feed only...
    rows, forked = _changes(twin.state, forked)
    assert rows == {state.index_of[links[index].id]
                    for index in (1, 2, 3)}
    rows, live = _changes(state, live)
    assert rows == set()
    # ...and the live world's writes the live world's only.
    links[4].set_state(30.0, LinkState.DOWN)
    rows, live = _changes(state, live)
    assert rows == {state.index_of[links[4].id]}
    rows, forked = _changes(twin.state, forked)
    assert rows == set()


WIDTH = 300.0
THRESHOLD = 3


def _brute_force(fabric, now):
    """Rows of the links with at least THRESHOLD flaps in the window,
    and every link's count, by the object walk."""
    counts = {link.id: link.transitions_in_window(now - WIDTH, now)
              for link in fabric.links.values()}
    busy = {fabric.state.index_of[link_id]
            for link_id, count in counts.items() if count >= THRESHOLD}
    return busy, counts


@pytest.mark.parametrize("seed", range(4))
def test_the_sliding_window_matches_the_object_walk(fabric, seed):
    """Each link's own clock runs forward.  Most events come after
    every other link's (an append, which the window slides over); the
    rest only after their own link's, which lands them behind the log's
    tail (an out-of-order insert).  The window's clock mostly runs
    forward, sometimes back."""
    rng = np.random.default_rng(seed)
    state = fabric.state
    links = list(fabric.links.values())[:8]
    clocks = {link.id: 0.0 for link in links}
    window = FlapWindow(state, WIDTH, THRESHOLD)
    now = 0.0
    inserts = state._flap_inserts
    for step in range(400):
        link = links[int(rng.integers(len(links)))]
        if link.id in fabric.links:
            after = (clocks[link.id] if rng.random() < 0.2
                     else max(clocks.values()))
            clocks[link.id] = after + float(rng.exponential(20.0))
            choice = rng.random()
            new_state = (LinkState.MAINTENANCE if choice < 0.1
                         else LinkState.UP if link.state
                         is not LinkState.UP else LinkState.DOWN)
            link.set_state(clocks[link.id], new_state)
        if step == 200:
            fabric.disconnect(links[0].id)
        if rng.random() < 0.3:
            now = max(0.0, now + float(rng.normal(60.0, 60.0)))
            busy, counts = _brute_force(fabric, now)
            assert set(window.advance(now)) == busy, step
            for other in fabric.links.values():
                lid = int(state.lid_of_row[state.index_of[other.id]])
                assert window.counts.get(lid, 0) == counts[other.id], step
    assert state._flap_inserts > inserts  # out-of-order inserts happened


def test_a_window_slides_each_event_in_once_and_out_once(fabric):
    """In order, an event at ``t == now`` waits for the next call, and
    events leave one call at a time as the window passes them."""
    link = next(iter(fabric.links.values()))
    lid = int(fabric.state.lid_of_row[link._row])
    window = FlapWindow(fabric.state, WIDTH, THRESHOLD)
    window.advance(0.0)
    for when, new_state in ((10.0, LinkState.DOWN), (20.0, LinkState.UP),
                            (30.0, LinkState.DOWN)):
        link.set_state(when, new_state)
    assert window.advance(30.0) == []  # the event at 30 s waits
    assert window.counts == {lid: 2}
    assert window.advance(30.5) == [link._row]
    assert window.advance(310.0) == []  # t=10 leaves at now - 300
    assert window.counts == {lid: 2}
    window.advance(320.0)
    assert window.counts == {lid: 1}
    window.advance(330.0)
    assert window.counts == {}
