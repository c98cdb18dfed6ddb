"""Property tests for digital-twin forking: isolation, private
buffers, and fork-vs-independent-world bit-identity.

The contracts proven here are what makes :class:`TwinPlanner` safe to
run against production state:

* no interleaving of parent and twin mutations ever leaks a write
  across the fork, in either direction;
* a fork shares no buffer with its parent, so each write stays on the
  side that made it;
* a forked twin rolled N windows is bit-identical to an independently
  built copy of the same world rolled with the same RNG substream
  (the fork is a *perfect* snapshot, not an approximation).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrobot.network.enums import LinkState
from dcrobot.network.state import _ARRAY_ATTRS
from dcrobot.network.switchgear import SwitchRole
from dcrobot.sim.rng import RandomStreams
from dcrobot.topology import build_fattree
from dcrobot.traffic.driver import TrafficDriver
from dcrobot.traffic.state import TrafficState
from dcrobot.twin import TwinWorld

STATES = [LinkState.UP, LinkState.DOWN, LinkState.FLAPPING,
          LinkState.MAINTENANCE]


def make_world(seed, traffic=True):
    topology = build_fattree(k=4, rng=np.random.default_rng(seed))
    endpoints = topology.switches(SwitchRole.TOR)
    state = (TrafficState(topology.fabric, endpoints,
                          rng=np.random.default_rng(seed + 1),
                          max_equal_paths=4)
             if traffic else None)
    return topology, state


def snapshot(fs):
    return {name: np.array(getattr(fs, name), subok=False)
            for name in _ARRAY_ATTRS}


def assert_same(reference, fs):
    for name, expected in reference.items():
        actual = np.asarray(getattr(fs, name))
        assert np.array_equal(actual, expected, equal_nan=True), name


# An op is (side, kind, link_index, value): applied to the parent via
# the live object API, or to the twin via the column vocabulary.
ops = st.lists(
    st.tuples(st.sampled_from(["parent", "twin"]),
              st.sampled_from(["state", "loss", "maint", "repair"]),
              st.integers(min_value=0, max_value=47),
              st.integers(min_value=0, max_value=3)),
    min_size=1, max_size=24)


def apply_parent(topology, kind, link, value, clock):
    if kind == "state":
        link.set_state(clock, STATES[value])
    elif kind == "loss":
        topology.fabric.state.loss_rate[link._row] = value / 4.0
    elif kind == "maint":
        link.set_state(clock, LinkState.MAINTENANCE)
    else:  # repair
        topology.fabric.state.loss_rate[link._row] = 0.0
        link.set_state(clock, LinkState.UP)


def apply_twin(twin, kind, link_id, value, clock):
    if kind == "state":
        twin.set_link_state(link_id, STATES[value], now=clock)
    elif kind == "loss":
        twin.set_loss_rate(link_id, value / 4.0)
    elif kind == "maint":
        twin.begin_maintenance(link_id, now=clock)
    else:
        twin.repair_link(link_id, now=clock)


@given(seed=st.integers(min_value=0, max_value=50), sequence=ops)
@settings(max_examples=30, deadline=None)
def test_interleaved_mutations_never_leak(seed, sequence):
    """Parent after an interleaved run == parent that never forked."""
    topology, traffic = make_world(seed)
    control_topology, _ = make_world(seed)
    link_ids = list(topology.fabric.links)
    control_links = list(control_topology.fabric.links.values())
    live_links = list(topology.fabric.links.values())

    twin = TwinWorld.fork(topology.fabric, traffic)
    twin_ops = []
    for step, (side, kind, index, value) in enumerate(sequence):
        clock = float(step + 1)
        index %= len(link_ids)
        if side == "parent":
            apply_parent(topology, kind, live_links[index],
                         value, clock)
            apply_parent(control_topology, kind,
                         control_links[index], value, clock)
        else:
            apply_twin(twin, kind, link_ids[index], value, clock)
            twin_ops.append((kind, link_ids[index], value, clock))
    # parent state is exactly the never-forked control's state
    assert_same(snapshot(control_topology.fabric.state),
                topology.fabric.state)
    # and the twin is exactly fork-time state + its own ops
    replay_topology, replay_traffic = make_world(seed)
    replay = TwinWorld.fork(replay_topology.fabric, replay_traffic)
    for kind, link_id, value, clock in twin_ops:
        apply_twin(replay, kind, link_id, value, clock)
    assert_same(snapshot(replay.state), twin.state)


@given(seed=st.integers(min_value=0, max_value=50),
       index=st.integers(min_value=0, max_value=47))
@settings(max_examples=25, deadline=None)
def test_a_fork_shares_no_buffer_and_each_write_stays_on_its_side(
        seed, index):
    """A fork copies every array and row map; a twin write reaches
    only the twin, a parent write only the parent."""
    topology, _ = make_world(seed, traffic=False)
    fs = topology.fabric.state
    links = list(topology.fabric.links.values())
    link = links[index % len(links)]
    twin = TwinWorld.fork(topology.fabric)
    for name in _ARRAY_ATTRS:
        parent, child = getattr(fs, name), getattr(twin.state, name)
        assert not np.shares_memory(parent, child), name
        assert np.array_equal(parent, child, equal_nan=True), name
    for name in ("links_by_row", "index_of", "_row_of_lid"):
        parent, child = getattr(fs, name), getattr(twin.state, name)
        assert child is not parent and child == parent, name
    before = snapshot(fs)
    twin.set_loss_rate(link.id, 0.9)
    twin.set_link_state(link.id, LinkState.DOWN, now=1.0)
    assert_same(before, fs)
    forked = snapshot(twin.state)
    link.set_state(2.0, LinkState.MAINTENANCE)
    fs.loss_rate[link._row] = 0.25
    assert_same(forked, twin.state)
    assert twin.link_state(link.id) is LinkState.DOWN
    assert twin.state.loss_rate[link._row] == 0.9


@given(seed=st.integers(min_value=0, max_value=30),
       windows=st.integers(min_value=1, max_value=3),
       maintenance_index=st.integers(min_value=0, max_value=47),
       lossy_index=st.integers(min_value=0, max_value=47),
       flows=st.sampled_from([12, 300]))
@settings(max_examples=10, deadline=None)
def test_twin_rollout_bit_identical_to_independent_world(
        seed, windows, maintenance_index, lossy_index, flows):
    """Forks of a warm parent == independently built same worlds.

    The parent first offers windows, including under the drain the
    twins will apply, so two sibling forks start from its warm routing
    memo and share member resolutions with it and with each other.
    Each fork, rolled interleaved with its sibling, must equal a cold,
    independently built world rolled on the same substream.  The cold
    world is wrapped (no fork) so both runs go through one code path;
    only the snapshot mechanism and the memo's warmth differ.  Small
    windows leave some of the parent's resolved pairs unoffered by a
    fork, which its sibling projections must not see.
    """
    def build():
        topology, traffic = make_world(seed)
        fs = topology.fabric.state
        fs.loss_rate[lossy_index % fs.n_links] = 0.02
        return topology, traffic

    def driver(traffic):
        return TrafficDriver(traffic, window_seconds=60.0,
                             sample_seconds=1.0, flows_per_window=flows)

    topology, parent = build()
    link_ids = list(topology.fabric.links)
    target = link_ids[maintenance_index % len(link_ids)]
    live = TwinWorld.wrap(topology.fabric, parent, driver=driver(parent),
                          rng=RandomStreams(seed).stream("live"))
    live.roll(1)
    parent.drain(target)
    live.roll(1)
    parent.undrain(target)
    live.roll(1)

    script = [
        lambda world: world.roll(windows),
        lambda world: world.begin_maintenance(target, now=world.now),
        lambda world: world.roll(1),
        lambda world: world.repair_link(target, now=world.now),
        lambda world: world.roll(1),
    ]

    def play(worlds):
        """Step the script through ``worlds`` interleaved; per world,
        every link's projection after every step, its last window, and
        its window stats."""
        projected = [[] for _ in worlds]
        for step in script:
            last = [step(world) for world in worlds]
            for world, seen in zip(worlds, projected):
                seen.append([
                    world.traffic.projected_group_utilization(link_id)
                    for link_id in link_ids])
        stats = [[(w.p99_fct, w.offered_bytes, w.congestion_lost_bytes,
                   w.maintenance_active) for w in world.driver.windows]
                 for world in worlds]
        return zip(projected, [results[-1] for results in last], stats)

    names = ("twin:a", "twin:b")
    forks = [TwinWorld.fork(topology.fabric, parent,
                            driver=driver(parent),
                            rng=RandomStreams(seed).stream(name))
             for name in names]
    fork_runs = list(play(forks))
    for fork in forks:
        # The siblings ended on the warm parent's own resolution.
        assert fork.traffic._resolution is parent._resolution

    for name, (projected, last, stats) in zip(names, fork_runs):
        cold_topology, cold_traffic = build()
        rng = RandomStreams(seed).stream(name)
        cold_traffic.rng = rng  # a fork draws retries from its stream
        cold = TwinWorld.wrap(cold_topology.fabric, cold_traffic,
                              driver=driver(cold_traffic), rng=rng)
        [(cold_projected, cold_last, cold_stats)] = play([cold])
        assert projected == cold_projected  # ==, not approx: bitwise
        assert np.array_equal(last.fct, cold_last.fct, equal_nan=True)
        assert np.array_equal(last.offered, cold_last.offered)
        assert np.array_equal(last.congestion, cold_last.congestion)
        assert stats == cold_stats
