"""Unit tests for TwinWorld: forking, the mutation vocabulary,
rolling, and prediction queries."""

import gc
import weakref

import numpy as np
import pytest

from dcrobot.network.enums import LinkState
from dcrobot.network.switchgear import SwitchRole
from dcrobot.sim.rng import RandomStreams
from dcrobot.topology import build_fattree
from dcrobot.topology.smi import SmiTracker, compute_smi
from dcrobot.traffic.driver import TrafficDriver
from dcrobot.traffic.patterns import HotspotPattern
from dcrobot.traffic.state import TrafficState
from dcrobot.twin import TwinWorld


def make_world(seed=7, k=4, traffic=True):
    topology = build_fattree(k=k, rng=np.random.default_rng(seed))
    endpoints = topology.switches(SwitchRole.TOR)
    state = (TrafficState(topology.fabric, endpoints,
                          rng=np.random.default_rng(seed + 1),
                          max_equal_paths=4)
             if traffic else None)
    return topology, state


# -- fork mechanics -----------------------------------------------------------


def test_parent_write_does_not_leak_into_twin():
    topology, traffic = make_world()
    fabric = topology.fabric
    link = next(iter(fabric.links.values()))
    twin = TwinWorld.fork(fabric, traffic)
    before = int(twin.state.state_code[link._row])
    link.set_state(10.0, LinkState.DOWN)
    assert int(twin.state.state_code[link._row]) == before
    assert twin.link_state(link.id) is LinkState.UP


def test_a_dropped_fork_is_freed_by_reference_counting():
    """A twin dropped after a write and a roll leaves nothing behind
    for the cycle collector: its state goes with its last reference,
    and the parent carries on."""
    topology, traffic = make_world()
    fabric = topology.fabric
    link = next(iter(fabric.links.values()))
    driver = TrafficDriver(traffic, window_seconds=60.0,
                           flows_per_window=50)
    tracker = SmiTracker(topology)
    gc.disable()
    try:
        twin = TwinWorld.fork(fabric, traffic, driver=driver,
                              rng=np.random.default_rng(5),
                              smi_tracker=tracker)
        twin.set_loss_rate(link.id, 0.5)
        twin.roll(1)
        state = weakref.ref(twin.state)
        del twin
        assert state() is None
    finally:
        gc.enable()
    link.set_state(1.0, LinkState.DOWN)
    assert not link.operational
    assert fabric.state.loss_rate[link._row] == 0.0


# -- mutation vocabulary ------------------------------------------------------


def test_set_link_state_matches_flap_semantics():
    topology, traffic = make_world()
    twin = TwinWorld.fork(topology.fabric, traffic)
    link_id = next(iter(topology.fabric.links))
    assert twin.set_link_state(link_id, LinkState.DOWN, now=5.0)
    assert twin.state._flap_len == 1  # real flap, logged
    assert twin.set_link_state(link_id, LinkState.MAINTENANCE,
                               now=6.0)
    assert twin.state._flap_len == 1  # administrative: not a flap
    assert not twin.set_link_state(link_id, LinkState.MAINTENANCE)
    assert twin.link_state(link_id) is LinkState.MAINTENANCE


def test_repair_link_restores_health_columns():
    topology, traffic = make_world()
    twin = TwinWorld.fork(topology.fabric, traffic)
    link_id = next(iter(topology.fabric.links))
    row = twin._row(link_id)
    twin.set_loss_rate(link_id, 0.7)
    twin.begin_maintenance(link_id, now=3.0)
    assert twin.link_state(link_id) is LinkState.MAINTENANCE
    assert link_id in twin.traffic.drained_links
    twin.repair_link(link_id, now=4.0)
    assert twin.link_state(link_id) is LinkState.UP
    assert twin.state.loss_rate[row] == 0.0
    assert bool(twin.state.seated[:, row].all())
    assert link_id not in twin.traffic.drained_links
    # the live world never saw any of it
    fs = topology.fabric.state
    assert fs.loss_rate[fs.index_of[link_id]] == 0.0
    assert not traffic.drained_links


# -- rolling and predictions --------------------------------------------------


def test_offer_window_without_traffic_raises():
    topology, _ = make_world(traffic=False)
    twin = TwinWorld.fork(topology.fabric)
    with pytest.raises(RuntimeError, match="no traffic"):
        twin.offer_window()


def test_predicted_smi_is_the_live_smi():
    """A twin changes link state and health, never structure, so its
    predicted SMI is the live fabric's, bit for bit."""
    topology, traffic = make_world()
    twin = TwinWorld.fork(topology.fabric, traffic,
                          smi_tracker=SmiTracker(topology))
    link_id = next(iter(topology.fabric.links))
    twin.begin_maintenance(link_id, now=1.0)
    twin.repair_link(link_id, now=2.0)
    assert twin.predicted_smi() == compute_smi(topology).smi


def test_predicted_smi_without_tracker_raises():
    topology, traffic = make_world()
    twin = TwinWorld.fork(topology.fabric, traffic)
    with pytest.raises(RuntimeError, match="SmiTracker"):
        twin.predicted_smi()


def test_fork_inherits_driver_parameters():
    """A twin's windows are the live driver's next windows, bit for
    bit: the live driver continuing on an identically built cold world
    with the twin's substream offers the same stats and per-flow
    results."""
    hot = HotspotPattern(hot_endpoints=1, hot_probability=0.5)

    def day_night(now):
        return (40 if now % 1200 else 20), hot

    def build():
        topology, traffic = make_world()
        driver = TrafficDriver(traffic,
                               rng=np.random.default_rng(3),
                               window_seconds=600.0,
                               sample_seconds=2.0,
                               flows_per_window=50,
                               schedule=day_night)
        driver.offer(now=600.0)
        return topology, traffic, driver

    topology, traffic, driver = build()
    twin = TwinWorld.fork(topology.fabric, traffic, driver=driver,
                          rng=RandomStreams(4).stream("twin"),
                          now=600.0)
    results = twin.roll(3)
    assert twin.now == 600.0 + 3 * 600.0
    # twin rolls never advanced the live driver or its matrix log
    assert len(driver.windows) == 1
    assert driver._next_flow_id == 40

    _cold_topology, cold_traffic, cold = build()
    rng = RandomStreams(4).stream("twin")
    cold.rng = cold_traffic.rng = rng  # a fork draws from its stream
    cold_results = [cold.offer(now) for now in (1200.0, 1800.0, 2400.0)]
    assert [w.flows for w in cold.windows] == [40, 20, 40, 20]
    assert twin.driver.windows == cold.windows[1:]
    assert twin.driver._next_flow_id == cold._next_flow_id
    for got, expected in zip(results, cold_results):
        assert np.array_equal(got.fct, expected.fct, equal_nan=True)
        assert np.array_equal(got.routable, expected.routable)
        assert np.array_equal(got.offered, expected.offered)
        assert np.array_equal(got.congestion, expected.congestion)


def test_roll_leaves_live_utilization_untouched():
    topology, traffic = make_world()
    n = topology.fabric.state.n_links
    live_before = traffic.util_bytes.values[:n].copy()
    driver = TrafficDriver(traffic, window_seconds=60.0,
                           flows_per_window=200)
    twin = TwinWorld.fork(topology.fabric, traffic, driver=driver,
                          rng=RandomStreams(99).stream("twin"))
    twin.roll(2)
    assert float(twin.traffic.util_bytes.values[:n].sum()) > 0
    assert np.array_equal(traffic.util_bytes.values[:n], live_before)


def test_p99_fct_empty_is_nan():
    topology, traffic = make_world()
    twin = TwinWorld.fork(topology.fabric, traffic)
    assert np.isnan(twin.p99_fct())


def test_maintenance_windows_are_flagged():
    topology, traffic = make_world()
    link_id = next(iter(topology.fabric.links))
    driver = TrafficDriver(traffic, window_seconds=60.0,
                           flows_per_window=100)
    twin = TwinWorld.fork(topology.fabric, traffic, driver=driver,
                          rng=np.random.default_rng(5))
    twin.roll(1)
    twin.begin_maintenance(link_id)
    twin.roll(1)
    twin.repair_link(link_id)
    twin.roll(1)
    flags = [w.maintenance_active for w in twin.driver.windows]
    assert flags == [False, True, False]
