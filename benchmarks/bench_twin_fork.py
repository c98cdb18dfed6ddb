"""Bench — digital-twin forking against rebuilding the world.

On the k=16 fat-tree, ``TwinWorld.fork`` + a 100-tick what-if rollout
(column-wise repair mutations + a predicted-SMI query per tick) must
beat rebuilding the world from scratch + the same rollout by >= 5x,
with bit-identical predictions — the fork is what makes per-candidate
what-if evaluation affordable inside the control loop.  (Rolling the
live *traffic matrix* inside a fork is timed by
``bench_e17_twin_planning.py``, where the windows are the point; here
the windows would drown the fork-vs-rebuild signal.)
"""

import time

import numpy as np
from conftest import run_once

from dcrobot.network.switchgear import SwitchRole
from dcrobot.topology import build_fattree
from dcrobot.topology.smi import SmiTracker
from dcrobot.traffic.driver import TrafficDriver
from dcrobot.traffic.state import TrafficState
from dcrobot.twin import TwinWorld

FABRIC_K = 16
ROLLOUT_TICKS = 100


def _build_world(seed=2):
    topology = build_fattree(k=FABRIC_K,
                             rng=np.random.default_rng(seed))
    endpoints = topology.switches(SwitchRole.TOR)
    traffic = TrafficState(topology.fabric, endpoints,
                           rng=np.random.default_rng(seed + 1),
                           max_equal_paths=4)
    return topology, traffic


def _rollout(world, link_ids):
    """100 what-if ticks: drain -> maintain -> repair a rolling set of
    links, reading the predicted SMI after every tick."""
    predictions = []
    for tick in range(ROLLOUT_TICKS):
        link_id = link_ids[tick % len(link_ids)]
        if tick % 2:
            world.repair_link(link_id, now=float(tick))
        else:
            world.begin_maintenance(link_id, now=float(tick))
        predictions.append(world.predicted_smi())
    return predictions


def test_fork_rollout_beats_rebuild_rollout(benchmark):
    topology, traffic = _build_world()
    tracker = SmiTracker(topology)
    # A live world's memo has served a read before its planner forks.
    tracker.report()
    link_ids = list(topology.fabric.links)[:8]

    def fork_and_roll():
        twin = TwinWorld.fork(topology.fabric, traffic,
                              rng=np.random.default_rng(7),
                              smi_tracker=tracker)
        return _rollout(twin, link_ids)

    forked = run_once(benchmark, fork_and_roll)
    fork_seconds = benchmark.stats.stats.mean

    def rebuild_and_roll():
        rebuilt_topology, rebuilt_traffic = _build_world()
        rebuilt_tracker = SmiTracker(rebuilt_topology)
        world = TwinWorld.wrap(rebuilt_topology.fabric,
                               rebuilt_traffic,
                               driver=TrafficDriver(rebuilt_traffic),
                               rng=np.random.default_rng(7))
        world.smi_tracker = rebuilt_tracker
        return _rollout(world, link_ids)

    start = time.perf_counter()
    rebuilt = rebuild_and_roll()
    rebuild_seconds = time.perf_counter() - start

    # same world, same tick script: predictions must agree bitwise
    assert forked == rebuilt

    speedup = rebuild_seconds / fork_seconds
    print(f"\nfork+rollout: {fork_seconds * 1e3:.1f} ms vs "
          f"rebuild+rollout {rebuild_seconds * 1e3:.1f} ms over "
          f"{ROLLOUT_TICKS} ticks ({speedup:.1f}x)")
    assert speedup >= 5.0, (
        f"fork+rollout speedup {speedup:.1f}x, expected >= 5x")
