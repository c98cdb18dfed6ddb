"""Bench — digital-twin forking and incremental SMI (ISSUE 7 gates).

Two acceptance bars on the k=16 fat-tree:

* **Incremental SMI**: ``SmiTracker.report()`` after generation-keyed
  deltas must beat a ``compute_smi`` full rescan by >= 10x across a
  mutate-and-query loop, while agreeing to 1e-12 on every factor.
* **World forking**: ``TwinWorld.fork`` + a 100-tick what-if rollout
  (column-wise repair mutations + a predicted-SMI query per tick)
  must beat rebuilding the world from scratch + the same rollout by
  >= 5x, with bit-identical predictions — the fork is what makes
  per-candidate what-if evaluation affordable inside the control
  loop.  (Rolling the live *traffic matrix* inside a fork is timed by
  ``bench_e17_twin_planning.py``, where the windows are the point;
  here the windows would drown the fork-vs-rebuild signal.)
"""

import time

import numpy as np
from conftest import run_once

from dcrobot.network.switchgear import SwitchRole
from dcrobot.topology import build_fattree
from dcrobot.topology.smi import SmiTracker, compute_smi
from dcrobot.traffic.driver import TrafficDriver
from dcrobot.traffic.state import TrafficState
from dcrobot.twin import TwinWorld

FABRIC_K = 16
MUTATE_QUERY_ITERATIONS = 20
ROLLOUT_TICKS = 100


def _mutation_targets(fabric, iterations, seed=5):
    rng = np.random.default_rng(seed)
    links = list(fabric.links.values())
    picks = rng.integers(0, len(links), size=iterations)
    return [links[int(index)] for index in picks]


def _swap_one(fabric, link, side):
    old_unit = link.transceiver_at(side)
    link.replace_transceiver(side, fabric.new_transceiver(
        old_unit.model.form_factor, optical=old_unit.optical))


def test_incremental_smi_beats_full_rescan(benchmark):
    topology = build_fattree(k=FABRIC_K,
                             rng=np.random.default_rng(1))
    fabric = topology.fabric
    tracker = SmiTracker(topology)
    targets = _mutation_targets(fabric, MUTATE_QUERY_ITERATIONS)

    def mutate_and_query_incremental():
        reports = []
        for step, link in enumerate(targets):
            _swap_one(fabric, link, "a" if step % 2 else "b")
            reports.append(tracker.report())
        return reports

    incremental_reports = run_once(benchmark,
                                   mutate_and_query_incremental)
    incremental_seconds = benchmark.stats.stats.mean

    # Oracle pass over the same final fabric: one rescan per query.
    start = time.perf_counter()
    for _step in range(MUTATE_QUERY_ITERATIONS):
        oracle = compute_smi(topology)
    rescan_seconds = (time.perf_counter() - start)

    # parity on every factor, at full k=16 scale
    final = incremental_reports[-1]
    for factor, value in oracle.factors.items():
        assert abs(final.factors[factor] - value) <= 1e-12, factor
    assert abs(final.smi - oracle.smi) <= 1e-12

    speedup = rescan_seconds / incremental_seconds
    print(f"\nincremental SMI: {incremental_seconds * 1e3:.1f} ms "
          f"vs rescan {rescan_seconds * 1e3:.1f} ms for "
          f"{MUTATE_QUERY_ITERATIONS} mutate+query iterations "
          f"({speedup:.1f}x)")
    assert speedup >= 10.0, (
        f"incremental SMI speedup {speedup:.1f}x, expected >= 10x")
    tracker.close()


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
    tracker.close()
