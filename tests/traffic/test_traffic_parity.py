"""Golden parity: columnar engine vs object-path oracles, bit for bit.

Two contracts pinned here:

* :meth:`FlowGenerator.sample_batch` vectorizes the per-flow scalar
  loop with *blocked* draws; numpy fills array draws element by
  element, so a scalar loop making the same blocked draws consumes the
  identical RNG stream and yields identical flows.
* :class:`TrafficState` must reproduce the per-flow
  :class:`LegacyTrafficModel` oracle (``tests/oracles/traffic.py``)
  exactly — per-flow FCTs, per-link
  utilization and congestion-loss totals — across link failures, loss
  changes, and drain/undrain cycles, because the legacy model *is* the
  physics specification.
"""

import numpy as np
import pytest

from dcrobot.network import LinkState, SwitchRole
from dcrobot.topology import build_fattree, build_leafspine
from dcrobot.traffic import (
    FlowGenerator,
    TrafficState,
    sample_sizes,
)
from dcrobot.traffic.flows import MIN_FLOW_BYTES, SIZE_MIX

from tests.oracles.traffic import LegacyTrafficModel


# -- flow sampling ----------------------------------------------------------

def test_sample_batch_matches_scalar_blocked_stream():
    endpoints = [f"ep-{i}" for i in range(9)]
    count = 300
    flows = FlowGenerator(endpoints,
                          rng=np.random.default_rng(5)) \
        .sample_batch(count)

    # Scalar reference making the same blocked draws in the same
    # order: sources, destination offsets, mixture thresholds, sizes.
    rng = np.random.default_rng(5)
    n = len(endpoints)
    src = [int(rng.integers(n)) for _ in range(count)]
    dst = [int(rng.integers(n - 1)) for _ in range(count)]
    dst = [d + (d >= s) for s, d in zip(src, dst)]
    thresholds = [float(rng.random()) for _ in range(count)]
    cumulative = np.cumsum([p for p, _, _ in SIZE_MIX])
    components = [int(np.searchsorted(cumulative, t, side="right"))
                  for t in thresholds]
    components = [min(c, len(SIZE_MIX) - 1) for c in components]
    sizes = [max(MIN_FLOW_BYTES,
                 int(rng.lognormal(SIZE_MIX[c][1], SIZE_MIX[c][2])))
             for c in components]

    assert len(flows) == count
    for i, flow in enumerate(flows):
        assert flow.flow_id == i
        assert flow.src == endpoints[src[i]]
        assert flow.dst == endpoints[dst[i]]
        assert flow.size_bytes == sizes[i]


def test_sample_flow_scalar_path_matches_batch_semantics():
    """The single-flow scalar sampler draws the same quantities in the
    same per-flow order; one flow drawn scalar equals a batch of one."""
    endpoints = [f"ep-{i}" for i in range(6)]
    scalar = FlowGenerator(endpoints,
                           rng=np.random.default_rng(11)).sample_flow()
    [batched] = FlowGenerator(endpoints,
                              rng=np.random.default_rng(11)) \
        .sample_batch(1)
    assert scalar == batched


def test_sample_arrays_and_batch_share_one_stream():
    endpoints = [f"ep-{i}" for i in range(5)]
    ids, src, dst, sizes = FlowGenerator(
        endpoints, rng=np.random.default_rng(8)).sample_arrays(64)
    flows = FlowGenerator(endpoints,
                          rng=np.random.default_rng(8)) \
        .sample_batch(64)
    for i, flow in enumerate(flows):
        assert flow.flow_id == int(ids[i])
        assert flow.src == endpoints[int(src[i])]
        assert flow.dst == endpoints[int(dst[i])]
        assert flow.size_bytes == int(sizes[i])


# -- columnar vs legacy -----------------------------------------------------

@pytest.fixture
def world():
    topology = build_fattree(k=4, rng=np.random.default_rng(0))
    tors = topology.switches(SwitchRole.TOR)
    columnar = TrafficState(topology.fabric, tors,
                            rng=np.random.default_rng(7))
    legacy = LegacyTrafficModel(topology.fabric, tors,
                                rng=np.random.default_rng(7))
    return topology, tors, columnar, legacy


def _window(rng, n_endpoints, count, flow_id):
    src = rng.integers(n_endpoints, size=count)
    dst = rng.integers(n_endpoints - 1, size=count)
    dst = dst + (dst >= src)
    sizes = sample_sizes(rng, count)
    ids = np.arange(flow_id, flow_id + count, dtype=np.int64)
    return src, dst, sizes, ids


def _assert_windows_identical(columnar, legacy, fast, slow, fabric):
    assert np.array_equal(fast.fct, slow.fct, equal_nan=True)
    index_of = fabric.state.index_of
    for link_id, total in legacy.util_bytes.items():
        row = index_of[link_id]
        assert columnar.util_bytes.values[row] == total
        assert columnar.lost_bytes.values[row] == \
            legacy.lost_bytes.get(link_id, 0.0)


def test_columnar_matches_legacy_through_perturbations(world):
    topology, tors, columnar, legacy = world
    fabric = topology.fabric
    rng = np.random.default_rng(21)
    flow_id = 0

    def offer_and_compare(count=500, window_seconds=30.0):
        nonlocal flow_id
        window = _window(rng, len(tors), count, flow_id)
        flow_id += count
        fast = columnar.offer_window(*window, window_seconds)
        slow = legacy.offer_window(*window, window_seconds)
        _assert_windows_identical(columnar, legacy, fast, slow,
                                  fabric)
        return fast

    offer_and_compare()

    # A link fails: both engines reroute identically.
    failed = fabric.links_of(tors[0])[0]
    failed.set_state(0.0, LinkState.DOWN)
    offer_and_compare()

    # A link flaps: its loss feeds both engines' survival and retry
    # draws identically.  (A fat-tree has no parallel links, so member
    # choice never depends on loss here; the leaf-spine test below
    # covers that.)
    degraded = fabric.links_of(tors[1])[0]
    degraded.set_state(0.05, LinkState.UP)
    offer_and_compare()

    # A maintenance drain, applied to both, then lifted.
    drained = fabric.links_of(tors[2])[0]
    columnar.drain(drained.id)
    legacy.drain(drained.id)
    offer_and_compare()
    columnar.undrain(drained.id)
    legacy.undrain(drained.id)
    failed.set_state(0.0, LinkState.UP)
    offer_and_compare()


def test_small_windows_under_congestion_match(world):
    topology, tors, columnar, legacy = world
    rng = np.random.default_rng(33)
    flow_id = 0
    # A 2-millisecond accounting period congests the 400G links; the
    # congestion and retry paths must agree bit for bit too.
    for _ in range(3):
        window = _window(rng, len(tors), 800, flow_id)
        flow_id += 800
        fast = columnar.offer_window(*window, 0.002)
        slow = legacy.offer_window(*window, 0.002)
        _assert_windows_identical(columnar, legacy, fast, slow,
                                  topology.fabric)
        assert float(fast.congestion.max()) > 0.0


def test_parallel_link_member_choice_matches_legacy():
    """With parallel uplinks, the best row per node pair depends on
    loss, so member resolutions keyed by it must follow every flip of
    which parallel member is least lossy, and every drain of one."""
    topology = build_leafspine(leaves=4, spines=2, uplinks_per_pair=2,
                               rng=np.random.default_rng(0))
    fabric = topology.fabric
    leaves = topology.switches(SwitchRole.LEAF)
    columnar = TrafficState(fabric, leaves,
                            rng=np.random.default_rng(7))
    legacy = LegacyTrafficModel(fabric, leaves,
                                rng=np.random.default_rng(7))
    fs = fabric.state
    drained = fabric.links_of(leaves[0])[0]
    parallel = {}
    for link in fabric.links.values():
        parallel.setdefault(frozenset(link.endpoint_ids), []).append(
            fs.index_of[link.id])
    assert all(len(rows) == 2 for rows in parallel.values())
    # The drained link's pair stays lossless: undrained, the lid
    # tie-break picks the drained link; drained, its sibling.
    del parallel[frozenset(drained.endpoint_ids)]
    first, second = (np.array(rows) for rows in
                     zip(*parallel.values()))
    drained = drained.id
    rng = np.random.default_rng(41)
    flow_id = 0
    for step in range(40):
        # Flip which member of every other pair is least lossy.
        lossy, clean = (first, second) if step % 2 else (second, first)
        fs.loss_rate[lossy] = 0.01
        fs.loss_rate[clean] = 0.001
        if step % 5 == 0:
            for engine in (columnar, legacy):
                if drained in engine.drained_links:
                    engine.undrain(drained)
                else:
                    engine.drain(drained)
        window = _window(rng, len(leaves), 300, flow_id)
        flow_id += 300
        fast = columnar.offer_window(*window, 0.01)
        slow = legacy.offer_window(*window, 0.01)
        _assert_windows_identical(columnar, legacy, fast, slow, fabric)
        if drained in columnar.drained_links:
            assert fast.offered[fs.index_of[drained]] == 0.0
    # Two loss phases x drained or not, all under one adjacency.
    assert len(columnar._routing_memo) == 1
    assert len(columnar._resolution_memo) == 4
