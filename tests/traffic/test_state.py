"""Unit tests for the columnar traffic engine (S17)."""

import itertools

import numpy as np
import pytest

from dcrobot.network import LinkState, SwitchRole
from dcrobot.topology import build_fattree, build_leafspine
from dcrobot.traffic import EcmpRouter, TrafficState, sample_sizes
from dcrobot.traffic.state import ROUTING_MEMO_SIZE
from dcrobot.twin import TwinFabric


@pytest.fixture
def topo():
    return build_fattree(k=4, rng=np.random.default_rng(0))


@pytest.fixture
def tors(topo):
    return topo.switches(SwitchRole.TOR)


@pytest.fixture
def traffic(topo, tors):
    return TrafficState(topo.fabric, tors,
                        rng=np.random.default_rng(7))


def offer(traffic, rng, count=200, window_seconds=60.0, src=None):
    n = len(traffic.endpoints)
    if src is None:
        src = rng.integers(n, size=count)
    else:
        src = np.full(count, src, dtype=np.int64)
    dst = rng.integers(n - 1, size=count)
    dst = dst + (dst >= src)
    sizes = sample_sizes(rng, count)
    ids = np.arange(count, dtype=np.int64)
    return traffic.offer_window(src, dst, sizes, ids, window_seconds)


# -- construction ----------------------------------------------------------

def test_validation(topo, tors):
    with pytest.raises(ValueError):
        TrafficState(topo.fabric, tors, max_equal_paths=0)
    with pytest.raises(ValueError):
        TrafficState(topo.fabric, tors[:1])


def _columns(count=4):
    return {"src_index": np.zeros(count, dtype=np.int64),
            "dst_index": np.ones(count, dtype=np.int64),
            "sizes": np.full(count, 1000, dtype=np.int64),
            "flow_ids": np.arange(count, dtype=np.int64)}


@pytest.mark.parametrize("column",
                         ["src_index", "dst_index", "sizes", "flow_ids"])
def test_offer_window_rejects_mismatched_lengths(traffic, column):
    columns = _columns()
    columns[column] = columns[column][:1]  # would broadcast
    with pytest.raises(ValueError, match="equal lengths"):
        traffic.offer_window(window_seconds=1.0, **columns)


@pytest.mark.parametrize("column,index", [
    ("src_index", -1),   # would wrap to the last endpoint
    ("dst_index", -1),
    ("src_index", 8),    # one past the last of 8 ToRs
    ("dst_index", 8),    # would alias the pair (src + 1, 0)
])
def test_offer_window_rejects_out_of_range_endpoints(traffic, column,
                                                     index):
    columns = _columns()
    columns[column][2] = index
    n = traffic.fabric.state.n_links
    with pytest.raises(ValueError, match=r"\[0, 8\)"):
        traffic.offer_window(window_seconds=1.0, **columns)
    assert not traffic.util_bytes.values[:n].any()


def test_offer_window_accepts_an_empty_window(traffic):
    result = traffic.offer_window(window_seconds=1.0, **_columns(0))
    assert result.flows == 0


# -- windows and accounting ------------------------------------------------

def test_offer_window_accounts_per_link(traffic, topo):
    result = offer(traffic, np.random.default_rng(1))
    assert result.flows == 200
    assert result.unroutable == 0
    assert result.routable.all()
    assert np.isfinite(result.fct[result.routable]).all()
    n = topo.fabric.state.n_links
    # Every routed flow crosses >= 2 links; offered bytes accumulate.
    assert float(result.offered[:n].sum()) > 0
    assert np.array_equal(traffic.util_bytes.values[:n],
                          result.offered[:n])
    assert float(traffic.util_flows.values[:n].sum()) > 0


def test_accounting_is_cumulative(traffic):
    offer(traffic, np.random.default_rng(1))
    n = traffic.fabric.state.n_links
    first = traffic.util_bytes.values[:n].copy()
    offer(traffic, np.random.default_rng(2))
    assert (traffic.util_bytes.values[:n] >= first).all()
    assert float(traffic.util_bytes.values[:n].sum()) \
        > float(first.sum())


def test_unroutable_flows_are_nan(traffic, topo, tors):
    # Isolate the first ToR: every flow touching it becomes unroutable.
    for link in topo.fabric.links_of(tors[0]):
        link.set_state(0.0, LinkState.DOWN)
    result = offer(traffic, np.random.default_rng(3), src=0)
    assert result.unroutable == result.flows
    assert np.isnan(result.fct).all()
    assert np.isnan(result.fct_percentile(99))


# -- path cache invalidation -----------------------------------------------

def test_paths_follow_link_state(traffic, topo, tors):
    src, dst = tors[0], tors[-1]
    before = traffic.equal_cost_paths(src, dst)
    assert before  # inter-pod: multiple members
    link = topo.fabric.links_of(src)[0]
    link.set_state(0.0, LinkState.DOWN)
    after = traffic.equal_cost_paths(src, dst)
    assert len(after) < len(before)
    downed_agg = (set(link.endpoint_ids) - {src}).pop()
    assert all(downed_agg not in path for path in after)
    link.set_state(1.0, LinkState.UP)
    assert traffic.equal_cost_paths(src, dst) == before


def test_drain_and_undrain_invalidate_paths(traffic, topo, tors):
    src, dst = tors[0], tors[-1]
    before = traffic.equal_cost_paths(src, dst)
    link = topo.fabric.links_of(src)[0]
    traffic.drain(link.id)
    assert link.id in traffic.drained_links
    drained = traffic.equal_cost_paths(src, dst)
    assert len(drained) < len(before)
    traffic.undrain(link.id)
    assert traffic.drained_links == set()
    assert traffic.equal_cost_paths(src, dst) == before


def test_drained_link_receives_no_traffic(traffic, topo, tors):
    link = topo.fabric.links_of(tors[0])[0]
    traffic.drain(link.id)
    result = offer(traffic, np.random.default_rng(4), src=0)
    row = topo.fabric.state.index_of[link.id]
    assert result.unroutable == 0
    assert float(result.offered[row]) == 0.0


def test_paths_match_object_router(traffic, topo, tors):
    router = EcmpRouter(topo.fabric)
    for src in tors[:4]:
        for dst in tors[-4:]:
            if src == dst:
                continue
            assert traffic.equal_cost_paths(src, dst) \
                == router.equal_cost_paths(src, dst)


# -- content-keyed routing memo -------------------------------------------


@pytest.fixture
def lex_calls(monkeypatch):
    """Counts every path enumeration across all TrafficState instances."""
    calls = []
    enumerate_paths = TrafficState._lex_paths

    def counting(self, src, dst):
        calls.append((src, dst))
        return enumerate_paths(self, src, dst)

    monkeypatch.setattr(TrafficState, "_lex_paths", counting)
    return calls


def test_drain_cycle_enumerates_once_per_adjacency(
        traffic, topo, tors, lex_calls):
    src, dst = tors[0], tors[-1]
    link = topo.fabric.links_of(src)[0]
    full = traffic.equal_cost_paths(src, dst)
    traffic.drain(link.id)
    drained = traffic.equal_cost_paths(src, dst)
    assert len(lex_calls) == 2
    for _ in range(3):
        traffic.undrain(link.id)
        assert traffic.equal_cost_paths(src, dst) == full
        traffic.drain(link.id)
        assert traffic.equal_cost_paths(src, dst) == drained
    assert len(lex_calls) == 2
    assert len(traffic._routing_memo) == 2


def test_fork_shares_the_routing_memo(traffic, topo, tors, lex_calls):
    src, dst = tors[0], tors[-1]
    link = topo.fabric.links_of(src)[0]
    full = traffic.equal_cost_paths(src, dst)
    child = topo.fabric.state.fork()
    twin = traffic.fork(TwinFabric(topo.fabric, child))
    assert twin._routing_memo is traffic._routing_memo
    # The twin reuses the parent's enumeration...
    assert twin.equal_cost_paths(src, dst) == full
    assert len(lex_calls) == 1
    # ...and the parent reuses the twin's.
    twin.drain(link.id)
    drained = twin.equal_cost_paths(src, dst)
    assert len(lex_calls) == 2
    traffic.drain(link.id)
    assert traffic.equal_cost_paths(src, dst) == drained
    assert len(lex_calls) == 2


def test_fork_projections_see_only_the_pairs_it_offered(topo):
    """A fork shares its parent's member resolution, but its ECMP
    sibling groups come only from the pairs it offered itself."""

    def engine(topology):
        return TrafficState(topology.fabric,
                            topology.switches(SwitchRole.TOR),
                            max_equal_paths=2,
                            rng=np.random.default_rng(7))

    def window(dst, count=50):
        return (np.zeros(count, dtype=np.int64),
                np.full(count, dst, dtype=np.int64),
                np.full(count, 10**6, dtype=np.int64),
                np.arange(count, dtype=np.int64))

    parent = engine(topo)
    # Intra-pod: ToR 0's first hop fans out over both of its uplinks.
    parent.offer_window(*window(dst=1), 1.0)
    child = topo.fabric.state.fork()
    twin = parent.fork(TwinFabric(topo.fabric, child))
    # Inter-pod, two paths: both leave ToR 0 on its first uplink.
    twin.offer_window(*window(dst=2), 1.0)
    assert twin._resolution is parent._resolution
    cold = engine(build_fattree(k=4, rng=np.random.default_rng(0)))
    cold.offer_window(*window(dst=2), 1.0)
    projected = [twin.projected_group_utilization(link_id)
                 for link_id in topo.fabric.links]
    assert projected == [cold.projected_group_utilization(link_id)
                         for link_id in topo.fabric.links]
    assert float("inf") in projected  # a fan of one: nowhere to go


def test_memo_hit_paths_match_object_router(traffic, topo, tors,
                                            lex_calls):
    link = topo.fabric.links_of(tors[0])[0]
    pairs = [(src, dst) for src in tors for dst in tors if src != dst]
    calls_after = []
    for now, state in enumerate(
            (LinkState.DOWN, LinkState.UP, LinkState.DOWN)):
        link.set_state(float(now), state)
        router = EcmpRouter(topo.fabric)
        for src, dst in pairs:
            assert traffic.equal_cost_paths(src, dst) \
                == router.equal_cost_paths(src, dst)
        calls_after.append(len(lex_calls))
    # The second DOWN pass was served from the memo entirely.
    assert calls_after[2] == calls_after[1] > calls_after[0] > 0
    assert len(traffic._routing_memo) == 2


def test_structural_change_starts_a_fresh_memo(traffic, topo, tors,
                                               lex_calls):
    src, dst = tors[0], tors[-1]
    traffic.equal_cost_paths(src, dst)
    old_memo = traffic._routing_memo
    uplink = topo.fabric.links_of(src)[0]
    topo.fabric.disconnect(uplink.id)
    paths = traffic.equal_cost_paths(src, dst)
    assert traffic._routing_memo is not old_memo
    assert len(traffic._routing_memo) == 1
    assert len(lex_calls) == 2
    assert paths == EcmpRouter(topo.fabric).equal_cost_paths(src, dst)


def test_memo_is_bounded_oldest_first(traffic, topo, tors, lex_calls):
    src, dst = tors[0], tors[-1]
    traffic.equal_cost_paths(src, dst)
    link_ids = list(topo.fabric.links)
    drain_pairs = list(itertools.combinations(link_ids, 2))
    assert len(drain_pairs) > ROUTING_MEMO_SIZE
    for pair in drain_pairs[:ROUTING_MEMO_SIZE + 5]:
        for link_id in pair:
            traffic.drain(link_id)
        traffic.equal_cost_paths(src, dst)
        assert len(traffic._routing_memo) <= ROUTING_MEMO_SIZE
        for link_id in pair:
            traffic.undrain(link_id)
    assert len(traffic._routing_memo) == ROUTING_MEMO_SIZE
    # The undrained adjacency was the first entry, so it was evicted
    # and must be enumerated again.
    before = len(lex_calls)
    traffic.equal_cost_paths(src, dst)
    assert len(lex_calls) == before + 1


@pytest.fixture
def bfs_sweeps(monkeypatch):
    """Records every BFS sweep as (adjacency number, origin node)."""
    sweeps = []
    adjacencies = {}
    sweep = TrafficState._bfs

    def counting(self, origin):
        adjacency = adjacencies.setdefault(self._memo_key,
                                           len(adjacencies))
        sweeps.append((adjacency, int(origin)))
        return sweep(self, origin)

    monkeypatch.setattr(TrafficState, "_bfs", counting)
    return sweeps


def test_one_bfs_sweep_per_adjacency_and_node(traffic, topo, tors,
                                              bfs_sweeps):
    """Resolving every endpoint pair sweeps each node at most once per
    usable adjacency, though a node ends many class pairs; forks reuse
    the parent's sweeps."""
    n = len(tors)
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    flows = len(src)

    def offer_every_pair(engine):
        return engine.offer_window(src, dst, np.full(flows, 10**6),
                                   np.arange(flows), 60.0)

    assert offer_every_pair(traffic).unroutable == 0
    router = EcmpRouter(topo.fabric)
    assert all(traffic.equal_cost_paths(a, b)
               == router.equal_cost_paths(a, b)
               for a in tors for b in tors if a != b)
    uplink = topo.fabric.links_of(tors[0])[0].id
    traffic.drain(uplink)
    offer_every_pair(traffic)
    assert {adjacency for adjacency, _node in bfs_sweeps} == {0, 1}
    assert len(bfs_sweeps) == len(set(bfs_sweeps)), sorted(bfs_sweeps)
    swept = len(bfs_sweeps)
    twin = traffic.fork(TwinFabric(topo.fabric,
                                   topo.fabric.state.fork()))
    offer_every_pair(twin)
    twin.undrain(uplink)
    offer_every_pair(twin)
    assert len(bfs_sweeps) == swept


def test_member_resolutions_are_shared_and_bounded():
    """Alternating best-row states under one adjacency each keep one
    shared resolution, at most ROUTING_MEMO_SIZE of them, evicting the
    oldest first."""
    topology = build_leafspine(leaves=4, spines=2, uplinks_per_pair=2,
                               rng=np.random.default_rng(0))
    fs = topology.fabric.state
    traffic = TrafficState(topology.fabric,
                           topology.switches(SwitchRole.LEAF),
                           rng=np.random.default_rng(7))
    first = np.arange(0, fs.n_links, 2)  # parallel links pair up by row
    rng = np.random.default_rng(9)

    def visit(state):
        # Bit i of ``state`` makes the first member of pair i lossy.
        lossy = (state >> np.arange(len(first))) & 1 == 1
        fs.loss_rate[first] = np.where(lossy, 0.01, 0.0)
        fs.loss_rate[first + 1] = np.where(lossy, 0.0, 0.01)
        offer(traffic, rng, count=50)
        return traffic._resolution

    oldest = visit(0)
    assert visit(1) is not oldest
    assert visit(0) is oldest  # a revisit reuses the stored one
    for state in range(1, ROUTING_MEMO_SIZE + 5):
        visit(state)
        assert len(traffic._resolution_memo) <= ROUTING_MEMO_SIZE
    assert len(traffic._routing_memo) == 1
    assert len(traffic._resolution_memo) == ROUTING_MEMO_SIZE
    newest = traffic._resolution
    assert visit(0) is not oldest
    assert visit(ROUTING_MEMO_SIZE + 4) is newest


# -- impact scoring ---------------------------------------------------------

def test_projected_zero_without_observed_traffic(traffic, topo, tors):
    link = topo.fabric.links_of(tors[0])[0]
    assert traffic.projected_group_utilization(link.id) == 0.0
    assert traffic.projected_group_utilization("no-such-link") == 0.0


def test_projected_group_utilization_spreads_over_fan(
        traffic, topo, tors):
    # All traffic sourced at ToR 0: its uplinks are the hot fan.
    offer(traffic, np.random.default_rng(5), count=400,
          window_seconds=1.0, src=0)
    fs = topo.fabric.state
    uplinks = topo.fabric.links_of(tors[0])
    rows = [fs.index_of[link.id] for link in uplinks]
    fan_bytes = float(traffic.last_offered[rows].sum())
    fan_caps = float((traffic._caps[rows] * 1e9 / 8.0).sum())
    for link in uplinks:
        row = fs.index_of[link.id]
        siblings = traffic._siblings_of(row)
        # Hop-position siblings of an uplink are the *other* uplinks
        # of the same ToR — never links elsewhere on the paths.
        assert siblings == set(rows) - {row}
        projected = traffic.projected_group_utilization(link.id)
        expected = fan_bytes / (fan_caps - traffic._caps[row]
                                * 1e9 / 8.0)
        assert projected == pytest.approx(expected)
        # Concentrating the same bytes on fewer links runs hotter
        # than the group does today.
        assert projected > fan_bytes / fan_caps
