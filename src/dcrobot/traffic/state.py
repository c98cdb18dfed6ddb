"""Columnar traffic engine: ECMP + congestion + FCT as array kernels.

The per-flow object path (:class:`~dcrobot.traffic.routing.EcmpRouter`
+ :class:`~dcrobot.traffic.latency.LatencyModel`) walks Python objects
per flow and caps traffic experiments at toy fabric sizes, exactly as
the per-link loops once capped the physics (PR 5).
:class:`TrafficState` is the traffic analogue of
:class:`~dcrobot.network.state.FabricState`: whole windows of flows are
offered as arrays, and every hot quantity — path membership, ECMP
member choice, per-link offered bytes, congestion loss, flow-completion
times — is computed by vectorized kernels.

Four structural ideas make it fast without changing the physics:

* **Class-cached paths.**  Endpoints whose *usable* neighbor sets are
  identical (pod twins in a fat-tree) are interchangeable for shortest
  paths: no shortest path can route *through* a twin of either
  endpoint (any such path admits a shortcut).  Paths are therefore
  enumerated once per ``(src_class, dst_class)`` — interiors only —
  and endpoint members are substituted in, collapsing the per-pair
  cache of the object router to a per-class-pair cache.
* **Content-keyed routing memo.**  Paths depend only on the usable
  simple adjacency, so the CSR adjacency, twin classes, class-pair
  interiors and per-node BFS distances (one sweep per node, however
  many class pairs it ends) are memoised by the adjacency's edge set
  rather than discarded whenever ``FabricState.route_generation`` or
  the drain epoch moves.  A drain/undrain or repair that returns to a
  known adjacency re-enumerates nothing, and twin forks share the memo
  with their parent (and with each other).  The memo is cleared by a
  structural ``FabricState.generation`` bump and bounded to
  :data:`ROUTING_MEMO_SIZE` adjacencies, evicted oldest first.
* **Shared member resolution, per-path tables.**  A pair's ECMP member
  rows depend only on its path interiors (fixed by the adjacency and
  ``max_equal_paths``) and on the row ``links_on_path`` picks per node
  pair (least loss, lid breaking ties).  Member resolution is
  therefore memoised as well, beside the routing memo and under the
  same scope and bound: one append-only :class:`_Resolution` per
  (adjacency, best-row state), which every engine reaching that state
  reads and extends — the live engine after a drain cycle, every twin
  fork.  A resolution carries a dense endpoint-pair → slot table and,
  per member path, the propagation + switching delay and the
  bottleneck rate, so a window does its path arithmetic once per
  member path and gathers per flow: the same float operations, in the
  same order, as the per-flow loop.
* **In-order accumulation.**  Per-link offered bytes and flow counts
  are accumulated with ``np.bincount`` from flow-major flattened hop
  arrays; it adds weights in input order, so it performs the same
  float additions in the same order as the per-flow loop — and
  utilization totals agree bit for bit with the per-flow oracle in
  ``tests/oracles/traffic.py``.

Path enumeration follows the shared lexicographic spec in
:func:`dcrobot.traffic.routing.lexicographic_shortest_paths`; member
selection per hop reproduces ``links_on_path`` (least-lossy usable
parallel link, insertion order breaking ties); FCT sampling reproduces
``LatencyModel.sample_fct`` including RNG stream order (retry draws
only for lossy routable flows, in flow order).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from dcrobot.network.inventory import Fabric
from dcrobot.network.state import FLAPPING_CODE
from dcrobot.obs import NULL_OBS
from dcrobot.traffic.latency import (
    MTU_BYTES,
    PROPAGATION_S_PER_M,
    LatencyParams,
    combined_loss,
    congestion_loss,
)

_NO_ROUTE = None

#: Distinct usable adjacencies the routing memo, and member resolutions
#: the resolution memo, keep per structure generation; the oldest of
#: each is evicted first.
ROUTING_MEMO_SIZE = 64


class _Resolution:
    """ECMP member rows for one routing state, shared by content.

    A routing state is a usable adjacency (one routing-memo entry) plus
    the best row per node pair (``_best_rows``); together they fix
    every pair's member rows.  Engines reaching the same state read and
    extend one resolution.  It is append-only, so a slot or stacked row
    never moves once assigned.
    """

    def __init__(self, n_endpoints: int) -> None:
        #: Endpoint pair (``src * E + dst``) -> slot; -1: unresolved.
        self.slot_table = np.full(n_endpoints * n_endpoints, -1,
                                  dtype=np.int64)
        #: Per slot: first stacked row, member and hop counts.  Slot 0
        #: holds every unroutable pair and gathers the all-dummy row 0.
        self.slot_offset = [0]
        self.slot_members = [0]
        self.slot_hops = [0]
        self.big_parts: List[np.ndarray] = []
        self.big_count = 1
        #: Filled by ``TrafficState._assemble``: slot offsets and ECMP
        #: divisors (member counts; 1 for slot 0) as arrays, the stacked
        #: member-row matrix, and per stacked row (a member path) its
        #: propagation + switching delay and bottleneck rate in bits/s.
        self.slot_arrays: Optional[tuple] = None
        self.big_rows: Optional[np.ndarray] = None
        self.path_delay: Optional[np.ndarray] = None
        self.path_rate: Optional[np.ndarray] = None


@dataclasses.dataclass
class WindowResult:
    """One offered traffic window, measured."""

    #: Per-flow completion time; NaN where no route existed.
    fct: np.ndarray
    #: Per-flow routability mask.
    routable: np.ndarray
    #: Per-row offered bytes this window (length ``n_links``).
    offered: np.ndarray
    #: Per-row congestion loss fraction this window.
    congestion: np.ndarray
    window_seconds: float

    @property
    def flows(self) -> int:
        return len(self.fct)

    @property
    def unroutable(self) -> int:
        return int(len(self.routable) - self.routable.sum())

    def fct_percentile(self, q: float) -> float:
        """Percentile over routable flows (NaN if none routed)."""
        samples = self.fct[self.routable]
        if len(samples) == 0:
            return float("nan")
        return float(np.percentile(samples, q))


class TrafficState:
    """Struct-of-arrays traffic engine over one fabric.

    ``endpoints`` are the attachment nodes flows run between (ToR
    switches in the fat-tree experiments); offered windows address them
    by index, which is what :meth:`FlowGenerator.sample_arrays` and the
    matrix samplers in :mod:`dcrobot.traffic.patterns` emit.
    """

    def __init__(self, fabric: Fabric, endpoints: Sequence[str],
                 params: Optional[LatencyParams] = None,
                 max_equal_paths: int = 8,
                 rng: Optional[np.random.Generator] = None,
                 obs=NULL_OBS) -> None:
        if max_equal_paths < 1:
            raise ValueError("max_equal_paths must be >= 1")
        if len(endpoints) < 2:
            raise ValueError("need at least two endpoints")
        self.fabric = fabric
        self.endpoints = list(endpoints)
        self.params = params or LatencyParams()
        self.max_equal_paths = max_equal_paths
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.obs = obs
        #: Cumulative per-link accounting, row-aligned through
        #: structural changes by the fabric state itself.
        fs = fabric.state
        self.util_bytes = fs.add_link_column(0.0)
        self.util_flows = fs.add_link_column(0.0)
        self.lost_bytes = fs.add_link_column(0.0)
        self._drained: set = set()
        self._drain_epoch = 0
        #: Last offered window, kept for impact scoring.
        self.last_offered: Optional[np.ndarray] = None
        self.last_congestion: Optional[np.ndarray] = None
        self.last_window_seconds = 0.0
        self._structure_gen = -1
        self._route_key = None
        self._loss_snapshot: Optional[np.ndarray] = None

    # -- drains (administrative removal ahead of maintenance) ---------------

    def drain(self, link_id: str) -> None:
        """Remove a link from routing ahead of maintenance."""
        if link_id not in self._drained:
            self._drained.add(link_id)
            self._drain_epoch += 1

    def undrain(self, link_id: str) -> None:
        """Return a drained link to routing."""
        if link_id in self._drained:
            self._drained.discard(link_id)
            self._drain_epoch += 1

    @property
    def drained_links(self) -> set:
        return set(self._drained)

    # -- forking ------------------------------------------------------------

    def fork(self, fabric, rng: Optional[np.random.Generator] = None) \
            -> "TrafficState":
        """A twin engine bound to a forked :class:`FabricState`.

        ``fabric`` is the twin's fabric handle — typically a proxy
        whose ``.state`` is ``FabricState.fork()`` of this engine's
        fabric and whose other attributes forward to the live fabric
        (structure is only re-read if the twin's generation moves).
        The fork shares every immutable routing artifact with the
        parent — structure snapshots, usable adjacency, twin classes,
        the per-class-pair path-interior and per-node distance caches,
        and the routing and member-resolution memos themselves, so
        paths and member rows any side has resolved for a routing
        state are reused by every other.  The twin only drops its
        pointer to the loss-dependent resolution; its first window
        picks the one for its own loss.  Cumulative accounting columns
        start at zero on the twin (they join the *forked* state's
        consumer column list, so the parent's accounting is
        untouched).
        """
        self._refresh()
        twin = TrafficState.__new__(TrafficState)
        twin.fabric = fabric
        twin.endpoints = list(self.endpoints)
        twin.params = self.params
        twin.max_equal_paths = self.max_equal_paths
        twin.rng = rng if rng is not None else np.random.default_rng(0)
        twin.obs = NULL_OBS
        fs = fabric.state
        twin.util_bytes = fs.add_link_column(0.0)
        twin.util_flows = fs.add_link_column(0.0)
        twin.lost_bytes = fs.add_link_column(0.0)
        twin._drained = set(self._drained)
        twin._drain_epoch = self._drain_epoch
        twin.last_offered = None
        twin.last_congestion = None
        twin.last_window_seconds = 0.0
        # Structure snapshot (read-only arrays, shared).
        twin._node_ids = self._node_ids
        twin._node_index = self._node_index
        twin.n_nodes = self.n_nodes
        twin._row_u = self._row_u
        twin._row_v = self._row_v
        twin._caps = self._caps
        twin._lengths = self._lengths
        twin._caps_ext = self._caps_ext
        twin._lengths_ext = self._lengths_ext
        twin._endpoint_nodes = self._endpoint_nodes
        twin._structure_gen = self._structure_gen
        twin._routing_memo = self._routing_memo
        twin._resolution_memo = self._resolution_memo
        # Routing artifacts (each side replaces, never mutates, these
        # on its own rebuild; cache fills into the shared interiors
        # and distance dicts are value-identical on both sides).
        twin._usable = self._usable
        twin._adj_indptr = self._adj_indptr
        twin._adj_indices = self._adj_indices
        twin._class_of = self._class_of
        twin._class_interiors = self._class_interiors
        twin._node_distances = self._node_distances
        twin._memo_key = self._memo_key
        twin._route_key = self._route_key
        # Member resolution depends on live loss rates: re-picked.
        twin._reset_resolution()
        return twin

    # -- cache maintenance ---------------------------------------------------

    def _refresh(self) -> None:
        fs = self.fabric.state
        if fs.generation != self._structure_gen:
            self._rebuild_structure()
        route_key = (fs.route_generation, self._drain_epoch)
        if route_key != self._route_key:
            self._rebuild_routing()
            self._route_key = route_key

    def _rebuild_structure(self) -> None:
        """Row-aligned endpoint/capacity/length snapshots (per
        ``FabricState.generation``)."""
        fabric = self.fabric
        fs = fabric.state
        node_ids = sorted(set(fabric.switches) | set(fabric.hosts))
        self._node_ids = node_ids
        self._node_index = {node: i for i, node in enumerate(node_ids)}
        self.n_nodes = len(node_ids)
        n = fs.n_links
        self._row_u = np.empty(n, dtype=np.int64)
        self._row_v = np.empty(n, dtype=np.int64)
        self._caps = np.empty(n, dtype=np.float64)
        self._lengths = np.empty(n, dtype=np.float64)
        for row, link in enumerate(fs.links_by_row):
            a, b = link.endpoint_ids
            self._row_u[row] = self._node_index[a]
            self._row_v[row] = self._node_index[b]
            self._caps[row] = link.capacity_gbps
            self._lengths[row] = link.cable.length_m
        self._caps_ext = np.append(self._caps, np.inf)
        self._lengths_ext = np.append(self._lengths, 0.0)
        self._endpoint_nodes = np.array(
            [self._node_index[node] for node in self.endpoints],
            dtype=np.int64)
        self._structure_gen = fs.generation
        self._route_key = None
        #: Usable edge-set bytes -> (indptr, indices, class_of,
        #: class_interiors, node_distances); node ints are only
        #: meaningful within one structure generation, so a new
        #: generation starts empty.
        self._routing_memo: Dict[bytes, tuple] = {}
        #: (usable edge-set bytes, ``_best_rows`` bytes) -> shared
        #: member resolution; same scope and bound as the routing memo.
        self._resolution_memo: Dict[tuple, _Resolution] = {}

    def _rebuild_routing(self) -> None:
        """Usable mask, then adjacency, twin classes and path caches
        from the memo (per route_generation + drain epoch)."""
        fs = self.fabric.state
        n = fs.n_links
        usable = fs.state_code[:n] <= FLAPPING_CODE
        if self._drained:
            index_of = fs.index_of
            for link_id in self._drained:
                row = index_of.get(link_id)
                if row is not None:
                    usable[row] = False
        self._usable = usable
        # Simple usable adjacency as CSR over node ints; node ints are
        # assigned in sorted-id order, so ascending ints == the object
        # router's lexicographic neighbor order.
        u = self._row_u[:n][usable]
        v = self._row_v[:n][usable]
        heads = np.concatenate([u, v])
        tails = np.concatenate([v, u])
        edge_keys = np.unique(heads * self.n_nodes + tails)
        memo = self._routing_memo
        memo_key = edge_keys.tobytes()
        entry = memo.get(memo_key)
        if entry is None:
            entry = self._build_adjacency(edge_keys)
            if len(memo) >= ROUTING_MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[memo_key] = entry
        self._memo_key = memo_key
        (self._adj_indptr, self._adj_indices, self._class_of,
         self._class_interiors, self._node_distances) = entry
        self._reset_resolution()

    def _build_adjacency(self, edge_keys: np.ndarray) -> tuple:
        """CSR adjacency, twin classes and empty interiors and
        distance caches for one usable edge set (``head * n_nodes +
        tail``, sorted)."""
        heads = edge_keys // self.n_nodes
        tails = edge_keys % self.n_nodes
        counts = np.bincount(heads, minlength=self.n_nodes)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        # Twin classes: identical usable-neighbor sets.
        signatures: Dict[tuple, int] = {}
        class_of = np.empty(self.n_nodes, dtype=np.int64)
        for node in range(self.n_nodes):
            signature = tuple(tails[indptr[node]:indptr[node + 1]])
            class_of[node] = signatures.setdefault(
                signature, len(signatures))
        return indptr, tails, class_of, {}, {}

    def _reset_resolution(self) -> None:
        """Drop this engine's pointer to its member resolution (a shared
        one lives on in the memo) and its offered-pair log."""
        self._resolution: Optional[_Resolution] = None
        #: Endpoint pairs offered since the reset: a mask, plus each
        #: window's first offers (raw, unsorted), replayed by
        #: :meth:`_siblings_of`.
        self._seen_pairs = np.zeros(len(self.endpoints) ** 2,
                                    dtype=bool)
        self._first_offers: List[np.ndarray] = []
        self._row_siblings: Optional[Dict[int, set]] = None
        self._loss_snapshot = None
        self._best_keys = None

    def _check_loss_fresh(self) -> None:
        """Member choice depends on loss rates: on change, re-pick the
        best rows and the resolution shared under them."""
        fs = self.fabric.state
        loss = fs.loss_rate[:fs.n_links]
        if self._loss_snapshot is not None \
                and np.array_equal(loss, self._loss_snapshot):
            return
        self._reset_resolution()
        self._loss_snapshot = loss.copy()
        self._build_best_rows()
        # The adjacency fixes every pair's path interiors and the best
        # rows fix each hop's member row, so they key the resolution.
        memo = self._resolution_memo
        key = (self._memo_key, self._best_rows.tobytes())
        resolution = memo.get(key)
        if resolution is None:
            resolution = _Resolution(len(self.endpoints))
            self._assemble(resolution)
            if len(memo) >= ROUTING_MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = resolution
        self._resolution = resolution

    def _build_best_rows(self) -> None:
        """Per unordered node pair, the row ``links_on_path`` picks:
        least loss, insertion order breaking ties."""
        fs = self.fabric.state
        n = fs.n_links
        rows = np.nonzero(self._usable)[0]
        u, v = self._row_u[rows], self._row_v[rows]
        pair_keys = (np.minimum(u, v) * self.n_nodes
                     + np.maximum(u, v))
        order = np.lexsort((fs.lid_of_row[rows],
                            fs.loss_rate[:n][rows], pair_keys))
        sorted_keys = pair_keys[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        self._best_keys = sorted_keys[first]
        self._best_rows = rows[order][first]

    # -- path enumeration (shared lexicographic spec) -----------------------

    def _lex_paths(self, src: int, dst: int) -> List[List[int]]:
        """Shortest node-int paths, lexicographic, capped — the int
        twin of :func:`routing.lexicographic_shortest_paths`."""
        indptr, indices = self._adj_indptr, self._adj_indices
        dist_src = self._distances(src)
        total = dist_src[dst]
        if total < 0:
            return []
        dist_dst = self._distances(dst)
        paths: List[List[int]] = []
        stack = [src]
        cap = self.max_equal_paths

        def descend(node: int) -> bool:
            if node == dst:
                paths.append(list(stack))
                return len(paths) >= cap
            here = dist_src[node]
            for step in indices[indptr[node]:indptr[node + 1]]:
                if dist_src[step] == here + 1 \
                        and dist_dst[step] == total - here - 1:
                    stack.append(int(step))
                    if descend(int(step)):
                        return True
                    stack.pop()
            return False

        descend(src)
        return paths

    def _distances(self, origin: int) -> np.ndarray:
        """Hop counts from ``origin`` over the usable adjacency: one
        :meth:`_bfs` per (adjacency, node), kept in the routing-memo
        entry so forks share it and eviction drops it.  Read-only."""
        dist = self._node_distances.get(origin)
        if dist is None:
            dist = self._node_distances[origin] = self._bfs(origin)
        return dist

    def _bfs(self, origin: int) -> np.ndarray:
        dist = np.full(self.n_nodes, -1, dtype=np.int64)
        dist[origin] = 0
        frontier = np.array([origin], dtype=np.int64)
        depth = 0
        indptr, indices = self._adj_indptr, self._adj_indices
        while len(frontier):
            depth += 1
            steps = np.concatenate(
                [indices[indptr[node]:indptr[node + 1]]
                 for node in frontier])
            fresh = np.unique(steps[dist[steps] < 0])
            dist[fresh] = depth
            frontier = fresh
        return dist

    def _interiors(self, src: int, dst: int) -> Optional[np.ndarray]:
        """Path interiors for (class(src), class(dst)), as an (M, L)
        int matrix; ``None`` when no route exists."""
        key = (int(self._class_of[src]), int(self._class_of[dst]))
        if key in self._class_interiors:
            return self._class_interiors[key]
        paths = self._lex_paths(src, dst)
        if not paths:
            interiors = _NO_ROUTE
        else:
            interiors = np.array([path[1:-1] for path in paths],
                                 dtype=np.int64)
            if interiors.size == 0:
                interiors = interiors.reshape(len(paths), 0)
        self._class_interiors[key] = interiors
        return interiors

    def _node_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Node-pair keys (``src * n_nodes + dst``) of endpoint pairs."""
        n_endpoints = len(self.endpoints)
        return (self._endpoint_nodes[pairs // n_endpoints] * self.n_nodes
                + self._endpoint_nodes[pairs % n_endpoints])

    def _class_groups(self, keys: np.ndarray) -> List[np.ndarray]:
        """Positions of node-pair ``keys`` grouped by twin-class pair
        (self-pairs first), in ``keys`` order within a group."""
        src = keys // self.n_nodes
        dst = keys % self.n_nodes
        class_pairs = np.where(
            src == dst, -1,
            self._class_of[src] * (self._class_of.max() + 1)
            + self._class_of[dst])
        order = np.argsort(class_pairs, kind="stable")
        boundaries = np.nonzero(np.diff(class_pairs[order]))[0] + 1
        return np.split(order, boundaries)

    def _resolve_missing(self, pairs: np.ndarray) -> None:
        """Resolve unresolved endpoint pairs (unique) into the shared
        resolution: their ECMP member rows, grouped by twin-class pair
        so one vectorized substitution covers every member pair of a
        class."""
        keys = self._node_pairs(pairs)
        src = keys // self.n_nodes
        dst = keys % self.n_nodes
        for group in self._class_groups(keys):
            self._resolve_class_group(pairs[group], src[group],
                                      dst[group])
        self._assemble(self._resolution)

    def _resolve_class_group(self, pairs: np.ndarray, src: np.ndarray,
                             dst: np.ndarray) -> None:
        """Resolve every endpoint pair of one (src_class, dst_class)
        group; ``src``/``dst`` are their nodes."""
        resolution = self._resolution
        interiors = _NO_ROUTE
        if src[0] != dst[0]:
            interiors = self._interiors(int(src[0]), int(dst[0]))
        if interiors is _NO_ROUTE:
            resolution.slot_table[pairs] = 0
            return
        members, length = interiors.shape
        count = len(pairs)
        nodes = np.empty((count, members, length + 2), dtype=np.int64)
        nodes[:, :, 0] = src[:, None]
        if length:
            nodes[:, :, 1:-1] = interiors[None, :, :]
        nodes[:, :, -1] = dst[:, None]
        a, b = nodes[..., :-1], nodes[..., 1:]
        hop_keys = np.minimum(a, b) * self.n_nodes + np.maximum(a, b)
        positions = np.searchsorted(self._best_keys, hop_keys.ravel())
        hops = length + 1
        resolution.big_parts.append(
            self._best_rows[positions].reshape(count * members, hops))
        offset = resolution.big_count
        resolution.big_count += count * members
        slot = len(resolution.slot_offset)
        resolution.slot_table[pairs] = np.arange(slot, slot + count)
        resolution.slot_offset.extend(
            range(offset, offset + count * members, members))
        resolution.slot_members.extend([members] * count)
        resolution.slot_hops.extend([hops] * count)

    def _assemble(self, resolution: _Resolution) -> None:
        """Stack the member-row blocks, padded to a common width with
        the dummy row, and tabulate each member path's delay and
        bottleneck — hop by hop in the oracle's float order."""
        dummy = self.fabric.state.n_links
        parts = resolution.big_parts
        width = max([1] + [part.shape[1] for part in parts])
        big = np.full((resolution.big_count, width), dummy,
                      dtype=np.int64)
        hops = np.zeros(resolution.big_count, dtype=np.int64)
        cursor = 1
        for part in parts:
            big[cursor:cursor + len(part), :part.shape[1]] = part
            hops[cursor:cursor + len(part)] = part.shape[1]
            cursor += len(part)
        propagation = np.zeros(len(big))
        bottleneck = np.full(len(big), np.inf)
        for hop in range(width):
            propagation += self._lengths_ext[big[:, hop]]
            bottleneck = np.minimum(bottleneck,
                                    self._caps_ext[big[:, hop]])
        resolution.slot_arrays = (
            np.asarray(resolution.slot_offset, dtype=np.int64),
            np.maximum(resolution.slot_members, 1))
        resolution.big_rows = big
        resolution.path_delay = (propagation * PROPAGATION_S_PER_M
                                 + hops * self.params.switch_hop_seconds)
        resolution.path_rate = bottleneck * 1e9

    # -- the offered-window kernel ------------------------------------------

    def offer_window(self, src_index: np.ndarray, dst_index: np.ndarray,
                     sizes: np.ndarray, flow_ids: np.ndarray,
                     window_seconds: float) -> WindowResult:
        """Route and account one window of flows, vectorized.

        ``src_index``/``dst_index`` index :attr:`endpoints`;
        ``flow_ids`` double as ECMP flow hashes.  Returns per-flow FCTs
        and updates the cumulative utilization/loss columns.  Raises
        ``ValueError`` when the four flow columns differ in length or
        an endpoint index lies outside ``[0, len(endpoints))``.
        """
        if window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        count = len(sizes)
        if not len(src_index) == len(dst_index) == len(flow_ids) \
                == count:
            raise ValueError("src_index, dst_index, sizes and flow_ids "
                             "must have equal lengths")
        n_endpoints = len(self.endpoints)
        if count and (np.minimum(src_index, dst_index).min() < 0
                      or np.maximum(src_index, dst_index).max()
                      >= n_endpoints):
            raise ValueError(
                f"endpoint indices must lie in [0, {n_endpoints})")
        self._refresh()
        self._check_loss_fresh()
        fs = self.fabric.state
        n = fs.n_links
        resolution = self._resolution
        pairs = src_index * n_endpoints + dst_index
        slots = resolution.slot_table[pairs]
        unresolved = slots < 0
        if unresolved.any():
            self._resolve_missing(np.unique(pairs[unresolved]))
            slots = resolution.slot_table[pairs]
        seen = self._seen_pairs[pairs]
        if not seen.all():
            first_offers = pairs[~seen]
            self._seen_pairs[first_offers] = True
            self._first_offers.append(first_offers)
            self._row_siblings = None
        slot_offset, slot_divisor = resolution.slot_arrays
        routable = slots > 0
        # Unroutable flows (slot 0) gather the all-dummy path 0.
        paths = slot_offset[slots] + flow_ids % slot_divisor[slots]
        big = resolution.big_rows
        rows = np.take(big, paths, axis=0)

        # Offered bytes + flow counts, flow-major so bincount (which
        # adds weights in input order) performs the oracle's additions
        # in its order.
        width = rows.shape[1]
        flat = rows.ravel()
        offered = np.bincount(flat, weights=np.repeat(sizes, width),
                              minlength=n + 1)[:n]
        flow_counts = np.bincount(flat, minlength=n + 1)
        congestion = congestion_loss(offered, self._caps,
                                     window_seconds)
        loss = combined_loss(fs.loss_rate[:n], congestion)
        keep = 1.0 - np.append(loss, 0.0)

        # Path survival once per member path, hop by hop (the oracle's
        # per-flow float order; dummy pads multiply by exactly 1.0),
        # then gathered per flow.
        survival = np.ones(len(big))
        for hop in range(width):
            survival *= keep[big[:, hop]]
        path_loss = (1.0 - survival)[paths]
        base = resolution.path_delay[paths] \
            + sizes * 8 / resolution.path_rate[paths]

        fct = np.where(routable, base, np.nan)
        lossy = routable & (path_loss > 0.0)
        if lossy.any():
            packets = np.maximum(
                1, np.ceil(sizes[lossy] / MTU_BYTES).astype(np.int64))
            effective = np.minimum(path_loss[lossy], 0.5)
            retries = self.rng.negative_binomial(packets,
                                                 1.0 - effective)
            retries = np.minimum(
                retries, packets * self.params.max_retries_per_packet)
            fct[lossy] = base[lossy] + retries * \
                self.params.retransmission_timeout_seconds

        self.util_bytes.values[:n] += offered
        self.util_flows.values[:n] += flow_counts[:n]
        self.lost_bytes.values[:n] += offered * congestion
        self.last_offered = offered
        self.last_congestion = congestion
        self.last_window_seconds = window_seconds
        result = WindowResult(fct=fct, routable=routable,
                              offered=offered, congestion=congestion,
                              window_seconds=window_seconds)
        if self.obs.enabled:
            self.obs.count("dcrobot_traffic_flows_total", count)
            self.obs.count("dcrobot_traffic_unroutable_flows_total",
                           result.unroutable)
            self.obs.count("dcrobot_traffic_offered_bytes_total",
                           float(offered.sum()))
            self.obs.count(
                "dcrobot_traffic_congestion_lost_bytes_total",
                float((offered * congestion).sum()))
            if result.unroutable < count:
                self.obs.observe(
                    "dcrobot_traffic_window_p99_fct_seconds",
                    result.fct_percentile(99))
        return result

    # -- object-path views (tests, parity) ----------------------------------

    def equal_cost_paths(self, src_id: str, dst_id: str) -> List[List[str]]:
        """Node-id paths for one pair, reconstructed from the class
        cache — must match ``EcmpRouter.equal_cost_paths``."""
        self._refresh()
        src = self._node_index[src_id]
        dst = self._node_index[dst_id]
        if src == dst:
            return [[src_id]]
        interiors = self._interiors(src, dst)
        if interiors is _NO_ROUTE:
            return []
        ids = self._node_ids
        return [[src_id] + [ids[node] for node in row] + [dst_id]
                for row in interiors]

    # -- impact scoring (the congestion gate's question) --------------------

    def projected_group_utilization(self, link_id: str) -> float:
        """Utilization the link's ECMP sibling group would run at if
        this link were drained and its last-window bytes moved over.

        The group is the set of alternatives rehashing actually lands
        on: for every resolved flow pair, member paths align hop for
        hop, and the distinct links occupying the same hop position
        are the ECMP fan at that tier (a ToR's uplink group, an agg's
        core feeds).  Only those same-position links are siblings —
        links elsewhere on the paths *lose* traffic under a drain and
        must not dilute the projection.  Returns 0.0 for links no
        observed traffic used, and ``inf`` when traffic used the link
        but no sibling capacity exists.
        """
        self._refresh()
        fs = self.fabric.state
        row = fs.index_of.get(link_id)
        if row is None or self.last_offered is None \
                or row >= len(self.last_offered):
            return 0.0
        siblings = self._siblings_of(row)
        target_bytes = float(self.last_offered[row])
        if not siblings:
            return 0.0 if target_bytes == 0.0 else float("inf")
        sibling_rows = np.fromiter(siblings, dtype=np.int64)
        capacity_bytes = float(
            (self._caps[sibling_rows] * 1e9 / 8.0
             * self.last_window_seconds).sum())
        if capacity_bytes == 0.0:
            return float("inf")
        moved = float(self.last_offered[sibling_rows].sum()) \
            + target_bytes
        return moved / capacity_bytes

    def _offered_member_rows(self) -> Iterator[np.ndarray]:
        """The member-row matrix of every routable node pair offered
        since the last reset, in first-offered order: window by window,
        each window's new pairs in class-grouped order."""
        resolution = self._resolution
        for batch in self._first_offers:
            keys, first = np.unique(self._node_pairs(batch),
                                    return_index=True)
            pairs = batch[first]
            for group in self._class_groups(keys):
                for pair in pairs[group]:
                    slot = resolution.slot_table[pair]
                    members = resolution.slot_members[slot]
                    if members:
                        offset = resolution.slot_offset[slot]
                        yield resolution.big_rows[
                            offset:offset + members,
                            :resolution.slot_hops[slot]]

    def _siblings_of(self, row: int) -> set:
        if self._row_siblings is None:
            index: Dict[int, set] = {}
            for rows in self._offered_member_rows():
                for hop in range(rows.shape[1]):
                    fan = set(int(r) for r in np.unique(rows[:, hop]))
                    for member_row in fan:
                        index.setdefault(member_row, set()).update(fan)
            self._row_siblings = index
        siblings = set(self._row_siblings.get(row, ()))
        siblings.discard(row)
        return siblings
