"""Columnar fabric state: the numpy backbone of every per-link hot path.

The ROADMAP north star asks for a simulator that runs "as fast as the
hardware allows" on production-scale fabrics.  Python object graphs do
not: every periodic process (health ticks, dust and oxidation
accumulation, telemetry polling, availability accounting) used to walk
``fabric.links.values()`` attribute by attribute, which caps the world
at toy sizes.  :class:`FabricState` keeps the same facts as contiguous
numpy columns — one row per wired link — so those processes are
array kernels (`HealthModel.tick_all`, `DustProcess.step_all`,
`OxidationAging.step_all`, `TelemetryMonitor.poll_all`, the array path
in :func:`dcrobot.metrics.availability.link_availability`).  The
kernels, run through one :class:`~dcrobot.sim.batch.BatchTicker`, are
the only sweep path; the per-link loops they replaced survive as test
oracles in ``tests/oracles/sweeps.py``.

Design rules:

* **Objects stay the API.**  ``Link``/``Transceiver``/``Cable``/
  ``Port``/``EndFace`` remain what the controller, robots, humans,
  chaos, journal, and obs layers touch.  While a link is wired into a
  fabric its components are *bound* to a row here: sparse writes
  (a robot unseating a unit, the injector damaging a cable) mirror
  through property setters, and the three dense-kernel-written fields
  (``Link.loss_rate``, ``Transceiver.oxidation``, and a cable
  ``EndFace.contamination``, the per-core levels the dust kernel
  deposits on) read straight from the arrays.  Binding copies a
  face's cores into ``cable_end_cores`` and unbinding copies them
  back out.  Unbound objects (spares, receptacles, unit-test
  fixtures) behave exactly as before on plain attributes.
* **Dense rows, immortal lids.**  Rows are kept dense with
  swap-with-last removal so kernels slice ``[:n_links]`` without
  masks.  Each binding also gets a monotonically increasing *lid*
  (link insertion ordinal); sorting rows by lid reproduces
  ``fabric.links`` dict order, which is what keeps batched RNG draws
  stream-identical to the per-link loops.
* **Event-sourced flap log.**  ``set_state`` appends flap-qualifying
  transitions (the :func:`~dcrobot.network.enums.is_flap` rule) to a global
  time-sorted ``(time, lid)`` log.  A :class:`FlapWindow` slides along
  it and keeps per-lid counts over an open window, so a poll visits
  each event twice (when it enters, when it leaves), however long the
  event stays in the window.
* **A row-change feed.**  Every writer that moves a bound row's state
  code, down-since time or loss rate records the row
  (``on_transition``, the ``Link.loss_rate`` setter, the health
  kernel); a consumer asks :meth:`FabricState.row_changes` for the
  rows moved since its last call, or is told to rescan.  The
  telemetry poll and the safety monitor's orphan audit keep their row
  sets from it instead of re-deriving them from whole columns on every
  call.
* **Forks by copying.**  :meth:`FabricState.fork` snapshots the whole
  store with one ``ndarray.copy()`` per column and copies of the row
  maps, so a fork and its parent share no buffer and a dropped fork is
  freed with its last reference.  A fork is a pure *data* twin — the
  Link/Transceiver/... view objects stay bound to the parent, so a
  forked state is mutated column-wise (the digital-twin vocabulary in
  :mod:`dcrobot.twin.world`), never through the object setters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from dcrobot.network.enums import LinkState, is_flap

#: Dense integer codes for :class:`LinkState`; ``carries_traffic``
#: states come first so ``code <= FLAPPING_CODE`` tests carrier-ness.
STATE_OF = (LinkState.UP, LinkState.FLAPPING, LinkState.DOWN,
            LinkState.MAINTENANCE)
CODE_OF: Dict[LinkState, int] = {state: code
                                 for code, state in enumerate(STATE_OF)}
UP_CODE, FLAPPING_CODE, DOWN_CODE, MAINTENANCE_CODE = range(4)

_INITIAL_CAPACITY = 64
_FLAP_LOG_CAPACITY = 1024

#: (attribute, default, dtype, lead) for every managed column: its
#: shape is ``lead + (capacity,)``, so the row axis is always last.
#: ``(2,)`` columns are per side (index 0 = the "a" end);
#: ``cable_end_cores`` holds each bound cable end's per-core
#: contamination, (2, cores, capacity), and widens to the widest face
#: bound so far (:meth:`FabricState._bind_cable`).
_SPEC = (
    ("state_code", 0, np.int8, ()),
    ("loss_rate", 0.0, np.float64, ()),
    ("down_since", np.nan, np.float64, ()),
    ("last_change", 0.0, np.float64, ()),
    ("uptime_accum", 0.0, np.float64, ()),
    ("cable_damaged", False, np.bool_, ()),
    ("cleanable", False, np.bool_, ()),
    ("lid_of_row", 0, np.int64, ()),
    ("ox", 0.0, np.float64, (2,)),
    ("seated", True, np.bool_, (2,)),
    ("unit_hw_fault", False, np.bool_, (2,)),
    ("unit_fw_stuck", False, np.bool_, (2,)),
    ("port_hw_fault", False, np.bool_, (2,)),
    ("cable_attached", True, np.bool_, (2,)),
    ("cable_end_worst", 0.0, np.float64, (2,)),
    ("cable_end_scratched", False, np.bool_, (2,)),
    ("cable_end_cores", 0.0, np.float64, (2, 1)),
    ("recept_worst", 0.0, np.float64, (2,)),
)


#: Every array a fork copies: the managed columns plus the flap-event
#: log.
_ARRAY_ATTRS = tuple(name for name, _d, _t, _s in _SPEC) \
    + ("_flap_times", "_flap_lids")


class LinkColumn:
    """A consumer-owned per-link column that tracks fabric membership.

    Processes that need private per-link state (e.g. the health model's
    Gilbert-Elliott phase) register a column via
    :meth:`FabricState.add_link_column`; the state keeps ``values``
    row-aligned through link additions, removals, and capacity growth.
    A fork starts with none of its parent's columns: a consumer of the
    fork registers its own (as :meth:`TrafficState.fork
    <dcrobot.traffic.state.TrafficState.fork>` does).
    """

    __slots__ = ("values", "fill")

    def __init__(self, capacity: int, fill) -> None:
        self.fill = fill
        dtype = np.bool_ if isinstance(fill, bool) else np.float64
        self.values = np.full(capacity, fill, dtype=dtype)


class FabricState:
    """Struct-of-arrays store for every link wired into one fabric."""

    def __init__(self) -> None:
        self._capacity = _INITIAL_CAPACITY
        #: Number of live rows; every column is valid on ``[:n_links]``.
        self.n_links = 0
        #: Bumped on any structural change (bind/unbind/rebind) so
        #: consumers can invalidate row-aligned caches.
        self.generation = 0
        #: Bumped whenever the *routable* topology may have changed:
        #: every structural change plus any state transition that
        #: crosses the carries-traffic boundary.  Routing layers
        #: (:class:`dcrobot.traffic.state.TrafficState`) key their path
        #: caches on this instead of requiring manual ``invalidate()``
        #: calls after each transition.
        self.route_generation = 0
        self.next_lid = 0
        #: Bumped by every write of a health input (the fault-flag,
        #: oxidation and worst-dirt columns): the component setters and
        #: end-face mirrors, the aging kernel, the twin's column-wise
        #: repairs.  :class:`~dcrobot.failures.health.HealthModel` keys
        #: its cached score inputs on it, with ``generation`` (bumped by
        #: every structural change) and ``n_links``.
        self.input_writes = 0
        #: True while ``lid_of_row`` increases with the row, so
        #: ascending rows are already in insertion order.  Only
        #: :meth:`remove_link` of a non-last row clears it.
        self._lid_ordered = True
        #: Latest ``set_state`` timestamp ever mirrored — the guard the
        #: availability fast path uses before trusting the accumulators.
        self.last_transition_time = 0.0
        self.links_by_row: List = []
        self.index_of: Dict[str, int] = {}
        self._row_of_lid: List[int] = []
        for name, default, dtype, lead in _SPEC:
            setattr(self, name,
                    np.full(lead + (self._capacity,), default, dtype=dtype))
        self._columns: List[LinkColumn] = []
        self._flap_times = np.zeros(_FLAP_LOG_CAPACITY)
        self._flap_lids = np.zeros(_FLAP_LOG_CAPACITY, dtype=np.int64)
        self._flap_len = 0
        #: Out-of-order inserts into the flap log: each one shifts the
        #: positions a :class:`FlapWindow` holds.
        self._flap_inserts = 0
        #: The row-change log behind :meth:`row_changes`.
        self._row_log: List[int] = []

    def __repr__(self) -> str:
        return (f"<FabricState links={self.n_links} "
                f"capacity={self._capacity} gen={self.generation}>")

    # -- forking -------------------------------------------------------------

    def fork(self) -> "FabricState":
        """A data snapshot: private copies of every array and row map.

        The fork carries the parent's counters (``generation``,
        ``route_generation``, ``input_writes``, lids, flap log length)
        and copies of every column, the flap log, ``links_by_row``,
        ``index_of`` and the lid map, so a write on either side stays
        on that side and a dropped fork is freed with its last
        reference.  Consumer columns stay with the parent.  The
        row-change log is the fork's own: a consumer of either side
        never sees the other's writes, and the fork's first
        :meth:`row_changes` is a rescan.  The fork is a plain data
        twin: the bound view objects in ``links_by_row`` still point
        at the parent, so mutate a fork column-wise, never through
        object setters.
        """
        child = FabricState.__new__(FabricState)
        child._capacity = self._capacity
        child.n_links = self.n_links
        child.generation = self.generation
        child.route_generation = self.route_generation
        child.next_lid = self.next_lid
        child.input_writes = self.input_writes
        child._lid_ordered = self._lid_ordered
        child.last_transition_time = self.last_transition_time
        child._flap_len = self._flap_len
        child._flap_inserts = self._flap_inserts
        child._row_log = []
        child.links_by_row = list(self.links_by_row)
        child.index_of = dict(self.index_of)
        child._row_of_lid = list(self._row_of_lid)
        child._columns = []
        for name in _ARRAY_ATTRS:
            setattr(child, name, getattr(self, name).copy())
        return child

    # -- capacity ------------------------------------------------------------

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        n = self.n_links
        for name, default, dtype, _lead in _SPEC:
            old = getattr(self, name)
            fresh = np.full(old.shape[:-1] + (new_capacity,), default,
                            dtype=dtype)
            fresh[..., :n] = old[..., :n]
            setattr(self, name, fresh)
        for column in self._columns:
            fresh = np.full(new_capacity, column.fill,
                            dtype=column.values.dtype)
            fresh[:n] = column.values[:n]
            column.values = fresh
        self._capacity = new_capacity

    def _reset_row(self, row: int) -> None:
        for name, default, _dtype, _lead in _SPEC:
            getattr(self, name)[..., row] = default
        for column in self._columns:
            column.values[row] = column.fill

    def _copy_row(self, src: int, dst: int) -> None:
        for name, _default, _dtype, _lead in _SPEC:
            array = getattr(self, name)
            array[..., dst] = array[..., src]
        for column in self._columns:
            column.values[dst] = column.values[src]

    def add_link_column(self, fill) -> LinkColumn:
        """Register a consumer column initialized to ``fill``."""
        column = LinkColumn(self._capacity, fill)
        self._columns.append(column)
        return column

    # -- binding -------------------------------------------------------------

    def add_link(self, link) -> int:
        """Bind a link (and its components) to a fresh dense row."""
        if link.id in self.index_of:
            raise ValueError(f"link {link.id} already bound")
        if link._fs is not None:
            raise ValueError(f"link {link.id} bound to another fabric")
        if self.n_links == self._capacity:
            self._grow()
        row = self.n_links
        self.n_links += 1
        self.links_by_row.append(link)
        self.index_of[link.id] = row
        self._reset_row(row)
        lid = self.next_lid
        self.next_lid += 1
        self.lid_of_row[row] = lid
        self._row_of_lid.append(row)

        self.state_code[row] = CODE_OF[link._state]
        self.loss_rate[row] = link._loss_rate
        self._replay_history(row, lid, link)
        link._fs = self
        link._row = row
        self._bind_unit(row, 0, link.transceiver_a)
        self._bind_unit(row, 1, link.transceiver_b)
        self._bind_cable(row, link.cable)
        self._bind_port(row, 0, link.port_a)
        self._bind_port(row, 1, link.port_b)
        self.generation += 1
        self.route_generation += 1
        return row

    def _replay_history(self, row: int, lid: int, link) -> None:
        """Derive the timeline accumulators from any pre-bind history.

        Freshly wired links (the normal case) have empty histories and
        fall straight through with the assumed-UP-since-zero defaults.
        """
        state = LinkState.UP
        cursor = 0.0
        uptime = 0.0
        down_at = np.nan
        for when, new_state in link.history:
            if state.carries_traffic:
                uptime += when - cursor
            cursor = when
            if is_flap(state, new_state):
                self._log_flap(when, lid)
            down_at = when if new_state is LinkState.DOWN else np.nan
            state = new_state
            if when > self.last_transition_time:
                self.last_transition_time = when
        self.uptime_accum[row] = uptime
        self.last_change[row] = cursor
        self.down_since[row] = down_at

    def _bind_unit(self, row: int, side: int, unit) -> None:
        if unit._fs is not None:
            raise ValueError(f"transceiver {unit.id} already bound")
        self.ox[side, row] = unit._oxidation
        self.seated[side, row] = unit._seated
        self.unit_hw_fault[side, row] = unit._hw_fault
        self.unit_fw_stuck[side, row] = unit._firmware_stuck
        unit._fs = self
        unit._row = row
        unit._side = side
        receptacle = unit.receptacle
        if receptacle is not None:
            receptacle._mirror = (self, "recept", side)
            receptacle._row = row
            receptacle._push_mirror()

    def _unbind_unit(self, row: int, side: int, unit) -> None:
        unit._oxidation = float(self.ox[side, row])
        unit._fs = None
        unit._row = -1
        if unit.receptacle is not None:
            unit.receptacle._mirror = None
            unit.receptacle._row = -1

    def _bind_cable(self, row: int, cable) -> None:
        """Bind a cable whose row's end-face cores are all zero, copying
        each face's cores in (the face reads them here from now on)."""
        self.cable_damaged[row] = cable._damaged
        self.cable_attached[0, row] = cable._attached_a
        self.cable_attached[1, row] = cable._attached_b
        self.cleanable[row] = cable.kind.is_separable
        cable._fs = self
        cable._row = row
        for side, end in enumerate((cable.end_a, cable.end_b)):
            if end is not None:
                cores = end.core_count
                if cores > self.cable_end_cores.shape[1]:
                    wider = np.zeros((2, cores, self._capacity))
                    wider[:, :self.cable_end_cores.shape[1]] = \
                        self.cable_end_cores
                    self.cable_end_cores = wider
                self.cable_end_cores[side, :cores, row] = \
                    end._contamination
                end._contamination = None
                end._mirror = (self, "cable", side)
                end._row = row
                end._push_mirror()

    def _unbind_cable(self, cable) -> None:
        """Copy each face's cores back out and unbind the cable."""
        cable._fs = None
        cable._row = -1
        for end in (cable.end_a, cable.end_b):
            if end is not None:
                end._contamination = end.contamination.copy()
                end._mirror = None
                end._row = -1

    def _bind_port(self, row: int, side: int, port) -> None:
        self.port_hw_fault[side, row] = port._hw_fault
        port._fs = self
        port._row = row
        port._side = side

    def remove_link(self, link) -> None:
        """Unbind a link, restoring plain-attribute behaviour, and keep
        the rows dense by swapping the last row into the freed slot."""
        if link.id not in self.index_of:
            raise KeyError(f"link {link.id} not bound")
        row = self.index_of.pop(link.id)
        removed_lid = int(self.lid_of_row[row])
        link._loss_rate = float(self.loss_rate[row])
        link._fs = None
        link._row = -1
        self._unbind_unit(row, 0, link.transceiver_a)
        self._unbind_unit(row, 1, link.transceiver_b)
        self._unbind_cable(link.cable)
        for port in (link.port_a, link.port_b):
            port._fs = None
            port._row = -1
        last = self.n_links - 1
        if row != last:
            self._lid_ordered = False
            moved = self.links_by_row[last]
            self.links_by_row[row] = moved
            self._copy_row(last, row)
            self._row_of_lid[int(self.lid_of_row[row])] = row
            self.index_of[moved.id] = row
            self._point_row(moved, row)
        self.links_by_row.pop()
        self._row_of_lid[removed_lid] = -1
        self.n_links = last
        self.generation += 1
        self.route_generation += 1

    def _point_row(self, link, row: int) -> None:
        """Re-aim a moved link and all its bound components at ``row``."""
        link._row = row
        for unit in (link.transceiver_a, link.transceiver_b):
            unit._row = row
            if unit.receptacle is not None:
                unit.receptacle._row = row
        link.cable._row = row
        for end in (link.cable.end_a, link.cable.end_b):
            if end is not None:
                end._row = row
        for port in (link.port_a, link.port_b):
            port._row = row

    # -- component replacement (repairs) -------------------------------------

    def rebind_transceiver(self, link, side: str, old, new) -> None:
        """Swap the bound unit on one side (replacement repair)."""
        row = link._row
        side_index = 0 if side == "a" else 1
        self._unbind_unit(row, side_index, old)
        self.recept_worst[side_index, row] = 0.0
        self._bind_unit(row, side_index, new)
        self.generation += 1
        self.route_generation += 1

    def rebind_cable(self, link, old, new) -> None:
        """Swap the bound cable (replacement repair)."""
        row = link._row
        self._unbind_cable(old)
        self.cable_end_worst[:, row] = 0.0
        self.cable_end_scratched[:, row] = False
        self.cable_end_cores[..., row] = 0.0
        self._bind_cable(row, new)
        self.generation += 1
        self.route_generation += 1

    # -- the state timeline ---------------------------------------------------

    def on_transition(self, row: int, now: float, old_state: LinkState,
                      new_state: LinkState, flapped: bool) -> None:
        """Mirror one ``Link.set_state`` transition into the columns.

        The uptime accumulator adds the exact ``now - last_change``
        float terms, in the exact order, that the legacy per-link
        ``uptime_fraction(0, end)`` walk sums — which is what makes the
        availability fast path bit-identical.
        """
        if old_state.carries_traffic != new_state.carries_traffic:
            self.route_generation += 1
        if old_state.carries_traffic:
            self.uptime_accum[row] += now - self.last_change[row]
        self.last_change[row] = now
        self.down_since[row] = now if new_state is LinkState.DOWN else np.nan
        if now > self.last_transition_time:
            self.last_transition_time = now
        if flapped:
            self._log_flap(now, int(self.lid_of_row[row]))
        self.note_row(row)

    # -- the row-change feed --------------------------------------------------

    def note_row(self, row: int) -> None:
        """Record that ``row``'s state code, down-since time or loss
        rate moved (see :meth:`row_changes`)."""
        log = self._row_log
        log.append(row)
        if len(log) > self.n_links:
            self._row_log = []

    def note_all_rows(self) -> None:
        """Record a write of every row: each consumer's next
        :meth:`row_changes` is a rescan."""
        self._row_log = []

    def row_changes(self, cursor: Optional[tuple]
                    ) -> Tuple[Optional[List[int]], tuple]:
        """The rows moved since ``cursor``, and the cursor to pass next.

        The rows (with repeats, in write order) are every row whose
        state code, down-since time or loss rate moved since the call
        that returned ``cursor``: by :meth:`on_transition` (every bound
        ``Link.set_state``), the ``Link.loss_rate`` setter, the health
        kernel on one row, and its live pass where it moved a loss.  A
        writer may also report a row it rewrote to the same values
        (the setter and the one-row kernel do); a consumer re-tests a
        reported row, so that costs only the re-test.  ``None``
        instead asks the consumer to rescan every row: on its first
        call (``cursor=None``), after a structural change, after
        :meth:`note_all_rows` (the health kernel's full pass), and once
        the log has outgrown ``n_links`` entries.  A rescan costs one
        vector pass, so that bound keeps the log no longer than the
        rescan it stands in for.  The cursor is opaque.
        """
        log = self._row_log
        if cursor is not None and cursor[0] is log \
                and cursor[1] == self.generation:
            rows = log[cursor[2]:]
        else:
            rows = None
        return rows, (log, self.generation, len(log))

    # -- flap-event log -------------------------------------------------------

    def _log_flap(self, when: float, lid: int) -> None:
        m = self._flap_len
        if m == len(self._flap_times):
            self._flap_times = np.concatenate(
                [self._flap_times, np.zeros(m)])
            self._flap_lids = np.concatenate(
                [self._flap_lids, np.zeros(m, dtype=np.int64)])
        if m and when < self._flap_times[m - 1]:
            # Out-of-order timestamps only happen when tests drive
            # set_state with hand-written clocks; insert-sorted keeps
            # the log a valid window source regardless, and the count
            # tells each FlapWindow that its positions shifted.
            pos = int(np.searchsorted(self._flap_times[:m], when,
                                      side="right"))
            self._flap_times[pos + 1:m + 1] = self._flap_times[pos:m].copy()
            self._flap_lids[pos + 1:m + 1] = self._flap_lids[pos:m].copy()
            self._flap_times[pos] = when
            self._flap_lids[pos] = lid
            self._flap_inserts += 1
        else:
            self._flap_times[m] = when
            self._flap_lids[m] = lid
        self._flap_len = m + 1

    # -- ordering helpers ------------------------------------------------------

    def rows_in_insertion_order(self, rows):
        """Sort an ascending row subset (``np.nonzero`` output or a
        sorted list) into ``fabric.links`` dict order (by lid).

        Batched RNG consumption must happen in this order to stay
        stream-identical with the legacy per-link loops.  Until a
        :meth:`remove_link` swaps a later row into a freed slot, lids
        increase with the row and ascending rows are returned as is.
        """
        if self._lid_ordered or len(rows) < 2:
            return rows
        rows = np.asarray(rows)
        return rows[self.lid_of_row[rows].argsort(kind="stable")]


class FlapWindow:
    """Per-lid flap counts over the open window ``(now - width, now)``,
    slid along one state's flap log.

    The same strict bounds as
    :meth:`dcrobot.network.link.Link.transitions_in_window`: at
    :meth:`advance` an event enters once ``t < now`` and leaves once
    ``t <= now - width``, so an event at ``t == now`` enters at the
    next call.  Each event is visited twice however many calls it
    spans, and its time is read at most twice: the window caches the
    time of the next event to enter and of the next to leave.  Log
    growth keeps event positions; an out-of-order insert (counted by
    ``_log_flap``) or a clock that went backwards rebuilds the counts
    from a bisection of the log.
    """

    __slots__ = ("state", "width", "threshold", "counts", "busy",
                 "_now", "_inserts", "_lo", "_hi", "_enter_at",
                 "_leave_at")

    def __init__(self, state: FabricState, width: float,
                 threshold: int) -> None:
        self.state = state
        self.width = width
        self.threshold = threshold
        #: lid -> events in the window (absent at zero).
        self.counts: Dict[int, int] = {}
        #: The lids with at least ``threshold`` events in the window.
        self.busy: Set[int] = set()
        self._now: Optional[float] = None
        self._inserts = 0
        #: Log positions ``[lo, hi)`` of the events in the window.
        self._lo = self._hi = 0
        #: The times at ``hi`` and ``lo``, once read (None: unread).
        self._enter_at = self._leave_at = None

    def advance(self, now: float) -> List[int]:
        """Slide the window to end at ``now``; returns the rows of
        the bound links with at least ``threshold`` events in it."""
        state = self.state
        if self._now is None or now < self._now \
                or self._inserts != state._flap_inserts:
            self._rebuild(now)
        else:
            self._slide(now)
        self._now = now
        if not self.busy:
            return []
        row_of_lid = state._row_of_lid
        return [row for row in map(row_of_lid.__getitem__, self.busy)
                if row >= 0]

    def _slide(self, now: float) -> None:
        state = self.state
        times, lids = state._flap_times, state._flap_lids
        counts, busy, threshold = self.counts, self.busy, self.threshold
        end = state._flap_len
        hi = self._hi
        if hi < end:
            at = self._enter_at
            if at is None:
                at = times[hi]
            while at < now:
                lid = int(lids[hi])
                count = counts.get(lid, 0) + 1
                counts[lid] = count
                if count == threshold:
                    busy.add(lid)
                hi += 1
                if hi == end:
                    at = None
                    break
                at = times[hi]
            self._hi, self._enter_at = hi, at
        lo = self._lo
        if lo < hi:
            at = self._leave_at
            if at is None:
                at = times[lo]
            start = now - self.width
            while at <= start:
                lid = int(lids[lo])
                count = counts[lid] - 1
                if count:
                    counts[lid] = count
                else:
                    del counts[lid]
                if count == threshold - 1:
                    busy.discard(lid)
                lo += 1
                if lo == hi:
                    at = None
                    break
                at = times[lo]
            self._lo, self._leave_at = lo, at

    def _rebuild(self, now: float) -> None:
        state = self.state
        times = state._flap_times[:state._flap_len]
        hi = int(times.searchsorted(now, side="left"))
        lo = min(hi, int(times.searchsorted(now - self.width,
                                            side="right")))
        counts: Dict[int, int] = {}
        for lid in state._flap_lids[lo:hi].tolist():
            counts[lid] = counts.get(lid, 0) + 1
        self.counts = counts
        self.busy = {lid for lid, count in counts.items()
                     if count >= self.threshold}
        self._lo, self._hi = lo, hi
        self._enter_at = self._leave_at = None
        self._inserts = state._flap_inserts
