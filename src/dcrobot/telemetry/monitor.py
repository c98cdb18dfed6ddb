"""The telemetry monitor: periodic fleet poll feeding subscribers.

Subscribers are callables (typically the maintenance controller's
``on_event``) invoked with each new :class:`TelemetryEvent`.  Per-link
cooldown suppresses re-reporting the same symptom while it is being
handled; the controller re-arms the link when a repair attempt
completes, so persistent problems re-fire and escalate.

Two hardening hooks sit between detection and delivery:

* **Interceptors** — each maps one detected event to zero or more
  delivered events.  The chaos layer uses this to model telemetry
  dropout, duplication, and corruption without touching the detectors.
* **Mute TTL** — with ``mute_ttl_seconds`` set, a muted link re-arms by
  itself after the TTL.  A report whose delivery was lost (or whose
  handler died) is then merely late, not lost forever.

The poll pays per changed row, not per link: it keeps the rows its
down and loss predicates hold for from the fabric state's row-change
feed, counts flaps with a sliding window over the flap log, and walks
the mute table only once the earliest TTL can have come due (see
:meth:`TelemetryMonitor.poll_all`).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from dcrobot.network.inventory import Fabric
from dcrobot.network.link import Link
from dcrobot.network.state import (
    DOWN_CODE,
    FLAPPING_CODE,
    MAINTENANCE_CODE,
    FlapWindow,
)
from dcrobot.obs import NULL_OBS
from dcrobot.telemetry.detectors import DetectorParams, LinkDetector
from dcrobot.telemetry.events import TelemetryEvent

Subscriber = Callable[[TelemetryEvent], None]
#: One detected event in, zero or more events out.
Interceptor = Callable[[TelemetryEvent], List[TelemetryEvent]]


class TelemetryMonitor:
    """Polls the fleet each interval and dispatches new symptoms."""

    def __init__(self, fabric: Fabric,
                 params: Optional[DetectorParams] = None,
                 poll_seconds: float = 60.0,
                 mute_ttl_seconds: Optional[float] = None,
                 obs=NULL_OBS) -> None:
        if poll_seconds <= 0:
            raise ValueError(f"poll_seconds must be > 0, got {poll_seconds}")
        if mute_ttl_seconds is not None and mute_ttl_seconds <= 0:
            raise ValueError("mute_ttl_seconds must be > 0 when set")
        self.fabric = fabric
        self.detector = LinkDetector(params)
        self.poll_seconds = poll_seconds
        self.mute_ttl_seconds = mute_ttl_seconds
        self.subscribers: List[Subscriber] = []
        self.interceptors: List[Interceptor] = []
        self.events: List[TelemetryEvent] = []
        self.obs = obs if obs is not None else NULL_OBS
        #: link id -> time the mute was set (for TTL expiry).  Written
        #: only by :meth:`mute` and :meth:`unmute`; read it through
        #: :meth:`muted_links`.
        self._muted: Dict[str, float] = {}
        #: A lower bound on the times in ``_muted``, so no mute expires
        #: before ``now - _mute_floor >= mute_ttl_seconds``: the poll
        #: walks the table only from then on.  :meth:`mute` lowers it,
        #: and a walk resets it to the earliest time left.
        self._mute_floor = math.inf
        #: The state's row-change cursor, and the *watch set*: each row
        #: that is DOWN (mapped to its down-since time) or carrying with
        #: loss above the threshold (mapped to -inf), per the feed.
        self._cursor = None
        self._watch: Dict[int, float] = {}
        params = self.detector.params
        self._flaps = FlapWindow(fabric.state, params.flap_window_seconds,
                                 params.flap_transitions)
        #: heartbeat source id -> last beat time.  Robot units (and any
        #: other liveness-reporting component) check in here; the fleet
        #: watchdog asks for stale sources, so a dead or wedged unit is
        #: *detected* from silence rather than assumed alive.
        self._heartbeats: Dict[str, float] = {}

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register a callback for every newly detected symptom."""
        self.subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Drop a callback (a dead controller must stop hearing)."""
        if subscriber in self.subscribers:
            self.subscribers.remove(subscriber)

    def add_interceptor(self, interceptor: Interceptor) -> None:
        """Install a delivery-path transform (chaos injection point)."""
        self.interceptors.append(interceptor)

    # -- muting (handled-symptom suppression) --------------------------------

    def mute(self, link_id: str, now: float = 0.0) -> None:
        """Stop reporting a link (a repair is in flight)."""
        self._muted[link_id] = now
        if now < self._mute_floor:
            self._mute_floor = now

    def unmute(self, link_id: str) -> None:
        """Re-arm detection for a link (repair attempt finished)."""
        self._muted.pop(link_id, None)

    def muted_links(self) -> List[str]:
        """The ids of every muted link, in the order they were muted."""
        return list(self._muted)

    def is_muted(self, link_id: str, now: Optional[float] = None) -> bool:
        muted_at = self._muted.get(link_id)
        if muted_at is None:
            return False
        if (self.mute_ttl_seconds is not None and now is not None
                and now - muted_at >= self.mute_ttl_seconds):
            self.unmute(link_id)
            return False
        return True

    # -- heartbeats (liveness of the maintainers themselves) -------------------

    def record_heartbeat(self, source_id: str, now: float) -> None:
        """A component reports itself alive at ``now``."""
        self._heartbeats[source_id] = now

    def stale_sources(self, now: float, timeout: float) -> List[str]:
        """Registered sources silent for at least ``timeout`` seconds
        (sorted by id for deterministic watchdog iteration)."""
        return sorted(source_id
                      for source_id, last in self._heartbeats.items()
                      if now - last >= timeout)

    # -- scanning -------------------------------------------------------------

    def _deliveries(self, event: TelemetryEvent) -> List[TelemetryEvent]:
        """Run the interceptor chain over one detected event."""
        pending = [event]
        for interceptor in self.interceptors:
            emitted: List[TelemetryEvent] = []
            for item in pending:
                emitted.extend(interceptor(item))
            pending = emitted
        return pending

    def poll_all(self, now: float) -> List[TelemetryEvent]:
        """One fleet poll over the rows that can report; returns (and
        dispatches) the new events.

        Bit-identical to ``monitor_poll`` in ``tests/oracles/sweeps.py``,
        which runs :meth:`_scan` over every link: this poll selects a
        *superset* of the links that pass would touch.  :meth:`_scan`
        does anything only for a link that ``check`` reports or whose
        ``_lossy_since`` entry it sets or clears, or a muted link whose
        TTL expires; ``check`` returns ``None`` for a MAINTENANCE link.
        So it suffices to select:

        * watched DOWN rows past the grace period;
        * watched carrying rows with loss above the threshold;
        * non-MAINTENANCE rows with at least ``flap_transitions`` flap
          events in the window, from the sliding :class:`FlapWindow`;
        * ids with pending ``_lossy_since`` bookkeeping;
        * muted ids whose TTL expires this poll, walked for only once
          the earliest mute can have expired.

        The watch set holds every row that is DOWN or carrying with
        loss above the threshold.  It stays exact because the state's
        row-change feed reports every row whose code, down-since time
        or loss moved since the last poll; those rows alone are
        re-tested, and a rescan (a structural change, a full health
        pass, an overgrown log) rebuilds the set in one vector pass.
        Every other link is provably a no-op in :meth:`_scan`.
        Selected links then run :meth:`_scan` in ``fabric.links``
        order, so events, mutes, observability, and deliveries are
        unchanged.
        """
        state = self.fabric.state
        params = self.detector.params
        rows, self._cursor = state.row_changes(self._cursor)
        if rows is None:
            self._rewatch(state, params.loss_threshold)
        elif rows:
            self._retest(state, rows, params.loss_threshold)
        grace = params.down_grace_seconds
        selected = [row for row, since in self._watch.items()
                    if now - since >= grace]
        flapping = self._flaps.advance(now)
        if flapping:
            codes = state.state_code
            selected.extend(row for row in flapping
                            if codes[row] != MAINTENANCE_CODE)
        index_of = state.index_of
        for link_id in self.detector._lossy_since:
            row = index_of.get(link_id)
            if row is not None:
                selected.append(row)
        ttl = self.mute_ttl_seconds
        walk = ttl is not None and now - self._mute_floor >= ttl
        if walk:
            for link_id, muted_at in self._muted.items():
                if now - muted_at >= ttl:
                    row = index_of.get(link_id)
                    if row is not None:
                        selected.append(row)
        if not selected:
            events = []
        else:
            links_by_row = state.links_by_row
            events = self._scan(
                [links_by_row[row] for row in
                 state.rows_in_insertion_order(sorted(set(selected)))],
                now)
        if walk:
            self._mute_floor = min(self._muted.values(), default=math.inf)
        return events

    def _rewatch(self, state, threshold: float) -> None:
        """Rebuild the watch set from the columns (one vector pass)."""
        n = state.n_links
        code = state.state_code[:n]
        down = code == DOWN_CODE
        rows = (down | ((code <= FLAPPING_CODE)
                        & (state.loss_rate[:n] > threshold))).nonzero()[0]
        since = np.where(down[rows], state.down_since[:n][rows], -np.inf)
        self._watch = dict(zip(rows.tolist(), since.tolist()))

    def _retest(self, state, rows: List[int], threshold: float) -> None:
        """Re-test the rows the feed reported against the predicates."""
        watch = self._watch
        codes = state.state_code
        for row in set(rows):
            code = codes[row]
            if code == DOWN_CODE:
                watch[row] = float(state.down_since[row])
            elif code <= FLAPPING_CODE and state.loss_rate[row] > threshold:
                watch[row] = -math.inf
            else:
                watch.pop(row, None)

    def _scan(self, links: Iterable[Link],
              now: float) -> List[TelemetryEvent]:
        """Detect, mute, trace, and deliver over ``links`` in order."""
        new_events = []
        for link in links:
            if self.is_muted(link.id, now):
                continue
            event = self.detector.check(link, now)
            if event is None:
                continue
            self.mute(link.id, now)  # one report per incident until re-armed
            self.events.append(event)
            if self.obs.enabled:
                self.obs.tracer.record("detect", link_id=link.id,
                                       symptom=event.symptom.value)
                self.obs.count("dcrobot_telemetry_events_total",
                               symptom=event.symptom.value)
                self.obs.gauge("dcrobot_muted_links",
                               len(self._muted))
            for delivered in self._deliveries(event):
                new_events.append(delivered)
                for subscriber in self.subscribers:
                    subscriber(delivered)
        return new_events
