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
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from dcrobot.network.inventory import Fabric
from dcrobot.network.link import Link
from dcrobot.network.state import DOWN_CODE, FLAPPING_CODE, MAINTENANCE_CODE
from dcrobot.obs import NULL_OBS
from dcrobot.telemetry.detectors import DetectorParams, LinkDetector
from dcrobot.telemetry.events import TelemetryEvent

Subscriber = Callable[[TelemetryEvent], None]
#: One detected event in, zero or more events out.
Interceptor = Callable[[TelemetryEvent], List[TelemetryEvent]]


class TelemetryMonitor:
    """Scans every link each poll interval and dispatches new symptoms."""

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
        #: link id -> time the mute was set (for TTL expiry).
        self._muted: Dict[str, float] = {}
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

    def unmute(self, link_id: str) -> None:
        """Re-arm detection for a link (repair attempt finished)."""
        self._muted.pop(link_id, None)

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

    def heartbeat_age(self, source_id: str,
                      now: float) -> Optional[float]:
        """Seconds since the source's last beat; None if never seen."""
        last = self._heartbeats.get(source_id)
        if last is None:
            return None
        return now - last

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
        """One full-fleet pass using the columnar state as a prefilter;
        returns (and dispatches) the new events.

        Bit-identical to ``monitor_poll`` in ``tests/oracles/sweeps.py``,
        which runs :meth:`_scan` over every link: the arrays select a
        *superset* of the links that pass would touch.  :meth:`_scan`
        does anything only for a link that ``check`` reports or whose
        ``_lossy_since`` entry it sets or clears, or a muted link whose
        TTL expires; ``check`` returns ``None`` for a MAINTENANCE link.
        So it suffices to select:

        * rows down past the grace period (``DOWN_CODE`` only);
        * non-MAINTENANCE rows with at least ``flap_transitions`` flap
          events in the window.  When the whole log holds fewer events
          in the window (two bisections), no row can, and the per-row
          counts are skipped;
        * carrying rows with elevated loss (``code <= FLAPPING_CODE``);
        * ids with pending ``_lossy_since`` bookkeeping;
        * muted ids whose TTL expires this poll.

        Every other link is provably a no-op in :meth:`_scan`.  Selected
        links then run :meth:`_scan` in ``fabric.links`` order, so
        events, mutes, observability, and deliveries are unchanged.
        """
        state = self.fabric.state
        n = state.n_links
        params = self.detector.params
        code = state.state_code[:n]
        candidate = (((code == DOWN_CODE)
                      & (now - state.down_since[:n]
                         >= params.down_grace_seconds))
                     | ((code <= FLAPPING_CODE)
                        & (state.loss_rate[:n] > params.loss_threshold)))
        window_start = now - params.flap_window_seconds
        if state.flap_events(window_start, now) >= params.flap_transitions:
            candidate |= ((code != MAINTENANCE_CODE)
                          & (state.flap_counts(window_start, now)
                             >= params.flap_transitions))
        for link_id in self.detector._lossy_since:
            row = state.index_of.get(link_id)
            if row is not None:
                candidate[row] = True
        if self.mute_ttl_seconds is not None:
            for link_id, muted_at in self._muted.items():
                if now - muted_at >= self.mute_ttl_seconds:
                    row = state.index_of.get(link_id)
                    if row is not None:
                        candidate[row] = True
        rows = state.rows_in_insertion_order(candidate.nonzero()[0])
        links_by_row = state.links_by_row
        return self._scan([links_by_row[row] for row in rows], now)

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
