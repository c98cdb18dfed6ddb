"""Coalesced periodic ticking for the fleet-wide batch kernels.

At hall scale one process per periodic sweep (health, telemetry, dust,
aging) would dominate the event heap: four generator resumes plus four
heap pushes per shared boundary, every boundary, forever.
:class:`BatchTicker` runs them all in *one* process that wakes at the
earliest due boundary and runs every due callback — one heap event per
distinct time, however many cadences share it.  It is how every world
runs its periodic sweeps.

Equivalence with the one-process-per-cadence layout is deliberate and
exact: due callbacks fire ordered by ``(last fire time, registration
index)``, which reproduces the engine's FIFO tie-break for separate
processes (a process that last ran earlier enqueued its next timeout
earlier, so it resumes earlier at the shared boundary), and the next
wake-up is scheduled only after the due callbacks have run, just as
each separate process schedules its next timeout after its tick.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, List, Optional

from dcrobot.sim.engine import Simulation

_NEXT_AT = attrgetter("next_at")
_DUE_ORDER = attrgetter("last_fired", "index")


class _Entry:
    """One registered periodic callback."""

    __slots__ = ("callback", "period", "next_at", "last_fired", "index")

    def __init__(self, callback: Callable[[float], None], period: float,
                 next_at: float, last_fired: float, index: int) -> None:
        self.callback = callback
        self.period = period
        self.next_at = next_at
        #: Time this entry last fired (registration time before the
        #: first fire) — the primary key of the due-order sort.
        self.last_fired = last_fired
        self.index = index


class BatchTicker:
    """One simulation process multiplexing every periodic batch kernel."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._entries: List[_Entry] = []

    def __repr__(self) -> str:
        return f"<BatchTicker entries={len(self._entries)}>"

    def add(self, callback: Callable[[float], None], period: float,
            first_at: Optional[float] = None) -> None:
        """Register ``callback(now)`` every ``period`` seconds.

        ``first_at`` defaults to one full period from now; pass
        ``sim.now`` for a callback that must run immediately on start
        (the health model's tick-then-sleep loop).
        """
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        now = self.sim.now
        if first_at is None:
            first_at = now + period
        if first_at < now:
            raise ValueError(f"first_at={first_at} lies in the past")
        self._entries.append(_Entry(callback, period, first_at, now,
                                    len(self._entries)))

    def run(self, sim: Simulation):
        """Generator process: wake at each due boundary, fire, repeat."""
        if sim is not self.sim:
            raise ValueError("ticker bound to a different simulation")
        entries = self._entries
        while entries:
            # attrgetter keys: no Python-level call per entry.
            next_time = min(map(_NEXT_AT, entries))
            if next_time > sim.now:
                yield sim.timeout(next_time - sim.now)
            now = sim.now
            # <= rather than == so a non-integer period whose boundary
            # lands an ulp early can never strand its entry in the past.
            due = [entry for entry in entries if entry.next_at <= now]
            due.sort(key=_DUE_ORDER)
            for entry in due:
                entry.next_at = now + entry.period
                entry.last_fired = now
            for entry in due:
                entry.callback(now)
