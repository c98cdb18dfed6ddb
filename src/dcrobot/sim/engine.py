"""The simulation engine: event heap, clock, and run loop."""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable, Generator, List, Optional, Tuple, Union

from dcrobot.sim.errors import SimulationError, StopSimulation
from dcrobot.sim.events import NORMAL, Condition, Event, Timeout, all_of, any_of
from dcrobot.sim.process import Process


class Simulation:
    """A discrete-event simulation.

    Time is a float in user-chosen units; throughout ``dcrobot`` the
    convention is **seconds**.  Typical usage::

        sim = Simulation()

        def worker(sim):
            yield sim.timeout(5.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 5.0 and proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now: float = float(start_time)
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._active_process: Optional[Process] = None
        #: Observers invoked with ``now`` after every processed event
        #: (see :meth:`add_step_hook`); empty in normal operation.
        self._step_hooks: List[Callable[[float], None]] = []
        #: Optional step recorder (duck typed: anything with
        #: ``record_event``/``record_callback``), e.g. the perf
        #: ledger's tracer.  ``None`` keeps the hot path
        #: branch-predictable and free.
        self.profiler = None

    def __repr__(self) -> str:
        return f"<Simulation now={self.now} pending={len(self._heap)}>"

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event, triggered manually via succeed()/fail()."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, object, object]) -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator)

    def all_of(self, events) -> Condition:
        """Composite event firing when every event in ``events`` succeeds."""
        return all_of(self, events)

    def any_of(self, events) -> Condition:
        """Composite event firing when any event in ``events`` succeeds."""
        return any_of(self, events)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- step hooks ----------------------------------------------------------

    def add_step_hook(self, hook: Callable[[float], None]) -> None:
        """Register an observer called with ``now`` after every step.

        This is the attachment point for runtime invariant checkers
        (e.g. the chaos safety monitor): they see the world after each
        state change, not just at their own polling cadence.  Hooks must
        not schedule events or mutate simulation state.
        """
        self._step_hooks.append(hook)

    def remove_step_hook(self, hook: Callable[[float], None]) -> None:
        """Unregister a hook added with :meth:`add_step_hook`."""
        self._step_hooks.remove(hook)

    # -- scheduling ----------------------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Put a triggered event on the heap ``delay`` from now."""
        heapq.heappush(
            self._heap,
            (self.now + delay, priority, next(self._counter), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _priority, _seq, event = heapq.heappop(self._heap)
        if when < self.now:
            raise SimulationError(
                f"time went backwards: {when} < {self.now}")
        advance = when - self.now
        self.now = when
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        if self.profiler is None:
            for callback in callbacks:
                callback(event)
        else:
            step_started = time.perf_counter()
            for callback in callbacks:
                started = time.perf_counter()
                callback(event)
                self.profiler.record_callback(
                    _callback_label(callback),
                    time.perf_counter() - started)
            self.profiler.record_event(
                type(event).__name__,
                time.perf_counter() - step_started, advance)
        if not callbacks and event.triggered and not event.ok \
                and not getattr(event, "defused", False):
            # A failure nobody is waiting on would otherwise vanish
            # silently; crash loudly instead (set event.defused = True
            # to opt out for expected failures).
            raise event.value  # type: ignore[misc]
        for hook in self._step_hooks:
            hook(self.now)

    # -- run loop --------------------------------------------------------------

    def run(self, until: Union[None, float, int, Event] = None) -> object:
        """Run the simulation.

        * ``until=None`` — run until no events remain.
        * ``until=<number>`` — run until simulated time reaches the given
          value.  Events scheduled exactly at ``until`` are *not* processed
          (matching SimPy semantics); ``now`` equals ``until`` afterwards.
        * ``until=<Event>`` — run until the event is processed and return its
          value; raises if the event failed, or :class:`SimulationError` if
          the schedule empties first.
        """
        if until is None:
            while self._heap:
                self.step()
            return None

        if isinstance(until, Event):
            return self._run_until_event(until)

        horizon = float(until)
        if horizon < self.now:
            raise ValueError(
                f"until={horizon} lies in the past (now={self.now})")
        while self._heap and self._heap[0][0] < horizon:
            self.step()
        self.now = horizon
        return None

    def _run_until_event(self, until: Event) -> object:
        if until.sim is not self:
            raise SimulationError("event belongs to a different simulation")
        if until.processed:
            if until.ok:
                return until.value
            raise until.value  # type: ignore[misc]
        marker = _StopMarker(self)
        until.callbacks.append(marker._stop)
        try:
            while self._heap:
                self.step()
        except StopSimulation:
            if until.ok:
                return until.value
            raise until.value  # type: ignore[misc]
        raise SimulationError(
            "schedule ran dry before the awaited event triggered")


def _callback_label(callback) -> str:
    """A stable human-readable label for a step callback.

    ``Process._resume`` bound methods are attributed to the process
    generator's function name (the thing a profiler reader actually
    recognises); everything else falls back to the callable's
    qualified name.
    """
    owner = getattr(callback, "__self__", None)
    generator = getattr(owner, "_generator", None)
    if generator is not None:
        return getattr(generator, "__name__", type(owner).__name__)
    return getattr(callback, "__qualname__", repr(callback))


class _StopMarker:
    """Stops the run loop when a watched event is processed."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim

    def _stop(self, event: Event) -> None:
        raise StopSimulation(event)
