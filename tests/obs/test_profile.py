"""Tests for the engine's ``Simulation.profiler`` hook.

The perf ledger's tracer attaches a recorder here; a few-line recorder
stands in for it.
"""

import collections

from dcrobot.sim.engine import Simulation


class Recorder:
    """Sums what the engine reports, keyed by event type or callback."""

    def __init__(self):
        self.events = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.callbacks = collections.Counter()

    def record_event(self, name, wall, sim_advance):
        entry = self.events[name]
        entry[0] += 1
        entry[1] += wall
        entry[2] += sim_advance

    def record_callback(self, name, wall):
        self.callbacks[name] += 1


def _worker(sim, steps=3, delay=10.0):
    for _ in range(steps):
        yield sim.timeout(delay)


def test_engine_defaults_to_no_profiler():
    assert Simulation().profiler is None


def test_profiler_accounts_steps_and_sim_time():
    sim = Simulation()
    sim.process(_worker(sim, steps=3, delay=10.0))
    sim.profiler = recorder = Recorder()
    sim.run(until=100.0)
    # run(until=) fast-forwards the clock past the last event; the
    # hook reports only time advanced by actual steps.
    count, wall, sim_seconds = recorder.events["Timeout"]
    assert count == 3
    assert sim_seconds == 30.0
    assert wall >= 0.0
    assert sum(entry[2] for entry in recorder.events.values()) == 30.0


def test_callbacks_attributed_to_generator_name():
    sim = Simulation()
    sim.process(_worker(sim))
    sim.profiler = recorder = Recorder()
    sim.run(until=100.0)
    assert recorder.callbacks["_worker"] >= 3


def test_profiling_does_not_change_the_run():
    plain = Simulation()
    plain.process(_worker(plain, steps=5, delay=7.0))
    plain.run(until=100.0)

    profiled = Simulation()
    profiled.process(_worker(profiled, steps=5, delay=7.0))
    profiled.profiler = Recorder()
    profiled.run(until=100.0)
    assert profiled.now == plain.now
