"""Unit tests for BatchTicker: one process, the firing order of many."""

import pytest

from dcrobot.sim import Simulation
from dcrobot.sim.batch import BatchTicker

DAY = 86400.0
#: ``build_world``'s cadences (health, telemetry, dust, aging) plus a
#: 45 s cadence coprime with the 60 s ones.
PERIODS = (60.0, 60.0, 21600.0, 21600.0, 45.0)
#: A non-integer period next to the 60 s and 21,600 s cadences: its
#: boundaries are sums of an inexact float, which the ticker must land
#: on exactly as a separate process's timeouts do.
FRACTIONAL_PERIODS = (60.0, 0.7, 21600.0, 60.0)


def _ticker_log(horizon, periods=PERIODS):
    sim = Simulation()
    log = []
    ticker = BatchTicker(sim)
    for index, period in enumerate(periods):
        ticker.add(lambda now, index=index: log.append((now, index)),
                   period, first_at=sim.now if index == 0 else None)
    sim.process(ticker.run(sim))
    sim.run(until=horizon)
    return log


def _separate_processes_log(horizon, periods=PERIODS):
    """One generator process per cadence: tick-then-sleep for the
    first, sleep-then-tick for the rest."""
    sim = Simulation()
    log = []

    def tick_then_sleep(index, period):
        while True:
            log.append((sim.now, index))
            yield sim.timeout(period)

    def sleep_then_tick(index, period):
        while True:
            yield sim.timeout(period)
            log.append((sim.now, index))

    for index, period in enumerate(periods):
        shape = tick_then_sleep if index == 0 else sleep_then_tick
        sim.process(shape(index, period))
    sim.run(until=horizon)
    return log


def test_firing_order_matches_one_process_per_cadence():
    horizon = 2 * DAY
    log = _ticker_log(horizon)
    assert log == _separate_processes_log(horizon)
    # Every cadence fired, shared boundaries included.
    assert {index for _now, index in log} == set(range(len(PERIODS)))
    assert (180.0, 4) in log and (21600.0, 2) in log


def test_a_non_integer_period_keeps_the_one_process_order():
    horizon = 21600.0 + 120.0
    log = _ticker_log(horizon, FRACTIONAL_PERIODS)
    assert log == _separate_processes_log(horizon, FRACTIONAL_PERIODS)
    fired = [index for _now, index in log]
    assert fired.count(1) > 30000 and (21600.0, 2) in log
    # A shared boundary fires by (last fired, index): the 21,600 s
    # cadence last fired at registration, the 60 s ones a minute ago.
    assert [index for now, index in log if now == 21600.0] == [2, 0, 3]


def test_rejects_a_non_positive_period():
    ticker = BatchTicker(Simulation())
    with pytest.raises(ValueError, match="period"):
        ticker.add(lambda now: None, 0.0)
    with pytest.raises(ValueError, match="period"):
        ticker.add(lambda now: None, -60.0)


def test_rejects_a_first_fire_in_the_past():
    sim = Simulation(start_time=100.0)
    ticker = BatchTicker(sim)
    with pytest.raises(ValueError, match="past"):
        ticker.add(lambda now: None, 60.0, first_at=99.0)


def test_rejects_a_foreign_simulation():
    ticker = BatchTicker(Simulation())
    ticker.add(lambda now: None, 60.0)
    other = Simulation()
    other.process(ticker.run(other))
    with pytest.raises(ValueError, match="different simulation"):
        other.run(until=60.0)
