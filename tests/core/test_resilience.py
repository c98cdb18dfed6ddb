"""Unit tests for retry/backoff policies and the circuit breaker."""

import numpy as np
import pytest

from dcrobot.core import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    ResilienceConfig,
    RetryPolicy,
)

HOUR = 3600.0


# -- RetryPolicy --------------------------------------------------------------

def test_backoff_schedule_is_exponential_then_capped():
    policy = RetryPolicy(max_retries=6, base_delay_seconds=100.0,
                         multiplier=2.0, max_delay_seconds=1000.0)
    assert policy.schedule() == [100.0, 200.0, 400.0, 800.0,
                                 1000.0, 1000.0]
    assert policy.backoff_seconds(50) == 1000.0


def test_backoff_rejects_negative_retry_index():
    with pytest.raises(ValueError, match="retry_index"):
        RetryPolicy().backoff_seconds(-1)


@pytest.mark.parametrize("kwargs,match", [
    ({"max_retries": -1}, "max_retries"),
    ({"base_delay_seconds": -1.0}, "base_delay_seconds"),
    ({"multiplier": 0.5}, "multiplier"),
    ({"base_delay_seconds": 100.0, "max_delay_seconds": 50.0},
     "max_delay_seconds"),
    ({"jitter_fraction": 1.0}, "jitter_fraction"),
    ({"jitter_fraction": -0.1}, "jitter_fraction"),
])
def test_retry_policy_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        RetryPolicy(**kwargs)


def test_jittered_backoff_stays_within_declared_bounds():
    policy = RetryPolicy(max_retries=4, jitter_fraction=0.25)
    rng = np.random.default_rng(123)
    for retry_index in range(4):
        base = policy.backoff_seconds(retry_index)
        low = base * (1.0 - policy.jitter_fraction)
        high = base * (1.0 + policy.jitter_fraction)
        for _ in range(50):
            delay = policy.jittered_backoff(retry_index, rng)
            assert low <= delay <= high


def test_zero_jitter_is_exactly_the_base_schedule():
    policy = RetryPolicy(jitter_fraction=0.0)
    rng = np.random.default_rng(0)
    for retry_index in range(3):
        assert policy.jittered_backoff(retry_index, rng) \
            == policy.backoff_seconds(retry_index)


# -- CircuitBreaker -----------------------------------------------------------

def test_breaker_trips_at_the_failure_threshold():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3,
                                           cooldown_seconds=HOUR))
    assert breaker.allows(0.0)
    breaker.record_failure(10.0)
    breaker.record_failure(20.0)
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allows(25.0)
    breaker.record_failure(30.0)
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 1
    assert not breaker.allows(30.0 + HOUR - 1.0)


def test_open_breaker_grants_exactly_one_probe_per_cooldown():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                           cooldown_seconds=HOUR))
    breaker.record_failure(0.0)
    assert breaker.state is BreakerState.OPEN
    assert breaker.allows(HOUR + 1.0)       # the half-open probe
    assert breaker.state is BreakerState.HALF_OPEN
    assert not breaker.allows(HOUR + 2.0)   # probe still outstanding


def test_probe_failure_retrips_with_a_fresh_cooldown():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                           cooldown_seconds=HOUR))
    breaker.record_failure(0.0)
    assert breaker.allows(HOUR + 10.0)
    breaker.record_failure(HOUR + 10.0)
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 2
    assert breaker.opened_at == HOUR + 10.0
    assert not breaker.allows(HOUR + 20.0)
    assert breaker.allows(2 * HOUR + 10.0)


def test_probe_success_closes_and_resets_the_failure_count():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2,
                                           cooldown_seconds=HOUR))
    breaker.record_failure(0.0)
    breaker.record_failure(1.0)
    assert breaker.allows(HOUR + 1.0)
    breaker.record_success(HOUR + 2.0)
    assert breaker.state is BreakerState.CLOSED
    assert breaker.consecutive_failures == 0
    # One fresh failure is not enough to trip again.
    breaker.record_failure(HOUR + 3.0)
    assert breaker.state is BreakerState.CLOSED


def test_success_interleaving_prevents_a_trip():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3,
                                           cooldown_seconds=HOUR))
    for time in range(10):
        breaker.record_failure(float(time))
        breaker.record_failure(float(time) + 0.5)
        breaker.record_success(float(time) + 0.9)
    assert breaker.state is BreakerState.CLOSED
    assert breaker.trips == 0


def test_transitions_are_logged_for_reporting():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                           cooldown_seconds=HOUR))
    breaker.record_failure(5.0)
    breaker.allows(HOUR + 6.0)
    breaker.record_success(HOUR + 7.0)
    assert [state for _t, state in breaker.transitions] == [
        BreakerState.OPEN, BreakerState.HALF_OPEN, BreakerState.CLOSED]


@pytest.mark.parametrize("kwargs,match", [
    ({"failure_threshold": 0}, "failure_threshold"),
    ({"cooldown_seconds": 0.0}, "cooldown_seconds"),
])
def test_breaker_policy_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        BreakerPolicy(**kwargs)


# -- ResilienceConfig ---------------------------------------------------------

def test_resilience_config_defaults_and_validation():
    config = ResilienceConfig()
    assert config.work_order_timeout_seconds == 8.0 * HOUR
    # Humans run on ticket timescales; their budget must dwarf the
    # robot one or every legitimate human repair churns into retries.
    assert config.human_order_timeout_seconds \
        > 4 * config.work_order_timeout_seconds
    assert config.verify_before_retry
    with pytest.raises(ValueError, match="work_order_timeout"):
        ResilienceConfig(work_order_timeout_seconds=0.0)
    with pytest.raises(ValueError, match="human_order_timeout"):
        ResilienceConfig(human_order_timeout_seconds=-1.0)
