"""Admission-control policy: buckets, priority exemption, accounting."""

import pytest

from dcrobot.core.actions import Priority
from dcrobot.service.admission import (
    AdmissionConfig,
    AdmissionController,
    RequestKind,
    TokenBucket,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


# -- token bucket -------------------------------------------------------------


def test_bucket_starts_full_and_refills_at_rate():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
    assert [bucket.try_take() for _ in range(5)] == [True] * 4 + [False]
    clock.advance(1.0)  # +2 tokens
    assert bucket.try_take()
    assert bucket.try_take()
    assert not bucket.try_take()


def test_bucket_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
    bucket.try_take()
    clock.advance(60.0)
    assert [bucket.try_take() for _ in range(4)] == [True] * 3 + [False]


def test_zero_rate_bucket_never_refills():
    clock = FakeClock()
    bucket = TokenBucket(rate=0.0, burst=2.0, clock=clock)
    assert bucket.try_take() and bucket.try_take()
    clock.advance(1e6)
    assert not bucket.try_take()


# -- admission controller -----------------------------------------------------


def controller(clock, **overrides):
    return AdmissionController(AdmissionConfig(**overrides),
                               clock=clock)


def test_queries_shed_once_bucket_drains():
    clock = FakeClock()
    admission = controller(clock, query_rate=0.0, query_burst=5.0)
    decisions = [admission.admit(RequestKind.QUERY)
                 for _ in range(20)]
    assert decisions == [True] * 5 + [False] * 15
    assert admission.admitted("query") == 5
    assert admission.shed("query") == 15


def test_high_priority_commands_are_never_shed():
    clock = FakeClock()
    admission = controller(clock, command_rate=0.0,
                           command_burst=1.0)
    # Flood far past the bucket: every HIGH command still lands.
    decisions = [admission.admit(RequestKind.COMMAND, Priority.HIGH)
                 for _ in range(100)]
    assert all(decisions)
    assert admission.shed("command-high") == 0
    assert admission.admitted("command-high") == 100
    # NORMAL commands pay the bucket as usual.
    assert admission.admit(RequestKind.COMMAND)
    assert not admission.admit(RequestKind.COMMAND)


def test_high_priority_exemption_can_be_disabled():
    clock = FakeClock()
    admission = controller(clock, command_rate=0.0,
                           command_burst=2.0,
                           exempt_high_priority=False)
    decisions = [admission.admit(RequestKind.COMMAND, Priority.HIGH)
                 for _ in range(4)]
    assert decisions == [True, True, False, False]


def test_query_and_command_buckets_are_independent():
    clock = FakeClock()
    admission = controller(clock, query_rate=0.0, query_burst=1.0,
                           command_rate=0.0, command_burst=3.0)
    assert admission.admit(RequestKind.QUERY)
    assert not admission.admit(RequestKind.QUERY)
    # The drained query bucket does not touch commands.
    assert all(admission.admit(RequestKind.COMMAND)
               for _ in range(3))


def test_config_rejects_negative_rates():
    with pytest.raises(ValueError):
        AdmissionConfig(query_rate=-1.0)
