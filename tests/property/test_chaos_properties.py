"""Property-based tests (hypothesis) for the chaos-hardening layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrobot.chaos import ChaosConfig
from dcrobot.core import ControllerConfig, ResilienceConfig, RetryPolicy
from dcrobot.core.automation import AutomationLevel
from dcrobot.experiments.runner import (
    DAY,
    WorldConfig,
    run_world,
    summarize_world,
)

from tests.conftest import make_world
from tests.core.test_controller_resilience import (
    break_and_report,
    build,
    fast_resilience,
)

retry_policies = st.builds(
    RetryPolicy,
    max_retries=st.integers(min_value=0, max_value=8),
    base_delay_seconds=st.floats(min_value=0.0, max_value=3600.0,
                                 allow_nan=False),
    multiplier=st.floats(min_value=1.0, max_value=4.0,
                         allow_nan=False),
    max_delay_seconds=st.floats(min_value=3600.0, max_value=86400.0,
                                allow_nan=False),
    jitter_fraction=st.floats(min_value=0.0, max_value=0.99,
                              allow_nan=False))


@given(policy=retry_policies)
@settings(max_examples=80, deadline=None)
def test_backoff_schedule_is_monotone_and_capped(policy):
    schedule = policy.schedule()
    assert len(schedule) == policy.max_retries
    assert all(later >= earlier for earlier, later
               in zip(schedule, schedule[1:]))
    assert all(delay <= policy.max_delay_seconds for delay in schedule)
    assert all(delay >= 0.0 for delay in schedule)


@given(policy=retry_policies,
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       retry_index=st.integers(min_value=0, max_value=12))
@settings(max_examples=80, deadline=None)
def test_jittered_backoff_stays_in_bounds_for_any_seed(
        policy, seed, retry_index):
    rng = np.random.default_rng(seed)
    base = policy.backoff_seconds(retry_index)
    low = base * (1.0 - policy.jitter_fraction)
    high = base * (1.0 + policy.jitter_fraction)
    for _ in range(5):
        delay = policy.jittered_backoff(retry_index, rng)
        assert low <= delay <= high


@given(max_retries=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=10, deadline=None)
def test_dispatches_never_exceed_the_retry_budget(max_retries, seed):
    """However acks are lost, one incident dispatches <= 1 + budget."""
    world = make_world(seed=seed % 100 + 1)
    resilience = fast_resilience(
        retry=RetryPolicy(max_retries=max_retries,
                          base_delay_seconds=60.0,
                          jitter_fraction=0.25))
    _monitor, humans, _fleet, controller = build(
        world, resilience, humans_script=("lost",))
    break_and_report(world, controller, world.links[0])
    world.sim.run(until=30 * 86400.0)
    assert len(humans.submitted) <= 1 + max_retries
    assert controller.active_orders == {}  # every claim released


@given(chaos_scale=st.floats(min_value=0.0, max_value=4.0,
                             allow_nan=False),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=4, deadline=None)
def test_safety_invariants_hold_under_randomized_fault_schedules(
        chaos_scale, seed):
    """No fault schedule may break the control-plane invariants."""
    config = WorldConfig(
        horizon_days=4.0, seed=seed, failure_scale=3.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION,
        chaos=(ChaosConfig.moderate().scaled(chaos_scale)
               if chaos_scale > 0 else None),
        safety=True, stuck_after_seconds=5.0 * DAY,
        mute_ttl_seconds=2.0 * DAY,
        controller_config=ControllerConfig(
            resilience=ResilienceConfig()))
    summary = summarize_world(run_world(config))
    assert summary.invariant_violations == 0
    assert summary.stuck_orders == 0
