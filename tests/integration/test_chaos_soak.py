"""Chaos soak: 5 000 simulation steps with every injector enabled.

The hardened control plane must come out clean — zero invariant
violations, zero leaked work orders, every mature incident concluded —
and bit-identically across two identical runs.  The same campaign
against the naive (no-timeout, no-retry) controller demonstrably leaks
stuck work orders, which is the contrast E13 sweeps at scale.
"""

import dataclasses

from dcrobot.chaos import ChaosConfig
from dcrobot.core import ControllerConfig, ResilienceConfig
from dcrobot.core.automation import AutomationLevel
from dcrobot.experiments.runner import DAY, WorldConfig, build_world

SEED = 42
STEPS = 5000
#: Older than the human-order timeout: truly leaked, not a slow ticket.
MATURE_AGE = 5.0 * DAY


def soak_config(hardened):
    chaos = ChaosConfig.moderate()
    if not hardened:
        # The naive loop's signature failure is blocking forever on a
        # lost ack; raise the loss rate so the leak shows within the
        # soak's ~8 simulated days.
        chaos = dataclasses.replace(chaos, ack_loss_prob=0.5)
    return WorldConfig(
        horizon_days=30.0, seed=SEED, failure_scale=6.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION,
        chaos=chaos, safety=True,
        stuck_after_seconds=MATURE_AGE if hardened else 1.0 * DAY,
        mute_ttl_seconds=2.0 * DAY if hardened else None,
        controller_config=ControllerConfig(
            resilience=ResilienceConfig() if hardened else None))


def run_soak(hardened):
    result = build_world(soak_config(hardened))
    for _ in range(STEPS):
        result.sim.step()
    return result


def soak_summary(result):
    """Every observable the soak cares about, as one comparable dict."""
    controller = result.controller
    report = result.safety.report()
    return {
        "now": result.sim.now,
        "closed": len(controller.closed_incidents),
        "unresolved": len(controller.unresolved_incidents),
        "open": sorted(controller.open_incidents),
        "closed_at": [incident.closed_at
                      for incident in controller.closed_incidents],
        "attempts": sum(
            incident.attempt_count
            for incident in (controller.closed_incidents
                             + controller.unresolved_incidents
                             + list(controller.open_incidents.values()))),
        "timeouts": controller.timeout_count,
        "retries": controller.retry_count,
        "late_acks": controller.late_ack_count,
        "idempotent_skips": controller.idempotent_skips,
        "degraded_dispatches": controller.degraded_dispatches,
        "violations": report.total_violations,
        "stuck": report.stuck_order_count,
        "chaos": result.chaos_engine.summary(),
        "telemetry_events": len(result.monitor.events),
    }


def mature_conclusion_rate(result):
    controller = result.controller
    cutoff = result.sim.now - MATURE_AGE
    concluded = sum(
        1 for incident in (controller.closed_incidents
                           + controller.unresolved_incidents)
        if incident.opened_at <= cutoff)
    leaked = sum(1 for incident in controller.open_incidents.values()
                 if incident.opened_at <= cutoff)
    total = concluded + leaked
    return (concluded / total if total else 1.0), total


def test_hardened_soak_is_clean_and_deterministic():
    result = run_soak(hardened=True)
    summary = soak_summary(result)

    # The campaign actually did something.
    assert summary["closed"] > 0
    assert sum(summary["chaos"].values()) > 0
    assert result.sim.now > 5 * DAY

    # Safety: no invariant ever broke, nothing leaked.
    assert summary["violations"] == 0
    assert summary["stuck"] == 0
    assert result.safety.checks_run > 0

    # Liveness: every mature incident was resolved or escalated to a
    # human (the >= 95% acceptance bar; in practice it is 100%).
    rate, mature = mature_conclusion_rate(result)
    assert rate >= 0.95, f"only {rate:.0%} of {mature} concluded"
    for incident in result.controller.unresolved_incidents:
        assert incident.unresolvable_reason

    # Determinism: an identical seed reproduces the run bit for bit.
    assert soak_summary(run_soak(hardened=True)) == summary


def test_naive_soak_leaks_stuck_work_orders():
    result = run_soak(hardened=False)
    controller = result.controller
    stuck = result.safety.stuck_orders()

    # The naive controller blocks forever on lost acks: day-old claims
    # pile up and their incidents never conclude.
    assert len(stuck) >= 2
    assert controller.timeout_count == 0  # it never even notices
    stuck_links = {claim.link_id for claim in stuck}
    assert stuck_links <= set(controller.open_incidents)
    rate, mature = mature_conclusion_rate(result)
    assert mature > 0 and rate < 0.95
