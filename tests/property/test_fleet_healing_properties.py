"""Property-based tests (hypothesis) for fleet self-healing.

Two invariants must survive arbitrary robot-failure schedules:

* orphaned-order re-dispatch is idempotent — however conclusions and
  re-dispatches interleave, an order's ``done`` event fires at most
  once, and
* the per-order fencing guard refuses every stale-epoch (zombie)
  conclusion — the ``zombie_acks_accepted`` tripwire stays zero.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcrobot.chaos import ChaosConfig
from dcrobot.core.actions import Priority, RepairAction, RepairOutcome, WorkOrder
from dcrobot.core.automation import AutomationLevel
from dcrobot.core.leadership import FencingGuard
from dcrobot.experiments.runner import (
    DAY,
    WorldConfig,
    run_world,
    summarize_world,
)
from dcrobot.robots import RobotFleet
from dcrobot.robots.fleet import Assignment, FleetConfig
from dcrobot.robots.health import RobotHealthModel, RobotHealthParams
from dcrobot.telemetry.monitor import TelemetryMonitor

from tests.conftest import make_world


def _healing_fleet(world):
    fleet = RobotFleet(world.sim, world.fabric, world.health,
                       world.physics,
                       config=FleetConfig(manipulators=2, cleaners=0),
                       rng=np.random.default_rng(5))
    fleet.attach_health(
        RobotHealthModel(RobotHealthParams(),
                         rng=np.random.default_rng(23)),
        monitor=TelemetryMonitor(world.fabric))
    return fleet


def _outcome(fleet, order, completed):
    return RepairOutcome(order=order, executor_id=fleet.executor_id,
                         started_at=0.0, finished_at=fleet.sim.now,
                         completed=completed)


# Each step is either a watchdog re-dispatch (epoch advances) or a
# conclusion attempt arriving `lag` epochs late (lag 0 = the current
# owner; lag >= 1 = a zombie reporting from a fenced-out epoch).
steps = st.lists(
    st.one_of(
        st.just("redispatch"),
        st.tuples(st.just("finish"),
                  st.integers(min_value=0, max_value=3))),
    min_size=1, max_size=24)


@given(steps=steps)
@settings(max_examples=200, deadline=None)
def test_done_fires_at_most_once_under_any_interleaving(steps):
    """Crash-anywhere at the bookkeeping level: any interleaving of
    re-dispatches and (possibly stale) conclusions fires ``done`` at
    most once and never trips the fencing tripwire."""
    world = make_world()
    fleet = _healing_fleet(world)
    order = WorkOrder(link_id=world.links[0].id,
                      action=RepairAction.RESEAT, created_at=0.0,
                      priority=Priority.HIGH)
    done = world.sim.event()
    assignment = Assignment(order=order, done=done,
                            guard=FencingGuard(), epoch=1)
    fleet.assignments[order.order_id] = assignment
    fleet.pending_acks[order.order_id] = done

    accepted = 0
    for step in steps:
        if step == "redispatch":
            if not done.triggered:
                # The watchdog's fencing handshake: advance the epoch
                # before anyone executes under it.
                assignment.epoch += 1
                assignment.redispatches += 1
                assignment.guard.advance(assignment.epoch)
            continue
        _tag, lag = step
        epoch = max(1, assignment.epoch - lag)
        stale = epoch < assignment.epoch
        ok = fleet._finish(order, done, _outcome(fleet, order, True),
                           epoch)
        accepted += int(ok)
        if ok:
            assert not stale  # only the current epoch may conclude
    assert accepted <= 1
    assert done.triggered == (accepted == 1)
    assert fleet.zombie_acks_accepted == 0
    assert len([outcome for outcome in fleet.outcomes
                if outcome.order.order_id == order.order_id]) \
        == accepted
    # Re-dispatching a concluded order is a no-op (idempotency).
    if done.triggered:
        epoch_before = assignment.epoch
        count_before = fleet.redispatch_count
        fleet._redispatch(assignment)
        assert assignment.epoch == epoch_before
        assert fleet.redispatch_count == count_before


@given(die=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
       zombie=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
       lie=st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
       seed=st.integers(min_value=0, max_value=10_000))
# Both seeds once walked the naive controller back down the ladder
# within one incident (replace-switchgear, then reseat).
@example(die=0.0, zombie=0.0, lie=0.0, seed=675)
@example(die=0.0, zombie=0.0, lie=0.0, seed=397)
@settings(max_examples=4, deadline=None)
def test_fencing_never_admits_a_zombie_in_whole_worlds(
        die, zombie, lie, seed):
    """Crash-anywhere at world scale: whatever mix of robot deaths,
    zombies, and battery lies strikes a self-healing world, no late
    completion is ever accepted and the safety invariants hold."""
    chaos = ChaosConfig(
        robot_die_prob=die, robot_zombie_prob=zombie,
        battery_lie_prob=lie, robot_stall_prob=0.1,
        robot_stall_seconds=(120.0, 600.0))
    config = WorldConfig(
        horizon_days=6.0, seed=seed, failure_scale=3.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION,
        chaos=chaos if chaos.any_enabled else None,
        robot_health=RobotHealthParams(self_healing=True),
        fleet_config=FleetConfig(manipulators=3, cleaners=1),
        safety=True, stuck_after_seconds=5.0 * DAY,
        mute_ttl_seconds=2.0 * DAY)
    summary = summarize_world(run_world(config))
    assert summary.robot_zombie_accepted == 0
    assert summary.invariant_violations == 0
    # Self-healing: every loss that was detected got a response — any
    # re-dispatch implies a heartbeat loss was noticed first.
    if summary.robot_redispatches:
        assert summary.robot_heartbeat_losses > 0
