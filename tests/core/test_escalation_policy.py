"""Unit tests for the escalation ladder and maintenance policies."""

import pytest

from dcrobot.core import (
    EscalationConfig,
    EscalationLadder,
    PredictivePolicy,
    ProactivePolicy,
    ReactivePolicy,
    RepairAction,
    Priority,
)
from dcrobot.network import CableKind
from dcrobot.telemetry import Symptom, TelemetryEvent

from tests.conftest import make_world

DAY = 86400.0


# -- escalation ---------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        EscalationConfig(ladder=())
    with pytest.raises(ValueError):
        EscalationConfig(ladder=(RepairAction.RESEAT,
                                 RepairAction.RESEAT))
    with pytest.raises(ValueError):
        EscalationConfig(window_seconds=0)


def test_first_incident_gets_reseat(world):
    ladder = EscalationLadder()
    assert ladder.next_action(world.links[0], [], now=0.0) \
        is RepairAction.RESEAT


def test_ladder_walks_paper_order(world):
    # §3.2 order: reseat -> clean -> replace transceiver -> replace
    # cable -> replace switchgear.
    ladder = EscalationLadder()
    link = world.links[0]  # MPO: cleanable
    history = []
    expected = [RepairAction.RESEAT, RepairAction.CLEAN,
                RepairAction.REPLACE_TRANSCEIVER,
                RepairAction.REPLACE_CABLE,
                RepairAction.REPLACE_SWITCHGEAR]
    for step, want in enumerate(expected):
        action = ladder.next_action(link, history, now=step * 3600.0)
        assert action is want
        history.append((step * 3600.0, action))


def test_clean_skipped_for_integrated_cable():
    world = make_world(kind=CableKind.AOC)
    ladder = EscalationLadder()
    link = world.links[0]
    history = [(0.0, RepairAction.RESEAT)]
    assert ladder.next_action(link, history, now=3600.0) \
        is RepairAction.REPLACE_TRANSCEIVER
    assert not ladder.applicable(RepairAction.CLEAN, link)


def test_window_expiry_restarts_ladder(world):
    ladder = EscalationLadder(EscalationConfig(window_seconds=7 * DAY))
    link = world.links[0]
    history = [(0.0, RepairAction.RESEAT), (DAY, RepairAction.CLEAN)]
    # Within window: escalate; after window: restart.
    assert ladder.next_action(link, history, now=2 * DAY) \
        is RepairAction.REPLACE_TRANSCEIVER
    assert ladder.next_action(link, history, now=30 * DAY) \
        is RepairAction.RESEAT


def test_exhausted_ladder_wraps(world):
    ladder = EscalationLadder()
    link = world.links[0]
    history = [(float(i), action) for i, action in enumerate(RepairAction)]
    assert ladder.next_action(link, history, now=10.0) \
        is RepairAction.RESEAT


def test_alternative_ladder_order(world):
    # Ablation: clean-first ladder.
    config = EscalationConfig(ladder=(
        RepairAction.CLEAN, RepairAction.RESEAT,
        RepairAction.REPLACE_TRANSCEIVER))
    ladder = EscalationLadder(config)
    assert ladder.next_action(world.links[0], [], 0.0) \
        is RepairAction.CLEAN


# -- reactive policy -----------------------------------------------------------

def event(link_id, symptom=Symptom.LINK_DOWN, time=100.0):
    return TelemetryEvent(time, link_id, symptom)


def test_reactive_priorities(world):
    policy = ReactivePolicy(world.fabric)
    down = policy.on_symptom(event("l0", Symptom.LINK_DOWN))
    flap = policy.on_symptom(event("l0", Symptom.LINK_FLAPPING))
    assert down.priority is Priority.HIGH
    assert flap.priority is Priority.NORMAL
    assert down.action is None  # ladder decides
    assert policy.periodic(0.0) == []


# -- proactive policy -------------------------------------------------------------

def test_proactive_sweep_arms_after_repeat_reseat_fixes(world):
    policy = ProactivePolicy(world.fabric, trigger_count=2)
    link0, link1 = world.links[0], world.links[1]
    policy.record_repair(link0, RepairAction.RESEAT, True, now=100.0)
    assert policy.periodic(200.0) == []
    policy.record_repair(link1, RepairAction.RESEAT, True, now=300.0)
    requests = policy.periodic(400.0)
    # All other links on the shared switches get proactive reseats.
    assert requests
    assert all(r.proactive for r in requests)
    assert all(r.action is RepairAction.RESEAT for r in requests)
    assert link1.id not in [r.link_id for r in requests]


def test_ineffective_or_other_actions_do_not_count(world):
    policy = ProactivePolicy(world.fabric, trigger_count=2)
    policy.record_repair(world.links[0], RepairAction.RESEAT, False, 0.0)
    policy.record_repair(world.links[1], RepairAction.CLEAN, True, 1.0)
    policy.record_repair(world.links[2], RepairAction.RESEAT, True, 2.0)
    assert policy.periodic(10.0) == []


def test_sweep_cooldown(world):
    policy = ProactivePolicy(world.fabric, trigger_count=1,
                             sweep_cooldown_seconds=10 * DAY)
    policy.record_repair(world.links[0], RepairAction.RESEAT, True, 0.0)
    first = policy.periodic(1.0)
    assert first
    policy.record_repair(world.links[1], RepairAction.RESEAT, True, DAY)
    assert policy.periodic(DAY + 1) == []  # cooling down


def test_memory_window_forgets_old_fixes(world):
    policy = ProactivePolicy(world.fabric, trigger_count=2,
                             memory_seconds=1 * DAY)
    policy.record_repair(world.links[0], RepairAction.RESEAT, True, 0.0)
    policy.record_repair(world.links[1], RepairAction.RESEAT, True,
                         5 * DAY)
    assert policy.periodic(5 * DAY + 1) == []


def test_trigger_validation(world):
    with pytest.raises(ValueError):
        ProactivePolicy(world.fabric, trigger_count=0)


# -- predictive policy ---------------------------------------------------------------

def test_predictive_requests_above_threshold(world):
    scores = {world.links[0].id: 0.9, world.links[1].id: 0.1}
    policy = PredictivePolicy(
        world.fabric,
        scorer=lambda link, now: scores.get(link.id, 0.0),
        threshold=0.5)
    requests = policy.periodic(0.0)
    assert [r.link_id for r in requests] == [world.links[0].id]
    # Cleanable MPO link gets a clean.
    assert requests[0].action is RepairAction.CLEAN
    assert requests[0].proactive


def test_predictive_cooldown(world):
    policy = PredictivePolicy(world.fabric,
                              scorer=lambda link, now: 1.0,
                              threshold=0.5,
                              cooldown_seconds=DAY)
    first = policy.periodic(0.0)
    assert len(first) == len(world.links)
    assert policy.periodic(3600.0) == []
    assert len(policy.periodic(2 * DAY)) == len(world.links)


def test_predictive_reseat_for_sealed_cables():
    world = make_world(kind=CableKind.AOC)
    policy = PredictivePolicy(world.fabric,
                              scorer=lambda link, now: 1.0)
    requests = policy.periodic(0.0)
    assert all(r.action is RepairAction.RESEAT for r in requests)


def test_predictive_threshold_validation(world):
    with pytest.raises(ValueError):
        PredictivePolicy(world.fabric, scorer=lambda ln, n: 0.0,
                         threshold=0.0)
