"""Characterization tests for the escalation ladder's window queries.

Pins down ``highest_recent_stage`` and ``is_exhausted`` — the hardened
controller's decision inputs — over windowed, partial, and
non-applicable histories.
"""

from dcrobot.core import RepairAction
from dcrobot.core.escalation import EscalationConfig, EscalationLadder
from dcrobot.network import CableKind

from tests.conftest import make_world

DAY = 86400.0


def ladder(window_days=14.0, stages=None):
    config = (EscalationConfig(window_seconds=window_days * DAY)
              if stages is None else
              EscalationConfig(ladder=stages,
                               window_seconds=window_days * DAY))
    return EscalationLadder(config)


def full_history(now=0.0):
    return [(now + float(index), action)
            for index, action in enumerate(RepairAction)]


def test_highest_recent_stage_of_empty_history_is_minus_one():
    assert ladder().highest_recent_stage([], now=0.0) == -1


def test_highest_recent_stage_only_counts_the_window():
    steps = ladder(window_days=7.0)
    history = [(0.0, RepairAction.REPLACE_SWITCHGEAR),  # expired
               (10.0 * DAY, RepairAction.CLEAN)]        # in window
    assert steps.highest_recent_stage(history, now=12.0 * DAY) == 1
    # Move the clock so both fall inside the window.
    assert steps.highest_recent_stage(history, now=6.0 * DAY) == 4


def test_highest_recent_stage_ignores_actions_off_the_ladder():
    steps = ladder(stages=(RepairAction.RESEAT, RepairAction.CLEAN))
    history = [(0.0, RepairAction.REPLACE_CABLE),  # not on this ladder
               (1.0, RepairAction.RESEAT)]
    assert steps.highest_recent_stage(history, now=2.0) == 0


def test_fresh_link_is_never_exhausted(world):
    link = world.links[0]
    assert not ladder().is_exhausted(link, [], now=0.0)


def test_every_stage_tried_in_window_is_exhausted(world):
    link = world.links[0]
    assert ladder().is_exhausted(link, full_history(), now=DAY)


def test_window_expiry_resets_exhaustion(world):
    link = world.links[0]
    assert not ladder(window_days=7.0).is_exhausted(
        link, full_history(), now=30.0 * DAY)


def test_reaching_the_top_stage_alone_exhausts(world):
    link = world.links[0]
    history = [(0.0, RepairAction.REPLACE_SWITCHGEAR)]
    assert ladder().is_exhausted(link, history, now=DAY)


def test_partial_walk_is_not_exhausted(world):
    link = world.links[0]
    history = [(0.0, RepairAction.RESEAT), (1.0, RepairAction.CLEAN)]
    assert not ladder().is_exhausted(link, history, now=DAY)


def test_exhaustion_skips_stages_the_link_cannot_use():
    # A remaining stage only blocks exhaustion if the link can use it:
    # with ladder (RESEAT, CLEAN), a reseated integrated cable (AOC,
    # not cleanable) is done; a cleanable MPO one is not.
    steps = ladder(stages=(RepairAction.RESEAT, RepairAction.CLEAN))
    history = [(0.0, RepairAction.RESEAT)]
    sealed = make_world(kind=CableKind.AOC).links[0]
    assert steps.is_exhausted(sealed, history, now=DAY)
    cleanable = make_world(kind=CableKind.MPO).links[0]
    assert not steps.is_exhausted(cleanable, history, now=DAY)


def test_next_action_and_exhaustion_agree(world):
    """next_action restarts exactly when is_exhausted flips true."""
    steps = ladder()
    link = world.links[0]
    history = []
    for expected in [action for action in steps.config.ladder
                     if steps.applicable(action, link)]:
        assert not steps.is_exhausted(link, history, now=DAY)
        action = steps.next_action(link, history, now=DAY)
        assert action is expected
        history.append((DAY, action))
    assert steps.is_exhausted(link, history, now=DAY)
    # Legacy wrap-around: the ladder starts over on new hardware.
    assert steps.next_action(link, history, now=DAY) \
        is RepairAction.RESEAT
