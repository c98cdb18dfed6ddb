"""Unit tests for incident root-cause attribution."""

import pytest

from dcrobot.core.controller import Incident
from dcrobot.failures.injector import InjectedFault
from dcrobot.metrics import (
    attribute_incidents,
    disturbed_links_from_cascade,
)
from dcrobot.network import DegradationKind

DAY = 86400.0


def incident(link_id, opened_at):
    return Incident(link_id=link_id, opened_at=opened_at, symptom="x")


def fault(link_id, time, kind=DegradationKind.OXIDATION):
    return InjectedFault(time=time, kind=kind, link_id=link_id,
                         detail="")


def test_incident_matched_to_recent_fault():
    summary = attribute_incidents(
        [incident("l1", opened_at=1000.0)],
        [fault("l1", time=500.0)])
    assert summary.by_cause[DegradationKind.OXIDATION] == 1
    assert summary.injected == 1
    assert summary.collateral == 0


def test_most_recent_fault_wins():
    summary = attribute_incidents(
        [incident("l1", opened_at=1000.0)],
        [fault("l1", 100.0, DegradationKind.OXIDATION),
         fault("l1", 900.0, DegradationKind.CONTAMINATION)])
    assert summary.by_cause == {DegradationKind.CONTAMINATION: 1}


def test_fault_outside_window_not_matched():
    summary = attribute_incidents(
        [incident("l1", opened_at=30 * DAY)],
        [fault("l1", time=1.0)],
        attribution_window_seconds=7 * DAY)
    assert summary.injected == 0
    assert summary.environmental == 1


def test_future_fault_not_matched():
    summary = attribute_incidents(
        [incident("l1", opened_at=100.0)],
        [fault("l1", time=200.0)])
    assert summary.injected == 0


def test_collateral_classification():
    summary = attribute_incidents(
        [incident("l1", opened_at=100.0),
         incident("l2", opened_at=100.0)],
        faults=[], disturbed_link_ids=["l1"])
    assert summary.collateral == 1
    assert summary.environmental == 1
    assert summary.total == 2


def test_shares():
    summary = attribute_incidents(
        [incident("l1", 100.0), incident("l2", 100.0)],
        [fault("l1", 50.0, DegradationKind.CABLE_DAMAGE)])
    assert summary.share(DegradationKind.CABLE_DAMAGE) \
        == pytest.approx(0.5)
    assert summary.share(DegradationKind.SWITCH_HW) == 0.0


def test_empty_inputs():
    summary = attribute_incidents([], [])
    assert summary.total == 0
    assert summary.collateral == 0


def test_window_validation():
    with pytest.raises(ValueError):
        attribute_incidents([], [], attribution_window_seconds=0.0)


def test_disturbed_links_from_cascade_dedupes():
    class Report:
        def __init__(self, disturbed, damaged):
            self.disturbed_links = disturbed
            self.damaged_links = damaged

    links = disturbed_links_from_cascade([
        Report(["a", "b"], []),
        Report(["b"], ["c"]),
    ])
    assert links == ["a", "b", "c"]


def test_end_to_end_attribution_with_humans():
    """A human-maintained world: cascade touches create collateral
    tickets the attribution must separate from injected faults."""
    from dcrobot.experiments import WorldConfig, run_world

    result = run_world(WorldConfig(horizon_days=20.0, seed=3,
                                   failure_scale=5.0))
    summary = result.attribution()
    assert summary.total > 0
    assert summary.injected > 0
    # Categories partition the incidents.
    assert (summary.injected + summary.collateral
            + summary.environmental) == summary.total
