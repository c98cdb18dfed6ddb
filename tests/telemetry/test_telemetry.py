"""Unit tests for telemetry detectors and the monitor."""

import numpy as np
import pytest

from dcrobot.network import (
    CableKind,
    Fabric,
    HallLayout,
    LinkState,
    SwitchRole,
)
from dcrobot.sim import Simulation
from dcrobot.telemetry import (
    DetectorParams,
    LinkDetector,
    Symptom,
    TelemetryMonitor,
)

from tests.conftest import start_sweeps


def make_fabric(links=1):
    fabric = Fabric(layout=HallLayout(rows=1, racks_per_row=2),
                    rng=np.random.default_rng(0))
    a = fabric.add_switch(SwitchRole.TOR, radix=max(links, 2),
                          rack_id=fabric.layout.rack_at(0, 0).id)
    b = fabric.add_switch(SwitchRole.TOR, radix=max(links, 2),
                          rack_id=fabric.layout.rack_at(0, 1).id)
    made = [fabric.connect(a.id, b.id, kind=CableKind.MPO)
            for _ in range(links)]
    return fabric, made


def test_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(down_grace_seconds=-1)
    with pytest.raises(ValueError):
        DetectorParams(flap_transitions=1)
    with pytest.raises(ValueError):
        DetectorParams(flap_window_seconds=0)


def test_healthy_link_no_event():
    _fabric, (link,) = make_fabric()
    detector = LinkDetector()
    assert detector.check(link, now=1000.0) is None


def test_down_within_grace_not_reported():
    _fabric, (link,) = make_fabric()
    detector = LinkDetector(DetectorParams(down_grace_seconds=900.0))
    link.set_state(1000.0, LinkState.DOWN)
    assert detector.check(link, now=1500.0) is None


def test_down_beyond_grace_reported():
    _fabric, (link,) = make_fabric()
    detector = LinkDetector(DetectorParams(down_grace_seconds=900.0))
    link.set_state(1000.0, LinkState.DOWN)
    event = detector.check(link, now=2000.0)
    assert event is not None
    assert event.symptom is Symptom.LINK_DOWN
    assert event.link_id == link.id


def test_flapping_detected_from_transitions():
    _fabric, (link,) = make_fabric()
    detector = LinkDetector(DetectorParams(flap_transitions=4,
                                           flap_window_seconds=3600.0))
    # Oscillate: 4 transitions within the hour.
    link.set_state(100.0, LinkState.DOWN)
    link.set_state(200.0, LinkState.UP)
    link.set_state(300.0, LinkState.DOWN)
    link.set_state(400.0, LinkState.UP)
    event = detector.check(link, now=500.0)
    assert event is not None
    assert event.symptom is Symptom.LINK_FLAPPING


def test_flapping_preferred_over_down_when_bouncing():
    _fabric, (link,) = make_fabric()
    detector = LinkDetector(DetectorParams(flap_transitions=4,
                                           down_grace_seconds=900.0))
    link.set_state(100.0, LinkState.DOWN)
    link.set_state(200.0, LinkState.UP)
    link.set_state(300.0, LinkState.DOWN)
    link.set_state(400.0, LinkState.UP)
    link.set_state(500.0, LinkState.DOWN)
    event = detector.check(link, now=1500.0)
    assert event.symptom is Symptom.LINK_FLAPPING
    assert "now down" in event.detail


def test_old_transitions_age_out_of_window():
    _fabric, (link,) = make_fabric()
    detector = LinkDetector(DetectorParams(flap_transitions=4,
                                           flap_window_seconds=600.0))
    link.set_state(100.0, LinkState.DOWN)
    link.set_state(200.0, LinkState.UP)
    link.set_state(300.0, LinkState.DOWN)
    link.set_state(400.0, LinkState.UP)
    assert detector.check(link, now=5000.0) is None


def test_high_loss_requires_persistence():
    _fabric, (link,) = make_fabric()
    detector = LinkDetector(DetectorParams(
        loss_threshold=1e-5, loss_persistence_seconds=1800.0))
    link.loss_rate = 1e-3
    # First sighting arms the persistence clock; no ticket yet.
    assert detector.check(link, now=100.0) is None
    event = detector.check(link, now=2000.0)
    assert event.symptom is Symptom.HIGH_LOSS


def test_high_loss_persistence_resets_when_clean():
    _fabric, (link,) = make_fabric()
    detector = LinkDetector(DetectorParams(
        loss_threshold=1e-5, loss_persistence_seconds=1800.0))
    link.loss_rate = 1e-3
    assert detector.check(link, now=100.0) is None
    link.loss_rate = 0.0  # transient blip cleared
    assert detector.check(link, now=400.0) is None
    link.loss_rate = 1e-3
    # Clock restarts at the first scan that sees loss again.
    assert detector.check(link, now=500.0) is None
    assert detector.check(link, now=500.0 + 1799.0) is None
    assert detector.check(link, now=500.0 + 1801.0) is not None


def test_maintenance_suppresses_detection():
    _fabric, (link,) = make_fabric()
    detector = LinkDetector()
    link.set_state(0.0, LinkState.MAINTENANCE)
    link.loss_rate = 1.0
    assert detector.check(link, now=10_000.0) is None


# -- monitor ---------------------------------------------------------------------

def test_monitor_dispatches_to_subscribers():
    fabric, (link,) = make_fabric()
    monitor = TelemetryMonitor(fabric, poll_seconds=60.0)
    received = []
    monitor.subscribe(received.append)
    link.set_state(0.0, LinkState.DOWN)
    monitor.poll_all(now=1000.0)
    assert len(received) == 1
    assert received[0].link_id == link.id


def test_monitor_mutes_after_first_report():
    fabric, (link,) = make_fabric()
    monitor = TelemetryMonitor(fabric, poll_seconds=60.0)
    link.set_state(0.0, LinkState.DOWN)
    first = monitor.poll_all(now=1000.0)
    second = monitor.poll_all(now=1100.0)
    assert len(first) == 1
    assert second == []
    assert monitor.is_muted(link.id)


def test_monitor_unmute_rearms():
    fabric, (link,) = make_fabric()
    monitor = TelemetryMonitor(fabric, poll_seconds=60.0)
    link.set_state(0.0, LinkState.DOWN)
    monitor.poll_all(now=1000.0)
    monitor.unmute(link.id)
    again = monitor.poll_all(now=1200.0)
    assert len(again) == 1


def test_monitor_process_scans_on_schedule():
    fabric, (link,) = make_fabric()
    monitor = TelemetryMonitor(fabric, poll_seconds=60.0)
    seen = []
    monitor.subscribe(lambda event: seen.append(event.time))
    sim = Simulation()
    start_sweeps(sim, monitor=monitor)

    def fail_later(sim, link):
        yield sim.timeout(150.0)
        link.set_state(sim.now, LinkState.DOWN)

    sim.process(fail_later(sim, link))
    sim.run(until=3600.0)
    assert seen  # detected after grace
    assert seen[0] >= 150.0 + 900.0


def test_monitor_validation():
    fabric, _links = make_fabric()
    with pytest.raises(ValueError):
        TelemetryMonitor(fabric, poll_seconds=0.0)
