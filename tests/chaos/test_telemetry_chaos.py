"""Unit tests for telemetry delivery chaos (drop / dup / corrupt)."""

import numpy as np

from dcrobot.chaos import ChaosConfig, ChaosFaultKind, TelemetryChaos
from dcrobot.network import LinkState
from dcrobot.telemetry import TelemetryMonitor
from dcrobot.telemetry.events import Symptom, TelemetryEvent

from tests.conftest import make_world


def interceptor(**probs):
    return TelemetryChaos(ChaosConfig(**probs),
                          rng=np.random.default_rng(3))


def down_event():
    return TelemetryEvent(time=2000.0, link_id="L1",
                          symptom=Symptom.LINK_DOWN, detail="hard down")


def test_drop_swallows_the_delivery():
    chaos = interceptor(telemetry_drop_prob=1.0)
    assert chaos(down_event()) == []
    assert chaos.log.count(ChaosFaultKind.TELEMETRY_DROP) == 1


def test_dup_delivers_the_same_event_twice():
    chaos = interceptor(telemetry_dup_prob=1.0)
    delivered = chaos(down_event())
    assert len(delivered) == 2
    assert delivered[0] is delivered[1]
    assert chaos.log.count(ChaosFaultKind.TELEMETRY_DUP) == 1


def test_corrupt_scrambles_the_symptom_but_never_the_link_id():
    chaos = interceptor(telemetry_corrupt_prob=1.0)
    for _ in range(20):
        event = down_event()
        (delivered,) = chaos(event)
        assert delivered.link_id == event.link_id
        assert delivered.symptom is not event.symptom
        assert "corrupted from link-down" in delivered.detail
    assert chaos.log.count(ChaosFaultKind.TELEMETRY_CORRUPT) == 20


def test_clean_path_passes_the_event_through_unchanged():
    chaos = interceptor()
    event = down_event()
    assert chaos(event) == [event]
    assert chaos.log.total == 0


def test_monitor_scan_with_drop_still_mutes_but_delivers_nothing():
    world = make_world()
    monitor = TelemetryMonitor(world.fabric, poll_seconds=60.0)
    monitor.add_interceptor(interceptor(telemetry_drop_prob=1.0))
    heard = []
    monitor.subscribe(heard.append)

    link = world.links[0]
    link.set_state(0.0, LinkState.DOWN)
    delivered = monitor.poll_all(2000.0)

    # Detection happened (and muted the link), but the delivery — and
    # therefore the controller — never saw it: the lost-report case the
    # mute TTL exists to recover from.
    assert delivered == []
    assert heard == []
    assert len(monitor.events) == 1
    assert monitor.is_muted(link.id, 2000.0)


def test_mute_ttl_turns_a_dropped_report_into_a_late_one():
    world = make_world()
    monitor = TelemetryMonitor(world.fabric, poll_seconds=60.0,
                               mute_ttl_seconds=3600.0)
    chaos = TelemetryChaos(ChaosConfig(telemetry_drop_prob=1.0),
                           rng=np.random.default_rng(3))
    monitor.add_interceptor(chaos)
    heard = []
    monitor.subscribe(heard.append)

    link = world.links[0]
    link.set_state(0.0, LinkState.DOWN)
    assert monitor.poll_all(2000.0) == []    # detected, dropped, muted
    assert monitor.poll_all(3000.0) == []    # still muted: nothing re-fires

    # After the TTL the mute expires; stop dropping and the symptom is
    # re-detected and finally delivered.
    chaos.config = ChaosConfig()
    delivered = monitor.poll_all(2000.0 + 3601.0)
    assert len(delivered) == 1
    assert heard == delivered
    assert delivered[0].symptom is Symptom.LINK_DOWN


def test_monitor_scan_with_dup_invokes_subscriber_twice():
    world = make_world()
    monitor = TelemetryMonitor(world.fabric, poll_seconds=60.0)
    monitor.add_interceptor(interceptor(telemetry_dup_prob=1.0))
    heard = []
    monitor.subscribe(heard.append)

    world.links[0].set_state(0.0, LinkState.DOWN)
    delivered = monitor.poll_all(2000.0)
    assert len(delivered) == 2
    assert heard == delivered
    # One *detection* regardless of how many deliveries it fanned into.
    assert len(monitor.events) == 1
