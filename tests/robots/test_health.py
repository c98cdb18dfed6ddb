"""Unit tests for the per-robot health model and unit heartbeats."""

import numpy as np
import pytest

from dcrobot.robots.health import (
    OrderHazard,
    RobotHealthModel,
    RobotHealthParams,
    UnitHealth,
)
from dcrobot.telemetry.monitor import TelemetryMonitor

from tests.conftest import make_world


class FakeUnit:
    def __init__(self, unit_id):
        self.id = unit_id


def make_model(**overrides):
    return RobotHealthModel(RobotHealthParams(**overrides),
                            rng=np.random.default_rng(7))


# -- params ------------------------------------------------------------------


@pytest.mark.parametrize("field, value", [
    ("wear_per_operation", -0.1),
    ("fault_per_order", 1.5),
    ("battery_capacity_seconds", 0.0),
    ("recharge_threshold", 1.0),
    ("heartbeat_seconds", 0.0),
    ("heartbeat_miss_threshold", 0),
    ("quorum_fraction", -0.1),
    ("robot_spares", -1),
    ("fault_onset_seconds", (100.0, 10.0)),
])
def test_params_validation(field, value):
    with pytest.raises(ValueError):
        RobotHealthParams(**{field: value})


def test_heartbeat_timeout_is_miss_threshold_times_cadence():
    params = RobotHealthParams(heartbeat_seconds=45.0,
                               heartbeat_miss_threshold=4)
    assert params.heartbeat_timeout_seconds == 180.0


# -- unit records ------------------------------------------------------------


def test_register_is_idempotent_and_record_for_finds_it():
    model = make_model()
    unit = FakeUnit("m-0")
    record = model.register(unit)
    assert model.register(unit) is record
    assert model.record_for("m-0") is record
    assert model.record_for("nope") is None


def test_in_service_excludes_dead_lost_and_quarantined():
    record = UnitHealth(unit_id="u")
    assert record.in_service
    record.lost = True
    assert not record.in_service
    record.lost = False
    record.quarantined = True
    assert not record.in_service
    record.quarantined = False
    record.alive = False
    assert not record.in_service


def test_beating_stops_when_dead_or_suppressed():
    record = UnitHealth(unit_id="u")
    assert record.beating(0.0)
    record.suppress_until = 100.0
    assert not record.beating(50.0)   # zombie: dark while working
    assert record.beating(100.0)      # ...and resumes afterwards
    record.alive = False
    assert not record.beating(200.0)  # the dead never resume


# -- hazards -----------------------------------------------------------------


def test_fault_probability_grows_with_wear_and_caps_at_one():
    model = make_model(fault_per_order=0.01, wear_fault_weight=0.5)
    record = UnitHealth(unit_id="u")
    assert model.fault_probability(record) == pytest.approx(0.01)
    record.wear = 0.4
    assert model.fault_probability(record) == pytest.approx(0.21)
    record.wear = 1e9
    assert model.fault_probability(record) == 1.0


def test_plan_order_death_onset_falls_inside_the_bounds():
    model = make_model(fault_per_order=1.0,
                       fault_onset_seconds=(30.0, 90.0))
    hazard = model.plan_order(UnitHealth(unit_id="u"))
    assert hazard.dies
    assert 30.0 <= hazard.after_seconds <= 90.0


def test_plan_order_survives_with_zero_hazard():
    model = make_model(fault_per_order=0.0, wear_fault_weight=0.0)
    assert model.plan_order(UnitHealth(unit_id="u")) == OrderHazard()


def test_plan_order_always_consumes_exactly_one_survival_draw():
    """The survival draw happens even for healthy units, so the hazard
    stream stays aligned no matter how individual orders turn out."""
    model_a = make_model(fault_per_order=0.0, wear_fault_weight=0.0)
    model_b = make_model(fault_per_order=0.0, wear_fault_weight=0.0)
    record = UnitHealth(unit_id="u")
    for _ in range(5):
        model_a.plan_order(record)
        model_b.rng.random()
    assert (model_a.rng.bit_generator.state
            == model_b.rng.bit_generator.state)


# -- battery -----------------------------------------------------------------


def test_drain_needs_charge_and_recharge_cycle():
    model = make_model(battery_capacity_seconds=1000.0,
                       recharge_threshold=0.25,
                       charge_cycle_wear=0.01)
    record = UnitHealth(unit_id="u")
    model.drain(record, 500.0)
    assert record.battery == pytest.approx(0.5)
    assert not model.needs_charge(record)
    model.drain(record, 300.0)
    assert model.needs_charge(record)
    model.drain(record, 9999.0)
    assert record.battery == 0.0  # floors, never negative
    model.recharge(record)
    assert record.battery == 1.0
    assert record.charge_cycles == 1
    assert record.wear == pytest.approx(0.01)  # packs age per cycle
    model.drain(record, -5.0)
    assert record.battery == 1.0  # non-positive drain is a no-op


# -- wear and flakiness ------------------------------------------------------


def test_record_operation_accumulates_wear():
    model = make_model(wear_per_operation=0.02)
    record = UnitHealth(unit_id="u")
    for _ in range(3):
        model.record_operation(record)
    assert record.orders_done == 3
    assert record.wear == pytest.approx(0.06)


def test_is_flaky_counts_only_faults_inside_the_window():
    model = make_model(flaky_fault_threshold=2,
                       flaky_window_seconds=100.0)
    record = UnitHealth(unit_id="u")
    model.record_fault(record, 0.0)
    model.record_fault(record, 10.0)
    assert model.is_flaky(record, 50.0)
    # The early faults age out of the window.
    assert not model.is_flaky(record, 500.0)
    model.record_fault(record, 490.0)
    assert not model.is_flaky(record, 500.0)
    model.record_fault(record, 495.0)
    assert model.is_flaky(record, 500.0)


# -- telemetry heartbeats ----------------------------------------------------


def test_monitor_heartbeats_age_and_staleness():
    world = make_world()
    monitor = TelemetryMonitor(world.fabric)
    assert monitor.stale_sources(now=10.0, timeout=30.0) == []
    monitor.record_heartbeat("m-0", 10.0)
    monitor.record_heartbeat("m-1", 40.0)
    assert monitor.stale_sources(now=50.0, timeout=30.0) == ["m-0"]
    assert monitor.stale_sources(now=250.0, timeout=30.0) \
        == ["m-0", "m-1"]
    monitor.record_heartbeat("m-0", 251.0)
    assert monitor.stale_sources(now=252.0, timeout=30.0) == ["m-1"]
