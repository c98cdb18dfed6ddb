"""Unit tests for fault injection and cascading touch side-effects."""

import numpy as np
import pytest

from dcrobot.failures import (
    HUMAN_HANDS,
    ROBOT_GRIPPER,
    CascadeModel,
    ContactProfile,
    Environment,
    FailureRates,
    FaultInjector,
    HealthModel,
)
from dcrobot.network import (
    CableKind,
    DegradationKind,
    Fabric,
    HallLayout,
    LinkState,
    SwitchRole,
)
from dcrobot.sim import Simulation


def build_world(links=4, seed=3, kind=CableKind.MPO):
    rng = np.random.default_rng(seed)
    fabric = Fabric(layout=HallLayout(rows=1, racks_per_row=2), rng=rng)
    a = fabric.add_switch(SwitchRole.TOR, radix=max(links, 2),
                          rack_id=fabric.layout.rack_at(0, 0).id)
    b = fabric.add_switch(SwitchRole.TOR, radix=max(links, 2),
                          rack_id=fabric.layout.rack_at(0, 1).id)
    made = [fabric.connect(a.id, b.id, kind=kind) for _ in range(links)]
    env = Environment(diurnal_amplitude_c=0.0)
    health = HealthModel(fabric, env, rng=np.random.default_rng(seed + 1))
    return fabric, made, env, health


# -- rates -----------------------------------------------------------------

def test_rates_scaling():
    rates = FailureRates().scaled(2.0)
    assert rates.oxidation == pytest.approx(1.2)
    assert rates.total == pytest.approx(FailureRates().total * 2)
    with pytest.raises(ValueError):
        FailureRates().scaled(-1.0)


def test_rate_of_covers_every_kind():
    rates = FailureRates()
    for kind in DegradationKind:
        assert rates.rate_of(kind) >= 0


# -- direct injection ---------------------------------------------------------

@pytest.mark.parametrize("kind,check", [
    (DegradationKind.OXIDATION,
     lambda link: max(link.transceiver_a.oxidation,
                      link.transceiver_b.oxidation) > 0.3),
    (DegradationKind.FIRMWARE_STUCK,
     lambda link: link.transceiver_a.firmware_stuck
     or link.transceiver_b.firmware_stuck),
    (DegradationKind.CONTAMINATION,
     lambda link: link.cable.worst_contamination > 0.2),
    (DegradationKind.TRANSCEIVER_HW,
     lambda link: link.transceiver_a.hw_fault
     or link.transceiver_b.hw_fault),
    (DegradationKind.CABLE_DAMAGE, lambda link: link.cable.damaged),
    (DegradationKind.SWITCH_HW,
     lambda link: link.port_a.hw_fault or link.port_b.hw_fault),
])
def test_inject_each_kind(kind, check):
    fabric, links, _env, health = build_world()
    injector = FaultInjector(fabric, health,
                             rng=np.random.default_rng(0))
    fault = injector.inject(kind, links[0], now=10.0)
    assert check(links[0])
    assert fault.kind is kind
    assert injector.counts[kind] == 1
    assert injector.log == [fault]


def test_contamination_on_sealed_cable_becomes_oxidation():
    fabric, links, _env, health = build_world(kind=CableKind.AOC)
    injector = FaultInjector(fabric, health,
                             rng=np.random.default_rng(0))
    fault = injector.inject(DegradationKind.CONTAMINATION, links[0], 0.0)
    assert "oxidation" in fault.detail
    assert links[0].cable.worst_contamination == 0.0


def test_injection_updates_link_state_immediately():
    fabric, links, _env, health = build_world()
    injector = FaultInjector(fabric, health,
                             rng=np.random.default_rng(0))
    injector.inject(DegradationKind.TRANSCEIVER_HW, links[0], 5.0)
    assert links[0].state is LinkState.DOWN


def test_run_cause_produces_expected_volume():
    fabric, links, _env, health = build_world(links=10)
    # 50 firmware events/link-year over 10 links for half a year ~ 250.
    rates = FailureRates(oxidation=0, firmware_stuck=50.0, contamination=0,
                         transceiver_hw=0, cable_damage=0, switch_hw=0)
    injector = FaultInjector(fabric, health, rates=rates,
                             rng=np.random.default_rng(7))
    sim = Simulation()
    sim.process(injector.run_cause(sim, DegradationKind.FIRMWARE_STUCK))
    sim.run(until=0.5 * 365.25 * 86400)
    count = injector.counts[DegradationKind.FIRMWARE_STUCK]
    assert 150 <= count <= 350


def test_faults_between_window():
    fabric, links, _env, health = build_world()
    injector = FaultInjector(fabric, health,
                             rng=np.random.default_rng(0))
    injector.inject(DegradationKind.OXIDATION, links[0], 10.0)
    injector.inject(DegradationKind.OXIDATION, links[1], 50.0)
    # The ground-truth log keeps each fault's time, so a window is a
    # filter over it.
    assert [fault.link_id for fault in injector.log
            if 0.0 <= fault.time < 20.0] == [links[0].id]
    assert len(injector.log) == 2


# -- cascade --------------------------------------------------------------------

def test_contact_profile_validation():
    with pytest.raises(ValueError):
        ContactProfile(neighbor_contact_fraction=1.5,
                       transient_probability=0.1,
                       damage_probability=0.0)


def test_profiles_orders_human_worse_than_robot():
    assert (HUMAN_HANDS.neighbor_contact_fraction
            > ROBOT_GRIPPER.neighbor_contact_fraction)
    assert (HUMAN_HANDS.transient_probability
            > ROBOT_GRIPPER.transient_probability)
    assert (HUMAN_HANDS.damage_probability
            > ROBOT_GRIPPER.damage_probability)


def test_touch_disturbs_neighbors_with_human_profile():
    fabric, links, env, health = build_world(links=12, seed=5)
    cascade = CascadeModel(fabric, health, env,
                           rng=np.random.default_rng(2))
    report = cascade.touch(links[0], HUMAN_HANDS, now=0.0)
    assert links[0].id not in report.touched_links
    assert report.secondary_failures >= 1
    assert cascade.reports == [report]
    # Disturbed neighbours are marked in the health model.
    for link_id in report.disturbed_links:
        assert health.is_disturbed(link_id, 10.0)


def test_touch_with_robot_profile_rarely_disturbs():
    fabric, links, env, health = build_world(links=12, seed=5)
    cascade = CascadeModel(fabric, health, env,
                           rng=np.random.default_rng(2))
    total = 0
    for _ in range(50):
        report = cascade.touch(links[0], ROBOT_GRIPPER, now=0.0)
        total += report.secondary_failures
    human_cascade = CascadeModel(fabric, health, env,
                                 rng=np.random.default_rng(2))
    human_total = 0
    for _ in range(50):
        report = human_cascade.touch(links[0], HUMAN_HANDS, now=0.0)
        human_total += report.secondary_failures
    assert total < human_total


def test_touch_adds_vibration():
    fabric, links, env, health = build_world(links=4, seed=5)
    cascade = CascadeModel(fabric, health, env,
                           rng=np.random.default_rng(2))
    cascade.touch(links[0], HUMAN_HANDS, now=0.0)
    assert env.vibration_level(1.0) >= HUMAN_HANDS.vibration_magnitude


def test_predict_touched_scales_with_profile():
    fabric, links, env, health = build_world(links=12, seed=5)
    cascade = CascadeModel(fabric, health, env,
                           rng=np.random.default_rng(2))
    human_predicted = cascade.predict_touched(links[0], HUMAN_HANDS)
    robot_predicted = cascade.predict_touched(links[0], ROBOT_GRIPPER)
    assert len(human_predicted) > len(robot_predicted)


def test_unbundled_link_has_no_cascade():
    fabric, links, env, health = build_world(links=1)
    cascade = CascadeModel(fabric, health, env,
                           rng=np.random.default_rng(2))
    report = cascade.touch(links[0], HUMAN_HANDS, now=0.0)
    assert report.secondary_failures == 0
