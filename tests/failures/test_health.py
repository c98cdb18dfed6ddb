"""Unit tests for the link health model (gray failures, flapping)."""

import numpy as np
import pytest

from dcrobot.failures import Environment, HealthModel, HealthParams
from dcrobot.network import (
    CableKind,
    Fabric,
    HallLayout,
    LinkState,
    SwitchRole,
)

from tests.conftest import start_sweeps


def make_link(kind=CableKind.MPO, seed=2):
    rng = np.random.default_rng(seed)
    fabric = Fabric(layout=HallLayout(rows=1, racks_per_row=2), rng=rng)
    a = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=fabric.layout.rack_at(0, 0).id)
    b = fabric.add_switch(SwitchRole.TOR, radix=4,
                          rack_id=fabric.layout.rack_at(0, 1).id)
    link = fabric.connect(a.id, b.id, kind=kind)
    env = Environment(diurnal_amplitude_c=0.0)
    health = HealthModel(fabric, env, rng=np.random.default_rng(seed))
    return fabric, link, env, health


def test_healthy_link_scores_zero():
    _fabric, link, _env, health = make_link()
    assert health.impairment_score(link, 0.0) == 0.0
    health.evaluate_link(link, 0.0)
    assert link.state is LinkState.UP
    assert link.loss_rate == pytest.approx(health.params.base_loss)


def test_params_validation():
    with pytest.raises(ValueError):
        HealthParams(marginal_threshold=0.9, hard_down_threshold=0.5)
    with pytest.raises(ValueError):
        HealthParams(tick_seconds=0.0)


@pytest.mark.parametrize("mutate", [
    lambda link: setattr(link.transceiver_a, "firmware_stuck", True),
    lambda link: link.transceiver_b.fail_hardware(),
    lambda link: link.cable.damage(),
    lambda link: setattr(link.port_a, "hw_fault", True),
    lambda link: link.cable.end_a.scratch(0),
    lambda link: link.transceiver_a.unseat(),
    lambda link: link.cable.detach("b"),
])
def test_hard_faults_score_one_and_down(mutate):
    _fabric, link, _env, health = make_link()
    mutate(link)
    assert health.impairment_score(link, 0.0) == 1.0
    health.evaluate_link(link, 0.0)
    assert link.state is LinkState.DOWN
    assert link.loss_rate == 1.0


def test_heavy_oxidation_hard_down():
    _fabric, link, _env, health = make_link()
    link.transceiver_a.oxidation = 0.95
    health.evaluate_link(link, 0.0)
    assert link.state is LinkState.DOWN


def test_moderate_dirt_is_marginal_not_down():
    _fabric, link, _env, health = make_link()
    link.cable.end_a.add_contamination(0.55)
    score = health.impairment_score(link, 0.0)
    assert (health.params.marginal_threshold <= score
            < health.params.hard_down_threshold)


def test_marginal_link_flaps_over_time():
    _fabric, link, _env, health = make_link()
    link.cable.end_a.add_contamination(0.6)
    for tick in range(400):
        health.evaluate_link(link, tick * 60.0)
    # A marginal link must oscillate: multiple up<->down transitions.
    assert link.transitions_in_window(0.0, 400 * 60.0) >= 4
    down_episodes = sum(1 for _t, s in link.history
                        if s is LinkState.DOWN)
    up_episodes = sum(1 for _t, s in link.history if s is LinkState.UP)
    assert down_episodes >= 2
    assert up_episodes >= 2


def test_flapping_good_phase_has_elevated_loss():
    _fabric, link, _env, health = make_link()
    link.cable.end_a.add_contamination(0.6)
    losses = []
    for tick in range(200):
        health.evaluate_link(link, tick * 60.0)
        if link.state is LinkState.UP:
            losses.append(link.loss_rate)
    assert losses, "link never in good phase"
    assert max(losses) > health.params.base_loss * 100


def test_environment_stress_amplifies_dirt():
    _fabric, link, env, health = make_link()
    link.cable.end_a.add_contamination(0.5)
    calm = health.impairment_score(link, 0.0)
    env.add_vibration(0.0, 1.0, 1000.0)
    stressed = health.impairment_score(link, 10.0)
    assert stressed > calm


def test_disturbance_raises_score_then_expires():
    _fabric, link, _env, health = make_link()
    health.disturb(link.id, until=500.0)
    assert health.impairment_score(link, 100.0) == pytest.approx(
        health.params.disturbance_score)
    assert health.impairment_score(link, 600.0) == 0.0


def test_disturb_keeps_longest_expiry():
    _fabric, link, _env, health = make_link()
    health.disturb(link.id, until=500.0)
    health.disturb(link.id, until=300.0)
    assert health.is_disturbed(link.id, 400.0)


def test_maintenance_state_untouched():
    _fabric, link, _env, health = make_link()
    link.set_state(0.0, LinkState.MAINTENANCE)
    link.transceiver_a.fail_hardware()
    health.evaluate_link(link, 10.0)
    assert link.state is LinkState.MAINTENANCE


def test_repair_recovers_link():
    _fabric, link, _env, health = make_link()
    link.transceiver_a.firmware_stuck = True
    health.evaluate_link(link, 0.0)
    assert link.state is LinkState.DOWN
    # Reseat: unseat + seat clears the wedge.
    link.transceiver_a.unseat()
    link.transceiver_a.seat(now=60.0, rng=np.random.default_rng(0))
    health.evaluate_link(link, 60.0)
    assert link.state is LinkState.UP


def test_marginal_loss_monotone_in_score():
    _fabric, _link, _env, health = make_link()
    scores = [0.2, 0.4, 0.6]
    losses = [health.marginal_loss(s) for s in scores]
    assert losses == sorted(losses)
    assert losses[-1] <= health.params.max_marginal_loss


def test_tick_covers_all_links():
    fabric, link, env, health = make_link()
    a, b = link.endpoint_ids
    second = fabric.connect(a, b, kind=CableKind.MPO)
    second.transceiver_a.fail_hardware()
    health.tick_all(0.0)
    assert second.state is LinkState.DOWN
    assert link.state is LinkState.UP


def test_health_run_process():
    from dcrobot.sim import Simulation

    fabric, link, env, health = make_link()
    sim = Simulation()
    link.transceiver_a.firmware_stuck = True
    start_sweeps(sim, health=health)
    sim.run(until=health.params.tick_seconds * 3)
    assert link.state is LinkState.DOWN
