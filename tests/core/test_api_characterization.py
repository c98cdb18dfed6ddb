"""Characterization tests pinning the pre-refactor facade behaviour.

The S21 service plane re-plumbs the query path of
:class:`~dcrobot.core.api.MaintenanceServiceAPI` (materialized
snapshots).  These tests pin the *existing*
surface — status shape and values, ``incident_for``,
``planned_touches``, the authorizer-denied + audit-logged command
path — so the refactor is observable as a no-op to every current
caller.
"""

import dataclasses

import pytest

from dcrobot.core import (
    AuthorizationError,
    AutomationLevel,
    MaintenanceAuthorizer,
    MaintenanceServiceAPI,
    RepairAction,
)
from dcrobot.core.api import full_scan_status
from dcrobot.experiments import WorldConfig, build_world, run_world
from dcrobot.network.enums import LinkState

DAY = 86400.0


@pytest.fixture
def quiet_world():
    """A world with failure physics off: nothing moves on its own."""
    return build_world(WorldConfig(
        horizon_days=3.0, seed=33, failure_scale=0.0,
        dust_rate_per_day=0.0, aging_rate_per_day=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION))


@pytest.fixture(scope="module")
def eventful_world():
    """A short chaos-free run with real failures and repairs."""
    return run_world(WorldConfig(
        horizon_days=4.0, seed=5, failure_scale=2.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION))


# -- status (query path) ------------------------------------------------------


def test_status_matches_full_scan_after_eventful_run(eventful_world):
    """The status equals the per-object scan, field for field, on a
    world where repairs actually happened."""
    api = MaintenanceServiceAPI(eventful_world.live_controller)
    assert api.status() == full_scan_status(api.controller)


def test_status_counts_known_down_links(quiet_world):
    api = MaintenanceServiceAPI(quiet_world.controller)
    before = api.status()
    assert before.links_down == 0
    assert before.links_total == len(quiet_world.fabric.links)

    links = list(quiet_world.fabric.links.values())[:3]
    for link in links:
        link.set_state(0.0, LinkState.DOWN)
    after = api.status()
    assert after.links_down == 3
    assert after == full_scan_status(api.controller)


def test_status_reports_controller_ledgers(eventful_world):
    controller = eventful_world.live_controller
    status = MaintenanceServiceAPI(controller).status()
    assert status.open_incidents == len(controller.open_incidents)
    assert status.closed_incidents == len(controller.closed_incidents)
    assert status.unresolved_incidents == len(
        controller.unresolved_incidents)
    assert status.proactive_operations == len(
        controller.proactive_outcomes)
    times = controller.repair_times()
    if times:
        assert status.mean_time_to_repair_seconds == pytest.approx(
            sum(times) / len(times))
    else:
        assert status.mean_time_to_repair_seconds is None


# -- incident_for / planned_touches ------------------------------------------


def test_incident_for_open_and_absent(quiet_world):
    api = MaintenanceServiceAPI(quiet_world.controller)
    link = next(iter(quiet_world.fabric.links.values()))
    assert api.incident_for(link.id) is None

    link.transceiver_a.firmware_stuck = True
    quiet_world.health.evaluate_link(link, 0.0)
    quiet_world.sim.run(until=3600.0)
    if link.id in quiet_world.controller.open_incidents:
        incident = api.incident_for(link.id)
        assert incident is not None
        assert incident.link_id == link.id


def test_planned_touches_announces_neighbourhood(quiet_world):
    api = MaintenanceServiceAPI(quiet_world.controller)
    link_id = next(iter(quiet_world.fabric.links))
    touches = api.planned_touches(link_id,
                                  action=RepairAction.RESEAT)
    # The announcement is the set of *neighbour* links a repair may
    # disturb: a list of known link ids (possibly empty for an
    # unbundled link), never an error.
    assert isinstance(touches, list)
    assert all(touch in quiet_world.fabric.links
               for touch in touches)


# -- authorizer + audit (command path) ----------------------------------------


def test_denied_command_is_audited_and_does_nothing(quiet_world):
    authorizer = MaintenanceAuthorizer()
    authorizer.issue("ops", [RepairAction.RESEAT])
    api = MaintenanceServiceAPI(quiet_world.controller,
                                authorizer=authorizer)
    link_id = next(iter(quiet_world.fabric.links))

    with pytest.raises(AuthorizationError):
        api.request_maintenance(link_id, urgent=True,
                                principal="mallory")
    # The denial is on the hash chain, and nothing was scheduled.
    records = authorizer.audit.entries_for(link_id)
    assert [record.allowed for record in records] == [False]
    assert authorizer.audit.verify_chain()
    assert not quiet_world.controller.open_incidents
    quiet_world.sim.run(until=1.0 * DAY)
    assert not quiet_world.controller.proactive_outcomes


def test_unknown_link_raises_before_authorization(quiet_world):
    authorizer = MaintenanceAuthorizer()
    api = MaintenanceServiceAPI(quiet_world.controller,
                                authorizer=authorizer)
    with pytest.raises(KeyError):
        api.request_maintenance("no-such-link", urgent=True)
    assert not authorizer.audit.records


def test_status_is_a_frozen_snapshot(eventful_world):
    status = MaintenanceServiceAPI(eventful_world.live_controller
                                   ).status()
    with pytest.raises(dataclasses.FrozenInstanceError):
        status.links_down = 0
