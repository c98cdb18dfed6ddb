"""Service front-end: backpressure, admission, auth routing, wire."""

import asyncio
import json

import pytest

from dcrobot.core import (
    AuthorizationError,
    AutomationLevel,
    MaintenanceAuthorizer,
    RepairAction,
)
from dcrobot.experiments import WorldConfig, build_world
from dcrobot.service import (
    AdmissionConfig,
    BridgeConfig,
    MaintenanceService,
    ServiceConfig,
    ServiceOverloadError,
    TelemetryReport,
)

DAY = 86400.0


def quiet_world():
    return build_world(WorldConfig(
        horizon_days=3.0, seed=33, failure_scale=0.0,
        dust_rate_per_day=0.0, aging_rate_per_day=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION))


def service_over(world, **config):
    config.setdefault("admission", None)
    config.setdefault("bridge", BridgeConfig(max_events_per_slice=64))
    return MaintenanceService(world, ServiceConfig(**config))


# -- telemetry backpressure ---------------------------------------------------


def test_burst_beyond_queue_limit_sheds_visibly():
    """A burst 10x the per-slice ingest budget: the bounded queue
    accepts up to its limit, sheds the rest loudly, and the drain
    catches up over subsequent slices."""
    world = quiet_world()
    service = service_over(world, ingest_queue_limit=16,
                           ingest_budget_per_slice=8)
    burst = [TelemetryReport(source_id=f"dev-{i}", value=float(i))
             for i in range(80)]  # 10x the slice budget
    accepted = [service.offer_telemetry(report) for report in burst]
    assert accepted == [True] * 16 + [False] * 64
    assert service.ingest_accepted - service.ingest_applied == 16
    assert service.ingest_shed == 64
    counter = service.metrics.counter("dcrobot_service_ingest_total")
    assert counter.value(outcome="shed") == 64
    assert counter.value(outcome="accepted") == 16

    asyncio.run(service.serve(0.25 * DAY))
    assert service.ingest_applied == 16
    assert service.ingest_accepted - service.ingest_applied == 0
    # Materialized, latest-per-source.
    model = service.readmodels[0]
    assert model.external_last["dev-3"].value == 3.0
    # Once drained, new offers are accepted again.
    assert service.offer_telemetry(
        TelemetryReport(source_id="dev-80"))


def test_ingestion_never_lands_in_the_sim():
    world = quiet_world()
    service = service_over(world)
    heap_before = list(world.sim._heap)
    for i in range(10):
        service.offer_telemetry(TelemetryReport(source_id=f"d{i}"))
    assert list(world.sim._heap) == heap_before


# -- admission at the endpoints ----------------------------------------------


def test_query_flood_sheds_with_overload_error():
    world = quiet_world()
    service = service_over(world, admission=AdmissionConfig(
        query_rate=0.0, query_burst=5.0))

    async def flood():
        served, shed = 0, 0
        for _ in range(20):
            try:
                await service.status()
                served += 1
            except ServiceOverloadError:
                shed += 1
        return served, shed

    served, shed = asyncio.run(flood())
    assert (served, shed) == (5, 15)
    assert service.admission.shed("query") == 15
    histogram = service.metrics.histogram(
        "dcrobot_service_request_latency_seconds")
    assert histogram.count(cls="query") == 5


def test_urgent_commands_bypass_a_drained_bucket():
    world = quiet_world()
    service = service_over(world, admission=AdmissionConfig(
        command_rate=0.0, command_burst=0.0))
    link_ids = list(world.fabric.links)

    async def drive():
        with pytest.raises(ServiceOverloadError):
            await service.request_maintenance(link_ids[0])
        # HIGH priority is exempt: never shed, even at burst 0.
        results = [await service.request_maintenance(link_id,
                                                     urgent=True)
                   for link_id in link_ids[:3]]
        return results

    assert asyncio.run(drive()) == [True] * 3
    assert service.admission.shed("command-high") == 0


# -- command routing through authorizer + audit -------------------------------


def test_commands_route_through_authorizer_and_audit():
    world = quiet_world()
    authorizer = MaintenanceAuthorizer()
    authorizer.issue("storage", [RepairAction.RESEAT])
    service = service_over(world, authorizer=authorizer)
    link_id = next(iter(world.fabric.links))

    async def drive():
        accepted = await service.request_maintenance(
            link_id, action=RepairAction.RESEAT, urgent=True,
            principal="storage")
        with pytest.raises(AuthorizationError):
            await service.request_maintenance(
                link_id, action=RepairAction.RESEAT, urgent=True,
                principal="mallory")
        await service.serve(1.0 * DAY)
        return accepted

    assert asyncio.run(drive())
    decisions = [record.allowed
                 for record in authorizer.audit.entries_for(link_id)]
    assert decisions == [True, False]
    assert authorizer.audit.verify_chain()
    # The authorized command actually ran.
    assert world.live_controller.proactive_outcomes


# -- parity auditing on live traffic ------------------------------------------


def test_audit_every_reverifies_against_the_oracle():
    world = quiet_world()
    service = service_over(world, audit_every=2)

    async def drive():
        await service.serve(0.5 * DAY)
        for _ in range(6):
            await service.status()

    asyncio.run(drive())
    assert service.parity_audits == 3
    assert service.parity_failures == 0


# -- the JSON-lines wire ------------------------------------------------------


async def roundtrip(service, requests):
    server = await service.start_tcp()
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    try:
        for request in requests:
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
    return responses


def test_tcp_front_door_round_trip():
    world = quiet_world()
    authorizer = MaintenanceAuthorizer()
    authorizer.issue("storage", [RepairAction.RESEAT])
    service = service_over(world, authorizer=authorizer)
    link_id = next(iter(world.fabric.links))

    responses = asyncio.run(roundtrip(service, [
        {"op": "status"},
        {"op": "link_health", "link_id": link_id},
        {"op": "telemetry", "source_id": "dev-1", "link_id": link_id,
         "value": 2.5},
        {"op": "request_maintenance", "link_id": link_id,
         "action": "RESEAT", "urgent": True, "principal": "storage"},
        {"op": "request_maintenance", "link_id": link_id,
         "action": "RESEAT", "urgent": True, "principal": "mallory"},
        {"op": "link_health", "link_id": "no-such-link"},
        {"op": "warp-core-dump"},
    ]))

    status, health, telemetry, allowed, denied, missing, bogus = \
        responses
    assert status["ok"] and status["result"]["links_total"] == len(
        world.fabric.links)
    assert health["ok"] and health["result"]["link_id"] == link_id
    assert telemetry == {"ok": True, "result": True}
    assert allowed["ok"] is True
    assert denied["ok"] is False and denied["error"] == "denied"
    assert missing["ok"] is False and missing["error"] == "not-found"
    assert bogus["ok"] is False and bogus["error"] == "bad-request"
    # The wire telemetry is queued for the next slice drain.
    assert service.ingest_accepted - service.ingest_applied == 1


def test_smi_endpoint_audits_against_full_rescan():
    world = quiet_world()
    from dcrobot.topology.smi import SmiTracker

    service = MaintenanceService(
        world, ServiceConfig(admission=None),
        smi_trackers={0: SmiTracker(world.topology)})

    async def drive():
        await service.serve(0.5 * DAY)
        return await service.smi(audit=True)

    value = asyncio.run(drive())
    assert value is not None
    assert service.parity_audits == 1
    assert service.parity_failures == 0
