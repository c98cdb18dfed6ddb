"""The always-on service front-end over a live world (S21).

This is the layer that turns a batch simulation into a *service*: one
asyncio event loop hosts the simulation (stepped cooperatively by the
:class:`~dcrobot.service.bridge.SimBridge`), a materialized
:class:`~dcrobot.service.readmodel.ReadModel` per hall, streaming
telemetry ingestion under explicit backpressure, and the
:class:`~dcrobot.service.admission.AdmissionController` that decides
who gets served when demand exceeds capacity.

Separation of concerns, per the ISSUE's four layers:

* **queries** (``status`` / ``link_health`` / ``incident`` / ``smi`` /
  ``planned_touches``) are admission-guarded snapshot reads — they run
  at bridge yield points, immediately after a refresh, so what they
  see is exactly current and the ``audit_every`` parity oracle can be
  exact-match;
* **commands** (``request_maintenance``) route verbatim through the
  classic :class:`~dcrobot.core.api.MaintenanceServiceAPI` facade —
  authorizer and hash-chained audit log included — against the *live*
  (failover-aware) controller;
* **telemetry ingestion** (``offer_telemetry``) lands only in the read
  model's materialized stores, never in the simulation, so a served
  world stays bit-identical to an unserved one (the determinism suite
  pins ``summarize_world`` equality);
* **the wire** (``start_tcp``) is a minimal JSON-lines front door so
  "millions of users" is an actual socket, not a metaphor.

:func:`serve_world` is the one-call entry point: it hosts any
``WorldConfig``, one hall or a campus, as a :class:`ServedWorld` (one
bridge over every hall shard's sim, then hall 0's summary or the
normal S20 federation pass).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple, Union

from dcrobot.core.actions import Priority, RepairAction
from dcrobot.core.api import MaintenanceServiceAPI, MaintenanceStatus
from dcrobot.core.audit import AuthorizationError
from dcrobot.experiments.runner import RunResult, WorldConfig, WorldSummary
from dcrobot.obs.metrics import MetricsRegistry
from dcrobot.service.admission import (
    AdmissionConfig,
    AdmissionController,
    RequestKind,
)
from dcrobot.service.bridge import BridgeConfig, SimBridge
from dcrobot.service.readmodel import (
    CampusReadModel,
    ReadModel,
    ReadModelParityError,
)
from dcrobot.shard.campus import CampusSummary, CampusWorld
from dcrobot.topology.smi import SmiTracker, compute_smi

__all__ = ["ServiceConfig", "ServiceOverloadError", "TelemetryReport",
           "MaintenanceService", "ServedWorld", "serve_world"]

#: SMI audit tolerance: served (memoized) value vs a fresh rescan.
SMI_ATOL = 1e-12


class ServiceOverloadError(RuntimeError):
    """The request was shed by admission control (retry later)."""


@dataclasses.dataclass(frozen=True)
class TelemetryReport:
    """One device-stream report offered to the ingestion path."""

    source_id: str
    link_id: Optional[str] = None
    kind: str = "metric"
    value: float = 0.0
    time: float = 0.0
    hall: int = 0


@dataclasses.dataclass
class ServiceConfig:
    """Everything that defines one service plane instance."""

    #: Admission policy; ``None`` serves everything (the uncontrolled
    #: baseline ``e20_service_load`` measures against).
    admission: Optional[AdmissionConfig] = dataclasses.field(
        default_factory=AdmissionConfig)
    bridge: BridgeConfig = dataclasses.field(
        default_factory=BridgeConfig)
    #: Telemetry reports buffered between slices; beyond this the
    #: offer is refused (backpressure, counted — never silent).
    ingest_queue_limit: int = 1024
    #: Reports folded into the read model per bridge slice.
    ingest_budget_per_slice: int = 256
    #: Re-verify every Nth served status query against the full-scan
    #: oracle (0 = only when a caller asks with ``audit=True``).
    audit_every: int = 0
    #: Capability checking for the command path (see
    #: :class:`~dcrobot.core.audit.MaintenanceAuthorizer`); ``None``
    #: is trusted-environment mode.
    authorizer: Optional[object] = None

    def __post_init__(self) -> None:
        if self.ingest_queue_limit < 1:
            raise ValueError("ingest_queue_limit must be >= 1")
        if self.ingest_budget_per_slice < 1:
            raise ValueError("ingest_budget_per_slice must be >= 1")
        if self.audit_every < 0:
            raise ValueError("audit_every must be >= 0")


def _as_plain(value):
    """Best-effort JSON-safe projection for wire responses."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _as_plain(v) for k, v
                in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _as_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_plain(v) for v in value]
    return repr(value)


class MaintenanceService:
    """One service plane over one or more live hall worlds.

    ``worlds`` maps hall id -> built :class:`RunResult`; a lone
    :class:`RunResult` is accepted as hall 0.  All hall sims are
    stepped by a single :class:`SimBridge`, and every slice boundary
    drains the ingest queue then refreshes every hall's read model —
    so queries between slices see a coherent, current snapshot.
    """

    def __init__(self, worlds: Union[RunResult, Dict[int, RunResult]],
                 config: Optional[ServiceConfig] = None,
                 smi_trackers: Optional[Dict[int, SmiTracker]] = None,
                 clock=time.perf_counter,
                 sleep=asyncio.sleep) -> None:
        if isinstance(worlds, RunResult):
            worlds = {0: worlds}
        if not worlds:
            raise ValueError("need at least one world to serve")
        self.worlds: Dict[int, RunResult] = dict(sorted(worlds.items()))
        self.config = config or ServiceConfig()
        self.clock = clock
        self.metrics = MetricsRegistry()
        smi_trackers = smi_trackers or {}
        self.readmodels: Dict[int, ReadModel] = {
            hall: ReadModel(
                (lambda world=world: world.live_controller),
                world.fabric, smi_tracker=smi_trackers.get(hall))
            for hall, world in self.worlds.items()}
        self.read = CampusReadModel(self.readmodels)
        self.bridge = SimBridge(
            [world.sim for world in self.worlds.values()],
            self.config.bridge, clock=clock, sleep=sleep)
        self.bridge.add_slice_hook(self._on_slice)
        self.admission: Optional[AdmissionController] = None
        if self.config.admission is not None:
            self.admission = AdmissionController(
                self.config.admission, metrics=self.metrics,
                clock=clock)
        self._latency = self.metrics.histogram(
            "dcrobot_service_request_latency_seconds",
            help="Wall-clock latency of served requests")
        self._ingest_counter = self.metrics.counter(
            "dcrobot_service_ingest_total",
            help="Telemetry reports by ingest outcome")
        # -- ingestion state ----------------------------------------------
        self._ingest: Deque[Tuple[int, object]] = deque()
        self.ingest_offered = 0
        self.ingest_accepted = 0
        self.ingest_shed = 0
        self.ingest_applied = 0
        # -- parity-audit accounting --------------------------------------
        self.parity_audits = 0
        self.parity_failures = 0
        self._status_served = 0

    # -- bridge hook ----------------------------------------------------------

    def _on_slice(self, sim_now: float) -> None:
        """Runs at every bridge yield point: fold buffered telemetry
        into the read models, then refresh every snapshot."""
        budget = self.config.ingest_budget_per_slice
        drained = 0
        while self._ingest and drained < budget:
            hall, report = self._ingest.popleft()
            model = self.readmodels.get(hall)
            if model is not None:
                model.record_external(report)
            drained += 1
        self.ingest_applied += drained
        for model in self.readmodels.values():
            model.refresh(sim_now)

    def _hall(self, hall: int) -> ReadModel:
        model = self.readmodels.get(hall)
        if model is None:
            raise KeyError(f"unknown hall {hall}")
        return model

    # -- admission plumbing ---------------------------------------------------

    def _admit(self, kind: RequestKind,
               priority: Priority = Priority.NORMAL) -> None:
        if self.admission is not None \
                and not self.admission.admit(kind, priority):
            raise ServiceOverloadError(
                f"{kind.value} shed by admission control")

    def _observe(self, kind: RequestKind, started: float) -> None:
        self._latency.observe(self.clock() - started, cls=kind.value)

    # -- query path (snapshot reads) ------------------------------------------

    async def status(self, audit: bool = False) -> MaintenanceStatus:
        """Fleet-wide maintenance summary from the current snapshot.

        ``audit=True`` (or every ``config.audit_every``-th served
        call) re-derives the status via the legacy full scan and
        raises :class:`ReadModelParityError` on any divergence.
        """
        started = self.clock()
        self._admit(RequestKind.QUERY)
        self._status_served += 1
        every = self.config.audit_every
        if every and self._status_served % every == 0:
            audit = True
        if audit:
            self._audited(self.read.verify_status_parity)
        result = self.read.status()
        self._observe(RequestKind.QUERY, started)
        return result

    async def link_health(self, link_id: str,
                          hall: int = 0) -> Dict[str, object]:
        started = self.clock()
        self._admit(RequestKind.QUERY)
        result = self._hall(hall).link_health(link_id)
        self._observe(RequestKind.QUERY, started)
        return result

    async def incident(self, link_id: str, hall: int = 0):
        started = self.clock()
        self._admit(RequestKind.QUERY)
        result = self._hall(hall).incident(link_id)
        self._observe(RequestKind.QUERY, started)
        return result

    async def smi(self, hall: int = 0,
                  audit: bool = False) -> Optional[float]:
        """The hall's SMI from its read model; ``audit=True`` re-runs
        the full :func:`compute_smi` rescan and holds parity to
        1e-12."""
        started = self.clock()
        self._admit(RequestKind.QUERY)
        value = self._hall(hall).smi()
        if audit and value is not None:
            self._audited(
                lambda: self._audit_smi(hall, value))
        self._observe(RequestKind.QUERY, started)
        return value

    async def planned_touches(self, link_id: str,
                              action: RepairAction = RepairAction.RESEAT,
                              hall: int = 0):
        started = self.clock()
        self._admit(RequestKind.QUERY)
        world = self.worlds[hall]
        api = MaintenanceServiceAPI(world.live_controller)
        result = api.planned_touches(link_id, action)
        self._observe(RequestKind.QUERY, started)
        return result

    def _audit_smi(self, hall: int, value: float) -> None:
        oracle = compute_smi(self.worlds[hall].topology).smi
        if abs(value - oracle) > SMI_ATOL:
            raise ReadModelParityError(
                f"hall {hall} served SMI {value!r} diverged "
                f"from rescan {oracle!r}")

    def _audited(self, check) -> None:
        self.parity_audits += 1
        try:
            check()
        except ReadModelParityError:
            self.parity_failures += 1
            raise

    # -- command path (authorized, audited, mutating) -------------------------

    async def request_maintenance(self, link_id: str,
                                  action: Optional[RepairAction] = None,
                                  urgent: bool = False,
                                  principal: str = "anonymous",
                                  hall: int = 0) -> bool:
        """Forward a maintenance command to the live controller.

        Urgent commands are HIGH priority and (by default policy)
        exempt from admission — an emergency repair window is never
        shed.  Authorization and the tamper-evident audit trail happen
        inside the classic facade, exactly as before the refactor.
        """
        started = self.clock()
        priority = Priority.HIGH if urgent else Priority.NORMAL
        self._admit(RequestKind.COMMAND, priority)
        world = self.worlds[hall]
        api = MaintenanceServiceAPI(world.live_controller,
                                    authorizer=self.config.authorizer)
        accepted = api.request_maintenance(
            link_id, action=action, urgent=urgent, principal=principal)
        self._observe(RequestKind.COMMAND, started)
        return accepted

    # -- telemetry ingestion (backpressured) ----------------------------------

    def offer_telemetry(self, report) -> bool:
        """Offer one report to the ingest queue; False = shed.

        The queue is bounded: when producers outrun the per-slice
        drain budget, offers are refused *here*, visibly, instead of
        growing an unbounded buffer that stalls the sim loop.
        """
        self.ingest_offered += 1
        if len(self._ingest) >= self.config.ingest_queue_limit:
            self.ingest_shed += 1
            self._ingest_counter.inc(outcome="shed")
            return False
        hall = getattr(report, "hall", 0)
        if isinstance(report, dict):
            hall = report.get("hall", 0)
        self._ingest.append((int(hall), report))
        self.ingest_accepted += 1
        self._ingest_counter.inc(outcome="accepted")
        return True

    # -- the serve loop -------------------------------------------------------

    async def serve(self, until: float) -> None:
        """Step every hall sim to ``until`` while queries, commands and
        ingestion interleave at slice boundaries."""
        await self.bridge.run_until(until)

    # -- JSON-lines front door ------------------------------------------------

    async def start_tcp(self, host: str = "127.0.0.1",
                        port: int = 0):
        """Serve the API over newline-delimited JSON on a TCP socket.

        Request: ``{"op": ..., ...params}``; response:
        ``{"ok": true, "result": ...}`` or
        ``{"ok": false, "error": <class>, "detail": ...}``.
        Returns the ``asyncio.Server`` (bind port via
        ``server.sockets[0].getsockname()[1]``).
        """
        return await asyncio.start_server(self._handle_client,
                                          host, port)

    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._dispatch_line(line)
                writer.write(json.dumps(response,
                                        sort_keys=True).encode()
                             + b"\n")
                await writer.drain()
        finally:
            writer.close()

    async def _dispatch_line(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
            result = await self._dispatch(request)
            return {"ok": True, "result": _as_plain(result)}
        except ServiceOverloadError as error:
            return {"ok": False, "error": "overload",
                    "detail": str(error)}
        except AuthorizationError as error:
            return {"ok": False, "error": "denied",
                    "detail": str(error)}
        except KeyError as error:
            return {"ok": False, "error": "not-found",
                    "detail": str(error)}
        except (json.JSONDecodeError, TypeError,
                ValueError) as error:
            return {"ok": False, "error": "bad-request",
                    "detail": str(error)}

    async def _dispatch(self, request: dict):
        op = request.get("op")
        hall = int(request.get("hall", 0))
        if op == "status":
            return await self.status(
                audit=bool(request.get("audit", False)))
        if op == "link_health":
            return await self.link_health(request["link_id"],
                                          hall=hall)
        if op == "incident":
            return await self.incident(request["link_id"], hall=hall)
        if op == "smi":
            return await self.smi(
                hall=hall, audit=bool(request.get("audit", False)))
        if op == "planned_touches":
            action = RepairAction[request.get("action", "RESEAT")]
            return await self.planned_touches(request["link_id"],
                                              action=action,
                                              hall=hall)
        if op == "request_maintenance":
            action = request.get("action")
            return await self.request_maintenance(
                request["link_id"],
                action=RepairAction[action] if action else None,
                urgent=bool(request.get("urgent", False)),
                principal=request.get("principal", "anonymous"),
                hall=hall)
        if op == "telemetry":
            return self.offer_telemetry(TelemetryReport(
                source_id=request.get("source_id", "anonymous"),
                link_id=request.get("link_id"),
                kind=request.get("kind", "metric"),
                value=float(request.get("value", 0.0)),
                time=float(request.get("time", 0.0)),
                hall=hall))
        raise ValueError(f"unknown op {op!r}")


class ServedWorld:
    """A world, one hall or a campus, hosted behind a service plane.

    Every hall shard is assembled in-process (``CampusWorld.build``)
    and stepped by one service plane.  At the horizon each shard is
    finished as :meth:`~dcrobot.shard.hall.HallShard.run` finishes it,
    so ``summarize()`` is bit-identical to the batch run: at one hall
    the :class:`WorldSummary` of ``run_world``, otherwise the
    :class:`~dcrobot.shard.campus.CampusSummary` of ``run_campus``.
    """

    def __init__(self, config: WorldConfig,
                 service: Optional[ServiceConfig] = None) -> None:
        self.config = config
        self.campus = CampusWorld(config).build()
        shards = self.campus.shards
        self.service = MaintenanceService(
            {shard.hall_id: shard.result for shard in shards}, service,
            smi_trackers={shard.hall_id: shard.smi_tracker
                          for shard in shards})

    async def serve(self, until: Optional[float] = None) -> None:
        """Serve to ``until`` (default: the config horizon)."""
        if until is None:
            until = self.config.horizon_seconds
        await self.service.serve(until)
        if until >= self.config.horizon_seconds:
            for shard in self.campus.shards:
                # The serve window is shared by every hall; record it
                # as each shard's run wall so campus telemetry stays
                # honest about the single-loop mode.
                shard.run_wall_seconds = self.service.bridge.wall_seconds
                shard.finish()

    def summarize(self) -> Union[WorldSummary, CampusSummary]:
        """Hall 0's summary for one hall, else the federated campus
        summary of the served run."""
        hall0 = self.campus.shards[0]
        if hall0.summary is None:
            raise RuntimeError("serve() to the horizon first")
        if self.config.halls == 1:
            return hall0.summary
        return self.campus.run()


def serve_world(config: WorldConfig,
                service: Optional[ServiceConfig] = None) -> ServedWorld:
    """Host ``config`` behind a service plane configured by ``service``
    (a stock :class:`ServiceConfig` when omitted)."""
    return ServedWorld(config, service)
