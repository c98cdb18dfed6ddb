"""The service-facing maintenance API (§2).

"Advanced dexterous robotics capable of performing intricate hardware
repairs controlled by a service API is required that allows higher
layers to interact with and finely control when and how maintenance
occurs.  The API needs to mask the complexity but enable complex
control."

:class:`MaintenanceServiceAPI` is that facade: cloud services use it to
request maintenance, ask what cables a pending repair will touch (so
they can migrate load), and observe fleet health — without ever seeing
robots, ladders, or schedulers.

The facade has two distinct halves, and the service plane (S21,
:mod:`dcrobot.service`) treats them differently:

* the **command path** (:meth:`MaintenanceServiceAPI.request_maintenance`)
  mutates the world and always routes through the authorizer/audit
  machinery — the service plane forwards commands here verbatim;
* the **query path** (:meth:`MaintenanceServiceAPI.status` and friends)
  is read-only.  ``status()`` serves its link counts from the columnar
  :class:`~dcrobot.network.state.FabricState` state-code array (one
  vectorized comparison instead of a Python loop over every link
  object); :func:`full_scan_status` keeps the legacy full scan as the
  parity oracle, and the service plane's materialized
  :class:`~dcrobot.service.readmodel.ReadModel` turns repeated queries
  into O(1) snapshot reads.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from dcrobot.core.actions import Priority, RepairAction, WorkOrder
from dcrobot.core.controller import MaintenanceController
from dcrobot.core.policy import PlanRequest
from dcrobot.network.enums import LinkState
from dcrobot.network.state import DOWN_CODE


@dataclasses.dataclass(frozen=True)
class MaintenanceStatus:
    """Fleet-level maintenance summary for dashboards/services."""

    open_incidents: int
    closed_incidents: int
    unresolved_incidents: int
    proactive_operations: int
    mean_time_to_repair_seconds: Optional[float]
    links_down: int
    links_total: int


def link_state_counts(fabric) -> tuple:
    """``(links_down, links_total)`` served from the columnar state:
    one vectorized comparison over the ``state_code`` array instead of
    a per-object scan."""
    state = fabric.state
    n = state.n_links
    down = int(np.count_nonzero(state.state_code[:n] == DOWN_CODE))
    return down, n


def full_scan_status(controller: MaintenanceController
                     ) -> MaintenanceStatus:
    """The legacy full-scan status: every link object visited.

    Kept as the parity oracle for the vectorized
    :meth:`MaintenanceServiceAPI.status` path and for the service
    plane's read-model snapshots (both must equal this exactly).
    """
    repair_times = controller.repair_times()
    links = controller.fabric.links.values()
    return MaintenanceStatus(
        open_incidents=len(controller.open_incidents),
        closed_incidents=len(controller.closed_incidents),
        unresolved_incidents=len(controller.unresolved_incidents),
        proactive_operations=len(controller.proactive_outcomes),
        mean_time_to_repair_seconds=(
            sum(repair_times) / len(repair_times)
            if repair_times else None),
        links_down=sum(1 for link in links
                       if link.state is LinkState.DOWN),
        links_total=len(links),
    )


class MaintenanceServiceAPI:
    """What a cloud service sees of the self-maintaining network.

    With an ``authorizer`` attached (§4 "Network security"), every
    maintenance request is checked against the caller's capability
    tokens and recorded in the tamper-evident audit log; without one,
    the API is open (trusted-environment mode).
    """

    def __init__(self, controller: MaintenanceController,
                 authorizer=None) -> None:
        self.controller = controller
        self.authorizer = authorizer

    # -- observation (query path) ----------------------------------------------

    def status(self) -> MaintenanceStatus:
        """Current maintenance-plane summary.

        Link counts come from the columnar state-code array (see
        :func:`link_state_counts`); everything else is O(1) controller
        bookkeeping except the MTTR sum, which the service plane's
        read model additionally materializes incrementally.
        """
        controller = self.controller
        repair_times = controller.repair_times()
        links_down, links_total = link_state_counts(controller.fabric)
        return MaintenanceStatus(
            open_incidents=len(controller.open_incidents),
            closed_incidents=len(controller.closed_incidents),
            unresolved_incidents=len(controller.unresolved_incidents),
            proactive_operations=len(controller.proactive_outcomes),
            mean_time_to_repair_seconds=(
                sum(repair_times) / len(repair_times)
                if repair_times else None),
            links_down=links_down,
            links_total=links_total,
        )

    def incident_for(self, link_id: str):
        """The open incident on a link, if any."""
        return self.controller.open_incidents.get(link_id)

    def planned_touches(self, link_id: str,
                        action: RepairAction = RepairAction.RESEAT
                        ) -> List[str]:
        """Which neighbour links a repair on ``link_id`` may contact.

        This is the §2 pre-maintenance announcement: services migrate
        load off these links before approving the repair window.
        """
        controller = self.controller
        link = controller.fabric.links[link_id]
        executor = controller._select_executor(action, link)
        if executor is None:
            return []
        probe = WorkOrder(link_id, action, controller.sim.now)
        return executor.announce_touches(probe)

    # -- control (command path) --------------------------------------------------

    def request_maintenance(self, link_id: str,
                            action: Optional[RepairAction] = None,
                            urgent: bool = False,
                            principal: str = "anonymous") -> bool:
        """Ask the plane to service a link (e.g. ahead of a big job).

        Returns False if the link already has an open incident (it is
        being handled).  The request follows the proactive path: it is
        deferred to a quiet window unless ``urgent``.  Raises
        :class:`~dcrobot.core.audit.AuthorizationError` if an
        authorizer is attached and ``principal`` lacks the capability.
        """
        controller = self.controller
        if link_id not in controller.fabric.links:
            raise KeyError(f"unknown link {link_id}")
        if self.authorizer is not None:
            self.authorizer.authorize(
                controller.sim.now, principal,
                action or RepairAction.RESEAT, link_id)
        if link_id in controller.open_incidents:
            return False
        request = PlanRequest(
            link_id=link_id,
            priority=Priority.HIGH if urgent else Priority.NORMAL,
            reason="service-api",
            action=action,
            proactive=not urgent)
        controller.sim.process(controller._proactive(request))
        return True
