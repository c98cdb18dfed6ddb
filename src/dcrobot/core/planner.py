"""Planning: fleet sizing and twin-guided repair-plan ranking.

Two planners live here:

* :class:`FleetPlanner` — §3.4's "how many robots does a hall need?":
  model the fleet as an M/M/c queue (Poisson incident arrivals,
  exponential-ish service), size c so the predicted repair wait meets
  a target, and report utilization.  The analytic prediction
  deliberately ignores verification delays and human-fallback actions
  — it sizes the *robotic* stage; integration tests check it against
  full simulations.

* :class:`TwinPlanner` — §4's predictive-maintenance loop made
  concrete: fork the live world per candidate repair
  (:class:`~dcrobot.twin.world.TwinWorld`), roll each twin a few
  traffic windows ahead under the live matrix, and rank plans by
  predicted post-repair SMI and p99 flow-completion time.  The
  controller consults it (``planner=`` flag) before dispatching
  proactive work, so competing campaign candidates are ordered by
  what the twin says the fabric will look like, not by queue order.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

import numpy as np

from dcrobot.failures.hazards import per_year
from dcrobot.failures.injector import FailureRates
from dcrobot.robots.fleet import FleetConfig
from dcrobot.robots.mobility import MobilityScope
from dcrobot.topology.base import Topology


def erlang_c(servers: int, offered_load: float) -> float:
    """P(wait > 0) for an M/M/c queue with offered load in Erlangs."""
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if offered_load < 0:
        raise ValueError("offered_load must be >= 0")
    if offered_load >= servers:
        return 1.0
    # Stable iterative form of the Erlang-C formula.
    term = 1.0
    total = 1.0
    for k in range(1, servers):
        term *= offered_load / k
        total += term
    term *= offered_load / servers
    blocking = term * servers / (servers - offered_load)
    return blocking / (total + blocking)


@dataclasses.dataclass(frozen=True)
class FleetPlan:
    """The planner's recommendation and its queueing prediction."""

    manipulators: int
    cleaners: int
    scope: MobilityScope
    predicted_wait_seconds: float
    predicted_repair_seconds: float
    utilization: float
    incident_rate_per_hour: float

    def to_fleet_config(self) -> FleetConfig:
        return FleetConfig(manipulators=self.manipulators,
                           cleaners=self.cleaners, scope=self.scope)

    def __repr__(self) -> str:
        return (f"<FleetPlan {self.manipulators}+{self.cleaners} "
                f"{self.scope.value} repair~"
                f"{self.predicted_repair_seconds:.0f}s "
                f"util={self.utilization:.1%}>")


class FleetPlanner:
    """Sizes a robot fleet for a hall and fault environment."""

    def __init__(self, topology: Topology,
                 rates: Optional[FailureRates] = None,
                 robot_speed_m_s: float = 0.5,
                 mean_operation_seconds: float = 250.0,
                 alignment_seconds: float = 30.0) -> None:
        if mean_operation_seconds <= 0:
            raise ValueError("mean_operation_seconds must be > 0")
        self.topology = topology
        self.rates = rates or FailureRates()
        self.robot_speed_m_s = robot_speed_m_s
        self.mean_operation_seconds = mean_operation_seconds
        self.alignment_seconds = alignment_seconds

    # -- model inputs -----------------------------------------------------------

    def incident_rate_per_second(self) -> float:
        """Fleet-wide robot-serviceable incident arrival rate.

        Cable and switchgear failures fall back to humans at L3, so
        they are excluded from the robotic queue.
        """
        robot_rate = (self.rates.total - self.rates.cable_damage
                      - self.rates.switch_hw)
        return per_year(robot_rate) * len(self.topology.fabric.links)

    def mean_travel_seconds(self) -> float:
        """Expected aisle travel to a uniformly chosen occupied rack.

        Assumes home positions amortize to the hall centroid — a good
        approximation once robots visit faults in random racks.
        """
        fabric = self.topology.fabric
        racks = sorted({switch.rack_id
                        for switch in fabric.switches.values()
                        if switch.rack_id})
        if len(racks) < 2:
            return self.alignment_seconds
        positions = [fabric.layout.racks[rack].position
                     for rack in racks]
        centroid_x = float(np.mean([p.x for p in positions]))
        centroid_y = float(np.mean([p.y for p in positions]))
        mean_distance = float(np.mean(
            [abs(p.x - centroid_x) + abs(p.y - centroid_y)
             for p in positions]))
        return (mean_distance / self.robot_speed_m_s
                + self.alignment_seconds)

    def service_seconds(self) -> float:
        """Mean robot service time per incident."""
        return self.mean_travel_seconds() + self.mean_operation_seconds

    # -- planning ------------------------------------------------------------------

    def predict(self, manipulators: int) -> FleetPlan:
        """Queueing prediction for a fleet of given size."""
        arrival = self.incident_rate_per_second()
        service = self.service_seconds()
        offered = arrival * service
        wait_probability = erlang_c(manipulators, offered)
        if offered >= manipulators:
            wait = float("inf")
        else:
            wait = (wait_probability * service
                    / (manipulators - offered))
        cleaners = max(1, math.ceil(manipulators / 2))
        return FleetPlan(
            manipulators=manipulators, cleaners=cleaners,
            scope=MobilityScope.HALL,
            predicted_wait_seconds=wait,
            predicted_repair_seconds=wait + service,
            utilization=min(1.0, offered / manipulators),
            incident_rate_per_hour=arrival * 3600.0)

    def recommend(self, target_repair_seconds: float = 1800.0,
                  max_manipulators: int = 64) -> FleetPlan:
        """Smallest fleet whose predicted repair time meets the target."""
        if target_repair_seconds <= 0:
            raise ValueError("target must be > 0")
        best = None
        for manipulators in range(1, max_manipulators + 1):
            plan = self.predict(manipulators)
            best = plan
            if plan.predicted_repair_seconds <= target_repair_seconds:
                return plan
        return best  # largest considered; caller sees the miss


@dataclasses.dataclass(frozen=True)
class TwinPlannerConfig:
    """Knobs for twin-guided plan ranking."""

    #: Traffic windows the link spends under maintenance in the twin.
    repair_windows: int = 1
    #: Traffic windows rolled after the repair completes.  The score's
    #: FCT term covers *all* rolled windows — drain disruption and
    #: post-repair recovery both count.
    rollout_windows: int = 4
    #: Rank at most this many candidates per policy cycle (each costs
    #: one fork + rollout).
    max_candidates: int = 4
    #: How many ranked winners the controller dispatches per cycle.
    dispatch_top: int = 1
    #: Score = fct_weight * predicted p99 FCT − smi_weight * predicted
    #: SMI; lower is better.
    fct_weight: float = 1.0
    smi_weight: float = 1.0


@dataclasses.dataclass(frozen=True)
class PlanScore:
    """One candidate plan, as the twin predicted it."""

    request: object  # PlanRequest (kept untyped: core.policy imports us)
    predicted_smi: float
    predicted_p99_fct: float
    score: float

    def __repr__(self) -> str:
        return (f"<PlanScore {self.request.link_id} "
                f"smi={self.predicted_smi:.3f} "
                f"p99={self.predicted_p99_fct:.4f}s "
                f"score={self.score:.4f}>")


class TwinPlanner:
    """Ranks candidate repair plans by forking the world per plan.

    Each :meth:`evaluate` call forks the live world (a copy of its
    fabric state), executes the candidate (drain → maintenance →
    repair → undrain) column-wise in the twin, rolls the twin
    ``rollout_windows`` traffic windows ahead under the live matrix
    parameters, and scores the outcome.  The live world is never
    touched: the twin writes only its own copied columns, twin RNG
    draws come from dedicated numbered substreams, and the twin's
    accounting columns live only on the forked state.
    """

    def __init__(self, fabric, traffic, driver,
                 streams, smi_tracker=None,
                 config: Optional[TwinPlannerConfig] = None,
                 fleet=None) -> None:
        self.fabric = fabric
        self.traffic = traffic
        self.driver = driver
        self.streams = streams
        self.smi_tracker = smi_tracker
        self.config = config or TwinPlannerConfig()
        #: Robot fleet whose health the planner consults (optional):
        #: a degraded fleet shrinks the per-cycle dispatch quota so the
        #: twin does not plan more concurrent repairs than the healthy
        #: units can actually carry out.
        self.fleet = fleet
        #: Every ranking decision, for experiments to audit
        #: prediction-vs-realized accuracy.
        self.decisions: List[List[PlanScore]] = []
        self._evaluations = 0

    def dispatch_quota(self) -> int:
        """Winners to dispatch this cycle, scaled by fleet health.

        ``dispatch_top`` shrinks proportionally to the in-service
        fraction of the fleet (never below one — a single healthy unit
        still takes work).
        """
        top = self.config.dispatch_top
        if self.fleet is None:
            return top
        fraction = self.fleet.healthy_fraction()
        return max(1, math.ceil(top * fraction))

    def evaluate(self, request, now: float) -> PlanScore:
        """Fork, simulate one candidate repair, score the outcome."""
        from dcrobot.twin.world import TwinWorld

        cfg = self.config
        self._evaluations += 1
        rng = self.streams.stream(
            f"twin:{self._evaluations}:{request.link_id}")
        twin = TwinWorld.fork(self.fabric, self.traffic,
                              driver=self.driver, rng=rng, now=now,
                              smi_tracker=self.smi_tracker)
        twin.begin_maintenance(request.link_id)
        twin.roll(cfg.repair_windows)
        twin.repair_link(request.link_id)
        twin.roll(cfg.rollout_windows)
        # Score over every rolled window: draining a loaded link hurts
        # during the maintenance windows, a good repair helps
        # afterwards — the twin weighs both.
        p99 = twin.p99_fct()
        smi = (twin.predicted_smi()
               if self.smi_tracker is not None else 0.0)
        fct_term = 0.0 if math.isnan(p99) else p99
        score = cfg.fct_weight * fct_term - cfg.smi_weight * smi
        return PlanScore(request=request, predicted_smi=smi,
                         predicted_p99_fct=p99, score=score)

    def rank(self, requests, now: float) -> List[PlanScore]:
        """Candidates ordered best (lowest score) first.

        At most ``max_candidates`` are evaluated (in offered order);
        the rest are appended unevaluated behind the ranked ones so
        the controller's dispatch slice still sees every request.
        Ties break on link id for determinism.
        """
        cfg = self.config
        head = list(requests)[:cfg.max_candidates]
        tail = list(requests)[cfg.max_candidates:]
        scores = [self.evaluate(request, now) for request in head]
        scores.sort(key=lambda s: (s.score, s.request.link_id))
        scores.extend(
            PlanScore(request=request, predicted_smi=float("nan"),
                      predicted_p99_fct=float("nan"),
                      score=float("inf"))
            for request in tail)
        self.decisions.append(scores)
        return scores
