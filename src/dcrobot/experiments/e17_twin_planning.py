"""E17 — Twin-guided planning: fork the world before you drain it.

Paper anchor: §4 — a self-maintaining system should "simulate the
repair before executing it": the digital twin forks the live world
by copying its fabric columns (:class:`~dcrobot.twin.world.TwinWorld`),
plays each candidate repair forward a few traffic windows under the
live matrix, and the controller dispatches the candidate whose
predicted SMI / p99-FCT score is best.

The scenario makes the choice matter.  A rolling reseat campaign
offers the controller several candidate links per policy cycle — a
mix of *hot* uplinks (under the diurnal hotspot's hot ToRs) and
*cold* uplinks in a quiet pod.  Every reseat drains its link for the
duration, so reseating a hot uplink at peak concentrates real bytes
onto its ECMP siblings.  Two arms do one reseat per cycle on the same
seed:

* **fifo** — dispatch in queue order, which front-loads the hot
  uplinks straight into the daytime peak; and
* **twin-ranked** — :class:`~dcrobot.core.planner.TwinPlanner` forks
  the world per candidate, rolls the drain + repair forward, and
  dispatches the lowest-scoring plan, sliding hot-uplink work away
  from peak-hour windows.

A prediction-audit table compares what the twin forecast for each
winning plan against the p99 the live world then realized.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from dcrobot.core.actions import Priority, RepairAction
from dcrobot.core.automation import AutomationLevel
from dcrobot.core.controller import ControllerConfig
from dcrobot.core.planner import TwinPlannerConfig
from dcrobot.core.policy import PlanRequest
from dcrobot.experiments.parallel import Execution
from dcrobot.experiments.result import ExperimentResult
from dcrobot.experiments.runner import WorldConfig, run_world
from dcrobot.metrics.report import Table
from dcrobot.network.enums import FormFactor
from dcrobot.network.switchgear import SwitchRole
from dcrobot.traffic.patterns import HotspotPattern, UniformPattern

EXPERIMENT_ID = "e17"
TITLE = "Twin-guided planning: fork the world before you drain it"
PAPER_ANCHOR = ("§4: digital-twin what-if evaluation ahead of "
                "dispatch")

DAY = 86400.0
#: Small fat-tree: each twin evaluation forks the world and rolls
#: real traffic windows, so the fabric stays k=4 (8 ToRs, 48 links)
#: on 25G links that realistic flow counts can actually congest.
FABRIC_K = 4
FORM_FACTOR = FormFactor.SFP28
#: Diurnal load: hotspot on the first ``HOT_TORS`` ToRs by day,
#: light uniform at night.
DAY_START_HOUR, DAY_END_HOUR = 8.0, 20.0
DAY_FLOWS, NIGHT_FLOWS = 2400, 400
HOT_TORS = 2
HOT_PROBABILITY = 0.75
WINDOW_SECONDS = 900.0
SAMPLE_SECONDS = 1.0
#: k²/4 = 4 inter-pod paths: full-width ECMP, every uplink loaded.
MAX_EQUAL_PATHS = 4
#: Candidates offered per policy cycle (1 hot + 2 cold uplinks).
CANDIDATES = 3


class MixedCampaign:
    """Rolling reseats offering hot and cold uplinks each cycle.

    Every policy tick proposes one uplink of the hot ToRs (the
    hotspot pattern's prefix) followed by two uplinks of the last —
    cold — ToRs.  Queue order always leads with the hot link, so a
    FIFO dispatcher reseats hot uplinks under peak load while a
    twin-ranked dispatcher is free to reorder.
    """

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        tors = [switch.id for switch in fabric.switches.values()
                if switch.role is SwitchRole.TOR]
        self.hot_links: List[str] = [
            link.id for tor in tors[:HOT_TORS]
            for link in fabric.links_of(tor)]
        self.cold_links: List[str] = [
            link.id for tor in tors[-HOT_TORS:]
            for link in fabric.links_of(tor)]
        self._hot_cursor = 0
        self._cold_cursor = 0

    def on_symptom(self, event) -> Optional[PlanRequest]:
        return None

    def _request(self, link_id: str) -> PlanRequest:
        return PlanRequest(link_id=link_id, priority=Priority.NORMAL,
                           reason="campaign:reseat",
                           action=RepairAction.RESEAT,
                           proactive=True)

    def periodic(self, now: float) -> List[PlanRequest]:
        requests = [self._request(
            self.hot_links[self._hot_cursor % len(self.hot_links)])]
        self._hot_cursor += 1
        for _ in range(CANDIDATES - 1):
            requests.append(self._request(
                self.cold_links[self._cold_cursor
                                % len(self.cold_links)]))
            self._cold_cursor += 1
        return requests

    def record_repair(self, link, action, effective, now) -> None:
        """The campaign is unconditional; nothing to learn."""


def _diurnal_schedule():
    day_pattern = HotspotPattern(hot_endpoints=HOT_TORS,
                                 hot_probability=HOT_PROBABILITY)
    night_pattern = UniformPattern()

    def schedule(now: float):
        hour = (now % DAY) / 3600.0
        if DAY_START_HOUR <= hour < DAY_END_HOUR:
            return DAY_FLOWS, day_pattern
        return NIGHT_FLOWS, night_pattern

    return schedule


def _arm_config(seed: int, horizon_days: float,
                planner: TwinPlannerConfig) -> WorldConfig:
    return WorldConfig(
        topology_kwargs={"k": FABRIC_K, "form_factor": FORM_FACTOR},
        horizon_days=horizon_days, seed=seed,
        # Isolate dispatch ordering: no organic failures, dust or
        # aging — every drain is the campaign's own.
        failure_scale=0.0, dust_rate_per_day=0.0,
        aging_rate_per_day=0.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION,
        policy=MixedCampaign,
        controller_config=ControllerConfig(defer_proactive=False),
        traffic=True,
        traffic_window_seconds=WINDOW_SECONDS,
        traffic_sample_seconds=SAMPLE_SECONDS,
        traffic_schedule=_diurnal_schedule(),
        traffic_max_equal_paths=MAX_EQUAL_PATHS,
        twin_planner=planner)


#: FIFO arm: ``max_candidates=0`` ranks nothing (zero forks) and the
#: dispatch slice takes the head of the queue — same one-repair-per-
#: cycle budget as the twin arm, ordering aside.
FIFO = TwinPlannerConfig(max_candidates=0, dispatch_top=1)
TWIN = TwinPlannerConfig(repair_windows=1, rollout_windows=2,
                         max_candidates=CANDIDATES, dispatch_top=1)


@dataclasses.dataclass
class ArmStats:
    """One dispatch-ordering arm, measured over traffic windows."""

    label: str
    maintenance_windows: int
    p99_maintenance: float
    mean_p99_maintenance: float
    p99_overall: float
    reseats: int
    peak_hot_reseats: int
    forks: int


def _is_peak(when: float) -> bool:
    hour = (when % DAY) / 3600.0
    return DAY_START_HOUR <= hour < DAY_END_HOUR


def _measure(label: str, result, hot_links: List[str]) -> ArmStats:
    driver = result.traffic_driver
    maintenance = driver.maintenance_windows()
    p99s = [w.p99_fct for w in maintenance if not np.isnan(w.p99_fct)]
    outcomes = result.live_controller.proactive_outcomes
    hot = set(hot_links)
    peak_hot = sum(1 for outcome in outcomes
                   if outcome.order.link_id in hot
                   and _is_peak(outcome.started_at))
    planner = result.twin_planner
    return ArmStats(
        label=label,
        maintenance_windows=len(maintenance),
        p99_maintenance=driver.p99_over(maintenance),
        mean_p99_maintenance=(float(np.mean(p99s)) if p99s
                              else float("nan")),
        p99_overall=driver.p99_over(driver.windows),
        reseats=len(outcomes),
        peak_hot_reseats=peak_hot,
        forks=planner._evaluations if planner else 0)


def run(quick: bool = True, seed: int = 0,
        execution: Optional[Execution] = None) -> ExperimentResult:
    # Two arms on one seed, compared window-for-window: serial.
    del execution
    horizon_days = 1.0 if quick else 3.0

    fifo_result = run_world(_arm_config(seed, horizon_days, FIFO))
    twin_result = run_world(_arm_config(seed, horizon_days, TWIN))
    hot_links = MixedCampaign(fifo_result.topology.fabric).hot_links
    fifo = _measure("fifo", fifo_result, hot_links)
    twin = _measure("twin-ranked", twin_result, hot_links)

    result = ExperimentResult(EXPERIMENT_ID, TITLE, PAPER_ANCHOR)
    table = Table(
        ["dispatch", "maint windows", "p99 FCT (maint)",
         "mean p99 (maint)", "p99 FCT (all)", "reseats",
         "peak hot reseats", "twin forks"],
        title=f"Mixed reseat campaign under diurnal hotspot traffic, "
              f"fat-tree k={FABRIC_K}, {horizon_days:g} days")
    for arm in (fifo, twin):
        table.add_row(
            arm.label, str(arm.maintenance_windows),
            f"{arm.p99_maintenance * 1e3:.2f} ms",
            f"{arm.mean_p99_maintenance * 1e3:.2f} ms",
            f"{arm.p99_overall * 1e3:.2f} ms",
            str(arm.reseats), str(arm.peak_hot_reseats),
            str(arm.forks))
    result.add_table(table)

    # Prediction audit: the twin's forecast for each dispatched winner
    # vs the p99 the live world then realized in the next maintenance
    # window after dispatch.
    audit = Table(
        ["cycle", "winner", "hot?", "predicted p99", "predicted SMI",
         "realized p99 (next maint window)"],
        title="Twin forecasts vs realized outcomes (first 8 cycles)")
    maintenance = twin_result.traffic_driver.maintenance_windows()
    decisions = twin_result.twin_planner.decisions
    # The policy loop fires every policy_interval_seconds; ranking
    # ``cycle`` happens at tick ``cycle + 1``.
    interval = ControllerConfig().policy_interval_seconds
    audited = 0
    for cycle, ranking in enumerate(decisions):
        if not ranking or not np.isfinite(ranking[0].score):
            continue
        winner = ranking[0]
        dispatched_at = (cycle + 1) * interval
        realized = next(
            (w.p99_fct for w in maintenance
             if w.time >= dispatched_at),
            float("nan"))
        audit.add_row(
            str(cycle), winner.request.link_id,
            "yes" if winner.request.link_id in set(hot_links)
            else "no",
            f"{winner.predicted_p99_fct * 1e3:.2f} ms",
            f"{winner.predicted_smi:.3f}",
            f"{realized * 1e3:.2f} ms" if not np.isnan(realized)
            else "—")
        audited += 1
        if audited >= 8:
            break
    result.add_table(audit)

    # Series x-axes: 0=fifo, 1=twin-ranked.
    result.add_series("maintenance_p99_fct_seconds",
                      [(0, fifo.mean_p99_maintenance),
                       (1, twin.mean_p99_maintenance)])
    result.add_series("peak_hot_reseats",
                      [(0, fifo.peak_hot_reseats),
                       (1, twin.peak_hot_reseats)])
    improvement = (fifo.mean_p99_maintenance
                   / twin.mean_p99_maintenance
                   if twin.mean_p99_maintenance else float("nan"))
    result.note(
        f"twin-ranked dispatch cut mean maintenance-window p99 FCT "
        f"{improvement:.2f}x (from "
        f"{fifo.mean_p99_maintenance * 1e3:.2f} ms to "
        f"{twin.mean_p99_maintenance * 1e3:.2f} ms) and reduced "
        f"peak-hour hot-uplink drains from {fifo.peak_hot_reseats} "
        f"to {twin.peak_hot_reseats}; both arms dispatched one reseat "
        f"per cycle ({fifo.reseats} vs {twin.reseats})")
    result.note(
        f"each ranking decision cost {TWIN.max_candidates} "
        f"copied world forks rolled "
        f"{TWIN.repair_windows + TWIN.rollout_windows} windows each "
        f"({twin.forks} forks total); the live world is never "
        f"touched — fork isolation is property-tested in "
        f"tests/property/test_twin_properties.py")
    return result


if __name__ == "__main__":
    print(run(quick=True).render())
