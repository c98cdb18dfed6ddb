"""E8 — Robot operation timing and fleet throughput (Figures 1-2).

Paper anchor: §3.3 — the prototype manipulation and cleaning robots:
"the end-face inspection for 8 cores takes less than 30 seconds" and
"this entire operation currently takes a few minutes".

Micro-benchmarks of the modeled robots: per-stage timing of the reseat
and clean choreographies across the vendor-diverse transceiver catalog,
inspection time vs core count, and closed-loop fleet throughput
(operations/hour) vs fleet size under saturation.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from dcrobot.core.actions import RepairAction, WorkOrder
from dcrobot.experiments.parallel import Execution, run_trials
from dcrobot.experiments.result import ExperimentResult
from dcrobot.metrics.mttr import format_duration
from dcrobot.metrics.report import Table
from dcrobot.robots.cleaner import CleaningRobot
from dcrobot.robots.fleet import FleetConfig, RobotFleet
from dcrobot.robots.manipulator import ManipulatorRobot

EXPERIMENT_ID = "e8"
TITLE = "Robot operation latency and fleet throughput"
PAPER_ANCHOR = "§3.3: 8-core inspection < 30 s; full operation ~ minutes"


def _fresh_world(links: int, seed: int):
    """A standalone world builder (no pytest dependency)."""
    from dcrobot.core.repairs import RepairPhysics
    from dcrobot.failures import CascadeModel, Environment, HealthModel
    from dcrobot.network import (
        CableKind,
        Fabric,
        FormFactor,
        HallLayout,
        SwitchRole,
    )
    from dcrobot.sim import Simulation

    rng = np.random.default_rng(seed)
    fabric = Fabric(layout=HallLayout(rows=1, racks_per_row=2), rng=rng)
    a = fabric.add_switch(SwitchRole.TOR, radix=max(links, 2),
                          rack_id=fabric.layout.rack_at(0, 0).id)
    b = fabric.add_switch(SwitchRole.TOR, radix=max(links, 2),
                          rack_id=fabric.layout.rack_at(0, 1).id)
    made = [fabric.connect(a.id, b.id, kind=CableKind.MPO)
            for _ in range(links)]
    fabric.stock_spares({f: 100 for f in FormFactor}, cables=50)
    sim = Simulation()
    environment = Environment(diurnal_amplitude_c=0.0)
    health = HealthModel(fabric, environment,
                         rng=np.random.default_rng(seed + 1))
    cascade = CascadeModel(fabric, health, environment,
                           rng=np.random.default_rng(seed + 2))
    physics = RepairPhysics(fabric, cascade,
                            rng=np.random.default_rng(seed + 3))
    return sim, fabric, made, health, physics


def _operation_trial(params: Dict, seed: int) -> Dict:
    """Time ``samples`` isolated reseat/clean operations on fresh
    worlds; each sample is its own seeded world, as in the serial
    version."""
    op_name = params["op"]
    samples = params["samples"]
    durations, failures = [], 0
    for index in range(samples):
        sim, fabric, links, _health, _physics = _fresh_world(
            8, seed + index)
        link = links[index % len(links)]
        if op_name == "reseat":
            robot = ManipulatorRobot(
                sim, fabric, "m0", fabric.layout.rack_at(0, 0).id,
                rng=np.random.default_rng(seed + index))

            def op(robot=robot, link=link):
                ok, _note = yield from robot.reseat(link)
                return ok
        else:
            link.cable.end_a.add_contamination(0.5)
            robot = CleaningRobot(
                sim, fabric, "c0", fabric.layout.rack_at(0, 0).id,
                rng=np.random.default_rng(seed + index))

            def op(robot=robot, link=link):
                link.transceiver_a.unseat()
                ok, _note = yield from robot.clean_cycle(link, "a")
                link.transceiver_a.seat(robot.sim.now)
                return ok

        process = sim.process(op())
        ok = sim.run(until=process)
        durations.append(sim.now)
        if not ok:
            failures += 1
    return {"durations": durations, "failures": failures}


def _throughput_trial(params: Dict, seed: int) -> Dict:
    """Saturate one fleet with reseat orders; measure ops/hour."""
    pairs = params["pairs"]
    orders = params["orders"]
    sim, fabric, links, health, physics = _fresh_world(16, seed)
    fleet = RobotFleet(
        sim, fabric, health, physics,
        config=FleetConfig(manipulators=pairs, cleaners=pairs,
                           allocation=params["allocation"]),
        rng=np.random.default_rng(seed))
    events = [fleet.submit(WorkOrder(
        links[index % len(links)].id, RepairAction.RESEAT,
        created_at=0.0)) for index in range(orders)]
    sim.run(until=sim.all_of(events))
    return {"ops_per_hour": orders / (sim.now / 3600.0)}


def run(quick: bool = True, seed: int = 0,
        execution: Optional[Execution] = None) -> ExperimentResult:
    samples = 40 if quick else 200
    result = ExperimentResult(EXPERIMENT_ID, TITLE, PAPER_ANCHOR)

    # Part 1: inspection time vs core count (the paper's headline).
    sim, fabric, _links, _health, _physics = _fresh_world(4, seed)
    cleaner = CleaningRobot(sim, fabric, "c0",
                            fabric.layout.rack_at(0, 0).id,
                            rng=np.random.default_rng(seed))
    inspect_table = Table(["cores", "inspection time (s)"],
                          title="Machine end-face inspection time")
    for cores in (1, 2, 4, 8, 12):
        inspect_table.add_row(cores,
                              f"{cleaner.inspect_seconds(cores):.1f}")
    result.add_table(inspect_table)
    result.note(f"8-core inspection: {cleaner.inspect_seconds(8):.0f}s "
                f"(paper: < 30 s)")

    # Part 2: full operation durations across the diverse catalog.
    op_table = Table(["operation", "p50", "p95", "failures %"],
                     title=f"Operation durations over {samples} runs "
                           f"(vendor-diverse transceivers)")
    op_params = [
        {"label": op_name, "op": op_name, "samples": samples,
         "seed": seed}
        for op_name in ("reseat", "clean one end")
    ]
    op_groups = run_trials(EXPERIMENT_ID, _operation_trial, op_params,
                           base_seed=seed, execution=execution,
                           result=result)
    for group in op_groups:
        durations = group.value["durations"]
        failures = group.value["failures"]
        op_table.add_row(
            group.params["op"],
            format_duration(float(np.percentile(durations, 50))),
            format_duration(float(np.percentile(durations, 95))),
            f"{100 * failures / samples:.1f}")
    result.add_table(op_table)

    # Part 3: fleet throughput under saturation.
    throughput_table = Table(
        ["manipulators+cleaners", "ops/hour", "allocation"],
        title="Closed-loop fleet throughput (saturated reseat queue)")
    orders = 60 if quick else 200
    throughput_params = [
        {"label": f"{pairs}+{pairs}/{allocation}", "pairs": pairs,
         "allocation": allocation, "orders": orders,
         "seed": seed + pairs}
        for pairs in (1, 2, 4)
        for allocation in (("nearest",) if quick
                           else ("nearest", "fifo"))
    ]
    throughput_groups = run_trials(
        EXPERIMENT_ID, _throughput_trial, throughput_params,
        base_seed=seed + 1, execution=execution, result=result)
    series = []
    for group in throughput_groups:
        pairs = group.params["pairs"]
        rate = group.mean("ops_per_hour")
        throughput_table.add_row(f"{pairs}+{pairs}", f"{rate:.1f}",
                                 group.params["allocation"])
        if group.params["allocation"] == "nearest":
            series.append((pairs, rate))
    result.add_table(throughput_table)
    result.add_series("ops_per_hour_vs_fleet", series)
    return result


if __name__ == "__main__":
    print(run(quick=True).render())
