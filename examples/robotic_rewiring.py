"""Scenario: the maintenance fleet deploys topology changes (§4).

"If we can build self-maintaining systems, these systems may well be
able to also deploy the network originally, not just maintain it."

This script grows a leaf–spine fabric by one spine: the planner computes
an ordered rewiring (respecting port budgets and never partitioning the
fabric), and the same manipulator robots that do repairs execute it —
unplugging, laying fiber at robot speed, terminating.

Run:  python examples/robotic_rewiring.py
"""

import numpy as np

from dcrobot.core import plan_rewiring, RoboticRewirer
from dcrobot.core.reconfigure import StepKind
from dcrobot.core.repairs import RepairPhysics
from dcrobot.failures import CascadeModel, Environment, HealthModel
from dcrobot.metrics import format_duration
from dcrobot.network import FormFactor, SwitchRole
from dcrobot.robots import FleetConfig, RobotFleet
from dcrobot.sim import Simulation
from dcrobot.topology import build_leafspine


def main() -> None:
    topo = build_leafspine(leaves=4, spines=2, uplinks_per_pair=1,
                           spare_leaf_ports=2,
                           rng=np.random.default_rng(1))
    fabric = topo.fabric
    print(f"before: {topo.name} — {len(fabric.links)} links, "
          f"{len(fabric.switches)} switches")

    # A new spine arrives in row 0; every leaf should connect to it.
    new_spine = fabric.add_switch(
        SwitchRole.SPINE, radix=8, form_factor=FormFactor.QSFP_DD,
        rack_id=fabric.layout.rack_at(0, 3).id, u_position=36)
    leaves = topo.switches(SwitchRole.LEAF)
    target = [link.endpoint_ids for link in fabric.links.values()]
    target += [(leaf, new_spine.id) for leaf in leaves]

    plan = plan_rewiring(fabric, target)
    print(f"plan: +{plan.additions} links, -{plan.removals} links, "
          f"{len(plan.infeasible)} infeasible")
    for step in plan.steps:
        arrow = "++" if step.kind is StepKind.ADD else "--"
        print(f"  {arrow} {step.endpoints[0]} <-> {step.endpoints[1]}")

    sim = Simulation()
    environment = Environment()
    health = HealthModel(fabric, environment)
    cascade = CascadeModel(fabric, health, environment)
    physics = RepairPhysics(fabric, cascade)
    fleet = RobotFleet(sim, fabric, health, physics,
                       config=FleetConfig(manipulators=2, cleaners=0),
                       rng=np.random.default_rng(2))
    rewirer = RoboticRewirer(sim, fabric, fleet)
    report = sim.run(until=rewirer.execute(plan))

    print(f"\nexecuted {report.steps_executed} steps in "
          f"{format_duration(report.total_seconds)} of robot time")
    print(f"after: {len(fabric.links)} links; new spine carries "
          f"{len(fabric.links_of(new_spine.id))} uplinks")
    assert topo.is_connected(operational_only=True)
    print("fabric stayed connected throughout — the §4 deployability "
          "argument, demonstrated")


if __name__ == "__main__":
    main()
