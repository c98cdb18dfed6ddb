"""Robotic topology reconfiguration (§4 "Scalable network topologies").

"The robotics that enables a self-maintaining network will also be able
to deploy arbitrary topologies potentially. ... if we can build
self-maintaining systems, these systems may well be able to also deploy
the network originally not just maintain it."

This module closes that loop: given a *target* wiring (a multiset of
node pairs), it plans an ordered sequence of link removals and
additions that respects port budgets, optionally defers
connectivity-breaking removals, and executes the plan with the robot
fleet's manipulators — unplugging at both ends, laying the new cable at
robot speed, terminating, and verifying.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import Counter
from typing import List, Optional, Sequence, Tuple

from dcrobot.network.inventory import Fabric
from dcrobot.sim.engine import Simulation
from dcrobot.sim.events import Event


class StepKind(enum.Enum):
    REMOVE = "remove"
    ADD = "add"


@dataclasses.dataclass
class RewireStep:
    """One physical rewiring operation."""

    kind: StepKind
    #: For REMOVE: the link id.  For ADD: unset until executed.
    link_id: Optional[str]
    endpoints: Tuple[str, str]

    def __repr__(self) -> str:
        return (f"<RewireStep {self.kind.value} "
                f"{self.endpoints[0]}<->{self.endpoints[1]}>")


@dataclasses.dataclass
class RewirePlan:
    """An ordered, feasibility-checked rewiring plan."""

    steps: List[RewireStep]
    #: Steps that could not be ordered without a temporary port deficit
    #: (empty for feasible plans).
    infeasible: List[RewireStep] = dataclasses.field(default_factory=list)

    @property
    def removals(self) -> int:
        return sum(1 for step in self.steps
                   if step.kind is StepKind.REMOVE)

    @property
    def additions(self) -> int:
        return sum(1 for step in self.steps if step.kind is StepKind.ADD)

    def __repr__(self) -> str:
        return (f"<RewirePlan -{self.removals} +{self.additions} "
                f"steps={len(self.steps)}>")


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def plan_rewiring(fabric: Fabric,
                  target_pairs: Sequence[Tuple[str, str]],
                  protect_connectivity: bool = True) -> RewirePlan:
    """Plan the steps that transform the fabric's wiring into
    ``target_pairs`` (a multiset of unordered node pairs).

    Ordering rules:

    * an addition runs as soon as both endpoints have free ports;
    * otherwise a removal that frees a port needed by some pending
      addition runs first;
    * with ``protect_connectivity``, removals that would disconnect the
      current graph are deferred while any alternative step exists.

    The connectivity checks run on a networkx graph; networkx is
    imported on call, so a world that never plans a rewiring never
    loads it.
    """
    import networkx as nx

    current: Counter = Counter()
    links_by_pair = {}
    for link in fabric.links.values():
        pair = _pair(*link.endpoint_ids)
        current[pair] += 1
        links_by_pair.setdefault(pair, []).append(link.id)
    target: Counter = Counter(_pair(a, b) for a, b in target_pairs)
    for node_a, node_b in target:
        fabric.node(node_a)
        fabric.node(node_b)

    removals: List[RewireStep] = []
    for pair, count in (current - target).items():
        for index in range(count):
            removals.append(RewireStep(StepKind.REMOVE,
                                       links_by_pair[pair][index], pair))
    additions: List[RewireStep] = []
    for pair, count in (target - current).items():
        for _index in range(count):
            additions.append(RewireStep(StepKind.ADD, None, pair))

    free_ports = {node_id: len(fabric.node(node_id).free_ports())
                  for node_id in list(fabric.switches)
                  + list(fabric.hosts)}
    graph = nx.MultiGraph()
    graph.add_nodes_from(free_ports)
    for link in fabric.links.values():
        graph.add_edge(*link.endpoint_ids, key=link.id)

    ordered: List[RewireStep] = []
    pending_removals = list(removals)
    pending_additions = list(additions)

    def addition_feasible(step: RewireStep) -> bool:
        a, b = step.endpoints
        if a == b:
            return free_ports[a] >= 2
        return free_ports[a] >= 1 and free_ports[b] >= 1

    def removal_safe(step: RewireStep) -> bool:
        if not protect_connectivity:
            return True
        a, b = step.endpoints
        if graph.number_of_edges(a, b) > 1:
            return True
        if not nx.is_connected(graph):
            return True
        # The graph is connected, so dropping the one a-b edge splits
        # it exactly when no other path joins a and b.
        key = next(iter(graph[a][b]))
        graph.remove_edge(a, b, key=key)
        safe = nx.has_path(graph, a, b)
        graph.add_edge(a, b, key=key)
        return safe

    def apply(step: RewireStep) -> None:
        a, b = step.endpoints
        if step.kind is StepKind.ADD:
            free_ports[a] -= 1
            free_ports[b] -= 1
            graph.add_edge(a, b)
        else:
            free_ports[a] += 1
            free_ports[b] += 1
            if graph.has_edge(a, b):
                graph.remove_edge(a, b)
        ordered.append(step)

    while pending_removals or pending_additions:
        # Prefer additions (they only improve connectivity).
        step = next((s for s in pending_additions
                     if addition_feasible(s)), None)
        if step is not None:
            pending_additions.remove(step)
            apply(step)
            continue
        step = next((s for s in pending_removals if removal_safe(s)),
                    None)
        if step is None and pending_removals:
            step = pending_removals[0]  # forced: accept the partition
        if step is not None:
            pending_removals.remove(step)
            apply(step)
            continue
        break  # additions remain but no ports can be freed

    return RewirePlan(steps=ordered, infeasible=pending_additions)


@dataclasses.dataclass
class RewireReport:
    """What the crew did and how long it took."""

    steps_executed: int
    total_seconds: float
    added_link_ids: List[str]
    removed_link_ids: List[str]


class RoboticRewirer:
    """Executes a :class:`RewirePlan` with fleet manipulators.

    Timing model: unplug/terminate per end reuse the manipulator's
    operation constants; laying a new cable proceeds at
    ``lay_speed_m_s`` along the run (the §3.3 caveat — today's
    prototypes do not lay fiber — is exactly why this class models the
    *future* capability the paper sketches in §4).
    """

    def __init__(self, sim: Simulation, fabric: Fabric, fleet,
                 lay_speed_m_s: float = 0.1,
                 terminate_seconds: float = 120.0) -> None:
        if lay_speed_m_s <= 0:
            raise ValueError("lay_speed_m_s must be > 0")
        self.sim = sim
        self.fabric = fabric
        self.fleet = fleet
        self.lay_speed_m_s = lay_speed_m_s
        self.terminate_seconds = terminate_seconds

    def execute(self, plan: RewirePlan) -> Event:
        """Run the plan; the returned event fires with a RewireReport."""
        done = self.sim.event()
        self.sim.process(self._run(plan, done))
        return done

    def _run(self, plan: RewirePlan, done: Event):
        sim = self.sim
        started = sim.now
        added, removed = [], []
        for step in plan.steps:
            robot = yield from self.fleet.acquire_manipulator(
                self._rack_of(step.endpoints[0]))
            try:
                yield from robot.travel_to(
                    self._rack_of(step.endpoints[0]))
                if step.kind is StepKind.REMOVE:
                    yield from robot.work(
                        2 * robot.params.unplug_seconds
                        + robot.params.grip_attempt_seconds)
                    self.fabric.disconnect(step.link_id)
                    removed.append(step.link_id)
                else:
                    a, b = step.endpoints
                    length = self.fabric.cable_length(a, b)
                    yield from robot.work(length / self.lay_speed_m_s
                                          + self.terminate_seconds)
                    link = self.fabric.connect(a, b)
                    added.append(link.id)
                robot.operations_done += 1
            finally:
                self.fleet.release_manipulator(robot)
        done.succeed(RewireReport(
            steps_executed=len(plan.steps),
            total_seconds=sim.now - started,
            added_link_ids=added,
            removed_link_ids=removed))

    def _rack_of(self, node_id: str) -> str:
        rack_id = self.fabric.node(node_id).rack_id
        if rack_id is None:
            raise ValueError(f"node {node_id} is unplaced")
        return rack_id
