"""Cascading failures from physical contact (§1, §2).

"When technicians move fiber optical cables to reach a component, the
movement of the cables can cause transient packet loss in the touched
cables" — and occasionally permanent damage.  Every maintenance action
that physically enters a cable bundle calls :meth:`CascadeModel.touch`
with a *contact profile*; neighbours of the touched cable then suffer
transient disturbances or (rarely) damage, scaled by how invasive the
actor is.

Robots built for the task apply less force to fewer cables than a human
hand working blind in a dense loom — that difference is exactly the
``transient_probability`` / ``damage_probability`` gap between the
profiles used by :mod:`dcrobot.humans` and :mod:`dcrobot.robots`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from dcrobot.failures.environment import Environment
from dcrobot.failures.health import HealthModel
from dcrobot.network.inventory import Fabric
from dcrobot.network.link import Link


@dataclasses.dataclass(frozen=True)
class ContactProfile:
    """How invasively an actor manipulates cables near the work item."""

    #: Fraction of bundle neighbours that get physically contacted.
    neighbor_contact_fraction: float
    #: P(transient disturbance) for each contacted neighbour.
    transient_probability: float
    #: P(permanent damage) for each contacted neighbour.
    damage_probability: float
    #: How long a transient disturbance lasts (seconds).
    disturbance_duration: float = 600.0
    #: Vibration magnitude injected into the environment while working.
    vibration_magnitude: float = 0.2

    def __post_init__(self) -> None:
        for name in ("neighbor_contact_fraction", "transient_probability",
                     "damage_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")


#: A technician's hands working blind inside a dense loom (§3.4: pulling
#: cables is often *easier* than reaching a transceiver — at a price).
HUMAN_HANDS = ContactProfile(
    neighbor_contact_fraction=0.45,
    transient_probability=0.25,
    damage_probability=0.004,
    disturbance_duration=900.0,
    vibration_magnitude=0.5,
)

#: The paper's minimal-surface gripper: slides between cables, parts them
#: gently, presses only on the transceiver where designated (§3.3.1).
ROBOT_GRIPPER = ContactProfile(
    neighbor_contact_fraction=0.08,
    transient_probability=0.04,
    damage_probability=0.0002,
    disturbance_duration=120.0,
    vibration_magnitude=0.05,
)


@dataclasses.dataclass
class TouchReport:
    """What one physical contact event did to the neighbourhood."""

    touched_links: List[str]
    disturbed_links: List[str]
    damaged_links: List[str]

    @property
    def secondary_failures(self) -> int:
        """Collateral events caused by this one repair touch."""
        return len(self.disturbed_links) + len(self.damaged_links)


class CascadeModel:
    """Applies contact side-effects to a link's bundle neighbourhood."""

    def __init__(self, fabric: Fabric, health: HealthModel,
                 environment: Environment,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.fabric = fabric
        self.health = health
        self.environment = environment
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: All touch reports, for repair-amplification accounting.
        self.reports: List[TouchReport] = []

    def predict_touched(self, link: Link,
                        profile: ContactProfile) -> List[str]:
        """Expected contacted neighbour links — the pre-maintenance
        announcement the paper's §2 calls for ("automation can report
        which network cables will be contacted before the maintenance
        occurs")."""
        neighbors = self.fabric.bundle_neighbor_links(link)
        expected = int(round(len(neighbors)
                             * profile.neighbor_contact_fraction))
        return [neighbor.id for neighbor in neighbors[:expected]]

    def touch(self, link: Link, profile: ContactProfile,
              now: float) -> TouchReport:
        """Perform the physical contact around ``link``'s cable.

        Samples which neighbours are contacted, then applies transient
        disturbances (via the health model) and permanent cable damage.
        Also injects a vibration episode for the disturbance duration.
        """
        neighbors = self.fabric.bundle_neighbor_links(link)
        touched, disturbed, damaged = [], [], []
        for neighbor in neighbors:
            if self.rng.random() >= profile.neighbor_contact_fraction:
                continue
            touched.append(neighbor.id)
            if self.rng.random() < profile.transient_probability:
                self.health.disturb(
                    neighbor.id, now + profile.disturbance_duration)
                self.health.evaluate_link(neighbor, now)
                disturbed.append(neighbor.id)
            if self.rng.random() < profile.damage_probability:
                neighbor.cable.damage()
                self.health.evaluate_link(neighbor, now)
                damaged.append(neighbor.id)
        if profile.vibration_magnitude > 0:
            self.environment.add_vibration(
                now, profile.vibration_magnitude,
                profile.disturbance_duration)
        report = TouchReport(touched, disturbed, damaged)
        self.reports.append(report)
        return report
