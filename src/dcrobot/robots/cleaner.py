"""The fiber and transceiver cleaning robot (Figure 2).

"The cleaning unit robot automatically detaches the cable from the
transceiver, visually inspects the fiber end-face cores and the
transceiver and then cleans any parts needed to pass inspection, before
reassembling" (§3.3.2).  The paper's headline timing — 8-core end-face
inspection in under 30 seconds — is the default here
(``per_core_inspect_seconds * 8 = 28 s``).

Cleaning consumables (tape/solvent) are a finite reservoir; refills
consume time, which matters at fleet scale.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from dcrobot.core.repairs import ROBOT_SKILL, SkillProfile
from dcrobot.network.inventory import Fabric
from dcrobot.network.link import Link
from dcrobot.robots.base import RobotUnit
from dcrobot.robots.mobility import MobilityScope
from dcrobot.sim.engine import Simulation
from dcrobot.sim.resources import Container


@dataclasses.dataclass
class CleanerParams:
    """Cleaning-unit stage timings and consumable capacity."""

    detach_seconds: float = 20.0
    per_core_inspect_seconds: float = 3.5
    dry_clean_seconds: float = 15.0
    wet_clean_seconds: float = 25.0
    reassemble_seconds: float = 20.0
    rotate_seconds: float = 6.0     #: actuator re-positioning per face
    consumable_capacity: float = 200.0  #: cleaning passes per cartridge
    refill_seconds: float = 600.0
    skill: SkillProfile = ROBOT_SKILL

    def __post_init__(self) -> None:
        if self.per_core_inspect_seconds <= 0:
            raise ValueError("per_core_inspect_seconds must be > 0")
        if self.consumable_capacity <= 0:
            raise ValueError("consumable_capacity must be > 0")


class CleaningRobot(RobotUnit):
    """Inspects and cleans end-faces and transceiver receptacles."""

    KIND = "cleaner"

    def __init__(self, sim: Simulation, fabric: Fabric, unit_id: str,
                 home_rack_id: str,
                 scope: MobilityScope = MobilityScope.HALL,
                 speed_m_s: float = 0.4,
                 params: Optional[CleanerParams] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(sim, fabric, unit_id, home_rack_id, scope,
                         speed_m_s, rng)
        self.params = params or CleanerParams()
        self.consumables = Container(
            sim, capacity=self.params.consumable_capacity,
            init=self.params.consumable_capacity)
        self.refills = 0

    # -- stage helpers -----------------------------------------------------------

    def inspect_seconds(self, core_count: int) -> float:
        """Machine-inspection time for one face of ``core_count`` cores."""
        return core_count * self.params.per_core_inspect_seconds

    def _consume_pass(self):
        """Generator: draw one cleaning pass of consumables, refilling
        the cartridge when empty."""
        if self.consumables.level < 1.0:
            self.refills += 1
            yield from self.work(self.params.refill_seconds)
            yield self.consumables.put(
                self.params.consumable_capacity - self.consumables.level)
        yield self.consumables.get(1.0)

    def _service_face(self, face):
        """Generator: inspect→clean loop for one face.

        Returns True if the face verifiably passes inspection.
        """
        params = self.params
        skill = params.skill
        yield from self.work(self.inspect_seconds(face.core_count))
        for round_index in range(skill.max_clean_rounds):
            if face.passes_inspection(
                    false_negative_rate=skill.inspection_false_negative,
                    rng=self.rng):
                return True
            wet = round_index > 0  # dry first, then wet (§3.3.2)
            yield from self._consume_pass()
            yield from self.work(params.wet_clean_seconds if wet
                                 else params.dry_clean_seconds)
            face.clean(self.rng, wet=wet,
                       effectiveness=skill.clean_effectiveness,
                       smear_probability=skill.clean_smear_probability)
            yield from self.work(self.inspect_seconds(face.core_count))
        return face.passes_inspection(
            false_negative_rate=skill.inspection_false_negative,
            rng=self.rng)

    # -- the full cycle -------------------------------------------------------------

    def clean_cycle(self, link: Link, side: str):
        """Generator: full §3.3.2 cycle for one end of the link.

        Detach → inspect/clean cable end-face → rotate → inspect/clean
        transceiver receptacle → reassemble.  Returns (verified, note);
        unverified cleanliness means the robot "requests human support".
        """
        cable = link.cable
        if not cable.cleanable:
            return False, f"{cable.kind.value} cable cannot be detached"
        params = self.params
        cable.detach(side)
        yield from self.work(params.detach_seconds)

        verified = yield from self._service_face(cable.endface(side))
        unit = link.transceiver_at(side)
        if unit.receptacle is not None:
            yield from self.work(params.rotate_seconds)
            receptacle_ok = yield from self._service_face(unit.receptacle)
            verified = verified and receptacle_ok

        cable.attach(side)
        yield from self.work(params.reassemble_seconds)
        self.operations_done += 1
        if verified:
            return True, f"cleaned and verified side {side}"
        return False, (f"side {side} failed verification after "
                       f"{params.skill.max_clean_rounds} rounds")
