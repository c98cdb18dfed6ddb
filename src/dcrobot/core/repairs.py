"""Physical repair procedures, shared by all executors.

Humans and robots perform the *same* physics — unseating transceivers,
cleaning end-faces, swapping spares — but with different skill profiles
(inspection quality, cleaning effectiveness, botch rates) and different
cascade contact profiles.  The executor processes own timing; this
module owns the state mutations.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from dcrobot.core.actions import RepairAction
from dcrobot.failures.cascade import CascadeModel, ContactProfile
from dcrobot.network.inventory import Fabric
from dcrobot.network.link import Link


@dataclasses.dataclass(frozen=True)
class SkillProfile:
    """Quality parameters of a maintenance actor."""

    #: P(a dirty core passes inspection) — perception quality.
    inspection_false_negative: float
    #: Fraction of contamination removed per cleaning pass.
    clean_effectiveness: float
    #: P(a cleaning pass smears instead of cleans).
    clean_smear_probability: float
    #: Cleaning passes before giving up on a failing end-face.
    max_clean_rounds: int
    #: P(the whole action is botched: motions happen, nothing fixed).
    botch_probability: float

    def __post_init__(self) -> None:
        for name in ("inspection_false_negative", "clean_effectiveness",
                     "clean_smear_probability", "botch_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if self.max_clean_rounds < 1:
            raise ValueError("max_clean_rounds must be >= 1")


#: A trained technician working manually (§3.2's processes).
TECHNICIAN_SKILL = SkillProfile(
    inspection_false_negative=0.10,
    clean_effectiveness=0.85,
    clean_smear_probability=0.04,
    max_clean_rounds=3,
    botch_probability=0.03,
)

#: A technician using Level-1 assist devices (§2.1, §3.3.2: the cleaning
#: unit "can also be used by a technician as a standalone Level 1
#: device"): machine-quality inspection, human-paced everything else.
ASSISTED_TECHNICIAN_SKILL = SkillProfile(
    inspection_false_negative=0.03,
    clean_effectiveness=0.92,
    clean_smear_probability=0.01,
    max_clean_rounds=4,
    botch_probability=0.02,
)

#: The cleaning robot: wet+dry methods, machine-verified inspection
#: (§3.3.2), effectively no motivation lapses.
ROBOT_SKILL = SkillProfile(
    inspection_false_negative=0.02,
    clean_effectiveness=0.92,
    clean_smear_probability=0.01,
    max_clean_rounds=4,
    botch_probability=0.005,
)


class RepairPhysics:
    """Executes the state mutations of each repair action."""

    def __init__(self, fabric: Fabric, cascade: CascadeModel,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.fabric = fabric
        self.cascade = cascade
        self.rng = rng if rng is not None else np.random.default_rng(0)

    # -- individual procedures ----------------------------------------------

    def reach_in(self, link: Link, profile: ContactProfile, now: float):
        """Physically enter the cable bundle around the link.

        Returns the cascade :class:`TouchReport` — every procedure calls
        this exactly once before manipulating anything.
        """
        return self.cascade.touch(link, profile, now)

    def do_reseat(self, link: Link, now: float,
                  skill: SkillProfile) -> str:
        """Unseat and re-seat both transceivers (§3.2)."""
        if self.rng.random() < skill.botch_probability:
            return "botched: transceivers disturbed but not re-seated"
        for unit in link.transceivers():
            unit.unseat()
            unit.seat(now, rng=self.rng)
        return "reseated both ends"

    def do_clean(self, link: Link, now: float,
                 skill: SkillProfile) -> Tuple[bool, str]:
        """Detach, inspect, clean, verify, reassemble (§3.3.2).

        Returns (verified_clean, notes).  ``verified_clean=False`` means
        inspection kept failing after ``max_clean_rounds`` — a robot
        then requests human support; a human escalates the ticket.
        """
        cable = link.cable
        if not cable.cleanable:
            return False, f"{cable.kind.value} cable is not cleanable"
        if self.rng.random() < skill.botch_probability:
            return True, "botched: believed clean, dirt remains"

        all_verified = True
        for side in ("a", "b"):
            cable.detach(side)
            end = cable.endface(side)
            faces = [end]
            unit = link.transceiver_at(side)
            if unit.receptacle is not None:
                faces.append(unit.receptacle)
            for face in faces:
                verified = False
                for round_index in range(skill.max_clean_rounds):
                    if face.passes_inspection(
                            false_negative_rate=skill.
                            inspection_false_negative,
                            rng=self.rng):
                        verified = True
                        break
                    face.clean(
                        self.rng, wet=(round_index > 0),
                        effectiveness=skill.clean_effectiveness,
                        smear_probability=skill.clean_smear_probability)
                else:
                    verified = face.passes_inspection(
                        false_negative_rate=skill.inspection_false_negative,
                        rng=self.rng)
                all_verified = all_verified and verified
            cable.attach(side)
        note = ("cleaned and verified both ends" if all_verified
                else "cleaning could not be verified")
        return all_verified, note

    def pick_suspect_side(self, link: Link) -> str:
        """Which end to replace: visible faults first, then worst wear."""
        for side in ("a", "b"):
            unit = link.transceiver_at(side)
            if unit.hw_fault or unit.firmware_stuck:
                return side
        if link.transceiver_b.oxidation > link.transceiver_a.oxidation:
            return "b"
        return "a"

    def do_replace_transceiver(self, link: Link,
                               now: float) -> Tuple[bool, str]:
        """Swap the suspect transceiver for a spare from stock."""
        side = self.pick_suspect_side(link)
        old = link.transceiver_at(side)
        spare = self.fabric.take_spare_transceiver(
            old.form_factor, optical=old.optical, now=now)
        if spare is None:
            return False, f"no spare {old.form_factor.label} in stock"
        link.replace_transceiver(side, spare)
        return True, f"replaced {old.id} with {spare.id} (side {side})"

    def do_replace_cable(self, link: Link, now: float) -> Tuple[bool, str]:
        """Lay a new cable (and fresh transceivers on both ends)."""
        spare = self.fabric.take_spare_cable(link.cable, now=now)
        if spare is None:
            return False, "no spare cable in stock"
        old = link.replace_cable(spare)
        self.fabric.rebundle(old.id, spare.id, *link.endpoint_ids)
        return True, f"replaced cable {old.id} with {spare.id}"

    def do_replace_switchgear(self, link: Link,
                              now: float) -> Tuple[bool, str]:
        """Clear port / line-card hardware faults on both ends."""
        cleared = []
        for port in link.ports():
            if port.hw_fault:
                port.hw_fault = False
                cleared.append(port.id)
            parent = self.fabric.node(port.parent_id)
            card = getattr(parent, "line_card_of", lambda _pid: None)(
                port.id)
            if card is not None and card.hw_fault:
                card.replace()
                cleared.append(card.id)
        note = (f"replaced switchgear: {', '.join(cleared)}" if cleared
                else "no faulty switchgear found; swapped anyway")
        return True, note

    # -- dispatch --------------------------------------------------------------

    def perform(self, action: RepairAction, link: Link, now: float,
                skill: SkillProfile) -> Tuple[bool, str]:
        """Run one action's physics; returns (completed, notes).

        ``completed=False`` signals a *capability* failure (no spares,
        uncleanable cable) — distinct from a completed-but-ineffective
        repair, which telemetry discovers later.
        """
        if action is RepairAction.RESEAT:
            return True, self.do_reseat(link, now, skill)
        if action is RepairAction.CLEAN:
            return self.do_clean(link, now, skill)
        if action is RepairAction.REPLACE_TRANSCEIVER:
            return self.do_replace_transceiver(link, now)
        if action is RepairAction.REPLACE_CABLE:
            return self.do_replace_cable(link, now)
        if action is RepairAction.REPLACE_SWITCHGEAR:
            return self.do_replace_switchgear(link, now)
        raise ValueError(f"unknown action {action!r}")
