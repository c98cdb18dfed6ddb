"""The repair escalation ladder (§3.2).

"When a network link fails or flaps the first time a ticket is created
for that link, the usual first step is to reseat the transceiver. ...
If a link has failed, and a reseating of the transceiver has not solved
the problem, another ticket will be generated [→ cleaning]. ... the next
common action is then to replace the transceivers and ultimately the
cable. If this does not solve the problem, then the final stage is to
replace the NIC, line card, or switch."

The ladder is stateless over an explicit attempt history: given the
repairs already tried on a link *within the escalation window*, it
returns the next stage.  Stages that do not apply (cleaning an
integrated cable) are skipped; after the final stage the ladder restarts
— the hardware is new, so its next incident is a fresh one.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from dcrobot.core.actions import RepairAction
from dcrobot.network.link import Link

DEFAULT_LADDER: Tuple[RepairAction, ...] = (
    RepairAction.RESEAT,
    RepairAction.CLEAN,
    RepairAction.REPLACE_TRANSCEIVER,
    RepairAction.REPLACE_CABLE,
    RepairAction.REPLACE_SWITCHGEAR,
)


@dataclasses.dataclass
class EscalationConfig:
    """Ladder order and the repeat-ticket window."""

    ladder: Tuple[RepairAction, ...] = DEFAULT_LADDER
    #: A re-ticket within this window escalates; later ones start over.
    window_seconds: float = 14 * 86400.0

    def __post_init__(self) -> None:
        if not self.ladder:
            raise ValueError("ladder must not be empty")
        if len(set(self.ladder)) != len(self.ladder):
            raise ValueError("ladder contains duplicate actions")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")


class EscalationLadder:
    """Chooses the next repair action for a link."""

    def __init__(self, config: Optional[EscalationConfig] = None) -> None:
        self.config = config or EscalationConfig()

    def applicable(self, action: RepairAction, link: Link) -> bool:
        """Whether a stage makes sense for this link's construction."""
        if action is RepairAction.CLEAN:
            return link.cable.cleanable
        return True

    def highest_recent_stage(
            self, history: Sequence[Tuple[float, RepairAction]],
            now: float) -> int:
        """Index of the highest ladder stage tried in-window (-1: none)."""
        ladder = self.config.ladder
        highest = -1
        for when, action in history:
            if now - when <= self.config.window_seconds \
                    and action in ladder:
                highest = max(highest, ladder.index(action))
        return highest

    def is_exhausted(self, link: Link,
                     history: Sequence[Tuple[float, RepairAction]],
                     now: float) -> bool:
        """Whether every applicable stage was already tried in-window.

        The legacy behaviour on exhaustion is to restart the ladder (the
        hardware is new).  The hardened controller instead checks this
        first and hands the incident to a human: restarting would break
        the per-incident stage-monotonicity invariant and loop robots
        over a link they demonstrably cannot fix.
        """
        highest = self.highest_recent_stage(history, now)
        ladder = self.config.ladder
        for index in range(highest + 1, len(ladder)):
            if self.applicable(ladder[index], link):
                return False
        return highest >= 0

    def next_action(self, link: Link,
                    history: Sequence[Tuple[float, RepairAction]],
                    now: float) -> RepairAction:
        """The next stage given (time, action) attempts, newest last.

        Only attempts within the escalation window count; the next stage
        is the first applicable ladder entry after the highest stage
        already tried in-window.
        """
        ladder = self.config.ladder
        highest = self.highest_recent_stage(history, now)
        for index in range(highest + 1, len(ladder)):
            if self.applicable(ladder[index], link):
                return ladder[index]
        # Ladder exhausted inside the window: the gear is new hardware
        # now, so start over.
        for action in ladder:
            if self.applicable(action, link):
                return action
        raise ValueError(f"no applicable action for link {link.id}")
