"""Cables: DAC/AEC/AOC integrated cables and separable LC/MPO fiber.

Separable cables (LC, MPO) expose field-accessible end-faces at both ends
that can be detached from their transceivers, inspected, and cleaned
(§3.2).  Integrated cables (DAC/AEC/AOC) have their "transceivers"
attached at manufacture and can only be replaced as a whole.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from dcrobot.network.endface import EndFace
from dcrobot.network.enums import CableKind, ComponentState, EndFacePolish

#: Conventional reach bands (metres) used when choosing a cable kind.
DAC_MAX_LENGTH_M = 3.0
AOC_MAX_LENGTH_M = 30.0


def kind_for_length(length_m: float, gbps: int = 100) -> CableKind:
    """Pick the customary cable construction for a link of given reach.

    Short links use passive copper, medium runs integrated active optics,
    long runs separate transceivers + MPO/LC fiber (§3.1).  Links of
    400 Gbit/s and above need parallel fibers, hence MPO over LC.
    """
    if length_m <= DAC_MAX_LENGTH_M:
        return CableKind.DAC
    if length_m <= AOC_MAX_LENGTH_M:
        return CableKind.AOC
    return CableKind.MPO if gbps >= 200 else CableKind.LC


def cores_for(kind: CableKind, gbps: int) -> int:
    """Fiber cores per cable: 100G/core, so an 800G MPO carries 8 (§3.2)."""
    if kind is not CableKind.MPO:
        return 1
    return max(2, int(np.ceil(gbps / 100.0)))


class Cable:
    """One physical cable with (for separable kinds) two end-faces."""

    def __init__(self, cable_id: str, kind: CableKind, length_m: float,
                 core_count: int = 1,
                 polish: EndFacePolish = EndFacePolish.UPC,
                 install_time: float = 0.0) -> None:
        if length_m <= 0:
            raise ValueError(f"length_m must be > 0, got {length_m}")
        if core_count < 1:
            raise ValueError(f"core_count must be >= 1, got {core_count}")
        if kind is not CableKind.MPO and core_count > 2:
            raise ValueError(f"{kind.value} cables carry 1-2 cores")
        #: Columnar binding while wired into a fabric link (see
        #: :class:`~dcrobot.network.state.FabricState`); must exist
        #: before any mirrored property is assigned below.
        self._fs = None
        self._row = -1
        self.id = cable_id
        self.kind = kind
        self.length_m = float(length_m)
        self.core_count = core_count
        self.polish = polish
        self.state = ComponentState.ACTIVE
        self.damaged = False
        self.install_time = install_time
        if kind.is_separable:
            self.end_a: Optional[EndFace] = EndFace(core_count, polish)
            self.end_b: Optional[EndFace] = EndFace(core_count, polish)
        else:
            self.end_a = None
            self.end_b = None
        #: Whether each end is currently mated to its transceiver.
        self.attached_a = True
        self.attached_b = True

    def __repr__(self) -> str:
        return (f"<Cable {self.id} {self.kind.value} {self.length_m:.1f}m "
                f"cores={self.core_count}>")

    # -- columnar mirror -------------------------------------------------------

    @property
    def damaged(self) -> bool:
        return self._damaged

    @damaged.setter
    def damaged(self, value: bool) -> None:
        self._damaged = value
        fs = self._fs
        if fs is not None:
            fs.cable_damaged[self._row] = value
            fs.input_writes += 1

    @property
    def attached_a(self) -> bool:
        return self._attached_a

    @attached_a.setter
    def attached_a(self, value: bool) -> None:
        self._attached_a = value
        fs = self._fs
        if fs is not None:
            fs.cable_attached[0, self._row] = value
            fs.input_writes += 1

    @property
    def attached_b(self) -> bool:
        return self._attached_b

    @attached_b.setter
    def attached_b(self, value: bool) -> None:
        self._attached_b = value
        fs = self._fs
        if fs is not None:
            fs.cable_attached[1, self._row] = value
            fs.input_writes += 1

    @property
    def cleanable(self) -> bool:
        """Field-cleanable ⇔ the ends detach from their transceivers."""
        return self.kind.is_separable

    @property
    def worst_contamination(self) -> float:
        """Dirtiest core over both end-faces (0 for integrated cables)."""
        levels = [end.worst_contamination
                  for end in (self.end_a, self.end_b) if end is not None]
        return max(levels) if levels else 0.0

    @property
    def impaired(self) -> bool:
        """True if damage or dirt measurably hurts the optical budget."""
        if self.damaged:
            return True
        return any(end.impaired
                   for end in (self.end_a, self.end_b) if end is not None)

    def endface(self, side: str) -> EndFace:
        """The end-face at side ``"a"`` or ``"b"`` (separable cables only)."""
        end = {"a": self.end_a, "b": self.end_b}[side]
        if end is None:
            raise ValueError(
                f"{self.kind.value} cable {self.id} has no field end-faces")
        return end

    def detach(self, side: str) -> None:
        """Unmate one end from its transceiver (cleaning precondition)."""
        if not self.kind.is_separable:
            raise ValueError(f"cannot detach integrated {self.kind.value}")
        if side == "a":
            self.attached_a = False
        elif side == "b":
            self.attached_b = False
        else:
            raise ValueError(f"side must be 'a' or 'b', got {side!r}")

    def attach(self, side: str) -> None:
        """Re-mate one end to its transceiver."""
        if side == "a":
            self.attached_a = True
        elif side == "b":
            self.attached_b = True
        else:
            raise ValueError(f"side must be 'a' or 'b', got {side!r}")

    def damage(self) -> None:
        """Permanently damage the cable (bend, crush, break)."""
        self.damaged = True
        self.state = ComponentState.FAILED
