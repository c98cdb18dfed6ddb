"""Optical/electrical transceivers and their (diverse) mechanical models.

The paper stresses that while electrical front-ends are standardized, the
*backend* — where a gripper grabs — "can vary in color, shape, material,
stiffness" across literally tens of deployed designs (§4, "Hardware
redesign and standardization").  We model that diversity explicitly: each
:class:`TransceiverModel` carries mechanical attributes that determine how
hard it is for a robot to recognize and grip.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional

import numpy as np

from dcrobot.network.endface import EndFace
from dcrobot.network.enums import ComponentState, FormFactor


class PullTabKind(enum.Enum):
    """Mechanical release mechanisms seen across vendor backends."""

    TAB = "pull-tab"
    BAIL = "bail-latch"
    RIGID = "rigid-handle"


@dataclasses.dataclass(frozen=True)
class TransceiverModel:
    """A vendor design: everything a robot's perception/grip cares about."""

    model_id: str
    vendor: str
    form_factor: FormFactor
    pull_tab: PullTabKind
    grip_width_mm: float
    tab_stiffness: float       #: 0 floppy .. 1 rigid
    color: str
    #: Aggregate 0..1 difficulty for robotic grasping of this design.
    grip_difficulty: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.grip_difficulty <= 1.0:
            raise ValueError("grip_difficulty outside [0, 1]")


_VENDORS = ["acme", "borealis", "cyan", "dexter", "ember",
            "fjord", "gale", "harbor", "iris", "jetty"]
_COLORS = ["black", "grey", "blue", "beige", "green"]


def generate_model_catalog(count: int, rng: np.random.Generator,
                           form_factors: Optional[List[FormFactor]] = None
                           ) -> List[TransceiverModel]:
    """Synthesize ``count`` distinct vendor designs.

    Reproduces the diversity the paper describes: same standardized
    form factors, widely varying mechanical backends.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    factors = form_factors or [FormFactor.QSFP28, FormFactor.QSFP56,
                               FormFactor.QSFP_DD, FormFactor.OSFP]
    catalog = []
    for index in range(count):
        factor = factors[index % len(factors)]
        stiffness = float(rng.uniform(0.1, 1.0))
        tab = rng.choice(list(PullTabKind))
        # Floppy tabs and unusual widths are harder to grip.
        width = float(rng.uniform(10.0, 24.0))
        difficulty = float(np.clip(
            0.15 + 0.5 * (1.0 - stiffness) + rng.normal(0.0, 0.08), 0.0, 0.9))
        catalog.append(TransceiverModel(
            model_id=f"model-{index:03d}",
            vendor=_VENDORS[index % len(_VENDORS)],
            form_factor=factor,
            pull_tab=tab,
            grip_width_mm=width,
            tab_stiffness=stiffness,
            color=_COLORS[index % len(_COLORS)],
            grip_difficulty=difficulty,
        ))
    return catalog


class Transceiver:
    """One pluggable transceiver unit and its physical degradation state.

    Degradation dimensions (see :class:`~dcrobot.network.enums.
    DegradationKind` for the repair mapping):

    * ``oxidation`` — gold-contact corrosion, 0..1; reseating wipes it.
    * ``firmware_stuck`` — wedged controller; reseating power-cycles it.
    * ``hw_fault`` — permanent electronics failure; only replacement fixes.
    * ``receptacle`` — the *inside* optical end-face, which the cleaning
      robot inspects and cleans along with the cable end-face (§3.3.2).
    """

    def __init__(self, unit_id: str, model: TransceiverModel,
                 optical: bool = True, install_time: float = 0.0) -> None:
        #: Columnar binding while wired into a fabric link (see
        #: :class:`~dcrobot.network.state.FabricState`); must exist
        #: before any mirrored property is assigned below.
        self._fs = None
        self._row = -1
        self._side = 0
        self.receptacle = EndFace(core_count=1) if optical else None
        self.id = unit_id
        self.model = model
        self.optical = optical
        self.state = ComponentState.ACTIVE
        self.seated = True
        self.install_time = install_time
        self.last_seated_time = install_time
        self.reseat_count = 0
        self.oxidation = 0.0
        self.firmware_stuck = False
        self.hw_fault = False

    def __repr__(self) -> str:
        return (f"<Transceiver {self.id} {self.model.form_factor.label} "
                f"state={self.state.value}>")

    # -- columnar mirror -------------------------------------------------------
    # ``oxidation`` is written densely by the aging kernel, so the
    # array is the readable truth while bound; the sparse flags keep
    # their plain attribute as truth and write through to the arrays.
    # Every bound write bumps ``FabricState.input_writes``, the key of
    # the health model's cached score inputs.

    @property
    def oxidation(self) -> float:
        fs = self._fs
        if fs is None:
            return self._oxidation
        return float(fs.ox[self._side, self._row])

    @oxidation.setter
    def oxidation(self, value: float) -> None:
        fs = self._fs
        if fs is None:
            self._oxidation = value
        else:
            fs.ox[self._side, self._row] = value
            fs.input_writes += 1

    @property
    def seated(self) -> bool:
        return self._seated

    @seated.setter
    def seated(self, value: bool) -> None:
        self._seated = value
        fs = self._fs
        if fs is not None:
            fs.seated[self._side, self._row] = value
            fs.input_writes += 1

    @property
    def firmware_stuck(self) -> bool:
        return self._firmware_stuck

    @firmware_stuck.setter
    def firmware_stuck(self, value: bool) -> None:
        self._firmware_stuck = value
        fs = self._fs
        if fs is not None:
            fs.unit_fw_stuck[self._side, self._row] = value
            fs.input_writes += 1

    @property
    def hw_fault(self) -> bool:
        return self._hw_fault

    @hw_fault.setter
    def hw_fault(self, value: bool) -> None:
        self._hw_fault = value
        fs = self._fs
        if fs is not None:
            fs.unit_hw_fault[self._side, self._row] = value
            fs.input_writes += 1

    @property
    def form_factor(self) -> FormFactor:
        return self.model.form_factor

    @property
    def degraded(self) -> bool:
        """True if any degradation dimension is active."""
        receptacle_dirty = (self.receptacle is not None
                            and self.receptacle.impaired)
        return (self.hw_fault or self.firmware_stuck
                or self.oxidation > 0.3 or receptacle_dirty)

    # -- physical operations -------------------------------------------------

    def unseat(self) -> None:
        """Pull the unit out of its cage."""
        self.seated = False

    def seat(self, now: float, rng: Optional[np.random.Generator] = None
             ) -> None:
        """Insert the unit: wipes contact oxidation and reboots firmware.

        The paper's two observed reseat effects (§3.2): (i) the insertion
        wipe scrubs corrosion off the gold contacts, (ii) the power cycle
        reboots the transceiver.  A small residue of oxidation can remain.
        """
        self.seated = True
        self.last_seated_time = now
        self.reseat_count += 1
        residue = rng.uniform(0.0, 0.15) if rng is not None else 0.0
        self.oxidation *= residue
        if self.oxidation < 1e-3:
            self.oxidation = 0.0
        self.firmware_stuck = False

    def fail_hardware(self) -> None:
        """Permanent electronics fault (cleared only by replacement)."""
        self.hw_fault = True
        self.state = ComponentState.FAILED
