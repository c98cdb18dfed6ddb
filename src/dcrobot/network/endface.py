"""Fiber end-faces: per-core contamination, inspection, and cleaning.

Dirt on an end-face is a leading cause of link flapping (§1, citing
Zhuo et al. [21]).  An :class:`EndFace` tracks a contamination level in
[0, 1] for each fiber core plus permanent scratch damage.  Inspection
compares contamination against the industry pass threshold (IEC 61300-3-35
style); cleaning applies wet/dry methods that remove most—but not all—
contamination and occasionally make things worse (re-smearing).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from dcrobot.network.enums import EndFacePolish

#: Contamination level above which an end-face core fails inspection.
INSPECTION_PASS_THRESHOLD = 0.15

#: Contamination level above which link quality is visibly affected.
IMPAIRMENT_THRESHOLD = 0.25


class EndFace:
    """One polished fiber end-face with ``core_count`` cores.

    While the face is a cable end on a wired link, its per-core levels
    live in the fabric state's ``cable_end_cores`` column (binding
    copies them in, unbinding copies them out), so the dust kernel
    deposits on every face in one vector pass;
    :attr:`contamination` is then a view of the face's cores in that
    column.  A receptacle, or a face on no wired link, keeps its own
    array.
    """

    def __init__(self, core_count: int = 1,
                 polish: EndFacePolish = EndFacePolish.UPC,
                 initial_contamination: float = 0.0) -> None:
        if core_count < 1:
            raise ValueError(f"core_count must be >= 1, got {core_count}")
        if not 0.0 <= initial_contamination <= 1.0:
            raise ValueError("initial_contamination outside [0, 1]")
        self.core_count = core_count
        self.polish = polish
        #: The per-core levels while no cable row holds them (None while
        #: one does).
        self._contamination = np.full(core_count,
                                      float(initial_contamination))
        self.scratched = np.zeros(core_count, dtype=bool)
        #: Columnar binding while this face is on a wired link:
        #: ``(FabricState, "cable"|"recept", side)``.  A cable end's
        #: cores are read and written in ``cable_end_cores``.  Mutators
        #: keep the per-link worst-contamination and scratch columns
        #: current for the batch kernels: a per-core deposit can only
        #: raise the worst core, so it writes the column through; every
        #: other mutator recomputes both via :meth:`_push_mirror`.  Both
        #: bump the state's ``input_writes`` when they write.
        self._mirror = None
        self._row = -1

    @property
    def contamination(self) -> np.ndarray:
        """Per-core contamination levels in [0, 1]."""
        mirror = self._mirror
        if mirror is not None and mirror[1] == "cable":
            return mirror[0].cable_end_cores[mirror[2], :self.core_count,
                                             self._row]
        return self._contamination

    @contamination.setter
    def contamination(self, levels: np.ndarray) -> None:
        mirror = self._mirror
        if mirror is not None and mirror[1] == "cable":
            mirror[0].cable_end_cores[mirror[2], :self.core_count,
                                      self._row] = levels
        else:
            self._contamination = levels

    def _push_mirror(self) -> None:
        mirror = self._mirror
        if mirror is None:
            return
        fs, kind, side = mirror
        row = self._row
        if kind == "cable":
            fs.cable_end_worst[side, row] = self.contamination.max()
            fs.cable_end_scratched[side, row] = bool(self.scratched.any())
        else:
            fs.recept_worst[side, row] = self.contamination.max()
        fs.input_writes += 1

    def __repr__(self) -> str:
        return (f"<EndFace cores={self.core_count} polish={self.polish.name} "
                f"worst={self.worst_contamination:.3f}>")

    # -- state -------------------------------------------------------------

    @property
    def worst_contamination(self) -> float:
        """Contamination of the dirtiest core (drives link impairment)."""
        return float(self.contamination.max())

    @property
    def impaired(self) -> bool:
        """True if dirt is bad enough to affect the optical link budget."""
        return (self.worst_contamination > IMPAIRMENT_THRESHOLD
                or bool(self.scratched.any()))

    # -- physics -----------------------------------------------------------

    def add_contamination(self, amount: float,
                          cores: Optional[Sequence[int]] = None) -> None:
        """Deposit dirt.  ``cores=None`` means all cores.

        A per-core deposit cannot touch scratches and only raises
        levels, so while the worst-core column equals
        ``contamination.max()`` (every mutator keeps it so) the new
        worst is ``max(column, highest new level)`` — written through
        without reducing the whole face.
        """
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        if cores is None:
            self.contamination = np.minimum(self.contamination + amount, 1.0)
            self._push_mirror()
            return
        contamination = self.contamination
        highest = 0.0
        for core in cores:
            level = contamination[core] + amount
            if level > 1.0:
                level = 1.0
            contamination[core] = level
            if level > highest:
                highest = level
        mirror = self._mirror
        if mirror is None:
            return
        fs, kind, side = mirror
        column = fs.cable_end_worst if kind == "cable" else fs.recept_worst
        if highest > column[side, self._row]:
            column[side, self._row] = highest
            fs.input_writes += 1

    def scratch(self, core: int) -> None:
        """Permanently damage a core (only replacement fixes this)."""
        self.scratched[core] = True
        self._push_mirror()

    # -- maintenance operations ---------------------------------------------

    def inspect(self, false_negative_rate: float = 0.0,
                rng: Optional[np.random.Generator] = None) -> List[bool]:
        """Per-core pass/fail against the industry threshold.

        A non-zero ``false_negative_rate`` models imperfect perception:
        dirty cores occasionally pass (the dominant error mode for
        automated inspection per §3.3.2).
        """
        results = []
        for core in range(self.core_count):
            dirty = (self.contamination[core] > INSPECTION_PASS_THRESHOLD
                     or self.scratched[core])
            if dirty and false_negative_rate > 0 and rng is not None:
                if rng.random() < false_negative_rate:
                    dirty = False
            results.append(not dirty)
        return results

    def passes_inspection(self, **kwargs) -> bool:
        """True if every core passes inspection."""
        return all(self.inspect(**kwargs))

    def clean(self, rng: np.random.Generator, wet: bool = False,
              effectiveness: float = 0.9,
              smear_probability: float = 0.02) -> None:
        """One cleaning pass over all cores.

        Removes ``effectiveness`` (± noise) of each core's contamination;
        wet cleaning is stronger (handles oily residue).  With small
        probability a pass smears dirt across cores instead — which is why
        real procedures loop clean→inspect until passing.
        """
        if not 0.0 < effectiveness <= 1.0:
            raise ValueError("effectiveness outside (0, 1]")
        if rng.random() < smear_probability:
            # Redistribute a fraction of the total dirt across cores.
            total = self.contamination.sum() * 0.5
            share = rng.dirichlet(np.ones(self.core_count)) * total
            self.contamination = np.minimum(share, 1.0)
            self._push_mirror()
            return
        strength = effectiveness + (0.08 if wet else 0.0)
        strength = min(strength, 0.995)
        noise = rng.uniform(0.9, 1.0, size=self.core_count)
        self.contamination = self.contamination * (1.0 - strength * noise)
        self.contamination[self.contamination < 1e-4] = 0.0
        self._push_mirror()

    def replace(self) -> None:
        """Pristine end-face (cable or transceiver swapped)."""
        self.contamination[:] = 0.0
        self.scratched[:] = False
        self._push_mirror()
