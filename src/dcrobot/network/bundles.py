"""Cable bundles: groups of cables routed through the same tray segment.

Bundles are the physical coupling that produces cascading failures:
touching one cable in a dense loom disturbs its neighbours (§1).  The
denser the bundle, the more neighbours a repair can perturb — and the
harder perception/grasping becomes for a robot (§3.3.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional


class CableBundle:
    """A set of cables sharing a tray segment."""

    def __init__(self, bundle_id: str,
                 cable_ids: Optional[List[str]] = None) -> None:
        self.id = bundle_id
        self.cable_ids: List[str] = list(cable_ids or [])

    def __repr__(self) -> str:
        return f"<CableBundle {self.id} cables={len(self.cable_ids)}>"

    def __len__(self) -> int:
        return len(self.cable_ids)

    def add(self, cable_id: str) -> None:
        if cable_id in self.cable_ids:
            raise ValueError(f"{cable_id} already in bundle {self.id}")
        self.cable_ids.append(cable_id)

    def remove(self, cable_id: str) -> None:
        self.cable_ids.remove(cable_id)

    def neighbors_of(self, cable_id: str) -> List[str]:
        """Other cables in the bundle (the cascade blast set)."""
        if cable_id not in self.cable_ids:
            raise ValueError(f"{cable_id} not in bundle {self.id}")
        return [other for other in self.cable_ids if other != cable_id]

    @property
    def density(self) -> int:
        """Cable count — the occlusion/cascade driver."""
        return len(self.cable_ids)


class BundleRegistry:
    """Looks up the bundle a cable belongs to."""

    def __init__(self) -> None:
        self.bundles: Dict[str, CableBundle] = {}
        self._bundle_of_cable: Dict[str, str] = {}
        #: Bumped by every :meth:`assign` and effective :meth:`unassign`:
        #: with ``FabricState.generation`` it keys what depends on
        #: bundle membership (:class:`~dcrobot.topology.smi.SmiTracker`).
        self.membership = 0

    def create(self, bundle_id: str) -> CableBundle:
        if bundle_id in self.bundles:
            raise ValueError(f"bundle {bundle_id} already exists")
        bundle = CableBundle(bundle_id)
        self.bundles[bundle_id] = bundle
        return bundle

    def assign(self, cable_id: str, bundle_id: str) -> None:
        if cable_id in self._bundle_of_cable:
            raise ValueError(f"{cable_id} already bundled")
        self.bundles[bundle_id].add(cable_id)
        self._bundle_of_cable[cable_id] = bundle_id
        self.membership += 1

    def unassign(self, cable_id: str) -> None:
        bundle_id = self._bundle_of_cable.pop(cable_id, None)
        if bundle_id is not None:
            self.bundles[bundle_id].remove(cable_id)
            self.membership += 1

    def bundle_of(self, cable_id: str) -> Optional[CableBundle]:
        bundle_id = self._bundle_of_cable.get(cable_id)
        return self.bundles[bundle_id] if bundle_id else None

    def neighbors_of(self, cable_id: str) -> List[str]:
        """Cables physically adjacent to ``cable_id`` (empty if unbundled)."""
        bundle = self.bundle_of(cable_id)
        return bundle.neighbors_of(cable_id) if bundle else []
