"""Common topology wrapper returned by all builders."""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional

from dcrobot.network.inventory import Fabric
from dcrobot.network.switchgear import SwitchRole

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


@dataclasses.dataclass
class Topology:
    """A built fabric plus the role structure the builder created.

    ``fabric`` owns all physical objects; this wrapper records which
    switches play which role and which nodes are servers, so experiments
    can pick traffic endpoints and redundancy groups without re-deriving
    the structure.
    """

    name: str
    fabric: Fabric
    params: Dict[str, object]
    switches_by_role: Dict[SwitchRole, List[str]]
    host_ids: List[str]

    def __post_init__(self) -> None:
        known = set(self.fabric.switches)
        for role, ids in self.switches_by_role.items():
            missing = set(ids) - known
            if missing:
                raise ValueError(
                    f"role {role.value} references unknown switches "
                    f"{sorted(missing)}")

    def __repr__(self) -> str:
        return (f"<Topology {self.name} switches="
                f"{len(self.fabric.switches)} links="
                f"{len(self.fabric.links)}>")

    @property
    def switch_count(self) -> int:
        return len(self.fabric.switches)

    @property
    def link_count(self) -> int:
        return len(self.fabric.links)

    def role_of(self, switch_id: str) -> SwitchRole:
        return self.fabric.switches[switch_id].role

    def switches(self, role: Optional[SwitchRole] = None) -> List[str]:
        """Switch ids, optionally filtered by role."""
        if role is None:
            return list(self.fabric.switches)
        return list(self.switches_by_role.get(role, []))

    def graph(self, operational_only: bool = False) -> nx.MultiGraph:
        return self.fabric.graph(operational_only=operational_only)

    def is_connected(self, operational_only: bool = False) -> bool:
        """Whether the (operational) fabric is one connected component.

        Builds :meth:`Fabric.graph` and imports networkx on call.
        """
        import networkx as nx

        graph = self.graph(operational_only=operational_only)
        if graph.number_of_nodes() == 0:
            return True
        return nx.is_connected(graph)

    def edge_switch_pairs(self) -> List[tuple]:
        """(src, dst) pairs of distinct traffic-attachment switches.

        Traffic enters at TOR/LEAF/NODE switches (or hosts when present).
        """
        attach_roles = (SwitchRole.TOR, SwitchRole.LEAF, SwitchRole.NODE)
        attach = [sid for role in attach_roles
                  for sid in self.switches_by_role.get(role, [])]
        return [(a, b) for a in attach for b in attach if a != b]


def roles_from_fabric(fabric: Fabric) -> Dict[SwitchRole, List[str]]:
    """Group a fabric's switches by their role attribute."""
    grouped: Dict[SwitchRole, List[str]] = defaultdict(list)
    for switch in fabric.switches.values():
        grouped[switch.role].append(switch.id)
    return dict(grouped)
