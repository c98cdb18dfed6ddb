"""Jellyfish: random regular graph topology (Singla et al., NSDI '12).

The paper's §4 cites Jellyfish [14] as an efficient topology whose
*deployability* — complex, irregular wiring looms — is what keeps it out
of production.  Building it here lets E9 quantify that: same radix as a
fat-tree, better path diversity, but denser and longer cable bundles.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from dcrobot.network.enums import FormFactor
from dcrobot.network.inventory import Fabric
from dcrobot.network.layout import HallLayout
from dcrobot.network.switchgear import SwitchRole
from dcrobot.topology.base import Topology


def build_jellyfish(switches: int = 20, degree: int = 4,
                    form_factor: FormFactor = FormFactor.QSFP_DD,
                    rng: Optional[np.random.Generator] = None,
                    switches_per_rack: int = 1,
                    rack_stride: int = 4) -> Topology:
    """Build a Jellyfish fabric: ``switches`` nodes of uniform ``degree``.

    ``switches * degree`` must be even (handshake lemma); the random
    regular graph is drawn via networkx, seeded from ``rng``.  No
    other topology needs networkx, so it is imported here, on call,
    and worlds wired any other way never load it.
    """
    import networkx as nx

    if switches < 2:
        raise ValueError(f"need >= 2 switches, got {switches}")
    if not 0 < degree < switches:
        raise ValueError(f"degree must be in 1..{switches - 1}")
    if switches * degree % 2 != 0:
        raise ValueError("switches * degree must be even")
    rng = rng if rng is not None else np.random.default_rng(0)

    seed = int(rng.integers(2 ** 31 - 1))
    random_graph = nx.random_regular_graph(degree, switches, seed=seed)

    racks_needed = int(np.ceil(switches / switches_per_rack)) * rack_stride
    racks_per_row = max(4, int(np.ceil(np.sqrt(racks_needed))))
    rows = int(np.ceil(racks_needed / racks_per_row))
    layout = HallLayout(rows=max(rows, 1), racks_per_row=racks_per_row)
    fabric = Fabric(layout=layout, rng=rng)

    nodes = []
    for index in range(switches):
        rack_index = (index // switches_per_rack) * rack_stride
        rack = layout.rack_at(rack_index // racks_per_row,
                              rack_index % racks_per_row)
        nodes.append(fabric.add_switch(
            SwitchRole.NODE, radix=degree, form_factor=form_factor,
            rack_id=rack.id,
            u_position=10 + (index % switches_per_rack) * 4))

    for a, b in random_graph.edges():
        fabric.connect(nodes[a].id, nodes[b].id)

    return Topology(
        name=f"jellyfish-n{switches}d{degree}",
        fabric=fabric,
        params={"switches": switches, "degree": degree},
        switches_by_role={SwitchRole.NODE: [s.id for s in nodes]},
        host_ids=[],
    )
