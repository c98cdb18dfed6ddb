"""Digital-twin world forking: cheap what-if copies of a live world.

The paper's §4 predictive-maintenance agenda needs the control plane to
ask "what would the fabric look like if I executed *this* repair plan?"
without perturbing production.  :class:`TwinWorld` answers it on the
columnar substrate:

* ``FabricState.fork()`` copies every per-link column, so the twin
  shares no buffer with the live world and is freed like any object
  once dropped;
* ``TrafficState.fork()`` shares the routing structure and the
  content-keyed routing memo (adjacency, twin classes, per-class-pair
  path interiors and ECMP member resolutions per best-row state); the
  twin only re-picks the member resolution that matches its own loss;
* a forked RNG substream keeps the twin's stochastic draws independent
  of — and reproducible against — the live world;
* :meth:`~dcrobot.traffic.driver.TrafficDriver.fork` continues the live
  traffic matrix (cadence, flow counts, pattern, schedule and flow-id
  watermark) on the twin's engine and substream, so a twin window is
  offered by the live driver's own code;
* an optional live :class:`~dcrobot.topology.smi.SmiTracker` answers
  predicted-SMI queries: SMI is structural and a twin changes link
  state and health only, so its SMI is the live world's.

A forked state's bound view objects (``Link`` etc.) still belong to
the live world, so the twin is mutated **column-wise only** through
the vocabulary here (:meth:`set_link_state`, :meth:`drain`,
:meth:`repair_link`, ...), never through object setters.
:meth:`TwinWorld.wrap` builds the same vocabulary around an ordinary
(e.g. deep-copied) world, which is what lets the property suite prove
fork-vs-deepcopy bit-identity with one code path.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from dcrobot.network.enums import LinkState, is_flap
from dcrobot.network.state import CODE_OF, STATE_OF, FabricState
from dcrobot.traffic.driver import TrafficDriver
from dcrobot.traffic.state import TrafficState, WindowResult


class TwinFabric:
    """A fabric handle whose columnar state is a fork.

    Everything except ``state`` forwards to the live fabric: node
    positions, switch/host registries and bound link objects are
    structural reference data the twin reads but never writes.
    """

    def __init__(self, fabric, state: FabricState) -> None:
        self._fabric = fabric
        self.state = state

    def __getattr__(self, name):
        return getattr(self._fabric, name)


class TwinWorld:
    """One forked world: mutate it, roll it forward, read predictions.

    Build with :meth:`fork` (a copied twin of a live world) or
    :meth:`wrap` (same vocabulary over an independently owned world,
    e.g. a deep copy).  A twin needs no release: drop it when done.
    """

    def __init__(self, fabric, fabric_state: FabricState,
                 traffic: Optional[TrafficState],
                 rng: np.random.Generator,
                 now: float = 0.0,
                 driver: Optional[TrafficDriver] = None,
                 smi=None) -> None:
        self.fabric = fabric
        self.state = fabric_state
        self.traffic = traffic
        self.now = float(now)
        #: The twin's own traffic driver: ``driver`` continued on this
        #: twin's engine and substream (defaults without one).
        self.driver = (driver.fork(traffic, rng) if driver is not None
                       else TrafficDriver(traffic, rng=rng))
        #: The live world's SMI memo (see :meth:`predicted_smi`).
        self.smi_tracker = smi

    # -- constructors ---------------------------------------------------------

    @classmethod
    def fork(cls, fabric, traffic: Optional[TrafficState] = None,
             driver: Optional[TrafficDriver] = None,
             rng: Optional[np.random.Generator] = None,
             now: float = 0.0, smi_tracker=None) -> "TwinWorld":
        """A twin of a live world on a copy of its fabric state.

        ``driver`` (the live :class:`~dcrobot.traffic.driver.TrafficDriver`)
        is forked onto the twin's engine, so :meth:`roll` continues the
        live workload.  ``rng`` should be a dedicated substream (e.g.
        ``streams.stream("twin:plan-3")``) so twin draws never consume
        the live world's streams.
        """
        fs_child = fabric.state.fork()
        twin_fabric = TwinFabric(fabric, fs_child)
        twin_rng = rng if rng is not None else np.random.default_rng(0)
        twin_traffic = (traffic.fork(twin_fabric, rng=twin_rng)
                        if traffic is not None else None)
        return cls(twin_fabric, fs_child, twin_traffic, twin_rng,
                   now=now, driver=driver, smi=smi_tracker)

    @classmethod
    def wrap(cls, fabric, traffic: Optional[TrafficState] = None,
             driver: Optional[TrafficDriver] = None,
             rng: Optional[np.random.Generator] = None,
             now: float = 0.0) -> "TwinWorld":
        """The twin vocabulary over a world owned outright (no fork)."""
        return cls(fabric, fabric.state, traffic,
                   rng if rng is not None else np.random.default_rng(0),
                   now=now, driver=driver)

    # -- link addressing ------------------------------------------------------

    def _row(self, link_id: str) -> int:
        return self.state.index_of[link_id]

    def link_state(self, link_id: str) -> LinkState:
        return STATE_OF[int(self.state.state_code[self._row(link_id)])]

    # -- the mutation vocabulary (column-wise, object setters stay out) -------

    def set_link_state(self, link_id: str, new_state: LinkState,
                       now: Optional[float] = None) -> bool:
        """Column-wise twin of ``Link.set_state``."""
        when = self.now if now is None else float(now)
        row = self._row(link_id)
        old_state = STATE_OF[int(self.state.state_code[row])]
        if new_state is old_state:
            return False
        self.state.state_code[row] = CODE_OF[new_state]
        self.state.on_transition(row, when, old_state, new_state,
                                 is_flap(old_state, new_state))
        return True

    def drain(self, link_id: str) -> None:
        if self.traffic is not None:
            self.traffic.drain(link_id)

    def undrain(self, link_id: str) -> None:
        if self.traffic is not None:
            self.traffic.undrain(link_id)

    def set_loss_rate(self, link_id: str, loss: float) -> None:
        row = self._row(link_id)
        self.state.loss_rate[row] = float(loss)
        self.state.note_row(row)

    def begin_maintenance(self, link_id: str,
                          now: Optional[float] = None) -> None:
        """Drain, then take the link out of service for work."""
        self.drain(link_id)
        self.set_link_state(link_id, LinkState.MAINTENANCE, now=now)

    def repair_link(self, link_id: str,
                    now: Optional[float] = None) -> None:
        """A completed repair: link healthy, faults gone, undrained."""
        row = self._row(link_id)
        fs = self.state
        fs.loss_rate[row] = 0.0
        fs.note_row(row)
        fs.cable_damaged[row] = False
        fs.ox[:, row] = 0.0
        fs.seated[:, row] = True
        fs.unit_hw_fault[:, row] = False
        fs.unit_fw_stuck[:, row] = False
        fs.port_hw_fault[:, row] = False
        fs.cable_attached[:, row] = True
        fs.cable_end_worst[:, row] = 0.0
        fs.cable_end_cores[..., row] = 0.0
        fs.cable_end_scratched[:, row] = False
        fs.recept_worst[:, row] = 0.0
        fs.input_writes += 1
        self.set_link_state(link_id, LinkState.UP, now=now)
        self.undrain(link_id)

    # -- rolling the twin forward ---------------------------------------------

    def offer_window(self) -> WindowResult:
        """One driver window at the twin's clock."""
        if self.traffic is None:
            raise RuntimeError("twin has no traffic engine")
        self.now += self.driver.window_seconds
        return self.driver.offer(self.now)

    def roll(self, windows: int) -> List[WindowResult]:
        """Advance ``windows`` traffic windows; returns their results."""
        return [self.offer_window() for _ in range(windows)]

    # -- predictions ----------------------------------------------------------

    def predicted_smi(self) -> float:
        """The twin's SMI: the live world's, since no twin mutation
        changes the fabric's structure."""
        if self.smi_tracker is None:
            raise RuntimeError("twin was forked without an SmiTracker")
        return self.smi_tracker.report().smi

    def p99_fct(self) -> float:
        """p99 of per-window p99 FCTs over the rolled windows."""
        return self.driver.p99_over(self.driver.windows)
