"""Fault injection: turns hazard processes into physical degradation.

One generator process per root cause samples exponential inter-arrival
times scaled by fleet size, picks a victim link, and mutates the
corresponding component's physical state.  The injector also keeps the
**ground-truth log** of every injected fault — the controller never sees
it (it only sees symptoms), but experiments and ML labelling do.
Observers registered with :meth:`FaultInjector.subscribe` hear about
each fault as it lands (the chaos experiments use this to score
incident resolution against ground truth online instead of post hoc).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

import numpy as np

from dcrobot.failures.hazards import per_year
from dcrobot.failures.health import HealthModel
from dcrobot.network.enums import DegradationKind
from dcrobot.network.inventory import Fabric
from dcrobot.network.link import Link
from dcrobot.sim.engine import Simulation


@dataclasses.dataclass(frozen=True)
class FailureRates:
    """Expected fault events per link-year, by root cause.

    Defaults follow the paper's qualitative ordering: transient-class
    causes (dirt, oxidation, wedged firmware) dominate; genuine hardware
    death is comparatively rare (§1, §3.2: reseat is the *usual first
    step* precisely because it so often works).
    """

    oxidation: float = 0.6
    firmware_stuck: float = 0.5
    contamination: float = 0.9
    transceiver_hw: float = 0.12
    cable_damage: float = 0.05
    switch_hw: float = 0.03

    def scaled(self, factor: float) -> "FailureRates":
        """All rates multiplied by ``factor`` (failure-rate sweeps)."""
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        return FailureRates(
            **{field.name: getattr(self, field.name) * factor
               for field in dataclasses.fields(self)})

    def rate_of(self, kind: DegradationKind) -> float:
        """Events per link-year for one cause."""
        return {
            DegradationKind.OXIDATION: self.oxidation,
            DegradationKind.FIRMWARE_STUCK: self.firmware_stuck,
            DegradationKind.CONTAMINATION: self.contamination,
            DegradationKind.TRANSCEIVER_HW: self.transceiver_hw,
            DegradationKind.CABLE_DAMAGE: self.cable_damage,
            DegradationKind.SWITCH_HW: self.switch_hw,
        }[kind]

    @property
    def total(self) -> float:
        """Total events per link-year across causes."""
        return (self.oxidation + self.firmware_stuck + self.contamination
                + self.transceiver_hw + self.cable_damage + self.switch_hw)


@dataclasses.dataclass(frozen=True)
class InjectedFault:
    """Ground-truth record of one injected fault."""

    time: float
    kind: DegradationKind
    link_id: str
    detail: str


class FaultInjector:
    """Drives physical degradation of a fabric over simulated time."""

    def __init__(self, fabric: Fabric, health: HealthModel,
                 rates: Optional[FailureRates] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.fabric = fabric
        self.health = health
        self.rates = rates or FailureRates()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.log: List[InjectedFault] = []
        self.counts: Dict[DegradationKind, int] = {
            kind: 0 for kind in DegradationKind}
        self._subscribers: List[Callable[[InjectedFault], None]] = []

    def subscribe(self,
                  subscriber: Callable[[InjectedFault], None]) -> None:
        """Register an observer invoked with every injected fault."""
        self._subscribers.append(subscriber)

    # -- application ------------------------------------------------------------

    def inject(self, kind: DegradationKind, link: Link,
               now: float) -> InjectedFault:
        """Apply one fault of the given kind to the given link."""
        detail = self._apply(kind, link)
        self.health.evaluate_link(link, now)
        fault = InjectedFault(now, kind, link.id, detail)
        self.log.append(fault)
        self.counts[kind] += 1
        for subscriber in self._subscribers:
            subscriber(fault)
        return fault

    def _apply(self, kind: DegradationKind, link: Link) -> str:
        rng = self.rng
        side = "a" if rng.random() < 0.5 else "b"
        unit = link.transceiver_at(side)
        if kind is DegradationKind.CONTAMINATION and not link.cable.cleanable:
            # Sealed optics (AOC) / copper (DAC) cannot collect end-face
            # dirt; the field-equivalent degradation is connector-contact
            # corrosion.
            kind = DegradationKind.OXIDATION
        if kind is DegradationKind.OXIDATION:
            amount = float(rng.uniform(0.35, 0.8))
            unit.oxidation = min(1.0, unit.oxidation + amount)
            return f"oxidation+{amount:.2f} on {unit.id}"
        if kind is DegradationKind.FIRMWARE_STUCK:
            unit.firmware_stuck = True
            return f"firmware wedge on {unit.id}"
        if kind is DegradationKind.CONTAMINATION:
            end = link.cable.endface(side)
            core_count = min(
                end.core_count, 1 + int(rng.integers(0, 3)))
            cores = rng.choice(end.core_count, size=core_count,
                               replace=False)
            amount = float(rng.uniform(0.3, 0.7))
            end.add_contamination(amount, cores=[int(c) for c in cores])
            if unit.receptacle is not None and rng.random() < 0.3:
                unit.receptacle.add_contamination(amount * 0.5)
            return (f"dirt+{amount:.2f} on {link.cable.id}:{side} "
                    f"cores={sorted(int(c) for c in cores)}")
        if kind is DegradationKind.TRANSCEIVER_HW:
            unit.fail_hardware()
            return f"hardware death of {unit.id}"
        if kind is DegradationKind.CABLE_DAMAGE:
            link.cable.damage()
            return f"damage to {link.cable.id}"
        if kind is DegradationKind.SWITCH_HW:
            port = link.port_a if side == "a" else link.port_b
            port.hw_fault = True
            return f"port fault on {port.id}"
        raise ValueError(f"unknown degradation kind {kind!r}")

    # -- processes ----------------------------------------------------------------

    def run_cause(self, sim: Simulation, kind: DegradationKind,
                  link_filter: Optional[Callable[[Link], bool]] = None):
        """Generator process injecting ``kind`` faults fleet-wide.

        The fleet-aggregate rate is ``per-link rate x link count``; each
        event picks a victim uniformly (links are exchangeable for a
        given cause).
        """
        per_link_rate = per_year(self.rates.rate_of(kind))
        while True:
            links = [link for link in self.fabric.links.values()
                     if link_filter is None or link_filter(link)]
            if not links or per_link_rate <= 0:
                yield sim.timeout(3600.0)
                continue
            aggregate = per_link_rate * len(links)
            yield sim.timeout(float(self.rng.exponential(1.0 / aggregate)))
            victim = links[int(self.rng.integers(len(links)))]
            self.inject(kind, victim, sim.now)

    def start(self, sim: Simulation) -> List:
        """Spawn one process per cause; returns the process handles."""
        return [sim.process(self.run_cause(sim, kind))
                for kind in DegradationKind]
