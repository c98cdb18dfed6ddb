"""Per-robot health: wear, batteries, and mid-order fault hazards.

The paper's closing argument is that the maintainers must themselves be
maintained: "robots will themselves fail" (§4).  Every robot unit gets
a :class:`UnitHealth` record tracking mechanical wear (accumulated per
executed order), battery charge (drained by travel and rack work,
restored by charge cycles that themselves add wear), and a fault
history used to bench flaky units.  The :class:`RobotHealthModel` draws
stochastic mid-order faults from its own deterministic RNG substream —
a worn unit is more likely to die mid-operation than a fresh one — and
the fleet's heartbeat/watchdog machinery turns those deaths into
*detected* losses rather than silently hung work orders.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

HOUR = 3600.0


@dataclasses.dataclass(frozen=True)
class RobotHealthParams:
    """Knobs of the per-robot wear/battery/fault model."""

    #: Mechanical wear added per executed work order (0..1 scale).
    wear_per_operation: float = 0.01
    #: Mid-order fault hazard = fault_per_order + wear * wear_fault_weight.
    fault_per_order: float = 0.0
    wear_fault_weight: float = 0.05
    #: Seconds of travel + rack work one full charge supports.
    battery_capacity_seconds: float = 16.0 * HOUR
    #: Recharge before an order once charge drops to this fraction.
    recharge_threshold: float = 0.2
    recharge_seconds: float = 1800.0
    #: Each charge cycle ages the pack (adds wear).
    charge_cycle_wear: float = 0.002
    #: Organic mid-order deaths strike this long after rack work starts.
    fault_onset_seconds: tuple = (30.0, 900.0)
    #: Heartbeat cadence into the telemetry monitor, and how many
    #: consecutive missed beats declare a unit lost.
    heartbeat_seconds: float = 60.0
    heartbeat_miss_threshold: int = 3
    #: Bench a unit after this many faults inside the window.
    flaky_fault_threshold: int = 3
    flaky_window_seconds: float = 24.0 * HOUR
    #: Master switch for the healing half (watchdog, re-dispatch,
    #: quarantine, robot-repairs-robot).  Health, wear, and deaths are
    #: modelled either way — a naive fleet suffers them undetected.
    self_healing: bool = True
    #: Below this in-service fraction the fleet stops taking work and
    #: escalates to humans (graceful degradation).
    quorum_fraction: float = 0.5
    #: Spare robot modules available for robot-repairs-robot work.
    robot_spares: int = 2
    robot_repair_seconds: float = 1.0 * HOUR

    def __post_init__(self) -> None:
        if self.wear_per_operation < 0:
            raise ValueError("wear_per_operation must be >= 0")
        if not 0.0 <= self.fault_per_order <= 1.0:
            raise ValueError("fault_per_order must be in [0, 1]")
        if self.battery_capacity_seconds <= 0:
            raise ValueError("battery_capacity_seconds must be > 0")
        if not 0.0 <= self.recharge_threshold < 1.0:
            raise ValueError("recharge_threshold must be in [0, 1)")
        if self.heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be > 0")
        if self.heartbeat_miss_threshold < 1:
            raise ValueError("heartbeat_miss_threshold must be >= 1")
        if not 0.0 <= self.quorum_fraction <= 1.0:
            raise ValueError("quorum_fraction must be in [0, 1]")
        if self.robot_spares < 0:
            raise ValueError("robot_spares must be >= 0")
        low, high = self.fault_onset_seconds
        if low < 0 or high < low:
            raise ValueError("fault_onset_seconds must satisfy "
                             "0 <= low <= high")

    @property
    def heartbeat_timeout_seconds(self) -> float:
        """Silence longer than this declares a unit lost."""
        return self.heartbeat_miss_threshold * self.heartbeat_seconds


@dataclasses.dataclass
class UnitHealth:
    """Mutable health record of one robot unit."""

    unit_id: str
    wear: float = 0.0
    #: Battery state of charge, 0..1.
    battery: float = 1.0
    charge_cycles: int = 0
    orders_done: int = 0
    alive: bool = True
    #: Declared lost by the watchdog (heartbeats went stale).
    lost: bool = False
    #: Benched for flakiness; not dispatched until repaired.
    quarantined: bool = False
    #: Heartbeats suppressed until this sim time (zombie injection).
    suppress_until: float = float("-inf")
    #: Sim times of recorded faults (crash/stall/zombie), for the
    #: flakiness window.
    fault_times: List[float] = dataclasses.field(default_factory=list)
    died_at: Optional[float] = None
    death_cause: Optional[str] = None
    #: Link the unit was holding in maintenance when it died (the
    #: carcass stays physically at the rack until recovered).
    holding_link_id: Optional[str] = None
    #: A repair/rescue for this unit has been initiated.
    recovery_started: bool = False

    @property
    def in_service(self) -> bool:
        return self.alive and not self.lost and not self.quarantined

    def beating(self, now: float) -> bool:
        """Whether the unit emits a heartbeat at ``now``."""
        return self.alive and now >= self.suppress_until


@dataclasses.dataclass(frozen=True)
class OrderHazard:
    """The organic fault (if any) striking one order, drawn up front."""

    dies: bool = False
    #: Seconds of rack work after which the unit dies.
    after_seconds: float = 0.0


class RobotHealthModel:
    """Tracks per-unit health and draws organic mid-order faults.

    One RNG substream (``seed + 14`` in the world builder) feeds every
    hazard draw, so robot failures are deterministic per seed and
    independent of the chaos layer's streams.
    """

    def __init__(self, params: Optional[RobotHealthParams] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.params = params or RobotHealthParams()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.records: Dict[str, UnitHealth] = {}

    def __repr__(self) -> str:
        in_service = sum(1 for record in self.records.values()
                        if record.in_service)
        return (f"<RobotHealthModel units={len(self.records)} "
                f"in_service={in_service}>")

    def register(self, unit) -> UnitHealth:
        """Start tracking a unit (idempotent)."""
        record = self.records.get(unit.id)
        if record is None:
            record = UnitHealth(unit_id=unit.id)
            self.records[unit.id] = record
        return record

    def record_for(self, unit_id: str) -> Optional[UnitHealth]:
        return self.records.get(unit_id)

    # -- hazards ---------------------------------------------------------------

    def fault_probability(self, record: UnitHealth) -> float:
        params = self.params
        return min(1.0, params.fault_per_order
                   + record.wear * params.wear_fault_weight)

    def plan_order(self, record: UnitHealth) -> OrderHazard:
        """Draw this order's organic fault (one draw per order, so the
        stream stays aligned regardless of what the chaos layer does)."""
        dies = self.rng.random() < self.fault_probability(record)
        if not dies:
            return OrderHazard()
        low, high = self.params.fault_onset_seconds
        after = float(low if high <= low
                      else self.rng.uniform(low, high))
        return OrderHazard(dies=True, after_seconds=after)

    # -- battery ---------------------------------------------------------------

    def drain(self, record: UnitHealth, seconds: float) -> None:
        if seconds <= 0:
            return
        record.battery = max(
            0.0, record.battery
            - seconds / self.params.battery_capacity_seconds)

    def needs_charge(self, record: UnitHealth) -> bool:
        return record.battery <= self.params.recharge_threshold

    def recharge(self, record: UnitHealth) -> None:
        record.battery = 1.0
        record.charge_cycles += 1
        record.wear += self.params.charge_cycle_wear

    # -- wear and flakiness ----------------------------------------------------

    def record_operation(self, record: UnitHealth) -> None:
        record.orders_done += 1
        record.wear += self.params.wear_per_operation

    def record_fault(self, record: UnitHealth, now: float) -> None:
        record.fault_times.append(now)

    def is_flaky(self, record: UnitHealth, now: float) -> bool:
        window_start = now - self.params.flaky_window_seconds
        recent = sum(1 for when in record.fault_times
                     if when >= window_start)
        return recent >= self.params.flaky_fault_threshold


__all__ = [
    "RobotHealthParams",
    "UnitHealth",
    "OrderHazard",
    "RobotHealthModel",
]
