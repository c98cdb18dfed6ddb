"""One hall = one shard: a complete columnar world per hall (S20).

A :class:`HallShard` wraps exactly the stack :func:`build_world`
assembles — one ``FabricState`` + optional ``TrafficState``, its own
``Simulation`` clock, controller, chaos, journal/leadership machinery
— under a hall-local seed, plus a per-shard
:class:`~dcrobot.topology.smi.SmiTracker` that the hall's served read
model shares.  Halls share *nothing*: no arrays, no RNG streams, no
event heaps.  That is the isolation the campus battery proves, and
what lets a full chaos run be bounded by the slowest shard instead of
the sum.

Hall 0 runs under the campus seed itself, so a 1-hall campus is
bit-identical to the legacy single-hall world; halls 1..N-1 derive
disjoint seeds via a large stride that keeps every hall's ``seed + k``
substream family (k = 1..16) collision-free across a campus of any
realistic size.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional

from dcrobot.experiments.runner import (
    RunResult,
    WorldConfig,
    WorldSummary,
    build_world,
    summarize_world,
)
from dcrobot.topology.smi import SmiTracker

__all__ = ["HALL_SEED_STRIDE", "HallShard", "hall_config"]

#: Seed distance between adjacent halls.  The runner derives per-hall
#: substreams as ``seed + 1 .. seed + 16``; a prime stride of ~1e6
#: keeps those families disjoint for thousands of halls.
HALL_SEED_STRIDE = 1_000_003


def hall_config(config: WorldConfig, hall_id: int) -> WorldConfig:
    """The hall-local :class:`WorldConfig` for one shard of a campus.

    Hall 0 keeps the campus seed unchanged (the bit-identity anchor);
    later halls shift by :data:`HALL_SEED_STRIDE`.  Campus-level
    fields (``halls``, ``hall_overrides``) are stripped so the result
    is a plain single-hall config, then any per-hall overrides are
    applied on top.
    """
    if hall_id < 0:
        raise ValueError("hall_id must be >= 0")
    overrides: Dict = dict((config.hall_overrides or {}).get(hall_id,
                                                             {}))
    seed = config.seed + HALL_SEED_STRIDE * hall_id
    return dataclasses.replace(
        config, seed=seed, halls=1, hall_overrides=None, **overrides)


class HallShard:
    """A lazily-built, independently-runnable hall world.

    ``build()`` assembles the stack (and attaches the shard's
    SmiTracker); ``run()`` drives it to its horizon, measuring build
    and run wall-clock separately, then ``finish()`` returns the
    hall's :class:`WorldSummary` stamped with its campus position.  A
    service plane that steps the sim itself calls ``finish()`` at the
    horizon.  The shard is picklable *before* build (it is just a
    config), which is how the campus ships halls to worker processes.
    """

    def __init__(self, hall_id: int, config: WorldConfig,
                 campus_halls: int = 1) -> None:
        if config.halls != 1:
            raise ValueError("HallShard takes a hall-local config "
                             "(use hall_config)")
        self.hall_id = hall_id
        self.config = config
        self.campus_halls = campus_halls
        self.result: Optional[RunResult] = None
        self.summary: Optional[WorldSummary] = None
        self.smi_tracker: Optional[SmiTracker] = None
        self.smi: float = 0.0
        self.build_wall_seconds: float = 0.0
        self.run_wall_seconds: float = 0.0

    def __repr__(self) -> str:
        state = ("summarized" if self.summary is not None
                 else "built" if self.result is not None else "cold")
        return (f"<HallShard {self.hall_id}/{self.campus_halls} "
                f"seed={self.config.seed} {state}>")

    @property
    def built(self) -> bool:
        return self.result is not None

    def build(self) -> RunResult:
        """Assemble the hall stack (idempotent)."""
        if self.result is None:
            started = time.perf_counter()
            self.result = build_world(self.config)
            # RNG-free and read-only, so it cannot perturb parity.
            self.smi_tracker = SmiTracker(self.result.topology)
            self.build_wall_seconds = time.perf_counter() - started
        return self.result

    def run(self) -> WorldSummary:
        """Run this hall to its horizon and summarize it.

        Runs the sim exactly as :func:`~dcrobot.experiments.runner.run_world`
        does, so a shard's summary is bit-identical to the same config
        run standalone.
        """
        if self.summary is not None:
            return self.summary
        result = self.build()
        started = time.perf_counter()
        result.sim.run(until=self.config.horizon_seconds)
        self.run_wall_seconds = time.perf_counter() - started
        return self.finish()

    def finish(self) -> WorldSummary:
        """Summarize the built hall as it stands (idempotent): its SMI
        and its :class:`WorldSummary`, stamped with the hall's campus
        position."""
        if self.summary is None:
            result = self.build()
            self.smi = self.smi_tracker.report().smi
            self.summary = dataclasses.replace(
                summarize_world(result),
                hall=self.hall_id, halls=self.campus_halls)
        return self.summary

    @property
    def fabric(self):
        if self.result is None:
            raise RuntimeError("hall not built yet")
        return self.result.fabric

    @property
    def wall_seconds(self) -> float:
        return self.build_wall_seconds + self.run_wall_seconds
