"""Shared test fixtures: a small wired world with full failure physics."""

import dataclasses
import os
import random

import numpy as np
import pytest

from dcrobot.core.repairs import RepairPhysics
from dcrobot.failures import CascadeModel, Environment, HealthModel
from dcrobot.network import (
    CableKind,
    Fabric,
    FormFactor,
    HallLayout,
    SwitchRole,
)
from dcrobot.sim import Simulation
from dcrobot.sim.batch import BatchTicker


@dataclasses.dataclass
class World:
    """Everything a maintenance test needs, wired together."""

    sim: Simulation
    fabric: Fabric
    links: list
    environment: Environment
    health: HealthModel
    cascade: CascadeModel
    physics: RepairPhysics
    switch_a: object
    switch_b: object


def make_world(links=4, seed=17, kind=CableKind.MPO, rows=1,
               racks_per_row=2, spare_transceivers=10, spare_cables=5):
    """A two-switch world with ``links`` parallel MPO links and spares."""
    rng = np.random.default_rng(seed)
    fabric = Fabric(layout=HallLayout(rows=rows,
                                      racks_per_row=racks_per_row),
                    rng=rng)
    a = fabric.add_switch(SwitchRole.TOR, radix=max(links, 2),
                          rack_id=fabric.layout.rack_at(0, 0).id)
    b = fabric.add_switch(SwitchRole.TOR, radix=max(links, 2),
                          rack_id=fabric.layout.rack_at(
                              rows - 1, racks_per_row - 1).id)
    made = [fabric.connect(a.id, b.id, kind=kind) for _ in range(links)]
    fabric.stock_spares(
        {factor: spare_transceivers for factor in FormFactor},
        cables=spare_cables)
    sim = Simulation()
    environment = Environment(diurnal_amplitude_c=0.0)
    health = HealthModel(fabric, environment,
                         rng=np.random.default_rng(seed + 1))
    cascade = CascadeModel(fabric, health, environment,
                           rng=np.random.default_rng(seed + 2))
    physics = RepairPhysics(fabric, cascade,
                            rng=np.random.default_rng(seed + 3))
    return World(sim=sim, fabric=fabric, links=made,
                 environment=environment, health=health, cascade=cascade,
                 physics=physics, switch_a=a, switch_b=b)


def start_sweeps(sim, health=None, monitor=None, dust=None):
    """Run the given periodic sweeps on one BatchTicker, registered as
    ``build_world`` does: health ticks at once, the others sleep one
    period first."""
    ticker = BatchTicker(sim)
    if health is not None:
        ticker.add(health.tick_all, health.params.tick_seconds,
                   first_at=sim.now)
    if monitor is not None:
        ticker.add(monitor.poll_all, monitor.poll_seconds)
    if dust is not None:
        ticker.add(dust.step_all, dust.tick_seconds)
    sim.process(ticker.run(sim))


@pytest.fixture
def world():
    return make_world()


def pytest_collection_modifyitems(config, items):
    """Flake sweep: ``PYTEST_SHUFFLE_SEED=<int>`` runs the suite in a
    deterministic random order (pytest-randomly is not a dependency).

    Shuffling at module granularity keeps module-scoped fixtures
    shared while still exercising every cross-module order
    dependency; a failure reproduces with the same seed.
    """
    seed = os.environ.get("PYTEST_SHUFFLE_SEED")
    if not seed:
        return
    rng = random.Random(int(seed))
    modules = {}
    for item in items:
        modules.setdefault(item.nodeid.split("::", 1)[0],
                           []).append(item)
    order = list(modules)
    rng.shuffle(order)
    items[:] = [item for name in order for item in modules[name]]
