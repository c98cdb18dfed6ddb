"""Discrete-event simulation kernel (substrate S1).

A minimal, dependency-free engine in the style of SimPy: generator
processes, an event heap, shared resources, and deterministic random
streams.  Everything else in ``dcrobot`` runs on top of this.
"""

from dcrobot.sim.engine import Simulation
from dcrobot.sim.errors import (
    EventAlreadyTriggered,
    Interrupt,
    SimulationError,
)
from dcrobot.sim.resources import Container, PriorityResource, Resource, Store
from dcrobot.sim.rng import RandomStreams, make_rng

__all__ = [
    "Simulation",
    "Interrupt",
    "SimulationError",
    "EventAlreadyTriggered",
    "Resource",
    "PriorityResource",
    "Store",
    "Container",
    "RandomStreams",
    "make_rng",
]
