"""Kernel-vs-oracle property test for the periodic sweeps.

Two identical k=4 fat trees, built from one seed, receive the same
hypothesis-drawn script of physical mutations.  Tree A runs the batch
kernels (``HealthModel.tick_all``, ``TelemetryMonitor.poll_all``,
``DustProcess.step_all``, ``OxidationAging.step_all``); tree B runs the
per-link oracles in :mod:`tests.oracles.sweeps`.  Tree B's health model
also has the oracle's object walk bound in place of its event-time
methods (``evaluate_link``, ``impairment_score``,
``release_from_maintenance``), so the same fault-injector, cascade and
release calls run the health kernel on one row in tree A and the walk
in tree B.  After every tick the trees must agree bit for bit: fabric
columns, Gilbert-Elliott phases, every link's impairment score, RNG
states, detections, delivered events, and the monitor's mute table.
The scripts reach fault states the pinned parity worlds do not:
maintenance windows, detached cables, disturbances, vibration
episodes, scratched faces, and mute-TTL expiries.  They also run every
:class:`RepairAction` through :meth:`RepairPhysics.perform` (cleaning
faces, swapping units and cables from stock, clearing port faults), so
the health kernel's cached score inputs must see every write a repair
makes.  Between health-input writes the kernel tree's tick runs its
live pass (the per-row step on the live rows alone); the oracle
re-walks every link on every tick.

The kernel tree's poll keeps its watch set from the fabric state's
row-change feed, so a second property run writes the poll's inputs
from outside the health model too: a chaos-style DOWN/UP flip, a direct
``Link.loss_rate`` write, and a disconnect that swaps the last row into
a freed one.  It polls without the health, dust and aging sweeps: the
oracle's health walk re-derives an outside write at the next tick,
while the kernel's live pass leaves a settled row alone (no program
path writes a bound row's code or loss from outside the health model),
so the full run draws only the disconnect.
"""

from __future__ import annotations

import dataclasses
import types

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from dcrobot.core.actions import RepairAction
from dcrobot.core.repairs import TECHNICIAN_SKILL, RepairPhysics
from dcrobot.failures import (
    HUMAN_HANDS,
    ROBOT_GRIPPER,
    CascadeModel,
    ContactProfile,
    Environment,
    FaultInjector,
    HealthModel,
)
from dcrobot.failures.aging import OxidationAging
from dcrobot.failures.dust import DustProcess
from dcrobot.network import DegradationKind, FormFactor
from dcrobot.network.enums import LinkState
from dcrobot.telemetry import Symptom, TelemetryMonitor
from dcrobot.topology import build_fattree

from tests.oracles import sweeps

TICKS = 42
TICK_SECONDS = 60.0
#: Dust and aging each run on every SLOW_EVERY-th tick, half a period
#: apart, so the ticks after each one see its writes on their own.
SLOW_EVERY = 6
MUTE_TTL_SECONDS = 1200.0
#: Edge-aggregation plus aggregation-core links of a k=4 fat tree;
#: a step's link index wraps modulo the links still wired.
LINKS = 32

COLUMNS = ("state_code", "loss_rate", "ox", "cable_end_worst",
           "recept_worst", "down_since", "uptime_accum")

#: Ops that run one repair action's physics, by the action's value.
REPAIRS = {action.value: action for action in RepairAction}

OPS = ("unseat", "seat", "hw_fault", "fw_stuck", "port_fault",
       "cable_damage", "scratch", "end_dirt", "recept_dirt", "oxidize",
       "detach", "attach", "disturb", "vibrate", "begin_maintenance",
       "release_maintenance", "evaluate", "inject", "touch",
       "disconnect", *REPAIRS)
#: Writes of a bound row's code or loss from outside the health model.
OUTSIDE_OPS = ("flip", "set_loss")

#: Contact profiles for ``touch``: the two shipped ones, plus one that
#: contacts, disturbs and damages often enough to matter in 42 ticks.
PROFILES = (HUMAN_HANDS, ROBOT_GRIPPER,
            ContactProfile(neighbor_contact_fraction=0.8,
                           transient_probability=0.6,
                           damage_probability=0.3,
                           disturbance_duration=900.0,
                           vibration_magnitude=0.5))



def _steps(ops):
    """Scripts of mutations: (tick, op, link index, side, magnitude in
    [0, 1], fault kind for ``inject``, contact profile for ``touch``)."""
    return st.lists(
        st.tuples(st.integers(0, TICKS - 1), st.sampled_from(ops),
                  st.integers(0, LINKS - 1), st.sampled_from("ab"),
                  st.floats(0.0, 1.0, allow_nan=False),
                  st.sampled_from(DegradationKind),
                  st.sampled_from(PROFILES)),
        max_size=24)


@dataclasses.dataclass
class Tree:
    health: HealthModel
    dust: DustProcess
    aging: OxidationAging
    monitor: TelemetryMonitor
    injector: FaultInjector
    cascade: CascadeModel
    physics: RepairPhysics
    heard: list

    @property
    def fabric(self):
        return self.health.fabric


def _tree(seed: int) -> Tree:
    fabric = build_fattree(k=4, rng=np.random.default_rng(seed)).fabric
    assert len(fabric.links) == LINKS
    fabric.stock_spares({factor: 4 for factor in FormFactor}, cables=4)
    environment = Environment()
    health = HealthModel(fabric, environment,
                         rng=np.random.default_rng(seed + 1))
    dust = DustProcess(fabric, mean_rate_per_day=0.3,
                       rng=np.random.default_rng(seed + 2))
    aging = OxidationAging(fabric, mean_rate_per_day=0.1,
                           rng=np.random.default_rng(seed + 3))
    monitor = TelemetryMonitor(fabric, poll_seconds=TICK_SECONDS,
                               mute_ttl_seconds=MUTE_TTL_SECONDS)
    injector = FaultInjector(fabric, health,
                             rng=np.random.default_rng(seed + 4))
    cascade = CascadeModel(fabric, health, environment,
                           rng=np.random.default_rng(seed + 5))
    physics = RepairPhysics(fabric, cascade,
                            rng=np.random.default_rng(seed + 6))
    heard: list = []
    monitor.subscribe(heard.append)
    return Tree(health, dust, aging, monitor, injector, cascade, physics,
                heard)


def _oracle_tree(seed: int) -> Tree:
    """A tree whose health model evaluates links by the object walk."""
    tree = _tree(seed)
    health = tree.health
    for name in ("evaluate_link", "impairment_score",
                 "release_from_maintenance"):
        setattr(health, name, types.MethodType(getattr(sweeps, name), health))
    return tree


def _apply(tree: Tree, step, now: float) -> None:
    _tick, op, index, side, magnitude, kind, profile = step
    links = list(tree.fabric.links.values())
    link = links[index % len(links)]
    unit = link.transceiver_a if side == "a" else link.transceiver_b
    port = link.port_a if side == "a" else link.port_b
    cable = link.cable
    end = cable.end_a if side == "a" else cable.end_b
    if op == "unseat":
        unit.unseat()
    elif op == "seat":
        unit.seat(now, rng=np.random.default_rng(index))
    elif op == "hw_fault":
        unit.fail_hardware()
    elif op == "fw_stuck":
        unit.firmware_stuck = True
    elif op == "port_fault":
        port.hw_fault = True
    elif op == "cable_damage":
        cable.damage()
    elif op == "scratch" and end is not None:
        end.scratch(0)
    elif op == "end_dirt" and end is not None:
        end.add_contamination(magnitude)
    elif op == "recept_dirt" and unit.receptacle is not None:
        unit.receptacle.add_contamination(magnitude)
    elif op == "oxidize":
        unit.oxidation = magnitude
    elif op == "detach" and cable.kind.is_separable:
        cable.detach(side)
    elif op == "attach":
        cable.attach(side)
    elif op == "disturb":
        tree.health.disturb(link.id, now + magnitude * 1800.0)
    elif op == "vibrate":
        tree.health.environment.add_vibration(
            now, magnitude, 60.0 + magnitude * 1800.0)
    elif op == "begin_maintenance":
        tree.health.begin_maintenance(link, now)
    elif op == "release_maintenance":
        tree.health.release_from_maintenance(link, now)
    elif op == "evaluate":
        tree.health.evaluate_link(link, now)
    elif op == "inject":
        tree.injector.inject(kind, link, now)
    elif op == "touch":
        tree.cascade.touch(link, profile, now)
    elif op == "flip" and link.state is not LinkState.MAINTENANCE:
        link.set_state(now, LinkState.UP if link.state is LinkState.DOWN
                       else LinkState.DOWN)
    elif op == "set_loss" and link.state.carries_traffic:
        link.loss_rate = magnitude * 1e-2
    elif op == "disconnect":
        tree.fabric.disconnect(link.id)
    elif op in REPAIRS:
        tree.physics.perform(REPAIRS[op], link, now, TECHNICIAN_SKILL)


def _assert_same(kernel: Tree, oracle: Tree, tick: int,
                 now: float) -> None:
    left, right = kernel.fabric.state, oracle.fabric.state
    n = left.n_links
    for name in COLUMNS:
        np.testing.assert_array_equal(
            getattr(left, name)[..., :n], getattr(right, name)[..., :n],
            err_msg=f"column {name} diverged at tick {tick}")
    np.testing.assert_array_equal(
        kernel.health._bad.values[:n], oracle.health._bad.values[:n],
        err_msg=f"Gilbert-Elliott phase diverged at tick {tick}")
    for link, twin in zip(kernel.fabric.links.values(),
                          oracle.fabric.links.values()):
        assert (kernel.health.impairment_score(link, now)
                == oracle.health.impairment_score(twin, now)), (
            f"impairment score of {link.id} diverged at tick {tick}")
    for name in ("health", "dust", "aging", "injector", "cascade",
                 "physics"):
        assert (getattr(kernel, name).rng.bit_generator.state
                == getattr(oracle, name).rng.bit_generator.state), (
            f"{name} RNG diverged at tick {tick}")
    assert kernel.monitor.events == oracle.monitor.events, tick
    assert kernel.heard == oracle.heard, tick
    assert kernel.monitor._muted == oracle.monitor._muted, tick
    assert (kernel.monitor.detector._lossy_since
            == oracle.monitor.detector._lossy_since), tick


def _step(tick, op, index, side="a", magnitude=0.0,
          kind=DegradationKind.OXIDATION, profile=HUMAN_HANDS):
    return (tick, op, index, side, magnitude, kind, profile)


def _stale_phase_release(index):
    """Oxidize, then unseat: the link goes hard-down in the bad phase.
    Repair it to the marginal band under maintenance and release it;
    release must start the flapping chain from the good phase."""
    return [_step(0, "oxidize", index, magnitude=0.6),
            _step(0, "unseat", index),
            _step(1, "begin_maintenance", index),
            _step(2, "seat", index),
            _step(2, "oxidize", index, magnitude=0.6),
            _step(3, "release_maintenance", index)]


def _repaired(fault, repair, index=12):
    """A fault in the first tick, then the repair that clears it: the
    tick after the repair reads the cached inputs it must invalidate."""
    return [_step(0, fault, index, magnitude=0.9), _step(1, repair, index)]


def _run(seed, script, ticks=TICKS, kernels=True) -> Tree:
    """Drive both trees through ``script``, comparing after each tick;
    ``kernels=False`` polls without the health, dust and aging sweeps,
    so writes from outside the health model last.  Returns the kernel
    tree."""
    kernel, oracle = _tree(seed), _oracle_tree(seed)
    for tick in range(ticks):
        now = tick * TICK_SECONDS
        for step in script:
            if step[0] == tick:
                _apply(kernel, step, now)
                _apply(oracle, step, now)
        if kernels:
            kernel.health.tick_all(now)
            sweeps.health_tick(oracle.health, now)
        kernel.monitor.poll_all(now)
        sweeps.monitor_poll(oracle.monitor, now)
        if kernels and tick % SLOW_EVERY == 0:
            kernel.dust.step_all(now)
            sweeps.dust_tick(oracle.dust, now)
        if kernels and tick % SLOW_EVERY == SLOW_EVERY // 2:
            kernel.aging.step_all(now)
            sweeps.aging_tick(oracle.aging, now)
        _assert_same(kernel, oracle, tick, now)
    return kernel


@given(seed=st.integers(0, 2**16), script=_steps(OPS))
# A muted link that recovers before its TTL expires is touched by no
# prefilter row but the TTL one: unseat, wait for the detection at
# t=900, then seat; the mute expires at t=2100 with the link UP.
@example(seed=0, script=[_step(0, "unseat", 0), _step(20, "seat", 0)])
# Event-time evaluation leaves a link under maintenance alone, and
# release clears the Gilbert-Elliott phase it went in with.
@example(seed=0, script=[
    _step(0, "begin_maintenance", 4), _step(1, "evaluate", 4),
    _step(1, "inject", 4, kind=DegradationKind.FIRMWARE_STUCK),
    *_stale_phase_release(0), *_stale_phase_release(1),
    *_stale_phase_release(2)])
# One example per repair action, each clearing the fault it fixes.
@example(seed=0, script=_repaired("unseat", "reseat"))
@example(seed=0, script=_repaired("end_dirt", "clean"))
@example(seed=0, script=_repaired("hw_fault", "replace-transceiver"))
@example(seed=0, script=_repaired("cable_damage", "replace-cable"))
# On a DAC link the swaps write no end-face: only the structural
# generation tells the cache that the row changed.
@example(seed=0, script=[*_repaired("hw_fault", "replace-transceiver", 0),
                         *_repaired("cable_damage", "replace-cable", 1)])
@example(seed=0, script=_repaired("port_fault", "replace-switchgear"))
# Dust and aging write health inputs after the tick they share, so the
# kernel tree's full passes fall on ticks 0, 1, 4, 7, ... and ticks
# 2-3, 5-6, ... are live passes: a dirty face flaps through them.
@example(seed=0, script=[_step(0, "end_dirt", 12, magnitude=0.5)])
# A disturbance marks a clean row live at tick 2 and expires before
# tick 3, whose live pass must see it gone.
@example(seed=0, script=[_step(2, "disturb", 5, magnitude=0.03)])
# Oxidation alone puts a dirt-free DAC row in the marginal band
# (0.5 - onset 0.15 >= 0.18): live, though its dirt term is zero.
@example(seed=0, script=[_step(1, "oxidize", 0, magnitude=0.5)])
# A vibration episode moves stress with no input write: the live pass
# must score the dirty row under it.
@example(seed=0, script=[_step(0, "end_dirt", 12, magnitude=0.5),
                         _step(2, "vibrate", 12, magnitude=0.5)])
# A live row taken into maintenance between full passes is skipped by
# the live pass, as by the kernel, until it is released.
@example(seed=0, script=[_step(1, "oxidize", 0, magnitude=0.5),
                         _step(2, "begin_maintenance", 0),
                         _step(5, "release_maintenance", 0)])
# A hard-down row is swapped into a freed slot while watched.
@example(seed=0, script=[_step(1, "unseat", 31), _step(3, "disconnect", 2)])
# No shrink or explain phase: shrinking replays two trees per attempt
# and can run for many minutes on a divergence, while the falsifying
# example is printed without it.
@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_batch_kernels_match_per_link_oracles(seed, script):
    _run(seed, script)


@given(seed=st.integers(0, 2**16), script=_steps(OPS + OUTSIDE_OPS))
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_the_poll_matches_its_oracle_under_every_writer(seed, script):
    _run(seed, script, kernels=False)


#: The poll scripts, on the monitor alone: (script, ticks, the link
#: index and symptom the kernel tree must report, at these ticks).
POLL_SCRIPTS = {
    # A row the loss setter made lossy after the first poll (so only
    # the feed can report it) reaches HIGH_LOSS after 1800 s.
    "setter-lossy": ([_step(1, "set_loss", 5, magnitude=0.5)], 33,
                     5, Symptom.HIGH_LOSS, [31]),
    # A DOWN row crosses its 900 s grace period between two polls at
    # which the feed reports nothing.
    "quiet-grace": ([_step(1, "flip", 7)], 18, 7, Symptom.LINK_DOWN,
                    [16]),
    # Eight flaps two ticks apart; each mute TTL (1200 s) expiry
    # re-reports them, the last when exactly four remain in the
    # window as the others leave it one poll at a time.
    "burst-leaves": ([_step(1 + 2 * flap, "flip", 9)
                      for flap in range(8)], 70, 9,
                     Symptom.LINK_FLAPPING, [8, 28, 48, 68]),
    # The last row, DOWN and watched, is swapped into the row a
    # disconnect freed; it is still reported after its grace period.
    "swap-watched": ([_step(1, "flip", 31), _step(3, "disconnect", 2)],
                     18, 31, Symptom.LINK_DOWN, [16]),
}


@pytest.mark.parametrize("name", sorted(POLL_SCRIPTS))
def test_the_poll_matches_its_oracle_on_outside_writes(name):
    script, ticks, index, symptom, at_ticks = POLL_SCRIPTS[name]
    link_id = list(_tree(0).fabric.links)[index]
    kernel = _run(0, script, ticks=ticks, kernels=False)
    assert [round(event.time / TICK_SECONDS) for event
            in kernel.monitor.events
            if (event.link_id, event.symptom) == (link_id, symptom)] \
        == at_ticks


def test_event_time_evaluation_rejects_unbound_links():
    tree = _tree(0)
    link = next(iter(tree.fabric.links.values()))
    tree.fabric.disconnect(link.id)
    with pytest.raises(ValueError, match=link.id):
        tree.health.evaluate_link(link, 0.0)
    with pytest.raises(ValueError, match=link.id):
        tree.health.impairment_score(link, 0.0)
    with pytest.raises(ValueError, match=link.id):
        tree.health.disturb(link.id, 600.0)
