"""Kernel-vs-oracle property test for the periodic sweeps.

Two identical k=4 fat trees, built from one seed, receive the same
hypothesis-drawn script of physical mutations.  Tree A runs the batch
kernels (``HealthModel.tick_all``, ``TelemetryMonitor.poll_all``,
``DustProcess.step_all``, ``OxidationAging.step_all``); tree B runs the
per-link oracles in :mod:`tests.oracles.sweeps`.  After every tick the
trees must agree bit for bit: fabric columns, Gilbert-Elliott phases,
RNG states, detections, delivered events, and the monitor's mute
table.  The scripts reach fault states the pinned parity worlds do
not: maintenance windows, detached cables, disturbances, scratched
faces, and mute-TTL expiries.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcrobot.failures import Environment, HealthModel
from dcrobot.failures.aging import OxidationAging
from dcrobot.failures.dust import DustProcess
from dcrobot.telemetry import TelemetryMonitor
from dcrobot.topology import build_fattree

from tests.oracles import sweeps

TICKS = 42
TICK_SECONDS = 60.0
#: Dust and aging run on every SLOW_EVERY-th tick.
SLOW_EVERY = 6
MUTE_TTL_SECONDS = 1200.0
#: Edge-aggregation plus aggregation-core links of a k=4 fat tree.
LINKS = 32

COLUMNS = ("state_code", "loss_rate", "ox", "cable_end_worst",
           "recept_worst", "down_since", "uptime_accum")

OPS = ("unseat", "seat", "hw_fault", "fw_stuck", "port_fault",
       "cable_damage", "scratch", "end_dirt", "recept_dirt", "oxidize",
       "detach", "attach", "disturb", "begin_maintenance",
       "release_maintenance")

#: One mutation: (tick, op, link index, side, magnitude in [0, 1]).
STEPS = st.lists(
    st.tuples(st.integers(0, TICKS - 1), st.sampled_from(OPS),
              st.integers(0, LINKS - 1), st.sampled_from("ab"),
              st.floats(0.0, 1.0, allow_nan=False)),
    max_size=24)


@dataclasses.dataclass
class Tree:
    health: HealthModel
    dust: DustProcess
    aging: OxidationAging
    monitor: TelemetryMonitor
    heard: list

    @property
    def fabric(self):
        return self.health.fabric


def _tree(seed: int) -> Tree:
    fabric = build_fattree(k=4, rng=np.random.default_rng(seed)).fabric
    assert len(fabric.links) == LINKS
    health = HealthModel(fabric, Environment(),
                         rng=np.random.default_rng(seed + 1))
    dust = DustProcess(fabric, health, mean_rate_per_day=0.3,
                       rng=np.random.default_rng(seed + 2))
    aging = OxidationAging(fabric, health, mean_rate_per_day=0.1,
                           rng=np.random.default_rng(seed + 3))
    monitor = TelemetryMonitor(fabric, poll_seconds=TICK_SECONDS,
                               mute_ttl_seconds=MUTE_TTL_SECONDS)
    heard: list = []
    monitor.subscribe(heard.append)
    return Tree(health, dust, aging, monitor, heard)


def _apply(tree: Tree, step, now: float) -> None:
    _tick, op, index, side, magnitude = step
    link = list(tree.fabric.links.values())[index]
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
    elif op == "begin_maintenance":
        tree.health.begin_maintenance(link, now)
    elif op == "release_maintenance":
        tree.health.release_from_maintenance(link, now)


def _assert_same(kernel: Tree, oracle: Tree, tick: int) -> None:
    left, right = kernel.fabric.state, oracle.fabric.state
    n = left.n_links
    for name in COLUMNS:
        np.testing.assert_array_equal(
            getattr(left, name)[..., :n], getattr(right, name)[..., :n],
            err_msg=f"column {name} diverged at tick {tick}")
    np.testing.assert_array_equal(
        kernel.health._bad.values[:n], oracle.health._bad.values[:n],
        err_msg=f"Gilbert-Elliott phase diverged at tick {tick}")
    for name in ("health", "dust", "aging"):
        assert (getattr(kernel, name).rng.bit_generator.state
                == getattr(oracle, name).rng.bit_generator.state), (
            f"{name} RNG diverged at tick {tick}")
    assert kernel.monitor.events == oracle.monitor.events, tick
    assert kernel.heard == oracle.heard, tick
    assert kernel.monitor._muted == oracle.monitor._muted, tick
    assert (kernel.monitor.detector._lossy_since
            == oracle.monitor.detector._lossy_since), tick


@given(seed=st.integers(0, 2**16), script=STEPS)
# A muted link that recovers before its TTL expires is touched by no
# prefilter row but the TTL one: unseat, wait for the detection at
# t=900, then seat; the mute expires at t=2100 with the link UP.
@example(seed=0, script=[(0, "unseat", 0, "a", 0.0),
                         (20, "seat", 0, "a", 0.0)])
@settings(max_examples=60, deadline=None)
def test_batch_kernels_match_per_link_oracles(seed, script):
    kernel, oracle = _tree(seed), _tree(seed)
    for tick in range(TICKS):
        now = tick * TICK_SECONDS
        for step in script:
            if step[0] == tick:
                _apply(kernel, step, now)
                _apply(oracle, step, now)
        kernel.health.tick_all(now)
        sweeps.health_tick(oracle.health, now)
        kernel.monitor.poll_all(now)
        sweeps.monitor_poll(oracle.monitor, now)
        if tick % SLOW_EVERY == 0:
            kernel.dust.step_all(now)
            sweeps.dust_tick(oracle.dust, now)
            kernel.aging.step_all(now)
            sweeps.aging_tick(oracle.aging, now)
        _assert_same(kernel, oracle, tick)
