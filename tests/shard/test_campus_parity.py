"""1-hall CampusWorld == legacy single-hall World, bit for bit.

The campus layer must be pure composition: wrapping a world as a
1-hall campus may not change its summary, its RNG stream consumption,
or its parity-golden snapshots.  Three guarantees:

* **golden parity** — a 1-hall campus reproduces the pinned
  pre-refactor ``tests/golden/parity`` summaries exactly (the same
  files the golden parity suite holds the single-hall world to);
* **live parity** — a live double-run (single-hall ``run_world`` vs
  1-hall campus) agrees field-for-field *and* leaves every world RNG
  stream in the identical end state;
* **execution parity** — a serial campus and a process-pool campus
  produce bit-identical summaries.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from dcrobot.experiments.runner import run_world, summarize_world
from dcrobot.shard import CampusWorld, hall_config, run_campus

from tests.experiments.parity_worlds import (
    parity_configs,
    summary_to_plain,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "golden", "parity")

CONFIGS = parity_configs()

#: Golden comparisons re-run whole worlds, so pin a representative
#: subset: the plain L0 world, the chaos+safety+resilience stack, the
#: journal+supervisor stack, and the dust-heavy flap/RNG path.
GOLDEN_SUBSET = ("e1_l0", "e13_chaos", "e14_journal", "gray_dust")


def _golden(name: str) -> dict:
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(path) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", GOLDEN_SUBSET)
def test_one_hall_campus_matches_parity_golden(name):
    config = dataclasses.replace(CONFIGS[name], halls=1)
    campus = run_campus(config)
    actual = summary_to_plain(campus.hall_summaries[0])
    assert actual == _golden(name), (
        f"1-hall campus drifted from pinned golden {name!r}")


@pytest.mark.parametrize("name", ["e13_chaos", "e5_proactive"])
def test_live_double_run_summary_and_rng_parity(name):
    config = CONFIGS[name]
    legacy = run_world(hall_config(config, 0))
    campus = CampusWorld(dataclasses.replace(config, halls=1))
    summary = campus.run()
    # Field-for-field summary identity.
    assert (summary_to_plain(summarize_world(legacy))
            == summary_to_plain(summary.hall_summaries[0]))
    # The campus hall consumed every RNG stream identically: each
    # generator ends in the same bit-generator state.
    hall = campus.hall(0).result
    for attribute in ("injector", "health", "cascade"):
        legacy_state = getattr(legacy,
                               attribute).rng.bit_generator.state
        hall_state = getattr(hall, attribute).rng.bit_generator.state
        assert legacy_state == hall_state, (
            f"{attribute} RNG stream diverged inside the campus")


def test_serial_and_parallel_campuses_bit_identical():
    config = dataclasses.replace(CONFIGS["e13_chaos"], halls=2,
                                 horizon_days=3.0)
    serial = run_campus(config)
    parallel = run_campus(config, jobs=2)
    assert [dataclasses.asdict(summary)
            for summary in serial.hall_summaries] \
        == [dataclasses.asdict(summary)
            for summary in parallel.hall_summaries]
    # The deterministic campus aggregates agree too (wall-clock
    # telemetry legitimately differs between the two executions).
    for field in ("incidents", "closed_incidents", "campus_smi",
                  "cross_hall_incidents", "boundary_offered_bytes",
                  "hall_epochs", "hall_smi"):
        assert getattr(serial, field) == getattr(parallel, field), field


def test_campus_summary_hall_stamps():
    config = dataclasses.replace(CONFIGS["e1_l0"], halls=2,
                                 horizon_days=2.0)
    summary = run_campus(config)
    assert [s.hall for s in summary.hall_summaries] == [0, 1]
    assert all(s.halls == 2 for s in summary.hall_summaries)
    assert summary.link_count == sum(s.link_count
                                     for s in summary.hall_summaries)
