"""Golden parity: the batch kernels must not change physics.

``tests/golden/parity/*.json`` holds :class:`WorldSummary` snapshots of
the pinned worlds in :mod:`tests.experiments.parity_worlds`, captured
on the pre-``FabricState`` per-link loop code (see
``tools/capture_parity_goldens.py``).  Every world runs its periodic
sweeps through the batch kernels, and each must reproduce its
pre-refactor summary bit-for-bit on the fixed seed.  The kernels are
held to the per-link loops themselves, on fault states these worlds
never reach, by ``tests/failures/test_sweep_oracles.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from dcrobot.experiments.runner import run_world, summarize_world

from tests.experiments.parity_worlds import (
    parity_configs,
    summary_to_plain,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "golden", "parity")

CONFIGS = parity_configs()


def _golden(name: str) -> dict:
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    assert os.path.exists(path), (
        f"missing golden {name}.json; these snapshots pin pre-refactor "
        f"behaviour and must come from tools/capture_parity_goldens.py "
        f"run on the per-link loop code")
    with open(path) as handle:
        return json.load(handle)


def _diff(actual: dict, expected: dict) -> str:
    lines = []
    for key in sorted(set(actual) | set(expected)):
        left, right = actual.get(key), expected.get(key)
        if left != right:
            lines.append(f"  {key}: got {left!r}, golden has {right!r}")
    return "\n".join(lines) or "  (no field-level diff?)"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_summary_matches_pre_refactor_golden(name):
    summary = summarize_world(run_world(CONFIGS[name]))
    actual = summary_to_plain(summary)
    expected = _golden(name)
    assert actual == expected, (
        f"world {name!r} drifted from its pre-refactor summary:\n"
        + _diff(actual, expected))
