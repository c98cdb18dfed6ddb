"""Unit tests for HallShard and per-hall config derivation."""

import pytest

from dcrobot.chaos.config import ChaosConfig
from dcrobot.core.automation import AutomationLevel
from dcrobot.experiments.runner import WorldConfig, build_world
from dcrobot.shard import HALL_SEED_STRIDE, HallShard, hall_config


def small_config(**overrides):
    base = dict(horizon_days=1.0, seed=7, failure_scale=2.0,
                level=AutomationLevel.L3_HIGH_AUTOMATION)
    base.update(overrides)
    return WorldConfig(**base)


def test_hall_zero_keeps_campus_seed():
    config = small_config(halls=3)
    hall0 = hall_config(config, 0)
    assert hall0.seed == config.seed
    assert hall0.halls == 1
    assert hall0.hall_overrides is None
    # Everything else passes through untouched.
    assert hall0.horizon_days == config.horizon_days
    assert hall0.failure_scale == config.failure_scale


def test_later_halls_stride_their_seeds():
    config = small_config(halls=4)
    for hall_id in range(4):
        derived = hall_config(config, hall_id)
        assert derived.seed == config.seed \
            + HALL_SEED_STRIDE * hall_id
    with pytest.raises(ValueError):
        hall_config(config, -1)


def test_hall_overrides_apply_to_their_hall_only():
    chaos = ChaosConfig.moderate()
    config = small_config(
        halls=3, hall_overrides={1: {"chaos": chaos, "safety": True}})
    assert hall_config(config, 0).chaos is None
    hall1 = hall_config(config, 1)
    assert hall1.chaos is chaos and hall1.safety
    assert hall_config(config, 2).chaos is None


def test_build_world_refuses_campus_configs():
    with pytest.raises(ValueError, match="CampusWorld"):
        build_world(small_config(halls=2))


def test_shard_requires_hall_local_config():
    with pytest.raises(ValueError, match="hall_config"):
        HallShard(0, small_config(halls=2))


def test_shard_lifecycle_and_summary_stamp():
    shard = HallShard(2, hall_config(small_config(halls=5), 2),
                      campus_halls=5)
    assert not shard.built
    with pytest.raises(RuntimeError):
        shard.fabric
    shard.build()
    assert shard.built and shard.build_wall_seconds > 0
    first = shard.result
    shard.build()  # idempotent
    assert shard.result is first
    summary = shard.run()
    assert summary.hall == 2 and summary.halls == 5
    assert summary.seed == 7 + 2 * HALL_SEED_STRIDE
    assert shard.run_wall_seconds > 0
    assert shard.wall_seconds == pytest.approx(
        shard.build_wall_seconds + shard.run_wall_seconds)
    assert 0.0 < shard.smi <= 1.0
    # run() is idempotent too: the world is not re-run.
    assert shard.run() is summary
