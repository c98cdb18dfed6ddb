"""``NULL_OBS`` answers only ``enabled``.

Every instrumentation site guards itself with ``if obs.enabled:``.  The
disabled bundle carries nothing else, so a site that loses its guard
raises ``AttributeError`` in every unobserved run instead of calling a
no-op.  The world test below is the run that would raise: every
optional subsystem on, nothing observed.
"""

import pytest

from dcrobot.chaos.config import ChaosConfig
from dcrobot.core.automation import AutomationLevel
from dcrobot.core.controller import ControllerConfig
from dcrobot.core.impact import ImpactConfig
from dcrobot.core.resilience import ResilienceConfig
from dcrobot.experiments.e17_twin_planning import TWIN, MixedCampaign
from dcrobot.experiments.runner import (
    WorldConfig,
    build_world,
    summarize_world,
)
from dcrobot.obs import NULL_OBS
from dcrobot.robots.health import RobotHealthParams

DAY = 86400.0


def test_null_obs_answers_only_enabled():
    assert NULL_OBS.enabled is False
    assert [name for name in dir(NULL_OBS)
            if not name.startswith("_")] == ["enabled"]
    for name in ("tracer", "metrics", "count", "gauge", "observe",
                 "ordinal"):
        with pytest.raises(AttributeError):
            getattr(NULL_OBS, name)
    with pytest.raises(AttributeError):
        NULL_OBS.tracer = None  # nothing can be attached either


def test_unobserved_world_with_every_subsystem_runs_to_horizon():
    config = WorldConfig(
        horizon_days=4.0, seed=0, failure_scale=4.0,
        level=AutomationLevel.L3_HIGH_AUTOMATION, policy=MixedCampaign,
        chaos=ChaosConfig.moderate(), controller_chaos=True,
        journal=True, leadership=True, safety=True,
        mute_ttl_seconds=2.0 * DAY,
        controller_config=ControllerConfig(resilience=ResilienceConfig()),
        robot_health=RobotHealthParams(self_healing=True),
        traffic=True, traffic_max_equal_paths=4,
        impact=ImpactConfig(), twin_planner=TWIN)
    result = build_world(config)
    result.sim.run(until=config.horizon_seconds)
    summary = summarize_world(result)

    assert result.obs is NULL_OBS
    assert summary.trace is None and summary.metrics is None
    # Every subsystem did its work unobserved.
    assert sum(summary.chaos_fault_counts.values()) > 0
    assert summary.failovers > 0 and summary.journal_records > 0
    assert result.safety is not None and result.impact_gate is not None
    assert result.fleet.robot_health is not None
    assert len(result.fleet.assignments) > 0
    assert len(result.traffic_driver.windows) > 0
    assert len(result.twin_planner.decisions) > 0
