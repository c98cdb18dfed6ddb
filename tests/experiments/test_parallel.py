"""Unit tests for the parallel trial-execution engine."""

import dataclasses

import numpy as np
import pytest

from dcrobot.experiments.__main__ import run_experiment
from dcrobot.experiments.parallel import (
    Execution,
    TrialCache,
    build_specs,
    cache_key,
    code_version,
    run_trials,
    stable_hash,
)
from dcrobot.experiments.result import ExperimentResult
from dcrobot.experiments.runner import WorldConfig, world_trial
from dcrobot.sim.rng import trial_rng, trial_seed

#: Executions of _counting_trial in this process (cache-hit detector).
_CALLS = []


def _draw_trial(params, seed):
    """A toy stochastic trial: value depends only on (params, seed)."""
    rng = np.random.default_rng(seed)
    return {"total": float(rng.normal(params["mu"], 1.0, 8).sum()),
            "mu": params["mu"]}


def _counting_trial(params, seed):
    _CALLS.append(seed)
    return {"value": params["x"] * 10 + seed % 7}


# -- RNG substreams ----------------------------------------------------------


def test_trial_seed_is_pure_and_distinct():
    assert trial_seed("e1", 0, 0) == trial_seed("e1", 0, 0)
    seeds = {trial_seed("e1", 0, index) for index in range(50)}
    assert len(seeds) == 50  # distinct across trial indices
    assert trial_seed("e1", 0, 0) != trial_seed("e2", 0, 0)
    assert trial_seed("e1", 0, 0) != trial_seed("e1", 1, 0)


def test_trial_rng_reproduces():
    a = trial_rng("e9", 3, 2).normal(size=4)
    b = trial_rng("e9", 3, 2).normal(size=4)
    assert np.array_equal(a, b)


def test_build_specs_seed_assignment():
    params = [{"label": "a", "seed": 123}, {"label": "b"}]
    specs = build_specs("e1", params, base_seed=7, trials=2)
    assert [spec.index for spec in specs] == [0, 1, 2, 3]
    # Replicate 0 keeps the canonical seed when the param set has one.
    assert specs[0].seed == 123
    assert specs[1].seed == trial_seed("e1", 7, 1)
    # A param set without a seed draws its substream even at r0.
    assert specs[2].seed == trial_seed("e1", 7, 2)
    assert specs[0].label == "a"
    assert specs[1].label == "a#r1"


# -- serial vs parallel determinism ------------------------------------------


def test_parallel_identical_to_serial_toy():
    params = [{"label": f"mu{mu}", "mu": float(mu)} for mu in range(6)]
    serial = run_trials("toy", _draw_trial, params, base_seed=1,
                        execution=Execution(jobs=1))
    parallel = run_trials("toy", _draw_trial, params, base_seed=1,
                          execution=Execution(jobs=2))
    assert [group.value for group in serial] \
        == [group.value for group in parallel]


def test_parallel_identical_to_serial_real_experiment():
    serial = run_experiment("e3", quick=True, seed=0,
                            execution=Execution(jobs=1))
    parallel = run_experiment("e3", quick=True, seed=0,
                              execution=Execution(jobs=2))
    serial_dict, parallel_dict = serial.to_dict(), parallel.to_dict()
    # Wall-clock telemetry legitimately differs; everything else is
    # bit-identical.
    serial_dict.pop("timings")
    parallel_dict.pop("timings")
    assert serial_dict == parallel_dict


def test_replicates_draw_distinct_substreams():
    params = [{"label": "a", "mu": 0.0, "seed": 5}]
    groups = run_trials("toy", _draw_trial, params, base_seed=5,
                        execution=Execution(trials=3))
    group = groups[0]
    assert len(group.outcomes) == 3
    seeds = [outcome.spec.seed for outcome in group.outcomes]
    assert len(set(seeds)) == 3
    totals = [value["total"] for value in group.values]
    assert len(set(totals)) == 3
    assert group.mean("total") == pytest.approx(
        sum(totals) / len(totals))
    assert group.value == group.values[0]


# -- the on-disk cache -------------------------------------------------------


def test_cache_hit_skips_execution(tmp_path):
    cache = TrialCache(str(tmp_path / "cache"))
    params = [{"label": "a", "x": 1}, {"label": "b", "x": 2}]
    _CALLS.clear()
    first = run_trials("toy", _counting_trial, params, base_seed=0,
                       execution=Execution(cache=cache))
    assert len(_CALLS) == 2
    assert cache.misses == 2 and cache.hits == 0
    second = run_trials("toy", _counting_trial, params, base_seed=0,
                        execution=Execution(cache=cache))
    assert len(_CALLS) == 2  # nothing re-ran
    assert cache.hits == 2
    assert [g.value for g in first] == [g.value for g in second]
    outcomes = [outcome for group in second
                for outcome in group.outcomes]
    assert all(outcome.cached for outcome in outcomes)


def test_cache_miss_on_config_change(tmp_path):
    cache = TrialCache(str(tmp_path / "cache"))
    _CALLS.clear()
    run_trials("toy", _counting_trial, [{"x": 1}], base_seed=0,
               execution=Execution(cache=cache))
    run_trials("toy", _counting_trial, [{"x": 2}], base_seed=0,
               execution=Execution(cache=cache))
    assert len(_CALLS) == 2  # changed params -> both executed
    run_trials("toy", _counting_trial, [{"x": 1}], base_seed=1,
               execution=Execution(cache=cache))
    assert len(_CALLS) == 3  # changed seed -> executed again


def test_cache_clear(tmp_path):
    cache = TrialCache(str(tmp_path / "cache"))
    _CALLS.clear()
    run_trials("toy", _counting_trial, [{"x": 1}], base_seed=0,
               execution=Execution(cache=cache))
    cache.clear()
    run_trials("toy", _counting_trial, [{"x": 1}], base_seed=0,
               execution=Execution(cache=cache))
    assert len(_CALLS) == 2


def test_cache_key_depends_on_code_version():
    params = {"x": 1}
    current = cache_key("e1", params, 0)
    assert current == cache_key("e1", params, 0, code_version())
    assert current != cache_key("e1", params, 0, "other-version")
    assert current != cache_key("e2", params, 0)
    assert current != cache_key("e1", params, 1)


def test_cache_key_depends_on_the_journal_schema_version(monkeypatch):
    import dcrobot.experiments.parallel as parallel

    params = {"x": 1}
    current = cache_key("e1", params, 0, "pinned-version")
    monkeypatch.setattr(parallel, "JOURNAL_SCHEMA_VERSION",
                        parallel.JOURNAL_SCHEMA_VERSION + 1)
    # A schema bump changes what crash-recovery trials replay, so it
    # must invalidate cached results even with the code digest pinned.
    assert cache_key("e1", params, 0, "pinned-version") != current


def test_stable_hash_handles_experiment_params():
    config = WorldConfig(horizon_days=2.0, seed=4)
    assert stable_hash({"config": config}) \
        == stable_hash({"config": WorldConfig(horizon_days=2.0,
                                              seed=4)})
    assert stable_hash({"config": config}) \
        != stable_hash({"config": WorldConfig(horizon_days=3.0,
                                              seed=4)})
    # Callables hash by qualified name, not by object identity.
    assert stable_hash(world_trial) == stable_hash(world_trial)
    # Plain objects hash by attribute state, not memory address.
    class Model:
        def __init__(self, w):
            self.w = w
    assert stable_hash(Model(1.0)) == stable_hash(Model(1.0))
    assert stable_hash(Model(1.0)) != stable_hash(Model(2.0))


# -- execution policy --------------------------------------------------------


def test_execution_validation():
    assert Execution(jobs=None).resolved_jobs() == 1
    assert Execution(jobs=3).resolved_jobs() == 3
    assert Execution(jobs=0).resolved_jobs() >= 1
    with pytest.raises(ValueError):
        Execution(jobs=-1).resolved_jobs()
    with pytest.raises(ValueError):
        Execution(trials=0).resolved_trials()


# -- the common world trial --------------------------------------------------


def test_world_trial_matches_direct_run():
    config = WorldConfig(horizon_days=3.0, seed=11, failure_scale=3.0)
    summary = world_trial({"config": config}, seed=11)
    again = world_trial({"config": dataclasses.replace(config)},
                        seed=11)
    assert summary == again
    assert summary.incidents >= 0
    assert 0.0 < summary.availability_mean <= 1.0
    assert summary.horizon_seconds == pytest.approx(3.0 * 86400.0)
    stats = summary.repair_stats
    if stats is not None:
        assert stats.count == len(summary.repair_times)


# -- timing telemetry --------------------------------------------------------


def test_timing_telemetry_recorded():
    result = ExperimentResult("toy", "Toy", "§0")
    run_trials("toy", _draw_trial, [{"label": "a", "mu": 0.0}],
               base_seed=0, execution=Execution(trials=2),
               result=result)
    assert len(result.timings) == 2
    assert result.timings[0].label == "a"
    assert result.timings[1].label == "a#r1"
    assert all(t.wall_seconds >= 0 for t in result.timings)
    summary = result.timing_summary()
    assert "2 trials" in summary
    assert "timing:" in result.render()
    assert result.to_dict()["timings"][0]["label"] == "a"
