"""Self-tests of the perf ledger (``pytest benchmarks/ledger``)."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import repeat
import run
import tracer
from workloads import WORKLOADS, summary_digest

from dcrobot.experiments.runner import run_world, summarize_world

HERE = Path(__file__).resolve().parent


def test_tracing_leaves_the_world_bit_identical():
    config = WORKLOADS["chaos_hall"].make_config(0, 2.0)
    reference = summary_digest(summarize_world(run_world(config)))
    plain = repeat._run_world(config, None, 1)
    layer_tracer = tracer.Tracer(config.horizon_seconds)
    with layer_tracer.installed():
        traced = repeat._run_world(config, layer_tracer, 1)
    # The digest hashes every summary field's exact repr: equal digests
    # are a bit-identical WorldSummary.
    assert plain["digest"] == traced["digest"] == reference
    assert layer_tracer.stats["failures.health_tick"][0] > 0
    assert layer_tracer.stats["chaos.safety_check"][0] > 0
    assert layer_tracer.events > 0


class _Layer:
    def outer(self, depth):
        time.sleep(0.002)
        if depth:
            self.inner()
            self.inner()
        return [depth]

    def inner(self):
        time.sleep(0.003)


def test_self_times_sum_to_inclusive_time():
    layer_tracer = tracer.Tracer(1.0)
    layer = _Layer()
    outer = layer_tracer._wrap("outer", _Layer.outer, "outer.items")
    _Layer.inner = layer_tracer._wrap("inner", _Layer.inner, None)
    try:
        started = time.perf_counter()
        outer(layer, 1)
        inclusive = time.perf_counter() - started
    finally:
        _Layer.inner = _Layer.inner.__wrapped__
    calls_outer, self_outer = layer_tracer.stats["outer"]
    calls_inner, self_inner = layer_tracer.stats["inner"]
    assert (calls_outer, calls_inner) == (1, 2)
    assert layer_tracer.counters["outer.items"] == 1
    assert self_inner >= 0.006 and self_outer >= 0.002
    assert self_outer < 0.006  # the nested sleeps are not outer's
    assert self_outer + self_inner == pytest.approx(inclusive, abs=1e-3)


def test_recorder_nets_layer_time_out_of_process_buckets():
    layer_tracer = tracer.Tracer(10.0)
    sim = type("Sim", (), {"now": 1.0})()
    recorder = tracer._Recorder(layer_tracer, sim)
    inner = layer_tracer._wrap("inner", lambda: time.sleep(0.004), None)
    started = time.perf_counter()
    time.sleep(0.002)
    inner()
    recorder.record_callback("_attempt", time.perf_counter() - started)
    recorder.record_event("Timeout", 0.0, 1.0)
    calls, seconds = layer_tracer.stats["core.processes"]
    assert calls == 1
    assert 0.0015 < seconds < 0.0035
    assert layer_tracer.events == 1
    assert layer_tracer.fifth_wall[0] > 0.0


def _ledger(tmp_path: Path, name: str, values, better="lower") -> Path:
    folder = tmp_path / name
    folder.mkdir()
    metric = dict(unit="s", better=better, **run.summarize(values))
    (folder / "BENCH_w.json").write_text(json.dumps(
        {"workload": "w", "end_to_end": {"wall_per_sim_day_s": metric}}))
    return folder


@pytest.mark.parametrize("base, change, expected", [
    ([1.00, 1.01, 0.99, 1.00], [0.80, 0.81, 0.79, 0.80], "improved"),
    ([1.00, 1.01, 0.99, 1.00], [1.30, 1.31, 1.29, 1.30], "regressed"),
    ([1.00, 1.01, 0.99, 1.00], [1.02, 1.00, 1.01, 0.99], "unchanged"),
    ([1.00, 1.40, 0.70, 1.10], [1.05, 1.50, 0.80, 1.20], "unresolved"),
])
def test_compare_verdicts(tmp_path, base, change, expected):
    bounds = {"wall_per_sim_day_s": 0.15}
    rows = compare.compare(
        compare.load_ledgers(_ledger(tmp_path, "a", base)),
        compare.load_ledgers(_ledger(tmp_path, "b", change)), bounds)
    assert [row["verdict"] for row in rows] == [expected]
    assert "of base" in compare.render(rows[0])


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads(run.BENCHMARK.read_text())
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == list(run._per_layer_catalogue())
    end_to_end = {(m["name"], m["unit"], m["better"])
                  for m in spec["end_to_end"]}
    every_workload = {(name, unit, better)
                      for name, unit, better, applies in run.END_TO_END
                      if applies is None and name != "fail_frac"}
    assert end_to_end == every_workload
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_quick_ledger_finishes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out",
         str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    written = sorted(path.name for path in tmp_path.glob("BENCH_*.json"))
    assert written == sorted(f"BENCH_{name}.json" for name in WORKLOADS)
    ledger = json.loads((tmp_path / "BENCH_chaos_hall.json").read_text())
    assert ledger["correct"] and ledger["failed"] == 0
    assert ledger["per_layer"]["bench.coverage_frac"]["value"] > 0.5
