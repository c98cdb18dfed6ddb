"""Tests for the experiment CLI's parallel-execution flags."""

import pytest

from dcrobot.experiments.__main__ import (
    REGISTRY,
    build_parser,
    execution_from_args,
    main,
)
from dcrobot.experiments.parallel import DEFAULT_CACHE_DIR


def test_defaults():
    args = build_parser().parse_args(["e1"])
    assert args.jobs == 1
    assert args.trials == 1
    assert not args.no_cache
    assert args.cache_dir == DEFAULT_CACHE_DIR
    execution = execution_from_args(args)
    assert execution.jobs == 1
    assert execution.trials == 1
    assert execution.cache is not None
    assert execution.cache.root == DEFAULT_CACHE_DIR


def test_help_names_the_registry_range(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a range
    numbers = sorted(int(eid[1:]) for eid in REGISTRY)
    first, last = numbers[0], numbers[-1]
    text = build_parser().format_help()
    assert f"experiments (E{first}-E{last})" in text
    assert f"experiment id (e{first}..e{last})" in text


def test_jobs_and_trials_flags():
    args = build_parser().parse_args(
        ["e1", "--jobs", "4", "--trials", "3"])
    execution = execution_from_args(args)
    assert execution.jobs == 4
    assert execution.trials == 3


def test_no_cache_flag():
    args = build_parser().parse_args(["e1", "--no-cache"])
    assert execution_from_args(args).cache is None


def test_cache_dir_flag(tmp_path):
    cache_dir = str(tmp_path / "cache")
    args = build_parser().parse_args(["e1", "--cache-dir", cache_dir])
    execution = execution_from_args(args)
    assert execution.cache.root == cache_dir


def test_jobs_must_be_an_int():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["e1", "--jobs", "lots"])


def test_cli_runs_parallel_with_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["e3", "--seed", "1", "--jobs", "2",
            "--cache-dir", cache_dir]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "E3" in first
    assert "timing:" in first
    assert "(0 cached)" in first
    # Second run is served from the trial cache and prints identically
    # (modulo the timing/duration lines).
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "(10 cached)" in second

    def stable(text):
        return [line for line in text.splitlines()
                if not line.startswith(("timing:", "[e3 finished"))]

    assert stable(first) == stable(second)


def test_cli_no_cache_runs(tmp_path, capsys):
    assert main(["e3", "--seed", "1", "--no-cache"]) == 0
    output = capsys.readouterr().out
    assert "(0 cached)" in output


def test_list_flag_prints_ids_with_descriptions(capsys):
    from dcrobot.experiments.__main__ import DESCRIPTIONS

    assert main(["--list"]) == 0
    output = capsys.readouterr().out
    lines = [line for line in output.splitlines() if line.strip()]
    assert len(lines) == len(DESCRIPTIONS)
    for experiment_id, (title, _anchor) in DESCRIPTIONS.items():
        assert any(experiment_id in line and title in line
                   for line in lines)
    # Numeric ordering: e2 before e10.
    assert lines.index(next(l for l in lines if l.startswith("  e2"))) \
        < lines.index(next(l for l in lines if l.startswith(" e10")))


def test_list_positional_still_works(capsys):
    assert main(["list"]) == 0
    assert "e14" in capsys.readouterr().out


def test_missing_experiment_argument_errors(capsys):
    assert main([]) == 2
    assert "required" in capsys.readouterr().err


# -- observability flags ----------------------------------------------------

def _fake_observed_run(with_exports=True):
    from dcrobot.experiments.result import ExperimentResult

    def fake_run(experiment_id, quick=True, seed=0, execution=None,
                 observe=False):
        result = ExperimentResult(experiment_id, "fake", "none")
        if observe and with_exports:
            result.trace = [
                {"trace_id": "t", "span_id": 0, "parent_id": None,
                 "name": "world", "start": 0.0, "end": 1.0,
                 "status": "ok", "attributes": {}}]
            result.metrics = {"kind": "metrics", "schema_version": 1,
                              "metrics": {}}
        return result

    return fake_run


def test_trace_and_metrics_out_flags_parse(tmp_path):
    args = build_parser().parse_args(
        ["e13", "--trace-out", "t.jsonl", "--metrics-out", "m.prom"])
    assert args.trace_out == "t.jsonl"
    assert args.metrics_out == "m.prom"
    assert build_parser().parse_args(["e13"]).trace_out is None


def test_trace_out_rejects_all(tmp_path, capsys):
    assert main(["all", "--trace-out",
                 str(tmp_path / "t.jsonl")]) == 2
    assert "single experiment" in capsys.readouterr().err


def test_trace_out_on_unsupported_experiment_errors(tmp_path, capsys):
    # e3 has no observe support; run_experiment refuses before running.
    assert main(["e3", "--trace-out", str(tmp_path / "t.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "does not support" in err
    assert "e13" in err  # points at the experiments that do


def test_trace_and_metrics_out_write_files(tmp_path, monkeypatch,
                                           capsys):
    import json

    import dcrobot.experiments.__main__ as cli

    monkeypatch.setattr(cli, "run_experiment", _fake_observed_run())
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.prom"
    assert cli.main(["e3", "--no-cache",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)]) == 0
    output = capsys.readouterr().out
    assert f"[trace written to {trace_path}]" in output
    assert f"[metrics written to {metrics_path}]" in output
    header = json.loads(trace_path.read_text().splitlines()[0])
    assert header["kind"] == "trace"
    assert header["span_count"] == 1
    assert metrics_path.exists()


def test_warns_when_experiment_returns_no_exports(tmp_path,
                                                  monkeypatch,
                                                  capsys):
    import dcrobot.experiments.__main__ as cli

    monkeypatch.setattr(cli, "run_experiment",
                        _fake_observed_run(with_exports=False))
    assert cli.main(["e3", "--no-cache",
                     "--trace-out", str(tmp_path / "t.jsonl")]) == 0
    captured = capsys.readouterr()
    assert "returned no trace" in captured.err
    assert not (tmp_path / "t.jsonl").exists()


def test_run_experiment_observe_requires_support():
    import pytest as _pytest

    from dcrobot.experiments.__main__ import run_experiment

    with _pytest.raises(ValueError, match="does not support"):
        run_experiment("e1", observe=True)
