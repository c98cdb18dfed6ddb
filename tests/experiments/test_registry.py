"""Unit tests for the experiment registry, results, and CLI."""

import pytest

from dcrobot.experiments.__main__ import (
    DESCRIPTIONS,
    REGISTRY,
    main,
    run_experiment,
)
from dcrobot.experiments.result import ExperimentResult
from dcrobot.metrics import Table


def test_registry_has_all_experiments():
    assert set(REGISTRY) == {f"e{i}" for i in range(1, 21)}
    assert set(DESCRIPTIONS) == set(REGISTRY)


def test_descriptions_reference_paper_sections():
    for experiment_id, (title, anchor) in DESCRIPTIONS.items():
        assert title
        assert "§" in anchor, f"{experiment_id} anchor lacks a section"


def test_unknown_experiment_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("e99")


def test_run_experiment_dispatches():
    result = run_experiment("E3", quick=True)  # case-insensitive
    assert result.experiment_id == "e3"
    assert result.tables


def test_result_rendering():
    result = ExperimentResult("e0", "Demo", "§0")
    table = Table(["a", "b"])
    table.add_row(1, 2.5)
    result.add_table(table)
    result.add_series("line", [(1.0, 2.0), (3.0, 4.0)])
    result.note("hello")
    rendered = result.render()
    assert "E0: Demo" in rendered
    assert "series line:" in rendered
    assert "note: hello" in rendered
    assert rendered.endswith("\n")
    assert str(result) == rendered


def test_cli_list(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for experiment_id in REGISTRY:
        assert experiment_id in output


def test_cli_unknown(capsys):
    assert main(["e99"]) == 2
    captured = capsys.readouterr()
    # One clean line on stderr, not a traceback, and it lists what
    # exists (the id validation happens before any experiment runs).
    assert "unknown experiment 'e99'" in captured.err
    assert "e13" in captured.err
    assert "Traceback" not in captured.err
    assert captured.err.strip().count("\n") == 0


def test_cli_unknown_id_uppercase_is_normalized(capsys):
    assert main(["E99"]) == 2
    assert "unknown experiment 'e99'" in capsys.readouterr().err


def test_cli_runs_an_experiment(capsys):
    assert main(["e3", "--seed", "1"]) == 0
    output = capsys.readouterr().out
    assert "E3" in output
    assert "finished in" in output
