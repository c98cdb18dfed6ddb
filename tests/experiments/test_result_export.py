"""Unit tests for experiment result export (JSON/CSV)."""

import json

from dcrobot.experiments.result import ExperimentResult
from dcrobot.metrics import Table


def sample_result():
    result = ExperimentResult("e0", "Demo", "§0")
    table = Table(["mode", "value"], title="T")
    table.add_row("a", 1.5)
    table.add_row("b", 2.5)
    result.add_table(table)
    result.add_series("line", [(0.0, 1.0), (1.0, 2.0)])
    result.note("a note")
    return result


def test_to_dict_structure():
    data = sample_result().to_dict()
    assert data["experiment_id"] == "e0"
    assert data["tables"][0]["title"] == "T"
    assert data["tables"][0]["rows"] == [["a", "1.5"], ["b", "2.5"]]
    assert data["series"]["line"] == [(0.0, 1.0), (1.0, 2.0)]
    assert data["notes"] == ["a note"]


def test_json_roundtrip():
    loaded = json.loads(json.dumps(sample_result().to_dict()))
    assert loaded["series"]["line"] == [[0.0, 1.0], [1.0, 2.0]]
    assert loaded["title"] == "Demo"


def test_csv_export():
    text = sample_result().tables_to_csv()
    assert text.startswith("# T")
    assert "mode,value" in text
    assert "a,1.5" in text


def test_smi_weight_sensitivity():
    import numpy as np

    from dcrobot.topology import build_fattree, compute_smi
    from dcrobot.topology.smi import DEFAULT_WEIGHTS

    topo = build_fattree(k=4, rng=np.random.default_rng(1))
    baseline = compute_smi(topo).smi
    # Raise one factor's weight at a time, the others at their default.
    deltas = {name: compute_smi(topo, weights={name: weight + 0.5}).smi
              - baseline
              for name, weight in DEFAULT_WEIGHTS.items()}
    assert set(deltas) == {"reach", "occlusion", "serviceability",
                           "uniformity", "granularity"}
    # Up-weighting a below-average factor must pull the index down and
    # vice versa; with reach=1.0 (the max factor) its delta must be >0.
    assert deltas["reach"] > 0
    assert deltas["uniformity"] < 0  # the weakest factor drags it down
