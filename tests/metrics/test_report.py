"""The trace-to-MTTR worked example that README and EXPERIMENTS show,
run on the committed E13 trace golden."""

import json
from pathlib import Path

from dcrobot.metrics.report import trace_mttr_table

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "e13_trace.jsonl"


def golden_spans():
    with GOLDEN.open(encoding="utf-8") as handle:
        _header, *spans = [json.loads(line) for line in handle]
    return spans


def test_mttr_rows_match_the_resolved_incident_spans():
    spans = golden_spans()
    table = trace_mttr_table(spans)
    assert table.headers == ["symptom", "resolved", "mean hours",
                             "max hours"]
    assert table.rows == [["high-loss", "1", "1.07", "1.07"],
                          ["link-down", "3", "24.51", "68.52"],
                          ["link-flapping", "2", "0.36", "0.36"]]
    hours = {}
    for span in spans:
        if span["name"] == "incident" \
                and span["attributes"]["outcome"] == "resolved":
            hours.setdefault(span["attributes"]["symptom"], []).append(
                (span["end"] - span["start"]) / 3600.0)
    assert [row[0] for row in table.rows] == sorted(hours)
    for symptom, resolved, _mean, longest in table.rows:
        assert int(resolved) == len(hours[symptom])
        assert longest == f"{max(hours[symptom]):.2f}"


def test_unresolved_and_open_incidents_are_left_out():
    spans = golden_spans()
    extra = [
        {"name": "incident", "start": 0.0, "end": 7200.0,
         "attributes": {"outcome": "escalated", "symptom": "link-down"}},
        {"name": "incident", "start": 0.0, "end": None,
         "attributes": {"outcome": "resolved", "symptom": "link-down"}},
        {"name": "execute", "start": 0.0, "end": 7200.0,
         "attributes": {"outcome": "resolved", "symptom": "link-down"}},
    ]
    assert trace_mttr_table(spans + extra).rows \
        == trace_mttr_table(spans).rows
