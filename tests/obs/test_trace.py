"""Unit tests for the deterministic span tracer."""

import enum

import numpy as np
import pytest

from dcrobot.obs.trace import (
    Span,
    Tracer,
    trace_id_from_seed,
)


class Colour(enum.Enum):
    RED = "red"


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def test_trace_id_is_a_stable_function_of_the_seed():
    assert trace_id_from_seed(0) == trace_id_from_seed(0)
    assert trace_id_from_seed(0) != trace_id_from_seed(1)
    assert len(trace_id_from_seed(123)) == 16
    int(trace_id_from_seed(123), 16)  # hex


def test_span_ids_are_sequential_per_tracer():
    tracer = Tracer()
    spans = [tracer.start_span(f"s{i}") for i in range(5)]
    assert [span.span_id for span in spans] == [0, 1, 2, 3, 4]
    # A second tracer starts over: ids depend only on event order.
    assert Tracer().start_span("x").span_id == 0


def test_parentless_spans_hang_off_the_root():
    tracer = Tracer()
    root = tracer.open_root("world")
    child = tracer.start_span("incident")
    grandchild = tracer.start_span("plan", parent=child)
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id


def test_start_span_without_root_is_an_orphan():
    span = Tracer().start_span("lonely")
    assert span.parent_id is None


def test_timestamps_come_from_the_injected_clock():
    clock = FakeClock(100.0)
    tracer = Tracer(clock=clock)
    span = tracer.start_span("work")
    clock.now = 250.0
    tracer.end_span(span)
    assert span.start == 100.0
    assert span.end == 250.0
    assert span.duration == 150.0


def test_end_span_is_idempotent_and_none_safe():
    clock = FakeClock(1.0)
    tracer = Tracer(clock=clock)
    span = tracer.start_span("once")
    tracer.end_span(span, status="error")
    clock.now = 2.0
    tracer.end_span(span, status="ok", extra=1)
    assert span.end == 1.0
    assert span.status == "error"  # first end wins
    assert span.attributes["extra"] == 1  # attributes still merge
    tracer.end_span(None)  # no crash


def test_record_is_an_instant_span():
    tracer = Tracer(clock=FakeClock(42.0))
    span = tracer.record("detect", link_id="l1")
    assert span.start == span.end == 42.0
    assert span.duration == 0.0


def test_span_contextmanager_sets_error_status_on_raise():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    assert tracer.spans[-1].status == "error"
    with tracer.span("fine") as span:
        pass
    assert span.status == "ok"
    assert span.end is not None


def test_attributes_are_coerced_to_plain_scalars():
    tracer = Tracer()
    span = tracer.start_span(
        "attrs", colour=Colour.RED, count=np.int64(3),
        rate=np.float64(0.5), flag=True, nothing=None)
    assert span.attributes == {
        "colour": "red", "count": 3, "rate": 0.5,
        "flag": True, "nothing": None}
    assert type(span.attributes["count"]) is int
    assert type(span.attributes["rate"]) is float


def test_to_dict_sorts_attributes():
    span = Span(trace_id="t", span_id=0, parent_id=None, name="n",
                start=0.0, attributes={"b": 1, "a": 2})
    assert list(span.to_dict()["attributes"]) == ["a", "b"]


def test_finish_closes_the_root():
    tracer = Tracer(clock=FakeClock(9.0))
    root = tracer.open_root("world")
    tracer.finish()
    assert root.end == 9.0
    tracer.finish()  # idempotent
    assert root.end == 9.0
