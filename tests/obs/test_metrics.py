"""Unit tests for the metrics registry and its instruments."""

import numpy as np
import pytest

from dcrobot.obs.metrics import (
    COUNT_BUCKETS,
    MTTR_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


# -- counters ---------------------------------------------------------------

def test_counter_accumulates_per_label_set():
    counter = Counter("c")
    counter.inc()
    counter.inc(2.0, kind="a")
    counter.inc(3.0, kind="a")
    counter.inc(kind="b")
    assert counter.value() == 1.0
    assert counter.value(kind="a") == 5.0
    assert counter.total() == 7.0


def test_counter_rejects_negative_increments():
    with pytest.raises(ValueError, match="cannot decrease"):
        Counter("c").inc(-1.0)


def test_counter_label_order_is_irrelevant():
    counter = Counter("c")
    counter.inc(a="1", b="2")
    counter.inc(b="2", a="1")
    assert counter.value(b="2", a="1") == 2.0
    assert len(counter.samples()) == 1


def test_counter_coerces_numpy_values():
    counter = Counter("c")
    counter.inc(np.int64(4))
    assert counter.value() == 4.0
    assert type(counter.value()) is float


# -- gauges -----------------------------------------------------------------

def test_gauge_last_write_wins_and_inc_dec():
    gauge = Gauge("g")
    gauge.set(5.0)
    gauge.set(2.0)
    assert gauge.value() == 2.0
    gauge.inc(3.0)
    gauge.inc(-1.0)
    assert gauge.value() == 4.0
    gauge.inc(-10.0, node="n1")
    assert gauge.value(node="n1") == -10.0


# -- histograms -------------------------------------------------------------

def test_histogram_buckets_values_by_upper_bound():
    histogram = Histogram("h", buckets=(1.0, 10.0))
    for value in (0.5, 1.0, 5.0, 100.0):
        histogram.observe(value)
    state = dict(histogram.samples())[()]
    # <=1, <=10, +Inf
    assert state.bucket_counts == [2, 1, 1]
    assert histogram.count() == 4
    assert histogram.sum() == pytest.approx(106.5)


def test_histogram_known_names_get_their_bounds():
    assert Histogram("dcrobot_incident_mttr_seconds").uppers \
        == MTTR_BUCKETS
    assert Histogram("dcrobot_incident_attempts").uppers \
        == COUNT_BUCKETS


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError, match=">= 1 bucket"):
        Histogram("h", buckets=())
    with pytest.raises(ValueError, match="finite"):
        Histogram("h", buckets=(1.0, float("inf")))
    with pytest.raises(ValueError, match="duplicate"):
        Histogram("h", buckets=(1.0, 1.0))


def test_histogram_merge_requires_identical_bounds():
    a = Histogram("h", buckets=(1.0, 2.0))
    b = Histogram("h", buckets=(1.0, 3.0))
    with pytest.raises(ValueError, match="bounds differ"):
        a.merge(b)
    with pytest.raises(TypeError):
        a.merge("not a histogram")


def test_histogram_merge_sums_states():
    a = Histogram("h", buckets=(1.0, 2.0))
    b = Histogram("h", buckets=(1.0, 2.0))
    a.observe(0.5, kind="x")
    b.observe(1.5, kind="x")
    b.observe(9.0)
    merged = a.merge(b)
    assert merged.count(kind="x") == 2
    assert merged.sum(kind="x") == pytest.approx(2.0)
    assert merged.count() == 1
    # Sources are untouched.
    assert a.count(kind="x") == 1


# -- registry ---------------------------------------------------------------

def test_registry_create_or_get_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("c") is registry.counter("c")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")
    assert len(registry) == 3
    assert "c" in registry
    assert "missing" not in registry


def test_registry_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("metric")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("metric")


def test_registry_histogram_bound_conflict_raises():
    registry = MetricsRegistry()
    registry.histogram("h", buckets=(1.0, 2.0))
    registry.histogram("h")  # no explicit bounds: fine
    with pytest.raises(ValueError, match="bounds"):
        registry.histogram("h", buckets=(1.0, 3.0))


def test_registry_instruments_sorted_by_name():
    registry = MetricsRegistry()
    registry.counter("zebra")
    registry.gauge("alpha")
    assert [name for name, _ in registry.instruments()] \
        == ["alpha", "zebra"]
