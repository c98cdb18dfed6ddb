"""Property-based tests (hypothesis) for the observability layer.

Two invariant families the exporters and golden tests silently rely
on: fixed-bucket histograms behave like Prometheus histograms under
any observation sequence (and merge associatively), and the tracer
produces well-formed span trees under any interleaving of starts,
ends, and instant records.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dcrobot.obs.metrics import Histogram
from dcrobot.obs.trace import Tracer

# -- histogram invariants ---------------------------------------------------

bounds = st.lists(
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8, unique=True)

observations = st.lists(
    st.floats(min_value=-1e12, max_value=1e12,
              allow_nan=False, allow_infinity=False),
    max_size=60)


def _fill(name, uppers, values):
    histogram = Histogram(name, buckets=uppers)
    for value in values:
        histogram.observe(value)
    return histogram


@given(uppers=bounds, values=observations)
@settings(max_examples=120, deadline=None)
def test_histogram_bucket_counts_sum_to_observation_count(
        uppers, values):
    histogram = _fill("h", uppers, values)
    state = histogram._state(())
    assert sum(state.bucket_counts) == len(values) == state.count
    assert len(state.bucket_counts) == len(histogram.uppers) + 1


@given(uppers=bounds, values=observations)
@settings(max_examples=120, deadline=None)
def test_histogram_every_observation_lands_in_its_bucket(
        uppers, values):
    histogram = _fill("h", uppers, values)
    state = histogram._state(())
    # Rebuild the expected bucketing independently.
    expected = [0] * (len(histogram.uppers) + 1)
    for value in values:
        for index, upper in enumerate(histogram.uppers):
            if value <= upper:
                expected[index] += 1
                break
        else:
            expected[-1] += 1
    assert state.bucket_counts == expected


@given(uppers=bounds, a=observations, b=observations, c=observations)
@settings(max_examples=80, deadline=None)
def test_histogram_merge_is_associative_and_commutative(
        uppers, a, b, c):
    ha, hb, hc = (_fill("h", uppers, values) for values in (a, b, c))

    def state_of(histogram):
        return [(key, list(state.bucket_counts), state.count)
                for key, state in histogram.samples()]

    left = ha.merge(hb).merge(hc)
    right = ha.merge(hb.merge(hc))
    assert state_of(left) == state_of(right)
    assert state_of(ha.merge(hb)) == state_of(hb.merge(ha))
    # Merging never mutates the sources.
    assert ha._state(()).count == len(a)


# -- span-tree invariants ---------------------------------------------------

#: One op per element: push a child (True) / pop the innermost open
#: span (False) / record an instant span under the innermost (None).
span_ops = st.lists(st.sampled_from([True, False, None]), max_size=80)
advances = st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), max_size=80)


def _build_trace(ops, steps):
    clock = {"now": 0.0}
    tracer = Tracer(trace_id="prop", clock=lambda: clock["now"])
    stack = [tracer.open_root("world")]
    for index, op in enumerate(ops):
        clock["now"] += steps[index % len(steps)] if steps else 1.0
        if op is True:
            stack.append(tracer.start_span("child", parent=stack[-1]))
        elif op is False:
            if len(stack) > 1:
                tracer.end_span(stack.pop())
        else:
            tracer.record("instant", parent=stack[-1])
    while len(stack) > 1:
        tracer.end_span(stack.pop())
    tracer.finish()
    return tracer


@given(ops=span_ops, steps=advances)
@settings(max_examples=120, deadline=None)
def test_span_ids_are_unique_and_parents_exist(ops, steps):
    tracer = _build_trace(ops, steps)
    ids = [span.span_id for span in tracer.spans]
    assert len(ids) == len(set(ids))
    by_id = {span.span_id: span for span in tracer.spans}
    roots = [span for span in tracer.spans if span.parent_id is None]
    assert len(roots) == 1  # no orphan parents: everything hangs
    for span in tracer.spans:  # off the single world root
        if span.parent_id is not None:
            assert span.parent_id in by_id
            assert span.parent_id < span.span_id  # parents come first


@given(ops=span_ops, steps=advances)
@settings(max_examples=120, deadline=None)
def test_children_nest_within_their_parents(ops, steps):
    tracer = _build_trace(ops, steps)
    by_id = {span.span_id: span for span in tracer.spans}
    for span in tracer.spans:
        assert span.end is not None
        assert span.end >= span.start
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        assert parent.start <= span.start
        assert span.end <= parent.end


@given(ops=span_ops, steps=advances)
@settings(max_examples=60, deadline=None)
def test_identical_op_sequences_export_identical_spans(ops, steps):
    first = [span.to_dict() for span in _build_trace(ops, steps).spans]
    second = [span.to_dict() for span in _build_trace(ops, steps).spans]
    assert first == second
