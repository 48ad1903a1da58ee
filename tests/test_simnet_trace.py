"""Unit tests for the flat half of the one tracer (``repro.obs.CausalTracer``):
point events, their keyed/unkeyed timestamp queries, and plain span
durations -- what the latency benchmarks read.  The causal half (DAG,
baggage, critical path) is covered in ``test_obs.py``.
"""

import pytest

from repro.obs import CausalTracer
from repro.simnet import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def tracer(env):
    return CausalTracer(env)


class TestTracer:
    def test_record_point_event(self, env, tracer):
        env.run(until=1.5)
        tracer.record("stage", "arrive", request=7)
        assert len(tracer.events) == 1
        evt = tracer.events[0]
        assert (evt.time, evt.category, evt.name) == (1.5, "stage", "arrive")
        assert evt.attrs == {"request": 7}
        assert tracer.spans == {}  # a point event mints no span

    def test_span_duration(self, env, tracer):
        ctx = tracer.start_span("work", "stage")
        env.run(until=2.0)
        span = tracer.end_span(ctx)
        assert span.duration == 2.0

    def test_concurrent_spans_keyed(self, env, tracer):
        a = tracer.start_span("work", "stage", key="a")
        env.run(until=1.0)
        b = tracer.start_span("work", "stage", key="b")
        env.run(until=3.0)
        tracer.end_span(a)
        env.run(until=4.0)
        tracer.end_span(b)
        durations = [s.duration for s in tracer.spans.values()
                     if (s.service, s.name) == ("stage", "work")]
        assert sorted(durations) == [3.0, 3.0]

    def test_open_span_duration_is_zero(self, env, tracer):
        ctx = tracer.start_span("open", "stage")
        env.run(until=1.0)
        span = tracer.spans[ctx.span_id]
        assert span.end is None and span.duration == 0.0
        # ... and exports with its extent so far, not dropped.
        [entry] = tracer.to_chrome_trace()
        assert (entry["ph"], entry["dur"]) == ("X", pytest.approx(1e6))

    def test_timestamps_keyed_by_attribute(self, env, tracer):
        tracer.record("order", "created", order_id="o1")
        env.run(until=1.0)
        tracer.record("order", "created", order_id="o2")
        env.run(until=2.0)
        tracer.record("order", "created", order_id="o1")  # duplicate kept first
        stamps = tracer.timestamps("order", "created", key_attr="order_id")
        assert stamps == {"o1": 0.0, "o2": 1.0}

    def test_timestamps_unkeyed_sorted(self, env, tracer):
        tracer.record("a", "x")
        env.run(until=2.0)
        tracer.record("a", "x")
        assert tracer.timestamps("a", "x") == [0.0, 2.0]
