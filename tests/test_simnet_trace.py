"""Unit tests for plain span durations and annotations of the one tracer
(``repro.obs.CausalTracer``) -- what the latency benchmarks read.  The
causal DAG (parents, baggage, critical path) is covered in
``test_obs.py``.
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

    def test_annotations_are_found_by_name_with_their_span(self, env,
                                                           tracer):
        a = tracer.start_span("work", "stage", key="a")
        env.run(until=1.0)
        tracer.annotate(a, "arrive", request=7)
        b = tracer.point("write", "store", key="b")
        env.run(until=2.0)
        tracer.annotate(b, "arrive", request=8)  # a closed span still takes one
        tracer.annotate(a, "leave")
        found = [(span.span_id, time, attrs)
                 for span, time, attrs in tracer.annotations("arrive")]
        assert found == [(a.span_id, 1.0, {"request": 7}),
                         (b.span_id, 2.0, {"request": 8})]
        assert tracer.annotations("nothing") == []
