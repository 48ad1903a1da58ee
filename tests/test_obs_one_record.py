"""One record per span, and instrument handles bound once.

A span is its own trace context, so the tracer records exactly the
object it hands out.  The property below replays random span trees --
roots, children with and without new baggage, zero-duration points,
annotations, early and repeated ends, hand-built parents -- on the
tracer and on ``OracleTracer``, the two-record recorder it replaced (a
``CausalSpan`` dataclass beside a frozen ``TraceContext``), and requires
every id, parent, baggage, attr, event and export to be equal.
"""

import gc
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.causal import CausalSpan, CausalTracer
from repro.obs.context import TraceContext
from repro.obs.registry import Registry
from repro.simnet import Environment

# -- the oracle: the two-record recorder, kept verbatim in behaviour ---------


@dataclass
class OracleSpan:
    trace_id: str
    span_id: str
    parent_id: str
    name: str
    service: str
    start: float
    end: float = None
    attrs: dict = field(default_factory=dict)
    events: list = field(init=False, default_factory=list)
    baggage: dict = field(default_factory=dict)

    @property
    def duration(self):
        return (self.end if self.end is not None else self.start) - self.start


@dataclass(frozen=True, eq=False)
class OracleContext:
    trace_id: str
    span_id: str
    parent_span_id: str = None
    baggage: dict = field(default_factory=dict)
    sink: object = field(default=None, repr=False)


class OracleTracer(CausalTracer):
    """Records through a span *and* a context; queries are inherited."""

    def _next_id(self, prefix):
        self._seq += 1
        return f"{prefix}{self._seq:06d}"

    def start_span(self, name, service, parent=None, baggage=None, **attrs):
        if parent is not None:
            trace_id = parent.trace_id
            merged = dict(parent.baggage)
        else:
            trace_id = self._next_id("t")
            merged = {}
        if baggage:
            merged.update(baggage)
        span_id = self._next_id("s")
        span = OracleSpan(
            trace_id=trace_id, span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name, service=service, start=self._clock(),
            attrs=dict(attrs), baggage=merged,
        )
        self.spans[span_id] = span
        self._traces.setdefault(trace_id, []).append(span_id)
        return OracleContext(trace_id=trace_id, span_id=span_id,
                             parent_span_id=span.parent_id,
                             baggage=merged, sink=self)

    def end_span(self, ctx, **attrs):
        span = self.spans.get(ctx.span_id)
        if span is None:
            return None
        if span.end is None:
            span.end = self._clock()
        span.attrs.update(attrs)
        return span

    def point(self, name, service, parent=None, **attrs):
        ctx = self.start_span(name, service, parent=parent, **attrs)
        self.end_span(ctx)
        return ctx

    def annotate(self, ctx, name, **attrs):
        span = self.spans.get(ctx.span_id)
        if span is not None:
            span.events.append((self._clock(), name, attrs))


class Clock:
    """A hand-advanced schedule clock (what the tracer reads)."""

    now = 0.0


# -- the property ------------------------------------------------------------

_keys = st.sampled_from(["order", "step", "k"])
_values = st.one_of(st.integers(-3, 3), st.sampled_from(["a", "b", "o1"]))
_dicts = st.dictionaries(_keys, _values, max_size=3)
# A write span names its store: reports list the stores a trace wrote.
_attrs = st.builds(lambda base, store: {**base, **store}, _dicts,
                   st.fixed_dictionaries({}, optional={
                       "store": st.sampled_from(["kv-a", "kv-b"])}))
_index = st.integers(0, 40)  # resolved modulo the spans opened so far
_ops = st.lists(st.one_of(
    st.tuples(st.just("root"), _dicts, _attrs),
    st.tuples(st.just("child"), _index, _dicts, _attrs),
    st.tuples(st.just("bare-child"), _dicts, _attrs),
    st.tuples(st.just("point"), _index, _attrs),
    st.tuples(st.just("annotate"), _index, st.sampled_from(["retry", "x"]),
              _dicts),
    st.tuples(st.just("end"), _index, _attrs),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 1.5])),
), max_size=40)


def replay(tracer, bare, ops):
    """Apply ``ops``; returns the contexts handed out, in order."""
    contexts = []

    def pick(index):
        return contexts[index % len(contexts)] if contexts else None

    for op in ops:
        kind = op[0]
        if kind == "root":
            contexts.append(tracer.new_trace("req", "svc", baggage=op[1],
                                             **op[2]))
        elif kind == "child" and contexts:
            contexts.append(tracer.start_span("hop", "svc2",
                                              parent=pick(op[1]),
                                              baggage=op[2], **op[3]))
        elif kind == "bare-child":
            contexts.append(tracer.start_span("hop", "svc3", parent=bare,
                                              baggage=op[1], **op[2]))
        elif kind == "point":
            contexts.append(tracer.point("write", "store",
                                         parent=pick(op[1]), **op[2]))
        elif kind == "annotate" and contexts:
            tracer.annotate(pick(op[1]), op[2], **op[3])
        elif kind == "end" and contexts:
            tracer.end_span(pick(op[1]), **op[2])
        elif kind == "advance":
            tracer.env.now += op[1]
    return contexts


def record(span):
    return (span.trace_id, span.span_id, span.parent_id, span.name,
            span.service, span.start, span.end, span.attrs,
            list(span.events), span.baggage, span.duration)


@settings(max_examples=150, deadline=None)
@given(_ops)
def test_one_record_matches_the_two_record_oracle(ops):
    tracer, oracle = CausalTracer(Clock()), OracleTracer(Clock())
    got = replay(tracer, TraceContext("t9", "s9"), ops)
    want = replay(oracle, OracleContext("t9", "s9"), ops)

    assert [(c.trace_id, c.span_id, c.parent_span_id, c.baggage)
            for c in got] == [(c.trace_id, c.span_id, c.parent_span_id,
                               c.baggage) for c in want]
    assert list(tracer.spans) == list(oracle.spans)
    assert [record(s) for s in tracer.spans.values()] == \
        [record(s) for s in oracle.spans.values()]
    # The span handed out is the span recorded.
    assert all(tracer.spans[c.span_id] is c for c in got)
    assert tracer.trace_ids() == oracle.trace_ids()
    assert tracer.to_chrome_trace() == oracle.to_chrome_trace()
    for trace_id in oracle.trace_ids():
        assert tracer.request_report(trace_id) == \
            oracle.request_report(trace_id)
        assert tracer.dag(trace_id) == oracle.dag(trace_id)


def test_baggage_is_shared_until_extended():
    tracer = CausalTracer(Environment())
    caller = {"order": "o1"}
    root = tracer.new_trace("r", "svc", baggage=caller)
    assert root.baggage == caller and root.baggage is not caller
    plain = tracer.start_span("a", "svc", parent=root)
    extended = tracer.start_span("b", "svc", parent=root,
                                 baggage={"step": "ship"})
    sibling = tracer.start_span("c", "svc", parent=root,
                                baggage={"order": "o2"})
    assert plain.baggage is root.baggage
    assert extended.baggage == {"order": "o1", "step": "ship"}
    assert sibling.baggage == {"order": "o2"}
    assert root.baggage == plain.baggage == {"order": "o1"}


def test_a_span_is_its_context():
    assert obs.TraceContext is CausalSpan is TraceContext
    tracer = CausalTracer(Environment())
    root = tracer.new_trace("r", "svc")
    child = tracer.start_span("c", "svc", parent=root)
    assert tracer.spans[child.span_id] is child
    assert child.sink is tracer
    assert child.parent_span_id == child.parent_id == root.span_id
    assert root.parent_span_id is None
    assert child.events == ()  # no list until the first annotation
    tracer.annotate(child, "retry", attempt=1)
    tracer.annotate(child, "retry", attempt=2)
    assert [attrs for _t, _n, attrs in child.events] == [
        {"attempt": 1}, {"attempt": 2}]


def test_hand_built_context_parents_a_span_and_is_recorded_nowhere():
    tracer = CausalTracer(Environment())
    bare = TraceContext("t1", "s1")
    assert (bare.sink, bare.parent_span_id, bare.baggage) == (None, None, {})
    child = tracer.start_span("c", "svc", parent=bare, baggage={"k": 1})
    assert (child.trace_id, child.parent_id) == ("t1", "s1")
    assert bare.baggage == {}
    assert "s1" not in tracer.spans
    assert tracer.spans_of("t1") == [child]
    assert tracer.end_span(bare, outcome="ok") is None
    tracer.annotate(bare, "retry")
    assert bare.end is None and bare.attrs == {} and bare.events == ()


def test_a_child_span_is_one_gc_tracked_object():
    """1,000 children with scalar attrs, no new baggage and no annotation
    add at most 1,000 objects the cycle collector tracks: the span."""
    tracer = CausalTracer(Environment())
    root = tracer.new_trace("r", "svc", baggage={"order": "o1"})
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for index in range(1000):
            span = tracer.start_span("c", "svc", parent=root,
                                     store="s", n=index)
            tracer.end_span(span, outcome="ok")
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert added <= 1000


# -- the registry's bound handles --------------------------------------------


def test_a_repeat_instrument_call_reaches_the_same_series():
    registry = Registry(Environment())
    first = registry.counter("ops", store="a")
    first.inc()
    again = registry.counter("ops", store="a")
    assert again is first
    again.inc(2)
    assert registry.counter("ops", store="a").value == 3.0
    assert registry.counter("ops", store="b").value == 0.0


def test_a_kind_conflict_still_raises_once_the_memo_is_warm():
    registry = Registry(Environment())
    registry.counter("ops", store="a").inc()
    registry.counter("ops", store="a").inc()
    with pytest.raises(ConfigurationError):
        registry.gauge("ops", store="a")
    with pytest.raises(ConfigurationError):
        registry.histogram("ops")


def test_label_order_does_not_split_a_series():
    registry = Registry(Environment())
    registry.counter("ops", store="a", verb="get").inc()
    registry.counter("ops", verb="get", store="a").inc()
    assert registry.snapshot()["metrics"]["ops"]["series"] == {
        "store=a,verb=get": 2.0}


def test_an_unhashable_label_value_binds_uncached():
    registry = Registry(Environment())
    registry.counter("ops", keys=["a"]).inc()
    registry.counter("ops", keys=["a"]).inc()
    assert registry.snapshot()["metrics"]["ops"]["series"] == {
        "keys=['a']": 2.0}
