"""The tracer: a causal span DAG plus the flat point-event log.

One :class:`CausalTracer` per run records both from one clock.  **Spans**
form a DAG: every span knows its parent, every context inherits its
trace id and baggage, and commits/exchanges/reconciles chain into one
end-to-end picture per request -- Apiary-style provenance captured for
free because every interaction is mediated by the data layer.  **Point
events** (:meth:`CausalTracer.record`) are the flat log components
always emit; Table 2's stage breakdown and the per-exchange latency
series are queries over it.  No root trace is minted unless an
observability plane is attached: without one only the event log fills.

Span ids are counter-based, never random: the simulation's determinism
contract (identical seeds -> identical schedules) extends to traces.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """A point event: something happened at ``time``."""

    time: float
    category: str
    name: str
    attrs: dict = field(default_factory=dict)


@dataclass
class CausalSpan:
    """One node of the causal DAG."""

    trace_id: str
    span_id: str
    parent_id: str  # None for a root
    name: str
    service: str
    start: float
    end: float = None
    attrs: dict = field(default_factory=dict)
    events: list = field(init=False, default_factory=list)  # (time, name, attrs)
    baggage: dict = field(default_factory=dict)

    @property
    def duration(self):
        return (self.end if self.end is not None else self.start) - self.start


class CausalTracer:
    """Mints trace contexts, stores their spans, logs point events."""

    def __init__(self, env):
        self.env = env
        # Realtime environments expose ``trace_clock()`` (the wall
        # clock); without it timestamps are the schedule clock.  Same
        # recording API either way.
        clock = getattr(env, "trace_clock", None)
        self._clock = clock if clock is not None else (lambda: env.now)
        self.plane = None  # back-reference set by ObsPlane
        self._seq = 0
        self.spans = {}  # span_id -> CausalSpan
        self._traces = {}  # trace_id -> [span_id] in creation order
        self.events = []  # TraceEvent, in record order

    def _next_id(self, prefix):
        self._seq += 1
        return f"{prefix}{self._seq:06d}"

    # -- recording -----------------------------------------------------------

    def record(self, category, name, **attrs):
        """Log a point event at the current time."""
        self.events.append(TraceEvent(self._clock(), category, name, attrs))

    def new_trace(self, name, service, baggage=None, **attrs):
        """Open a root span of a brand-new trace; returns its context."""
        return self.start_span(name, service, parent=None,
                               baggage=baggage, **attrs)

    def start_span(self, name, service, parent=None, baggage=None, **attrs):
        """Open a span (a child of ``parent`` when given); returns a context.

        Baggage is inherited from the parent and merged with any new
        entries, so request-scoped keys (the order id) reach every
        descendant.
        """
        from repro.obs.context import TraceContext

        if parent is not None:
            trace_id = parent.trace_id
            merged = dict(parent.baggage)
        else:
            trace_id = self._next_id("t")
            merged = {}
        if baggage:
            merged.update(baggage)
        span_id = self._next_id("s")
        span = CausalSpan(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            service=service,
            start=self._clock(),
            attrs=dict(attrs),
            baggage=merged,
        )
        self.spans[span_id] = span
        self._traces.setdefault(trace_id, []).append(span_id)
        return TraceContext(
            trace_id=trace_id,
            span_id=span_id,
            parent_span_id=span.parent_id,
            baggage=merged,
            sink=self,
        )

    def end_span(self, ctx, **attrs):
        """Close the span named by ``ctx`` (idempotent: first end wins)."""
        span = self.spans.get(ctx.span_id)
        if span is None:
            return None
        if span.end is None:
            span.end = self._clock()
        span.attrs.update(attrs)
        return span

    def point(self, name, service, parent=None, **attrs):
        """A zero-duration span (e.g. a store commit); returns its context."""
        ctx = self.start_span(name, service, parent=parent, **attrs)
        self.end_span(ctx)
        return ctx

    def annotate(self, ctx, name, **attrs):
        """Attach a point event (retry, dead-letter, ...) to a span."""
        span = self.spans.get(ctx.span_id)
        if span is not None:
            span.events.append((self._clock(), name, attrs))

    # -- queries -------------------------------------------------------------

    def timestamps(self, category, name, key_attr=None):
        """Times of matching point events, optionally keyed by an attribute.

        With ``key_attr`` the result is a dict ``{attr_value: time}`` keeping
        the *first* occurrence per key; without it, a sorted list of times.
        """
        matching = [e for e in self.events
                    if e.category == category and e.name == name]
        if key_attr is None:
            return sorted(e.time for e in matching)
        keyed = {}
        for event in matching:
            key = event.attrs.get(key_attr)
            if key is not None and key not in keyed:
                keyed[key] = event.time
        return keyed

    def trace_ids(self):
        return list(self._traces)

    def spans_of(self, trace_id):
        """All spans of one trace, in creation (= causal) order."""
        return [self.spans[sid] for sid in self._traces.get(trace_id, ())]

    def roots(self, trace_id):
        return [s for s in self.spans_of(trace_id) if s.parent_id is None]

    def children(self, span_id):
        span = self.spans.get(span_id)
        if span is None:
            return []
        return [
            s for s in self.spans_of(span.trace_id) if s.parent_id == span_id
        ]

    def dag(self, trace_id):
        """Adjacency: span_id -> [child span_ids], in causal order."""
        edges = {s.span_id: [] for s in self.spans_of(trace_id)}
        for span in self.spans_of(trace_id):
            if span.parent_id is not None and span.parent_id in edges:
                edges[span.parent_id].append(span.span_id)
        return edges

    def services(self, trace_id):
        """Every service a trace touched (sorted)."""
        return sorted({s.service for s in self.spans_of(trace_id)})

    def stores(self, trace_id):
        """Every store a trace wrote (sorted; from write-span attrs)."""
        return sorted({
            s.attrs["store"]
            for s in self.spans_of(trace_id)
            if "store" in s.attrs
        })

    def find_trace(self, **baggage):
        """The first trace whose root baggage matches every given item."""
        for trace_id, span_ids in self._traces.items():
            root = self.spans[span_ids[0]]
            if all(root.baggage.get(k) == v for k, v in baggage.items()):
                return trace_id
        return None

    def critical_path(self, trace_id):
        """Root -> latest-finishing leaf: the request's slowest chain."""
        spans = self.spans_of(trace_id)
        if not spans:
            return []
        latest = max(spans, key=lambda s: (s.end if s.end is not None
                                           else s.start, s.span_id))
        path = [latest]
        while path[-1].parent_id is not None:
            parent = self.spans.get(path[-1].parent_id)
            if parent is None:
                break
            path.append(parent)
        path.reverse()
        return path

    # -- exporters -----------------------------------------------------------

    def to_chrome_trace(self):
        """Chrome trace-event JSON objects (``chrome://tracing``), by time.

        One complete ``X`` event per span: services map to processes
        (``pid``) and traces to threads (``tid``), so one request reads
        as one line across service tracks; still-open spans export with
        their current extent.  One instant ``i`` event per point event,
        on its category's own track.
        """
        out = []
        for span in self.spans.values():
            end = span.end if span.end is not None else self._clock()
            args = {"span": span.span_id, "trace": span.trace_id}
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            args.update(span.attrs)
            if span.baggage:
                args["baggage"] = dict(span.baggage)
            out.append({
                "name": span.name,
                "cat": "causal",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (end - span.start) * 1e6,
                "pid": span.service,
                "tid": span.trace_id,
                "args": args,
            })
        for event in self.events:
            attrs = event.attrs
            out.append({
                "name": event.name,
                "cat": event.category,
                "ph": "i",
                "ts": event.time * 1e6,
                "pid": event.category,
                "tid": str(attrs.get("cid") or attrs.get("key") or 0),
                "s": "p",
                "args": dict(attrs),
            })
        # Stable: at one timestamp, spans in id order, then point events.
        out.sort(key=lambda entry: entry["ts"])
        return out

    def request_report(self, trace_id):
        """Human-readable provenance + critical-path report for one trace."""
        spans = self.spans_of(trace_id)
        if not spans:
            return f"trace {trace_id}: no spans recorded"
        root = spans[0]
        start = min(s.start for s in spans)
        finish = max(s.end if s.end is not None else s.start for s in spans)
        lines = [
            f"trace {trace_id}"
            + (f"  baggage={root.baggage}" if root.baggage else ""),
            f"  {len(spans)} spans over {(finish - start) * 1000:.2f} ms, "
            f"services: {', '.join(self.services(trace_id))}",
        ]
        stores = self.stores(trace_id)
        if stores:
            lines.append(f"  stores written: {', '.join(stores)}")
        lines.append("")
        by_parent = {}
        for span in spans:
            by_parent.setdefault(span.parent_id, []).append(span)

        def render(span, depth):
            marker = "" if span.end is not None else "  [open]"
            lines.append(
                f"  {'  ' * depth}{span.name} [{span.service}] "
                f"@{span.start * 1000:.2f}ms +{span.duration * 1000:.2f}ms"
                f"{marker}"
            )
            for _time, name, attrs in span.events:
                lines.append(f"  {'  ' * (depth + 1)}* {name} {attrs}")
            for child in by_parent.get(span.span_id, ()):
                render(child, depth + 1)

        for span in by_parent.get(None, ()):
            render(span, 0)
        path = self.critical_path(trace_id)
        lines.append("")
        lines.append("  critical path: " + " -> ".join(
            f"{s.name}[{s.service}]" for s in path
        ))
        return "\n".join(lines)
