"""The tracer: a causal span DAG, the run's one trace record.

One :class:`CausalTracer` per run records spans from one clock.  Spans
form a DAG: every span knows its parent, every context inherits its
trace id and baggage, and commits/exchanges/reconciles chain into one
end-to-end picture per request -- Apiary-style provenance captured for
free because every interaction is mediated by the data layer.  An
instant inside a span (a retry, the start of an exchange's writes, a
reconciler's ``ctx.trace``) is an :meth:`CausalTracer.annotate` event
on it.  Table 2's stage breakdown and the per-exchange latency series
are queries over spans.  No root trace is minted unless an
observability plane is attached: without one nothing is recorded.

Span ids are counter-based, never random: the simulation's determinism
contract (identical seeds -> identical schedules) extends to traces.
"""


class CausalSpan:
    """One node of the causal DAG, and the trace context that names it
    (``repro.obs.TraceContext`` is this class; ``sink`` is the tracer
    that recorded it).  One built by hand, ``TraceContext("t1", "s1")``,
    is recorded nowhere but can parent spans.  ``baggage`` is never
    mutated: a child that adds none shares its parent's dict.
    ``events`` is ``()`` until the first annotation."""

    __slots__ = ("trace_id", "span_id", "parent_id", "baggage", "sink",
                 "name", "service", "start", "end", "attrs", "events")

    def __init__(self, trace_id, span_id):
        self.trace_id, self.span_id, self.parent_id = trace_id, span_id, None
        self.baggage, self.sink, self.attrs, self.events = {}, None, {}, ()
        self.name = self.service = self.start = self.end = None

    @property
    def parent_span_id(self):
        return self.parent_id

    @property
    def duration(self):
        return (self.end if self.end is not None else self.start) - self.start


class CausalTracer:
    """Mints spans and stores them."""

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

    # -- recording -----------------------------------------------------------

    def new_trace(self, name, service, baggage=None, **attrs):
        """Open a root span of a brand-new trace; returns it."""
        return self.start_span(name, service, parent=None,
                               baggage=baggage, **attrs)

    def start_span(self, name, service, parent=None, baggage=None, **attrs):
        """Open a span (a child of ``parent`` when given); returns it.
        Its baggage is the parent's merged with ``baggage``, so
        request-scoped keys (the order id) reach every descendant."""
        return self._open(name, service, parent, baggage, attrs)

    def _open(self, name, service, parent, baggage, attrs):
        seq = self._seq + 1
        if parent is None:
            trace_id, parent_id = f"t{seq:06d}", None
            seq += 1
            self._traces[trace_id] = span_ids = []
            baggage = dict(baggage) if baggage else {}
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
            span_ids = self._traces.get(trace_id)
            if span_ids is None:  # a hand-built or foreign parent
                span_ids = self._traces[trace_id] = []
            baggage = ({**parent.baggage, **baggage} if baggage
                       else parent.baggage)
        self._seq = seq
        span = object.__new__(CausalSpan)  # every slot is set below
        span.trace_id, span.parent_id = trace_id, parent_id
        span.span_id = span_id = f"s{seq:06d}"
        span.baggage, span.sink = baggage, self
        span.name, span.service = name, service
        span.start, span.end, span.events = self._clock(), None, ()
        span.attrs = attrs  # the caller's fresh ``**attrs`` dict
        span_ids.append(span_id)
        self.spans[span_id] = span
        return span

    def end_span(self, ctx, **attrs):
        """Close the span ``ctx`` (idempotent: first end wins)."""
        span = ctx if ctx.sink is self else self.spans.get(ctx.span_id)
        if span is None:
            return None
        if span.end is None:
            span.end = self._clock()
        span.attrs.update(attrs)
        return span

    def point(self, name, service, parent=None, **attrs):
        """A zero-duration span (e.g. a store commit); returns it."""
        span = self._open(name, service, parent, None, attrs)
        span.end = span.start
        return span

    def annotate(self, ctx, name, **attrs):
        """Attach an instant (retry, give-up, decision, ...) to a span."""
        span = ctx if ctx.sink is self else self.spans.get(ctx.span_id)
        if span is not None:
            if not span.events:
                span.events = []
            span.events.append((self._clock(), name, attrs))

    # -- queries -------------------------------------------------------------

    def annotations(self, name):
        """``(span, time, attrs)`` of every annotation called ``name``,
        span by span in creation order."""
        return [(span, time, attrs) for span in self.spans.values()
                for time, event, attrs in span.events if event == name]

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
        """Every store a trace wrote (sorted names; from write-span attrs,
        so a shard index reads as its ``str``)."""
        return sorted({
            str(s.attrs["store"])
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
        their current extent.  Each span's annotations follow it as
        instant ``i`` events on the same track.
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
            for time, name, attrs in span.events:
                out.append({
                    "name": name,
                    "cat": "causal",
                    "ph": "i",
                    "ts": time * 1e6,
                    "pid": span.service,
                    "tid": span.trace_id,
                    "s": "t",
                    "args": {"span": span.span_id, **attrs},
                })
        # Stable: at one timestamp, spans in id order, each followed by
        # its own annotations.
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
