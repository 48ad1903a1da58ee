"""Trace-context propagation primitives.

A :class:`TraceContext` is the :class:`~repro.obs.causal.CausalSpan` it
names, one span of one causal trace.  It travels two ways:

- **explicitly**, stamped onto the artifacts that carry causality across
  component boundaries (store request args, watch events, WAL records,
  pub/sub deliveries, RPC dispatches);
- **ambiently**, through a single module-level slot read by
  :func:`current_context`.

The ambient slot is safe because simnet is a single-threaded
discrete-event simulation: code only interleaves at ``yield`` points, so
any *synchronous* section -- building a request's argument dict, running
a store op method, invoking a watch handler -- executes atomically.
Capture therefore always happens synchronously at call-creation time,
and :func:`bind_generator` re-arms the slot around each resumption of a
generator-based process so concurrent processes never observe each
other's contexts.
"""

from repro.obs.causal import CausalSpan

TraceContext = CausalSpan  # a context is the span it names

#: The ambient context of the currently-executing synchronous section.
_current = None


def current_context():
    """The ambient :class:`TraceContext` of this synchronous section."""
    return _current


def activate(ctx):
    """Install ``ctx`` as the ambient context; returns the previous one.

    Always pair with :func:`restore` (``try/finally``): a leaked
    activation would attribute unrelated work to this trace.
    """
    global _current
    previous = _current
    _current = ctx
    return previous


def restore(token):
    """Undo an :func:`activate` using its return value."""
    global _current
    _current = token


class use:
    """``with use(ctx): ...`` -- ambient context for one synchronous block."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._token = None

    def __enter__(self):
        self._token = activate(self.ctx)
        return self.ctx

    def __exit__(self, *_exc):
        restore(self._token)
        return False


def bind_generator(gen, ctx):
    """Drive ``gen`` with ``ctx`` ambient during each synchronous slice.

    Simnet processes are generators resumed by the event loop; between
    resumptions, *other* processes run.  This wrapper activates ``ctx``
    exactly while ``gen`` executes and restores the previous ambient
    context at every yield, so the context follows the logical task, not
    the wall clock.  Exceptions thrown into the wrapper (conflict,
    unavailability, interrupts) are forwarded into ``gen`` under the
    same discipline.
    """
    value = None
    error = None
    while True:
        token = activate(ctx)
        try:
            if error is not None:
                item = gen.throw(error)
            else:
                item = gen.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            restore(token)
        error = None
        try:
            value = yield item
        except Exception as exc:  # forwarded by the event loop
            value = None
            error = exc


def span_process(gen, ctx, **end_attrs):
    """Run ``gen`` inside span ``ctx`` and close the span at exit.

    The span ends with ``outcome="ok"`` on normal return, or with the
    exception's type name when ``gen`` raises (the exception still
    propagates).  Requires ``ctx.sink``.
    """
    try:
        result = yield from bind_generator(gen, ctx)
    except Exception as exc:
        ctx.sink.end_span(ctx, outcome=type(exc).__name__, **end_attrs)
        raise
    ctx.sink.end_span(ctx, outcome="ok", **end_attrs)
    return result


def end_span_on(event, ctx):
    """Close span ``ctx`` when ``event`` fires, with ``outcome`` as in
    :func:`span_process`: ``"ok"``, or the failure's type name."""
    def close(done):
        outcome = "ok" if done.ok else type(done.value).__name__
        ctx.sink.end_span(ctx, outcome=outcome)

    event.callbacks.append(close)
    return event
