"""Synchronous RPC over the simulated network.

An :class:`RPCServer` registers service method handlers; an
:class:`RPCChannel` is a client-side connection that issues calls::

    def handler(request):          # plain value or generator
        yield env.timeout(0.446)   # service time
        return {"tracking_id": "trk-1"}

    server = RPCServer(env, net, "shipping")
    server.register("ShippingService", "ShipOrder", handler, idl=shipping_idl)

    channel = RPCChannel(env, server, client_location="checkout")
    response = yield channel.call("ShippingService", "ShipOrder", request)

Requests/responses are validated against the service's IDL on both sides
-- exactly the schema coupling the paper describes (a client *must* hold
the server's message definitions).
"""

from dataclasses import dataclass

from repro.errors import IDLError, RPCError, RPCStatusError
from repro.flow.policy import BLOCK, REJECT, SHED_NEWEST, check_overflow
from repro.obs.context import bind_generator, current_context, use
from repro.simnet.queue import Resource
from repro.store.base import estimate_size

#: gRPC-style status codes (subset).
OK = "OK"
NOT_FOUND = "NOT_FOUND"
INVALID_ARGUMENT = "INVALID_ARGUMENT"
UNIMPLEMENTED = "UNIMPLEMENTED"
INTERNAL = "INTERNAL"
DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
UNAVAILABLE = "UNAVAILABLE"
RESOURCE_EXHAUSTED = "RESOURCE_EXHAUSTED"

#: Status codes the resilience layer treats as transient
#: (see :func:`repro.faults.retry.default_retryable`).
#: ``RESOURCE_EXHAUSTED`` (a full accept queue) is transient by
#: definition: the correct client response is backoff-and-retry.
RETRYABLE_CODES = (UNAVAILABLE, DEADLINE_EXCEEDED, RESOURCE_EXHAUSTED)


@dataclass
class _Registration:
    handler: object
    idl: object
    request_message: str
    response_message: str


class RPCServer:
    """Hosts service method handlers at one network location.

    With ``workers`` set, handler execution runs through a bounded
    worker pool and ``accept_queue``/``overflow`` bound the callers
    waiting for a worker: ``block`` waits without bound (the legacy
    shape), while ``reject``/``shed_newest`` fail the overflowing call
    fast with ``RESOURCE_EXHAUSTED`` -- retryable, so a channel with a
    :class:`~repro.faults.RetryPolicy` backs off instead of piling on.
    ``workers=None`` keeps the pre-backpressure unlimited-concurrency
    behaviour.
    """

    #: Per-request server-side dispatch overhead (seconds) and
    #: serialization cost per byte.
    dispatch_overhead = 0.0002
    per_byte = 1e-9

    def __init__(self, env, network, location, workers=None,
                 accept_queue=64, overflow=REJECT):
        self.env = env
        self.network = network
        self.location = location
        self._methods = {}
        self.calls_served = 0
        self.available = True
        self.rejected_while_down = 0
        self.rejected_overload = 0
        # A synchronous caller cannot be evicted once parked, so the RPC
        # plane supports the policies that act on the *incoming* call.
        self.overflow = check_overflow(overflow,
                                       allowed=(BLOCK, REJECT, SHED_NEWEST))
        self.accept_queue = int(accept_queue)
        self._worker_pool = (
            Resource(env, capacity=int(workers)) if workers else None
        )

    @property
    def queued(self):
        """Calls currently waiting for a worker slot."""
        return self._worker_pool.queued if self._worker_pool else 0

    @property
    def peak_queued(self):
        return self._worker_pool.peak_queued if self._worker_pool else 0

    def set_available(self, available):
        """Transient outage window: calls fail fast with ``UNAVAILABLE``."""
        self.available = bool(available)

    def register(self, service, method, handler, idl=None):
        """Register ``handler`` for ``service/method``.

        With ``idl`` given, requests and responses are validated against
        the method's message definitions.
        """
        request_message = response_message = None
        if idl is not None:
            rpc = idl.service(service).method(method)
            request_message = rpc.request
            response_message = rpc.response
        self._methods[(service, method)] = _Registration(
            handler, idl, request_message, response_message
        )

    def unregister(self, service, method):
        self._methods.pop((service, method), None)

    def dispatch(self, service, method, payload, ctx=None):
        """Server-side execution; returns a simnet process event.

        The event's value is ``(status, response_or_message)``.  With
        ``ctx``, the handler runs with that causal context ambient, so
        store writes it makes chain onto the caller's rpc span.
        """
        return self.env.process(self._dispatch(service, method, payload, ctx))

    def _dispatch(self, service, method, payload, ctx=None):
        if not self.available:
            self.rejected_while_down += 1
            yield self.env.timeout(self.dispatch_overhead)
            return (UNAVAILABLE, f"server at {self.location!r} is down")
        registration = self._methods.get((service, method))
        if registration is None:
            yield self.env.timeout(self.dispatch_overhead)
            return (UNIMPLEMENTED, f"no handler for {service}/{method}")
        if self._worker_pool is None:
            return (yield from self._execute(registration, payload, ctx))
        pool = self._worker_pool
        if (pool.in_use >= pool.capacity
                and pool.queued >= self.accept_queue
                and self.overflow != BLOCK):
            self.rejected_overload += 1
            yield self.env.timeout(self.dispatch_overhead)
            return (RESOURCE_EXHAUSTED,
                    f"accept queue full at {self.location!r} "
                    f"({pool.queued}/{self.accept_queue})")
        yield pool.acquire()
        try:
            return (yield from self._execute(registration, payload, ctx))
        finally:
            pool.release()

    def _execute(self, registration, payload, ctx):
        delay = self.dispatch_overhead + self.per_byte * estimate_size(payload)
        yield self.env.timeout(delay)
        if registration.idl is not None:
            try:
                registration.idl.validate_payload(
                    registration.request_message, payload
                )
            except IDLError as exc:
                return (INVALID_ARGUMENT, str(exc))
        try:
            if ctx is not None:
                with use(ctx):
                    result = registration.handler(payload)
            else:
                result = registration.handler(payload)
            if hasattr(result, "send"):
                if ctx is not None:
                    result = bind_generator(result, ctx)
                result = yield self.env.process(result)
        except RPCStatusError as exc:
            return (exc.code, exc.message)
        except RPCError as exc:
            return (INTERNAL, str(exc))
        if registration.idl is not None and result is not None:
            try:
                registration.idl.validate_payload(
                    registration.response_message, result
                )
            except IDLError as exc:
                return (INTERNAL, f"bad response from handler: {exc}")
        self.calls_served += 1
        return (OK, result if result is not None else {})


class RPCChannel:
    """A client connection from one location to one server.

    With a :class:`repro.faults.RetryPolicy` (and optionally a
    :class:`repro.faults.CircuitBreaker`) attached, calls that fail with
    a retryable status -- ``UNAVAILABLE``, ``DEADLINE_EXCEEDED``, or a
    partitioned link -- are re-issued with seeded-jitter backoff, the
    same degradation contract the store clients get.
    """

    def __init__(self, env, server, client_location, default_deadline=None,
                 retry_policy=None, circuit_breaker=None):
        self.env = env
        self.server = server
        self.client_location = client_location
        self.default_deadline = default_deadline
        self.retry_policy = retry_policy
        self.circuit_breaker = circuit_breaker
        self.calls_made = 0

    def call(self, service, method, payload=None, deadline=None):
        """Issue a synchronous call; returns a simnet process event.

        Raises :class:`RPCStatusError` for non-OK statuses (including
        DEADLINE_EXCEEDED when the deadline elapses first).
        """
        # Captured synchronously: every (possibly retried) attempt spans
        # off the caller's context even though attempts run unbound.
        parent = current_context()
        if self.retry_policy is None and self.circuit_breaker is None:
            return self.env.process(
                self._call(service, method, payload or {}, deadline, parent)
            )
        from repro.faults.retry import RetryPolicy

        policy = self.retry_policy
        if policy is None:  # breaker-only channel: gate but never retry
            policy = self.retry_policy = RetryPolicy(max_attempts=1)
        return self.env.process(policy.run(
            self.env,
            lambda: self._call(service, method, payload or {}, deadline, parent),
            self.circuit_breaker, parent,
        ))

    def _call(self, service, method, payload, deadline, parent=None):
        deadline = deadline if deadline is not None else self.default_deadline
        self.calls_made += 1
        octx = None
        if parent is not None and parent.sink is not None:
            # One rpc span per attempt: retries show up as siblings.
            octx = parent.sink.start_span(
                f"rpc:{service}/{method}", service=self.client_location,
                parent=parent, server=self.server.location,
            )
        work = self.env.process(self._roundtrip(service, method, payload, octx))
        try:
            if deadline is None:
                status, value = yield work
            else:
                timer = self.env.timeout(deadline,
                                         value=(DEADLINE_EXCEEDED, None))
                first = yield self.env.any_of([work, timer])
                status, value = next(iter(first.values()))
        except Exception as exc:  # partitioned link, server crash, ...
            if octx is not None:
                octx.sink.end_span(octx, status=type(exc).__name__)
            raise
        if deadline is not None and status == DEADLINE_EXCEEDED:
            if octx is not None:
                octx.sink.end_span(octx, status=DEADLINE_EXCEEDED)
            raise RPCStatusError(
                DEADLINE_EXCEEDED, f"{service}/{method} after {deadline}s"
            )
        if octx is not None:
            octx.sink.end_span(octx, status=status)
        if status != OK:
            raise RPCStatusError(status, str(value))
        return value

    def _roundtrip(self, service, method, payload, ctx=None):
        net = self.server.network
        yield net.transfer(self.client_location, self.server.location)
        status, value = yield self.server.dispatch(service, method, payload, ctx)
        yield net.transfer(self.server.location, self.client_location)
        return (status, value)
