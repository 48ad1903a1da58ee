"""Topic broker with MQTT-style semantics.

Features modelled: topic hierarchy with ``+``/``#`` wildcards, retained
messages, per-subscriber FIFO delivery over the simulated network, and a
per-message broker forwarding overhead.

Backpressure (``repro.flow``): a subscription may carry a bounded
in-flight delivery window (``max_inflight``) with a typed overflow
policy.  A slow consumer -- one whose deliveries pile up on the wire
faster than it absorbs them -- is shed per policy instead of queueing
without bound, and every per-subscription drop (shed *or* faulted link)
invokes the subscription's ``on_lag`` callback so the consumer can
observe its gap and resync; ``reject`` evicts the subscription outright
(``on_close`` fires), the broker-side analogue of a forced watch resync.
"""

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.flow.policy import BLOCK, REJECT, SHED_NEWEST, check_overflow
from repro.obs.context import current_context, use
from repro.store.base import estimate_size


def topic_matches(pattern, topic):
    """MQTT wildcard match: ``+`` one level, ``#`` all remaining levels."""
    pattern_parts = pattern.split("/")
    topic_parts = topic.split("/")
    for i, part in enumerate(pattern_parts):
        if part == "#":
            return True
        if i >= len(topic_parts):
            return False
        if part != "+" and part != topic_parts[i]:
            return False
    return len(pattern_parts) == len(topic_parts)


@dataclass
class Subscription:
    """One client's subscription to a topic pattern.

    ``max_inflight``/``overflow`` bound the deliveries concurrently on
    the wire to this subscriber; ``on_lag(topic, count)`` fires for
    every message this subscription loses (shed by the bound or dropped
    by a faulted link), ``on_close()`` when the broker evicts the
    subscription (``reject`` policy).
    """

    pattern: str
    handler: object
    location: str
    active: bool = True
    delivered: int = 0
    max_inflight: int = None
    overflow: str = SHED_NEWEST
    on_lag: object = None
    on_close: object = None
    inflight: int = field(default=0, repr=False)
    dropped: int = 0
    shed: int = 0
    peak_inflight: int = 0

    def cancel(self):
        self.active = False

    def _lost(self, topic, shed=False):
        """Account one lost delivery and tell the subscriber about it."""
        self.dropped += 1
        if shed:
            self.shed += 1
        if self.on_lag is not None:
            self.on_lag(topic, 1)


@dataclass
class _Retained:
    topic: str
    payload: bytes
    retained_at: float = 0.0
    ctx: object = None  # causal context of the retaining publish


class Broker:
    """The broker process: receives publishes, fans out to subscribers."""

    #: Broker-side forwarding overhead per message (seconds) + per byte.
    forward_overhead = 0.0003
    per_byte = 2e-9

    def __init__(self, env, network, location="broker", max_inflight=None,
                 overflow=SHED_NEWEST):
        self.env = env
        self.network = network
        self.location = location
        #: Broker-wide default delivery window applied to subscriptions
        #: that do not set their own (``None`` = unbounded, QoS-0
        #: fire-and-forget exactly as before).
        self.max_inflight = max_inflight
        self.overflow = check_overflow(overflow)
        self._subscriptions = []
        self._retained = {}
        self.delivered = 0
        self.dropped = 0
        self.shed = 0
        self.evicted = 0

    def subscribe(self, pattern, handler, location, *, max_inflight=None,
                  overflow=None, on_lag=None, on_close=None):
        """Register a subscriber; retained messages replay immediately.

        ``max_inflight``/``overflow`` override the broker-wide delivery
        bound for this subscription; ``on_lag``/``on_close`` observe its
        drops and eviction (see :class:`Subscription`).
        """
        if not pattern:
            raise ConfigurationError("topic pattern must be non-empty")
        limit = max_inflight if max_inflight is not None else self.max_inflight
        policy = check_overflow(overflow if overflow is not None
                                else self.overflow)
        if policy == BLOCK:
            limit = None  # a broker cannot block its publishers: unbounded
        subscription = Subscription(
            pattern, handler, location,
            max_inflight=limit, overflow=policy,
            on_lag=on_lag, on_close=on_close,
        )
        self._subscriptions.append(subscription)
        for topic, retained in self._retained.items():
            if topic_matches(pattern, topic):
                self._deliver(subscription, topic, retained.payload,
                              retained.ctx)
        return subscription

    def publish(self, topic, payload, publisher_location, retain=False):
        """Publish; returns a process event (fires when broker accepted).

        Delivery to subscribers continues asynchronously after accept,
        matching QoS-0/1 behaviour.  The publisher's ambient trace
        context (captured synchronously here) rides the message: each
        delivery runs the subscriber's handler under a publish span, so
        even fire-and-forget messaging joins the causal DAG.
        """
        if "+" in topic or "#" in topic:
            raise ConfigurationError(f"cannot publish to wildcard topic {topic!r}")
        ctx = current_context()
        if ctx is not None and ctx.sink is not None:
            ctx = ctx.sink.point(
                "publish", service=publisher_location, parent=ctx, topic=topic,
            )
        return self.env.process(self._publish(topic, payload, publisher_location,
                                              retain, ctx))

    def _publish(self, topic, payload, publisher_location, retain, ctx=None):
        yield self.network.transfer(publisher_location, self.location)
        delay = self.forward_overhead + self.per_byte * estimate_size(payload)
        yield self.env.timeout(delay)
        if retain:
            self._retained[topic] = _Retained(topic, payload, self.env.now,
                                              ctx=ctx)
        for subscription in list(self._subscriptions):
            if subscription.active and topic_matches(subscription.pattern, topic):
                self._deliver(subscription, topic, payload, ctx)

    def _deliver(self, subscription, topic, payload, ctx=None):
        """Fire-and-forget delivery (QoS 0) under the in-flight bound.

        A faulted link loses the message; the broker counts the drop AND
        tells the subscription (``on_lag``), so consumers can detect
        at-most-once gaps instead of discovering them from silence --
        the gap the data-centric substrate closes with replayable watch
        history.  A full in-flight window sheds per the subscription's
        overflow policy before the message ever reaches the wire.
        """
        if (subscription.max_inflight is not None
                and subscription.inflight >= subscription.max_inflight):
            self.shed += 1
            if subscription.overflow == REJECT:
                # A consumer this far behind is evicted: cancel + notify,
                # the broker-side analogue of a forced watch resync.
                self.evicted += 1
                subscription._lost(topic, shed=True)
                subscription.cancel()
                if subscription.on_close is not None:
                    subscription.on_close()
                return
            # shed_oldest cannot recall bytes already on the wire, so
            # both shed policies drop the incoming message; they differ
            # only on queues that still hold their items.
            subscription._lost(topic, shed=True)
            return
        link = self.network.link(self.location, subscription.location)

        def on_arrival(msg):
            subscription.inflight -= 1
            if ctx is not None:
                with use(ctx):
                    subscription.handler(*msg)
            else:
                subscription.handler(*msg)

        subscription.inflight += 1
        subscription.peak_inflight = max(subscription.peak_inflight,
                                         subscription.inflight)
        arrival = link.send(on_arrival, (topic, payload))
        if arrival is None:
            subscription.inflight -= 1
            self.dropped += 1
            subscription._lost(topic)
            return
        subscription.delivered += 1
        self.delivered += 1

