"""Client-side convenience wrapper over the broker."""

from repro.pubsub.codec import MessageCodec


class PubSubClient:
    """A service's connection to the broker, bound to its location.

    Publishing/subscribing with codecs reproduces the real workflow:
    the payload on the wire is bytes; both ends must hold the codec.

    With a :class:`repro.faults.RetryPolicy` attached, *publishes* ride
    through partitioned links to the broker with backoff.  Downstream
    delivery stays QoS 0 (the broker may drop it) -- subscribers wanting
    more must use the data-centric substrate.
    """

    def __init__(self, broker, location, retry_policy=None):
        self.broker = broker
        self.env = broker.env
        self.location = location
        self.retry_policy = retry_policy
        self.subscriptions = []

    def publish(self, topic, message, codec=None, retain=False):
        """Publish a message (encoded when ``codec`` given); process event."""
        payload = codec.encode(message) if codec is not None else message
        if self.retry_policy is None:
            return self.broker.publish(topic, payload, self.location,
                                       retain=retain)
        return self.retry_policy.execute(
            self.env,
            lambda: self.broker.publish(topic, payload, self.location,
                                        retain=retain),
        )

    def subscribe(self, pattern, handler, codec=None):
        """Subscribe; ``handler(topic, message)`` gets decoded messages.

        Decoding failures are delivered as ``handler(topic, CodecError)``
        so subscribers can observe (and count) breakage rather than
        silently dropping it.
        """
        if codec is None:
            wrapped = handler
        else:
            def wrapped(topic, payload):
                from repro.errors import ReproError

                try:
                    message = codec.decode(payload)
                except ReproError as exc:
                    handler(topic, exc)
                    return
                handler(topic, message)

        subscription = self.broker.subscribe(pattern, wrapped, self.location)
        self.subscriptions.append(subscription)
        return subscription

    def disconnect(self):
        for subscription in self.subscriptions:
            subscription.cancel()
        self.subscriptions = []


__all__ = ["MessageCodec", "PubSubClient"]
