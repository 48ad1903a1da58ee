"""Porting legacy RPC services into the Knactor pattern (paper §5).

"We expect the use of Knactor with existing systems can be facilitated
through the use of proxies or porting mechanisms."

:class:`RpcAdapterReconciler` is that proxy: it gives an *unmodified*
legacy RPC service a data store.  The adapter watches the store; when an
object has all the fields the legacy API needs (and no result yet), it
builds the request from the store state, calls the legacy service, and
writes the response fields back.  From the rest of the application's
perspective the legacy service is now a knactor -- integrators compose
it through state like everything else.

Example: wrapping the legacy ShippingService (gRPC) so the retail Cast
can use it unchanged::

    adapter = RpcAdapterReconciler(
        channel=channel_to_legacy_shipping,
        service="ShippingService",
        method="ShipOrder",
        request_map={"items": "items", "address": "addr", "method": "method"},
        response_map={"id": "tracking_id", "quote.price": "shipping_cost"},
        guard_fields=("addr",),
        done_field="id",
    )
"""

from repro.core.reconciler import Reconciler
from repro.errors import ConfigurationError, RPCStatusError
from repro.util.paths import get_path, set_path


class RpcAdapterReconciler(Reconciler):
    """Bridges one store object kind to one legacy RPC method."""

    #: Retry delay after a failed legacy call (transient errors).
    retry_delay = 0.25
    #: Give up after this many failed calls per object.
    max_call_attempts = 3

    def __init__(
        self,
        channel,
        service,
        method,
        request_map,
        response_map,
        guard_fields=(),
        done_field=None,
    ):
        super().__init__(f"rpc-adapter-{service}.{method}")
        if not request_map or not response_map:
            raise ConfigurationError("request_map and response_map are required")
        if done_field is None:
            raise ConfigurationError(
                "done_field is required (marks objects already processed)"
            )
        self.channel = channel
        self.service = service
        self.method = method
        self.request_map = dict(request_map)  # rpc field -> store path
        self.response_map = dict(response_map)  # store path -> rpc field
        self.guard_fields = tuple(guard_fields) or tuple(self.request_map.values())
        self.done_field = done_field
        self.calls_made = 0
        self.failures = []
        self._attempts = {}

    def _ready(self, obj):
        if obj is None:
            return False
        if get_path(obj, self.done_field, default=None) is not None:
            return False  # already processed
        return all(
            get_path(obj, path, default=None) is not None
            for path in self.guard_fields
        )

    def _build_request(self, obj):
        request = {}
        for rpc_field, store_path in self.request_map.items():
            value = get_path(obj, store_path, default=None)
            if value is not None:
                request[rpc_field] = value
        return request

    def reconcile(self, ctx, key, obj):
        if not self._ready(obj):
            return
        attempts = self._attempts.get(key, 0)
        if attempts >= self.max_call_attempts:
            return  # poisoned object; leave it for operators
        self._attempts[key] = attempts + 1
        try:
            response = yield self.channel.call(
                self.service, self.method, self._build_request(obj)
            )
        except RPCStatusError as exc:
            self.failures.append((ctx.env.now, key, exc.code))
            ctx.trace("adapter-call-failed", key=key, code=exc.code)
            yield ctx.env.timeout(self.retry_delay)
            self.requeue(key)
            return
        self.calls_made += 1
        patch = {}
        for store_path, rpc_field in self.response_map.items():
            if rpc_field in response:
                set_path(patch, store_path, response[rpc_field])
        if patch:
            yield ctx.store.patch(key, patch)
        ctx.trace("adapter-call-ok", key=key)
