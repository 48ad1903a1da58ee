"""A live HTTP gateway in front of the retail Data Exchange.

This is the "servable system" face of the repro: the knactor retail app
built on the realtime backend, fronted by a :class:`repro.rest.RestServer`
bound to a real TCP port.  A POST creates an order in Checkout's store
and the integrator cast does the rest -- the gateway holds none of the
composition logic, exactly the paper's point.

Routes:

- ``GET  /healthz``           liveness + backend + shard count
- ``POST /orders``            create an order (body: order fields,
  optional ``key`` -- minted/namespaced under ``order/``); 201 with
  the stored view
- ``GET  /orders/{key}``      current order state
- ``GET  /metrics``           orders placed / fulfilled, requests served

Use :func:`serve_retail` (or ``knactor serve retail --realtime``) to
bind and drive it.
"""

from itertools import count
from urllib.parse import unquote

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.core.optimizer import K_APISERVER
from repro.errors import ConfigurationError, ReproError
from repro.rest import HTTPError, Response, RestServer


class RetailGateway:
    """Routes HTTP verbs onto a built :class:`RetailKnactorApp`."""

    def __init__(self, app, location="retail-gateway"):
        self.app = app
        self._keys = count(1)
        self.server = RestServer(app.env, app.runtime.network, location)
        self.server.route("GET", "/healthz", self.healthz)
        self.server.route("POST", "/orders", self.create_order)
        self.server.route("GET", "/orders/{key}", self.get_order)
        self.server.route("GET", "/metrics", self.metrics)

    def serve(self, host="127.0.0.1", port=0):
        """Bind the gateway to a real TCP socket (realtime only)."""
        return self.server.serve(host=host, port=port)

    # -- handlers ----------------------------------------------------------

    def healthz(self, request):
        return {
            "status": "ok",
            "backend": self.app.env.backend,
            "knactors": len(self.app.runtime.knactors),
        }

    def create_order(self, request):
        if not request.body or not isinstance(request.body, dict):
            raise HTTPError(400, "order body required (a JSON object)")
        body = dict(request.body)
        # The DXG binds objects by the key's kind/cid structure, so an
        # order the Cast should fulfil must live under the "order" kind.
        key = body.pop("key", None)
        if key is None:
            key = f"order/g{next(self._keys):05d}"
        elif "/" not in key:
            key = f"order/{key}"
        elif not key.startswith("order/"):
            raise HTTPError(400, f"order keys live under 'order/', got {key!r}")
        try:
            yield self.app.place_order(key, body)
        except ReproError as exc:
            raise HTTPError(400, str(exc))
        view = yield self.app.order(key)
        return Response(201, {"key": key, "order": view["data"],
                              "revision": view["revision"]})

    def get_order(self, request):
        # Store keys may contain '/' (the workload's "order/o00001");
        # clients percent-encode them into one path segment.
        key = unquote(request.params["key"])
        try:
            view = yield self.app.order(key)
        except ReproError:
            raise HTTPError(404, f"no order {key!r}")
        return {"key": key, "order": view["data"], "revision": view["revision"]}

    def metrics(self, request):
        handle = self.app.runtime.handle_of("checkout")
        views = yield handle.list()
        fulfilled = sum(
            1 for v in views if v["data"].get("status") == "fulfilled"
        )
        return {
            "orders_placed": len(self.app.orders_placed),
            "orders_stored": len(views),
            "orders_fulfilled": fulfilled,
            "requests_served": self.server.requests_served,
        }


def serve_retail(host="127.0.0.1", port=0, profile=K_APISERVER,
                 topology=None, factor=1.0, seed=7):
    """Build the retail app on the realtime backend and bind a gateway.

    Returns ``(app, gateway, listener)`` with the socket already bound
    (read ``listener.port``).  Drive traffic by running the kernel:
    ``app.env.run()`` idles waiting for connections until
    ``listener.stop()``.
    """
    if factor < 0:
        raise ConfigurationError(f"negative time factor {factor}")
    from repro.realtime import RealtimeEnvironment

    env = RealtimeEnvironment(factor=factor)
    app = RetailKnactorApp.build(
        env=env, profile=profile, seed=seed, topology=topology
    )
    gateway = RetailGateway(app)
    listener = gateway.serve(host=host, port=port)
    return app, gateway, listener
