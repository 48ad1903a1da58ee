"""The storefront read path: an order-details page as a composed view.

The retail app writes through three knactors -- Checkout owns the order
(``order/<cid>``, carrying its ``cid``), Shipping the shipment and
Payment the charge (keyed ``<cid>``).  The "order details" page needs
all three *composed*: under an RPC-composition architecture that is 3
sequential round trips per order (and a page listing N orders pays 3N),
which is exactly the read-side fan-out the paper's data-centric
composition argument targets.

This module declares that page as a :class:`~repro.federation.ComposedView`
(``storefront-orders``) over the three stores, registers it on the
app's exchange, and exposes the page read through the unified
``de.query`` API -- so the federation planner serves it from the
incrementally maintained materialized copy whenever its staleness is
within the page's freshness bound, and falls back to scatter-gather
federated reads when it is not.

:func:`rpc_order_details` implements the RPC-composition baseline
against the *same* stores and masks -- the benchmark's control arm.
"""

from repro.errors import NotFoundError
from repro.federation import ComposedView, ViewSource

#: The composed view: order root, shipment and charge joined on its cid.
STOREFRONT_VIEW_NAME = "storefront-orders"

#: The page principal every storefront read acts as.
STOREFRONT_PRINCIPAL = "storefront"


def storefront_view(freshness=0.25):
    """The order-details page spec (checkout |x| shipping |x| payment)."""
    return ComposedView(
        name=STOREFRONT_VIEW_NAME,
        sources=(
            ViewSource(alias="order", store="knactor-checkout"),
            ViewSource(alias="shipment", store="knactor-shipping", on="cid"),
            ViewSource(alias="charge", store="knactor-payment", on="cid"),
        ),
        freshness=freshness,
        description="storefront order-details page",
    )


def attach_storefront(app, *, freshness=0.25):
    """Register the storefront view, materialized, on a built retail app.

    Wires the obs plane (per-view metrics + ``view_*`` spans) when the
    app was built with ``obs=True``, and grants the storefront principal
    the ``viewer`` role on the view.  Returns the
    :class:`~repro.federation.RegisteredView`.
    """
    obs = app.runtime.obs
    registered = app.de.register_view(
        storefront_view(freshness),
        materialize=True,
        registry=obs.registry if obs is not None else None,
        tracer=obs.causal if obs is not None else None,
    )
    app.de.grant(STOREFRONT_PRINCIPAL, STOREFRONT_VIEW_NAME, role="viewer")
    return registered


def order_details(app, keys=None, *, freshness=None, consistency=None):
    """One page read through the unified query API; process event."""
    return app.de.query(
        STOREFRONT_VIEW_NAME, freshness=freshness, consistency=consistency,
        principal=STOREFRONT_PRINCIPAL, keys=keys,
    )


def rpc_order_details(app, keys):
    """The RPC-composition baseline: 3 sequential GETs per order.

    Reads the same three stores through reader handles bound to the
    same principal (so the same secret masks apply) and composes the
    same record shape as the view -- but the way a service-oriented
    storefront would: order, then shipment, then charge by its cid, no
    fan-out parallelism and no reuse across page loads.  Returns a
    process event yielding the composed records.
    """
    de, principal = app.de, STOREFRONT_PRINCIPAL
    handles = {
        "order": de.handle("knactor-checkout", principal=principal),
        "shipment": de.handle("knactor-shipping", principal=principal),
        "charge": de.handle("knactor-payment", principal=principal),
    }

    def page(env):
        records = []
        for key in keys:
            try:
                order = yield handles["order"].get(key)
            except NotFoundError:
                continue
            row = {**order["data"], "_key": key}
            cid = row.get("cid")
            for alias in ("shipment", "charge"):
                try:
                    view = yield handles[alias].get(cid)
                except NotFoundError:
                    row[alias] = None
                else:
                    row[alias] = {**view["data"], "_key": cid}
            records.append(row)
        return records

    return app.env.process(page(app.env))


def grant_rpc_baseline(app):
    """Reader grants the RPC baseline needs on the three source stores."""
    for store in ("knactor-checkout", "knactor-shipping", "knactor-payment"):
        app.de.grant(STOREFRONT_PRINCIPAL, store, role="reader")
