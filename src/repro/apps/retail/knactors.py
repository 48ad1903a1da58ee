"""Reconcilers for the retail knactors.

Note what is *absent* here: no reconciler imports another service's
schema, stub, or store.  Each acts only on its own externalized state;
the Cast integrator (see :mod:`repro.apps.retail.knactor_app`) does all
cross-service composition.
"""

from repro.core import Reconciler
from repro.config import shipment_latency_model

#: Carrier quotes by shipment method (USD).
SHIPPING_RATES = {"ground": 7.9, "air": 24.5}


class CheckoutReconciler(Reconciler):
    """Completes orders once their external fields have been filled."""

    def reconcile(self, ctx, key, obj):
        if obj is None or obj.get("status") == "fulfilled":
            return
        filled = all(
            obj.get(field) is not None
            for field in ("shippingCost", "paymentID", "trackingID")
        )
        if not filled:
            return
        total = round(obj.get("cost", 0.0) + obj["shippingCost"], 4)
        ctx.trace("order-fulfilled", key=key)
        yield ctx.store.patch(
            key, {"status": "fulfilled", "totalCost": total}
        )


class ShippingReconciler(Reconciler):
    """Processes shipments: calls the carrier, posts id + quote.

    The carrier call (FedEx API in the paper) dominates Table 2's
    latency; its service time is a calibrated log-normal (~446 ms).
    """

    def __init__(self, seed=None):
        super().__init__("shipping")
        self._carrier = shipment_latency_model(seed=seed)

    def reconcile(self, ctx, key, obj):
        if obj is None or obj.get("id") or obj.get("addr") is None:
            return
        ctx.trace("fedex.begin", key=key)
        yield ctx.env.timeout(self._carrier.sample())
        method = obj.get("method", "ground")
        price = SHIPPING_RATES.get(method, SHIPPING_RATES["ground"])
        ctx.trace("fedex.done", key=key)
        yield ctx.store.patch(
            key,
            {
                "id": f"trk-{key}",
                "quote": {"price": price, "currency": "USD"},
                "status": "shipped",
            },
        )


class PaymentReconciler(Reconciler):
    """Charges the processor once amount + currency are present."""

    processor_time = 0.032

    def reconcile(self, ctx, key, obj):
        if obj is None or obj.get("id") or obj.get("amount") is None:
            return
        yield ctx.env.timeout(self.processor_time)
        yield ctx.store.patch(
            key, {"id": f"ch-{key}", "status": "charged"}
        )


class EmailReconciler(Reconciler):
    """Sends queued notifications."""

    smtp_time = 0.012

    def reconcile(self, ctx, key, obj):
        if obj is None or obj.get("sent") or obj.get("to") is None:
            return
        yield ctx.env.timeout(self.smtp_time)
        ctx.trace("email-sent", key=key)
        yield ctx.store.patch(key, {"sent": True})


class CartReconciler(Reconciler):
    """Clears carts after checkout."""

    def reconcile(self, ctx, key, obj):
        if obj is None or not obj.get("checkedOut") or not obj.get("items"):
            return
        yield ctx.store.patch(key, {"items": {}})


class ProductCatalogReconciler(Reconciler):
    """Owns the catalog; nothing to reconcile beyond presence."""


class CurrencyReconciler(Reconciler):
    """Seeds the conversion-rate table into its own store."""

    RATES = {"USD": 1.0, "EUR": 0.9259, "GBP": 0.7874, "CAD": 1.3699}

    def setup(self, ctx):
        for code, rate in self.RATES.items():
            yield ctx.store.create(f"rate/{code}", {"code": code, "ratePerUSD": rate})


class RecommendationReconciler(Reconciler):
    """Fills suggestions for any session that asks."""

    def reconcile(self, ctx, key, obj):
        if obj is None or obj.get("productIDs") or obj.get("userID") is None:
            return
        yield ctx.store.patch(
            key, {"productIDs": ["mug", "notebook", "desk-lamp"]}
        )


class AdReconciler(Reconciler):
    """Chooses a creative for each placement context."""

    def reconcile(self, ctx, key, obj):
        if obj is None or obj.get("creative") or obj.get("context") is None:
            return
        yield ctx.store.patch(key, {"creative": f"ad-for-{obj['context']}"})


class FrontendReconciler(Reconciler):
    """Tracks sessions; presentation only."""


class LoadGenReconciler(Reconciler):
    """Bookkeeping for workload runs."""
