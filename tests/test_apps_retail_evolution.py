"""Live schema evolution (task T3) and transactional composition.

Table 1 prices T3 from artifacts; this test performs it against a RUNNING
app: the Shipping knactor evolves its schema to v2 (nested destination,
item quantities), a v2-speaking Shipping2 reconciler comes online, and
the only change on the composition side is a Cast reconfiguration.
Checkout never learns any of this happened.
"""

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core import Knactor, Reconciler, StoreBinding
from repro.core.dxg.executor import ExecutorOptions
from repro.core.optimizer import K_REDIS
from repro.errors import SchemaError

SHIPPING_V2 = """\
schema: OnlineRetail/v2/Shipping2/Shipment
items: array # +kr: external
destination: # +kr: external
  street_address: string
  zip_code: string
method: string # +kr: external
id: string
quote:
  price: number
  currency: string
"""

V2_DXG = """\
Input:
  C: OnlineRetail/v1/Checkout/knactor-checkout
  S: OnlineRetail/v2/Shipping2/knactor-shipping2
  P: OnlineRetail/v1/Payment/knactor-payment
DXG:
  C.order:
    shippingCost: >
      currency_convert(S.quote.price,
      S.quote.currency, this.currency)
    paymentID: P.id
    trackingID: S.id
  P:
    amount: C.order.totalCost
    currency: C.order.currency
  S:
    items: '[{"product_name": item.name, "quantity": 1} for item in C.order.items]'
    destination:
      street_address: C.order.address
      zip_code: '"00000"'
    method: >
      "air" if C.order.cost > 1000 else "ground"
"""


class ShippingV2Reconciler(Reconciler):
    """Speaks the v2 shape: nested destination, structured items."""

    def reconcile(self, ctx, key, obj):
        if obj is None or obj.get("id") or obj.get("destination") is None:
            return
        yield ctx.env.timeout(0.05)
        yield ctx.store.patch(
            key,
            {"id": f"v2-{key}", "quote": {"price": 8.5, "currency": "USD"}},
        )


class TestLiveT3:
    def test_schema_evolution_with_cast_remap_only(self, env, zero_net):
        app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False)
        workload = OrderWorkload(seed=13)

        # Sanity: the v1 composition works.
        key, data = workload.next_order()
        app.env.run(until=app.place_order(key, data))
        app.run_until_quiet(max_seconds=30.0)
        order = app.env.run(until=app.order(key))["data"]
        assert order["trackingID"].startswith("trk-")

        # The new vendor service (v2 schema) comes online.
        app.runtime.add_knactor(
            Knactor("shipping2",
                    [StoreBinding("default", "object", SHIPPING_V2)],
                    reconciler=ShippingV2Reconciler())
        )
        app.de.grant("retail-cast", "knactor-shipping2", role="integrator")

        # The ONLY composition change: reconfigure the running Cast.
        app.cast.reconfigure(spec=V2_DXG)

        key2, data2 = workload.next_order()
        key2 = "order/v2-era"
        app.env.run(until=app.place_order(key2, data2))
        app.run_until_quiet(max_seconds=30.0)
        order = app.env.run(until=app.order(key2))["data"]
        assert order["trackingID"].startswith("v2-")
        assert order["status"] == "fulfilled"

        # The v2 shipment has the restructured shape.
        shipment = app.env.run(
            until=app.runtime.handle_of("shipping2").get("v2-era")
        )["data"]
        assert shipment["destination"]["street_address"] == data2["address"]
        assert all(
            set(item) == {"product_name", "quantity"}
            for item in shipment["items"]
        )

    def test_breaking_schema_update_requires_explicit_force(self, env):
        app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False)
        narrower = "schema: OnlineRetail/v1/Shipping/Shipment\nid: string\n"
        with pytest.raises(SchemaError):
            app.de.update_schema("knactor-shipping", narrower)
        delta = app.de.update_schema(
            "knactor-shipping", narrower, allow_breaking=True
        )
        assert "addr" in delta.removed


class TestTransactionalApp:
    def test_full_app_with_transactional_cast(self):
        """The retail app with atomic exchange commits, end to end."""
        profile = K_REDIS
        app = RetailKnactorApp.build(profile=profile, with_notify=False)
        # Swap in a transactional executor configuration at run time.
        app.cast.options = ExecutorOptions(
            transactional=True, trust_cache_for_missing=True
        )
        app.cast.reconfigure(body={})  # rebuild executor with new options
        workload = OrderWorkload(seed=5)
        key, data = workload.next_order()
        app.env.run(until=app.place_order(key, data))
        app.run_until_quiet(max_seconds=30.0)
        order = app.env.run(until=app.order(key))["data"]
        assert order["status"] == "fulfilled"
        assert order["trackingID"].startswith("trk-")
        assert order["paymentID"].startswith("ch-")
