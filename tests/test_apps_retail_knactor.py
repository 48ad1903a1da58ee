"""Integration tests for the Knactor retail app (all three profiles)."""

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_APISERVER, K_REDIS, K_REDIS_UDF
from repro.errors import AccessDeniedError


def place_and_settle(app, count=1, seed=7):
    workload = OrderWorkload(seed=seed)
    keys = []
    for _ in range(count):
        key, data = workload.next_order()
        data["email"] = "shopper@example.com"
        app.env.run(until=app.place_order(key, data))
        keys.append((key, data))
    app.run_until_quiet(max_seconds=60.0)
    return keys


@pytest.mark.parametrize("profile", [K_APISERVER, K_REDIS, K_REDIS_UDF],
                         ids=lambda p: p.name)
class TestProfiles:
    def test_order_fulfilled_end_to_end(self, profile):
        app = RetailKnactorApp.build(profile=profile)
        [(key, data)] = place_and_settle(app)
        order = app.env.run(until=app.order(key))["data"]
        assert order["status"] == "fulfilled"
        assert order["trackingID"].startswith("trk-")
        assert order["paymentID"].startswith("ch-")
        assert order["shippingCost"] > 0
        assert order["totalCost"] == pytest.approx(
            order["cost"] + order["shippingCost"]
        )

    def test_shipment_created_correctly(self, profile):
        app = RetailKnactorApp.build(profile=profile)
        [(key, data)] = place_and_settle(app)
        cid = key.split("/", 1)[1]
        shipment = app.env.run(until=app.shipment(cid))["data"]
        assert sorted(shipment["items"]) == sorted(data["items"])
        assert shipment["addr"] == data["address"]
        assert shipment["status"] == "shipped"

    def test_charge_matches_order(self, profile):
        app = RetailKnactorApp.build(profile=profile)
        [(key, data)] = place_and_settle(app)
        cid = key.split("/", 1)[1]
        charge = app.env.run(until=app.charge(cid))["data"]
        assert charge["currency"] == data["currency"]
        assert charge["status"] == "charged"

    def test_confirmation_email_sent(self, profile):
        app = RetailKnactorApp.build(profile=profile)
        [(key, _data)] = place_and_settle(app)
        cid = key.split("/", 1)[1]
        email = app.env.run(
            until=app.runtime.handle_of("email").get(f"notice/{cid}")
        )["data"]
        assert email["sent"] is True
        assert email["orderRef"] == cid
        assert email["to"] == "shopper@example.com"


class TestPolicies:
    def test_air_shipping_for_expensive_orders(self):
        app = RetailKnactorApp.build(profile=K_REDIS)
        keys = place_and_settle(app, count=8, seed=3)
        saw = set()
        for key, data in keys:
            cid = key.split("/", 1)[1]
            shipment = app.env.run(until=app.shipment(cid))["data"]
            expected = "air" if data["cost"] > 1000 else "ground"
            assert shipment["method"] == expected
            saw.add(expected)
        assert saw == {"air", "ground"}  # the workload exercises both

    def test_card_token_hidden_from_integrator(self):
        app = RetailKnactorApp.build(profile=K_REDIS)
        [(key, _data)] = place_and_settle(app)
        handle = app.de.handle("knactor-checkout", principal="retail-cast")
        view = app.env.run(until=handle.get(key))
        assert "cardToken" not in view["data"]
        owner_view = app.env.run(until=app.order(key))
        assert owner_view["data"]["cardToken"].startswith("tok-")

    def test_integrator_cannot_write_internal_fields(self):
        app = RetailKnactorApp.build(profile=K_REDIS)
        [(key, _data)] = place_and_settle(app)
        handle = app.de.handle("knactor-checkout", principal="retail-cast")
        with pytest.raises(AccessDeniedError):
            app.env.run(until=handle.patch(key, {"cost": 0.01}))


class TestVisibility:
    def test_exchange_matrix_shows_composition(self):
        app = RetailKnactorApp.build(profile=K_REDIS)
        place_and_settle(app)
        matrix = app.de.acl.exchange_matrix()
        cast_stores = {s for (p, s) in matrix if p == "retail-cast"}
        assert cast_stores == {
            "knactor-checkout", "knactor-shipping", "knactor-payment",
        }
        # Services only ever touch their own stores.
        for service in ("checkout", "shipping", "payment", "email"):
            stores = {s for (p, s) in matrix if p == service}
            assert stores <= {f"knactor-{service}"}

    def test_runtime_reconfiguration_swaps_policy(self):
        app = RetailKnactorApp.build(profile=K_REDIS)
        place_and_settle(app, count=1)
        # Everything now ships by air, regardless of price: one config op.
        app.cast.set_assignment("S", "method", "'air'")
        workload = OrderWorkload(seed=99)
        _key, data = workload.next_order()
        key = "order/after-reconfig"
        data["cost"] = 5.0  # cheap, would have been ground before
        app.env.run(until=app.place_order(key, data))
        app.run_until_quiet(max_seconds=60.0)
        cid = key.split("/", 1)[1]
        shipment = app.env.run(until=app.shipment(cid))["data"]
        assert shipment["method"] == "air"


class TestThroughput:
    def test_fifty_orders_all_fulfil(self):
        app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False)
        workload = OrderWorkload(seed=5)

        def driver(env):
            for _ in range(50):
                key, data = workload.next_order()
                yield app.place_order(key, data)
                yield env.timeout(0.05)

        app.env.process(driver(app.env))
        app.run_until_quiet(max_seconds=300.0)
        fulfilled = 0
        for key in app.orders_placed:
            order = app.env.run(until=app.order(key))["data"]
            fulfilled += order["status"] == "fulfilled"
        assert fulfilled == 50
