"""End-to-end tests for the Cast integrator (watch-driven DXG execution)."""

import pytest

from repro.core import Cast, Knactor, KnactorRuntime, Reconciler, StoreBinding
from repro.errors import ConfigurationError, DXGAnalysisError
from repro.exchange import ObjectDE
from repro.store import ApiServer, MemKV

CHECKOUT = """\
schema: Retail/v1/Checkout/Order
items: array
address: string
cost: number
currency: string
shippingCost: number # +kr: external
trackingID: string # +kr: external
"""

SHIPPING = """\
schema: Retail/v1/Shipping/Shipment
items: array # +kr: external
addr: string # +kr: external
method: string # +kr: external
id: string
quote:
  price: number
  currency: string
"""

DXG = """\
Input:
  C: Retail/v1/Checkout/knactor-checkout
  S: Retail/v1/Shipping/knactor-shipping
DXG:
  C.order:
    shippingCost: currency_convert(S.quote.price, S.quote.currency, this.currency)
    trackingID: S.id
  S:
    items: '[item.name for item in C.order.items]'
    addr: C.order.address
    method: >
      "air" if C.order.cost > 1000 else "ground"
"""


class ShippingReconciler(Reconciler):
    """Quotes and assigns a tracking id to every shipment it sees."""

    def reconcile(self, ctx, key, obj):
        if obj is None or obj.get("id") or not obj.get("addr"):
            return
        yield ctx.store.patch(
            key,
            {
                "id": f"trk-{key}",
                "quote": {"price": 7.0, "currency": "USD"},
            },
        )


def build_runtime(env, net, backend_cls=ApiServer, pushdown=False):
    runtime = KnactorRuntime(env, network=net)
    backend = backend_cls(env, net, location="object-backend", watch_overhead=0.0)
    de = ObjectDE(env, backend)
    runtime.add_exchange("object", de)
    runtime.add_knactor(
        Knactor("checkout", [StoreBinding("default", "object", CHECKOUT)])
    )
    runtime.add_knactor(
        Knactor(
            "shipping",
            [StoreBinding("default", "object", SHIPPING)],
            reconciler=ShippingReconciler(),
        )
    )
    de.grant("retail-cast", "knactor-checkout", role="integrator")
    de.grant("retail-cast", "knactor-shipping", role="integrator")
    cast = Cast("retail-cast", DXG, pushdown=pushdown)
    runtime.add_integrator(cast)
    runtime.start()
    return runtime, de, cast


def place_order(runtime, call, cost=100, key="order/o1"):
    checkout = runtime.handle_of("checkout")
    call(
        checkout.create(
            key,
            {
                "items": [{"name": "mug"}, {"name": "pen"}],
                "address": "12 Elm St",
                "cost": cost,
                "currency": "USD",
            },
        )
    )
    return checkout


class TestEndToEnd:
    def test_full_exchange_loop(self, env, zero_net, call):
        runtime, _de, cast = build_runtime(env, zero_net)
        checkout = place_order(runtime, call)
        env.run()
        # The order was filled back by the cast after the shipping
        # reconciler produced id + quote.
        order = call(checkout.get("order/o1"))["data"]
        assert order["trackingID"] == "trk-o1"
        assert order["shippingCost"] == pytest.approx(7.0)
        shipment = call(runtime.handle_of("shipping").get("o1"))["data"]
        assert shipment["items"] == ["mug", "pen"]
        assert shipment["method"] == "ground"
        assert cast.exchanges_run >= 2

    def test_no_code_coupling(self, env, zero_net, call):
        """Checkout never references shipping: composition is external."""
        runtime, de, _cast = build_runtime(env, zero_net)
        place_order(runtime, call)
        env.run()
        matrix = de.acl.exchange_matrix()
        # Checkout touches only its own store.
        checkout_targets = {s for (p, s) in matrix if p == "checkout"}
        assert checkout_targets == {"knactor-checkout"}
        shipping_targets = {s for (p, s) in matrix if p == "shipping"}
        assert shipping_targets == {"knactor-shipping"}
        # Only the integrator touches both.
        cast_targets = {s for (p, s) in matrix if p == "retail-cast"}
        assert cast_targets == {"knactor-checkout", "knactor-shipping"}

    def test_conditional_policy(self, env, zero_net, call):
        runtime, _de, _cast = build_runtime(env, zero_net)
        place_order(runtime, call, cost=5000, key="order/big")
        env.run()
        shipment = call(runtime.handle_of("shipping").get("big"))["data"]
        assert shipment["method"] == "air"

    def test_many_orders_all_complete(self, env, zero_net, call):
        runtime, _de, _cast = build_runtime(env, zero_net)
        checkout = runtime.handle_of("checkout")
        for i in range(20):
            place_order(runtime, call, key=f"order/o{i}")
        env.run()
        for i in range(20):
            order = call(checkout.get(f"order/o{i}"))["data"]
            assert order["trackingID"] == f"trk-o{i}"

    def test_system_quiesces(self, env, zero_net, call):
        runtime, _de, cast = build_runtime(env, zero_net)
        place_order(runtime, call)
        env.run()
        runs = cast.exchanges_run
        env.run(until=env.now + 60.0)
        assert cast.exchanges_run == runs


class TestReconfiguration:
    def test_add_policy_at_runtime(self, env, zero_net, call):
        runtime, _de, cast = build_runtime(env, zero_net)
        place_order(runtime, call, cost=200, key="order/o1")
        env.run()
        # New composition policy: loyalty discount on shipping cost.
        generation = cast.set_assignment(
            "C.order", "shippingCost", "S.quote.price * 0.5"
        )
        assert generation == cast.generation
        place_order(runtime, call, cost=200, key="order/o2")
        env.run()
        checkout = runtime.handle_of("checkout")
        assert call(checkout.get("order/o2"))["data"]["shippingCost"] == pytest.approx(3.5)

    def test_remove_assignment(self, env, zero_net, call):
        runtime, _de, cast = build_runtime(env, zero_net)
        cast.remove_assignment("C.order", "trackingID")
        place_order(runtime, call)
        env.run()
        checkout = runtime.handle_of("checkout")
        assert "trackingID" not in call(checkout.get("order/o1"))["data"]

    def test_reconfigure_records_history(self, env, zero_net):
        runtime, _de, cast = build_runtime(env, zero_net)
        cast.set_assignment("S", "method", "'ground'")
        cast.set_assignment("S", "method", "'air'")
        assert cast.generation == 2
        assert len(cast.reconfigurations) == 2

    def test_invalid_reconfiguration_rejected_atomically(self, env, zero_net):
        runtime, _de, cast = build_runtime(env, zero_net)
        with pytest.raises(DXGAnalysisError):
            cast.set_assignment("S", "nonexistentField", "C.order.cost")
        # Old config still live.
        assert cast.generation == 0
        assert cast.executor is not None

    def test_spec_reading_its_whole_target_refused_at_bind(
            self, env, zero_net):
        runtime = KnactorRuntime(env, network=zero_net)
        de = ObjectDE(env, ApiServer(env, zero_net))
        runtime.add_exchange("object", de)
        runtime.add_knactor(
            Knactor("checkout", [StoreBinding("default", "object", CHECKOUT)])
        )
        cast = Cast("c", """\
Input:
  C: Retail/v1/Checkout/knactor-checkout
DXG:
  C.order:
    address: str(this)
""")
        with pytest.raises(DXGAnalysisError,
                           match="dependency cycle: C.order.address"):
            runtime.add_integrator(cast)
        assert cast.executor is None

    def test_amend_without_spec_requires_existing(self, env, zero_net):
        runtime = KnactorRuntime(env, network=zero_net)
        de = ObjectDE(env, ApiServer(env, zero_net))
        runtime.add_exchange("object", de)
        cast = Cast("c", DXG)
        with pytest.raises(ConfigurationError):
            cast._apply_configuration(spec=DXG, body={})


class TestPushdown:
    def test_pushdown_end_to_end(self, env, zero_net, call):
        runtime, _de, cast = build_runtime(env, zero_net, backend_cls=MemKV,
                                           pushdown=True)
        checkout = place_order(runtime, call)
        env.run()
        order = call(checkout.get("order/o1"))["data"]
        assert order["trackingID"] == "trk-o1"
        assert order["shippingCost"] == pytest.approx(7.0)

    def test_pushdown_requires_udf_backend(self, env, zero_net):
        with pytest.raises(ConfigurationError):
            build_runtime(env, zero_net, backend_cls=ApiServer, pushdown=True)

    def test_pushdown_is_faster_than_remote_on_slow_network(self, env, call):
        from repro.simnet import FixedLatency, Network

        def time_to_complete(pushdown):
            local_env = type(env)()
            net = Network(local_env, default_latency=FixedLatency(0.002))
            runtime, _de, _cast = build_runtime(
                local_env, net, backend_cls=MemKV, pushdown=pushdown
            )
            checkout = runtime.handle_of("checkout")
            proc = checkout.create(
                "order/o1",
                {"items": [{"name": "mug"}], "address": "x",
                 "cost": 10, "currency": "USD"},
            )
            local_env.run(until=proc)
            local_env.run()
            return local_env.now

        assert time_to_complete(True) < time_to_complete(False)


class TestStatus:
    def test_status_reports_counters(self, env, zero_net, call):
        runtime, _de, cast = build_runtime(env, zero_net)
        place_order(runtime, call)
        env.run()
        status = cast.stats()
        assert status["exchanges_run"] >= 1
        assert status["assignments"] == 5
        assert status["started"]
