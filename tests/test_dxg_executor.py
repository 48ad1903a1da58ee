"""End-to-end tests for DXG execution against real DE handles."""

import pytest

from repro.core.dxg import DXGExecutor, parse_dxg
from repro.core.dxg.executor import ExchangeStats, ExecutorOptions
from repro.errors import ConfigurationError, ExpressionError
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


@pytest.fixture
def setup(env, zero_net):
    backend = ApiServer(env, zero_net, watch_overhead=0.0)
    de = ObjectDE(env, backend)
    de.host_store("knactor-checkout", CHECKOUT, owner="checkout")
    de.host_store("knactor-shipping", SHIPPING, owner="shipping")
    de.grant("cast", "knactor-checkout", role="integrator")
    de.grant("cast", "knactor-shipping", role="integrator")
    spec = parse_dxg(DXG)
    executor = DXGExecutor(
        env,
        spec,
        handles={
            "C": de.handle("knactor-checkout", principal="cast"),
            "S": de.handle("knactor-shipping", principal="cast"),
        },
    )
    return de, executor


def make_order(cost=100, currency="USD"):
    return {
        "items": [{"name": "mug"}, {"name": "pen"}],
        "address": "12 Elm St",
        "cost": cost,
        "currency": currency,
    }


class TestExchange:
    def test_creates_shipment_from_order(self, env, setup, call):
        de, executor = setup
        checkout = de.handle("knactor-checkout", principal="checkout")
        call(checkout.create("order/o1", make_order()))
        stats = call(executor.exchange("o1"))
        assert stats.creates == 1
        shipping = de.handle("knactor-shipping", principal="shipping")
        shipment = call(shipping.get("o1"))["data"]
        assert shipment["items"] == ["mug", "pen"]
        assert shipment["addr"] == "12 Elm St"
        assert shipment["method"] == "ground"

    def test_conditional_policy_air_over_1000(self, env, setup, call):
        de, executor = setup
        checkout = de.handle("knactor-checkout", principal="checkout")
        call(checkout.create("order/o1", make_order(cost=1500)))
        call(executor.exchange("o1"))
        shipping = de.handle("knactor-shipping", principal="shipping")
        assert call(shipping.get("o1"))["data"]["method"] == "air"

    def test_backfill_after_reconciler_fills_quote(self, env, setup, call):
        de, executor = setup
        checkout = de.handle("knactor-checkout", principal="checkout")
        shipping = de.handle("knactor-shipping", principal="shipping")
        call(checkout.create("order/o1", make_order(currency="USD")))
        call(executor.exchange("o1"))
        # Order not yet filled: quote/id missing on the shipment.
        order = call(checkout.get("order/o1"))["data"]
        assert "shippingCost" not in order and "trackingID" not in order
        # The Shipping "reconciler" produces id + quote.
        call(
            shipping.patch(
                "o1", {"id": "trk-9", "quote": {"price": 10.0, "currency": "EUR"}}
            )
        )
        call(executor.exchange("o1"))
        order = call(checkout.get("order/o1"))["data"]
        assert order["trackingID"] == "trk-9"
        assert order["shippingCost"] == pytest.approx(10.8)

    def test_idempotent_on_unchanged_sources(self, env, setup, call):
        de, executor = setup
        checkout = de.handle("knactor-checkout", principal="checkout")
        call(checkout.create("order/o1", make_order()))
        call(executor.exchange("o1"))
        stats = call(executor.exchange("o1"))
        assert stats.writes == 0 and stats.creates == 0

    def test_missing_order_produces_nothing(self, env, setup, call):
        de, executor = setup
        stats = call(executor.exchange("ghost"))
        assert stats.writes == 0
        assert executor.totals.writes == 0

    def test_patch_only_target_never_created(self, env, setup, call):
        """The integrator must not create orders (C.order is patch-only)."""
        de, executor = setup
        shipping = de.handle("knactor-shipping", principal="shipping")
        call(shipping.create("s-lonely", {"id": "trk-1"}))
        call(executor.exchange("s-lonely"))
        checkout = de.handle("knactor-checkout", principal="checkout")
        views = call(checkout.list())
        assert views == []

    def test_source_update_propagates_on_reexchange(self, env, setup, call):
        de, executor = setup
        checkout = de.handle("knactor-checkout", principal="checkout")
        call(checkout.create("order/o1", make_order(cost=100)))
        call(executor.exchange("o1"))
        call(checkout.patch("order/o1", {"cost": 2000}))
        call(executor.exchange("o1"))
        shipping = de.handle("knactor-shipping", principal="shipping")
        assert call(shipping.get("o1"))["data"]["method"] == "air"


class TestBoundScope:
    """The executor evaluates every expression in ONE name table, bound
    at construction and re-bound in place per step."""

    def _executor(self, env, setup, body, functions=None):
        de, _ = setup
        spec = parse_dxg(
            "Input:\n"
            "  C: Retail/v1/Checkout/knactor-checkout\n"
            "  S: Retail/v1/Shipping/knactor-shipping\n"
            "Kinds:\n"
            "  C: [order]\n"
            "DXG:\n" + body
        )
        return DXGExecutor(
            env, spec,
            handles={
                "C": de.handle("knactor-checkout", principal="cast"),
                "S": de.handle("knactor-shipping", principal="cast"),
            },
            functions=functions,
        )

    def test_comprehension_body_reading_another_alias_lands(
            self, env, setup, call):
        """Alias, registered function and builtin inside a comprehension
        and a generator body: the assignment is written, not skipped."""
        de, _ = setup
        executor = self._executor(
            env, setup,
            "  C.order:\n"
            "    shippingCost: >\n"
            "      sum(len(i.name) * S.quote.price for i in this.items)\n"
            "    trackingID: >\n"
            "      str([concat(i.name, S.id) for i in this.items])\n",
        )
        checkout = de.handle("knactor-checkout", principal="checkout")
        shipping = de.handle("knactor-shipping", principal="shipping")
        call(checkout.create("order/o1", make_order()))
        call(shipping.create("o1", {"id": "-7", "quote": {"price": 2.5}}))
        stats = call(executor.exchange("o1"))
        assert stats.skipped == 0
        order = call(checkout.get("order/o1"))["data"]
        assert order["shippingCost"] == 15.0
        assert order["trackingID"] == "['mug-7', 'pen-7']"

    def test_function_registered_after_construction_is_visible(
            self, env, setup, call):
        from repro.core.dxg import standard_functions

        de, _ = setup
        functions = standard_functions()
        executor = self._executor(
            env, setup, "  S:\n    method: shout(C.order.address)\n",
            functions=functions,
        )
        checkout = de.handle("knactor-checkout", principal="checkout")
        shipping = de.handle("knactor-shipping", principal="shipping")
        call(checkout.create("order/o1", make_order()))
        stats = call(executor.exchange("o1"))
        assert stats.skipped == 1 and stats.writes == 0  # shout is unbound
        functions.register("shout", lambda text: text.upper())
        stats = call(executor.exchange("o1"))
        assert stats.skipped == 0
        assert call(shipping.get("o1"))["data"]["method"] == "12 ELM ST"
        functions.unregister("shout")
        call(checkout.patch("order/o1", {"address": "9 Oak Ave"}))
        stats = call(executor.exchange("o1"))
        assert stats.skipped == 1 and stats.writes == 0
        assert call(shipping.get("o1"))["data"]["method"] == "12 ELM ST"
        step = executor.plan.steps[0]
        with pytest.raises(ExpressionError, match=r"unbound name\(s\) \['shout'\]"):
            step.assignments[0].expression.evaluate(
                executor._bind({("C", "order"): make_order()}, "o1")
            )

    def test_cid_is_unbound_again_on_the_same_executor(self, env, setup):
        executor = self._executor(
            env, setup, "  S:\n    addr: concat(cid, '@', C.order.address)\n"
        )
        step = executor.plan.steps[0]
        objects = {("C", "order"): make_order(), ("S", ""): None}
        assert evaluated(executor, objects, cid="x") == (
            {"addr": "x@12 Elm St"}, 0)
        assert evaluated(executor, objects, cid=None) == (None, 1)
        with pytest.raises(ExpressionError, match=r"unbound name\(s\) \['cid'\]"):
            step.assignments[0].expression.evaluate(executor._bind(objects, None))
        assert evaluated(executor, objects, cid="y") == (
            {"addr": "y@12 Elm St"}, 0)

    def test_alias_named_like_a_builtin_is_data(self, env):
        """An alias shadows the builtin of the same name; other builtins
        are untouched."""
        executor = DXGExecutor(
            env,
            parse_dxg(
                "Input:\n"
                "  max: Retail/v1/Checkout/knactor-checkout\n"
                "  S: Retail/v1/Shipping/knactor-shipping\n"
                "Kinds:\n"
                "  max: [order]\n"
                "DXG:\n"
                "  S:\n"
                "    method: str(min(max.order.cost, 10))\n"
            ),
            handles={"max": None, "S": None},
        )
        objects = {("max", "order"): make_order(cost=99), ("S", ""): None}
        assert evaluated(executor, objects) == ({"method": "10"}, 0)


def evaluated(executor, objects, cid=None):
    """One exchange's evaluation of ``objects``: the shipment it
    computes, and how many assignments were not ready."""
    stats = ExchangeStats()
    return executor._fixpoint(cid, objects, stats)[("S", "")], stats.skipped


class TestOptions:
    def test_unconsolidated_issues_more_writes(self, env, zero_net, call):
        backend = ApiServer(env, zero_net, watch_overhead=0.0)
        de = ObjectDE(env, backend)
        de.host_store("knactor-checkout", CHECKOUT, owner="checkout")
        de.host_store("knactor-shipping", SHIPPING, owner="shipping")
        de.grant("cast", "knactor-checkout", role="integrator")
        de.grant("cast", "knactor-shipping", role="integrator")
        checkout = de.handle("knactor-checkout", principal="checkout")
        call(checkout.create("order/o1", make_order()))

        def run_with(consolidate):
            executor = DXGExecutor(
                env,
                parse_dxg(DXG),
                handles={
                    "C": de.handle("knactor-checkout", principal="cast"),
                    "S": de.handle("knactor-shipping", principal="cast"),
                },
                options=ExecutorOptions(consolidate=consolidate),
            )
            return executor

        consolidated = run_with(True)
        stats_c = call(consolidated.exchange("o1"))
        # Reset the shipment for a fair comparison.
        shipping = de.handle("knactor-shipping", principal="shipping")
        call(shipping.delete("o1"))
        unconsolidated = run_with(False)
        stats_u = call(unconsolidated.exchange("o1"))
        # Creation is one op either way, but updates split per field:
        # compare total write ops for the same logical change.
        assert stats_u.writes >= stats_c.writes

    def test_cache_mode_reads_nothing(self, env, setup, call):
        de, executor = setup
        executor.options.refresh_reads = False
        executor.update_cache("C", "order", "o1", make_order())
        stats = call(executor.exchange("o1"))
        assert stats.reads == 0
        assert stats.creates == 1  # still produced the shipment

    def test_max_passes_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutorOptions(max_passes=0)

    def test_unbound_alias_rejected(self, env, setup):
        de, _ = setup
        with pytest.raises(ConfigurationError):
            DXGExecutor(env, parse_dxg(DXG), handles={})


class TestPushdown:
    def test_udf_exchange_matches_remote_path(self, env, zero_net, call):
        backend = MemKV(env, zero_net, watch_overhead=0.0)
        de = ObjectDE(env, backend)
        de.host_store("knactor-checkout", CHECKOUT, owner="checkout")
        de.host_store("knactor-shipping", SHIPPING, owner="shipping")
        de.grant("cast", "knactor-checkout", role="integrator")
        de.grant("cast", "knactor-shipping", role="integrator")
        executor = DXGExecutor(
            env,
            parse_dxg(DXG),
            handles={
                "C": de.handle("knactor-checkout", principal="cast"),
                "S": de.handle("knactor-shipping", principal="cast"),
            },
        )
        udf = executor.as_udf(
            {"C": "knactor-checkout/", "S": "knactor-shipping/"}
        )
        backend.functions.register("dxg", udf, cost=executor.udf_cost)
        checkout = de.handle("knactor-checkout", principal="checkout")
        call(checkout.create("order/o1", make_order(cost=1500)))
        from repro.store import MemKVClient

        kv = MemKVClient(backend, location="cast")
        result = call(kv.fcall("dxg", "o1"))
        assert result["writes"] >= 1
        shipping = de.handle("knactor-shipping", principal="shipping")
        shipment = call(shipping.get("o1"))["data"]
        assert shipment["method"] == "air"
        assert shipment["items"] == ["mug", "pen"]

    def test_udf_missing_prefix_rejected(self, env, setup):
        _de, executor = setup
        with pytest.raises(ConfigurationError):
            executor.as_udf({"C": "knactor-checkout/"})
