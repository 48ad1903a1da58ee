"""Tests for global (singleton) DXG aliases -- shared lookup objects."""

import pytest

from repro.core import Cast, Knactor, KnactorRuntime, StoreBinding
from repro.core.dxg import parse_dxg
from repro.errors import DXGParseError
from repro.exchange import ObjectDE
from repro.simnet import FixedLatency, Network
from repro.store import MemKV

RATES_SCHEMA = """\
schema: Fx/v1/Rates/Table
rates: object
"""

ORDER_SCHEMA = """\
schema: Fx/v1/Orders/Order
amount: number
currency: string
usdAmount: number # +kr: external
"""

DXG = """\
Input:
  O: Fx/v1/Orders/knactor-orders
  R: Fx/v1/Rates/knactor-rates
Globals:
  R: main
DXG:
  O:
    usdAmount: O.amount / lookup(R.rates, O.currency, 1.0)
"""


class TestParsing:
    def test_globals_section_parsed(self):
        spec = parse_dxg(DXG)
        assert spec.globals_ == {"R": "main"}

    def test_global_alias_must_be_declared(self):
        with pytest.raises(DXGParseError, match="undeclared"):
            parse_dxg(
                "Input:\n  A: x/v1/A/a\nGlobals:\n  Z: main\n"
                "DXG:\n  A:\n    f: 1\n"
            )

    def test_global_alias_cannot_be_target(self):
        with pytest.raises(DXGParseError, match="read-only"):
            parse_dxg(
                "Input:\n  A: x/v1/A/a\n  R: x/v1/R/r\nGlobals:\n  R: main\n"
                "DXG:\n  R:\n    f: A.v\n"
            )

    def test_global_key_must_be_a_string(self):
        with pytest.raises(DXGParseError):
            parse_dxg(
                "Input:\n  A: x/v1/A/a\n  R: x/v1/R/r\nGlobals:\n  R:\n"
                "DXG:\n  A:\n    f: R.v\n"
            )


def build(env):
    net = Network(env, default_latency=FixedLatency(0.0005))
    runtime = KnactorRuntime(env, network=net)
    de = ObjectDE(env, MemKV(env, net, watch_overhead=0.0))
    runtime.add_exchange("object", de)
    runtime.add_knactor(Knactor("orders", [StoreBinding(
        "default", "object", ORDER_SCHEMA)]))
    runtime.add_knactor(Knactor("rates", [StoreBinding(
        "default", "object", RATES_SCHEMA)]))
    de.grant("fx-cast", "knactor-orders", role="integrator")
    de.grant("fx-cast", "knactor-rates", role="reader")
    cast = Cast("fx-cast", DXG)
    runtime.add_integrator(cast)
    runtime.start()
    return runtime, de, cast


class TestExecution:
    def test_lookup_through_global_alias(self, env):
        runtime, de, cast = build(env)
        rates = runtime.handle_of("rates")
        env.run(until=rates.create("main", {"rates": {"EUR": 0.9, "USD": 1.0}}))
        orders = runtime.handle_of("orders")
        env.run(until=orders.create("o1", {"amount": 90.0, "currency": "EUR"}))
        env.run()
        data = env.run(until=orders.get("o1"))["data"]
        assert data["usdAmount"] == pytest.approx(100.0)

    def test_rate_update_reflows_every_group(self, env):
        """Changing the shared lookup re-derives ALL exchange groups."""
        runtime, de, cast = build(env)
        rates = runtime.handle_of("rates")
        env.run(until=rates.create("main", {"rates": {"EUR": 0.9}}))
        orders = runtime.handle_of("orders")
        for i, amount in enumerate((9.0, 90.0, 900.0)):
            env.run(until=orders.create(f"o{i}", {"amount": amount,
                                                  "currency": "EUR"}))
        env.run()
        # Devaluation: one write to the singleton...
        env.run(until=rates.patch("main", {"rates": {"EUR": 0.5}}))
        env.run()
        # ...and every order's derived field updated.
        for i, amount in enumerate((9.0, 90.0, 900.0)):
            data = env.run(until=orders.get(f"o{i}"))["data"]
            assert data["usdAmount"] == pytest.approx(amount / 0.5)

    def test_missing_global_defers_assignments(self, env):
        runtime, de, cast = build(env)
        orders = runtime.handle_of("orders")
        env.run(until=orders.create("o1", {"amount": 10.0, "currency": "EUR"}))
        env.run()
        assert "usdAmount" not in env.run(until=orders.get("o1"))["data"]
        # The table appears later; the order back-fills.
        rates = runtime.handle_of("rates")
        env.run(until=rates.create("main", {"rates": {"EUR": 1.0}}))
        env.run()
        assert env.run(until=orders.get("o1"))["data"]["usdAmount"] == 10.0

    def test_reconfigure_preserves_globals(self, env):
        runtime, de, cast = build(env)
        cast.set_assignment("O", "usdAmount",
                            "O.amount * lookup(R.rates, O.currency, 1.0)")
        assert cast.executor.spec.globals_ == {"R": "main"}
        rates = runtime.handle_of("rates")
        env.run(until=rates.create("main", {"rates": {"EUR": 2.0}}))
        orders = runtime.handle_of("orders")
        env.run(until=orders.create("o1", {"amount": 3.0, "currency": "EUR"}))
        env.run()
        assert env.run(until=orders.get("o1"))["data"]["usdAmount"] == 6.0
