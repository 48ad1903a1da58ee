"""Unit tests for the DXG transformation-function library."""

import pytest

from repro.core.dxg.functions import (
    FunctionRegistry,
    clamp,
    coalesce,
    concat,
    currency_convert,
    lookup,
    standard_functions,
)
from repro.errors import ConfigurationError, ExpressionError


class TestCurrencyConvert:
    def test_identity(self):
        assert currency_convert(10.0, "USD", "USD") == 10.0

    def test_roundtrip_approximately_identity(self):
        eur = currency_convert(100.0, "USD", "EUR")
        back = currency_convert(eur, "EUR", "USD")
        assert back == pytest.approx(100.0, rel=1e-3)

    def test_none_passes_through(self):
        assert currency_convert(None, "USD", "EUR") is None

    def test_unknown_currency(self):
        with pytest.raises(ExpressionError):
            currency_convert(1.0, "USD", "XYZ")

    def test_known_rate_direction(self):
        # 1 EUR is worth more than 1 USD in the fixed table.
        assert currency_convert(1.0, "EUR", "USD") > 1.0


class TestHelpers:
    def test_coalesce(self):
        assert coalesce(None, None, 3, 4) == 3
        assert coalesce() is None

    def test_concat_skips_none(self):
        assert concat("a", None, 1, "b") == "a1b"

    def test_lookup(self):
        assert lookup({"k": 1}, "k") == 1
        assert lookup({"k": 1}, "x", "dflt") == "dflt"
        assert lookup("not-a-dict", "k", 0) == 0

    def test_lookup_unwraps_views(self):
        """An expression hands ``lookup`` the store's state itself:
        frozen views included, with nothing to unwrap."""
        from repro.store.cow import freeze
        from repro.util.safeexpr import SafeExpression

        state = {"A": freeze({"rates": {"k": 7}})}
        table = standard_functions().table()
        assert SafeExpression("lookup(A.rates, 'k')").evaluate(state, table) == 7
        assert SafeExpression("lookup(A, 'rates')").evaluate(state, table) == {
            "k": 7}

    def test_clamp(self):
        assert clamp(5, 0, 10) == 5
        assert clamp(-1, 0, 10) == 0
        assert clamp(99, 0, 10) == 10
        assert clamp(None, 0, 10) is None


class TestRegistry:
    def test_standard_set(self):
        registry = standard_functions()
        assert "currency_convert" in registry
        assert "coalesce" in registry
        assert registry.names() == sorted(registry.table())

    def test_register_and_unregister(self):
        registry = FunctionRegistry()
        registry.register("f", lambda: 1)
        assert "f" in registry
        registry.unregister("f")
        assert "f" not in registry

    def test_non_callable_rejected(self):
        with pytest.raises(ConfigurationError):
            FunctionRegistry().register("f", 42)

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigurationError):
            FunctionRegistry().register("not a name", lambda: 1)

    def test_table_is_a_copy(self):
        registry = standard_functions()
        table = registry.table()
        table["injected"] = lambda: 1
        assert "injected" not in registry
