"""Unit tests for DXG parsing and reference resolution."""

import pytest

from repro.core.dxg import parse_dxg
from repro.core.dxg.parser import Reference, build_spec
from repro.errors import DXGParseError

FIG6 = """\
Input:
  C: OnlineRetail/v1/Checkout/knactor-checkout
  S: OnlineRetail/v1/Shipping/knactor-shipping
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
    items: '[item.name for item in C.order.items]'
    addr: C.order.address
    method: >
      "air" if C.order.cost > 1000 else "ground"
"""


class TestFig6:
    def test_inputs_parsed(self):
        spec = parse_dxg(FIG6)
        assert spec.aliases == {"C", "S", "P"}
        assert spec.inputs["S"] == "OnlineRetail/v1/Shipping/knactor-shipping"

    def test_assignment_count(self):
        spec = parse_dxg(FIG6)
        assert len(spec.assignments) == 8

    def test_targets_in_order(self):
        spec = parse_dxg(FIG6)
        assert spec.targets() == [("C", "order"), ("P", ""), ("S", "")]

    def test_kind_reference_resolution(self):
        """C.order.totalCost: 'order' is a kind because C.order is a target."""
        spec = parse_dxg(FIG6)
        amount = next(a for a in spec.assignments if a.field == "amount")
        assert amount.sources == (Reference("C", "order", "totalCost"),)

    def test_default_kind_reference_resolution(self):
        """S.quote.price: 'quote' is a field because S has only default kind."""
        spec = parse_dxg(FIG6)
        shipping = next(a for a in spec.assignments if a.field == "shippingCost")
        refs = set(shipping.sources)
        assert Reference("S", "", "quote.price") in refs
        assert Reference("S", "", "quote.currency") in refs

    def test_this_reference_recorded(self):
        spec = parse_dxg(FIG6)
        shipping = next(a for a in spec.assignments if a.field == "shippingCost")
        assert shipping.uses_this == ("currency",)

    def test_comprehension_binds_item(self):
        spec = parse_dxg(FIG6)
        items = next(a for a in spec.assignments if a.field == "items")
        assert items.sources == (Reference("C", "order", "items"),)

    def test_conditional_policy_parsed(self):
        spec = parse_dxg(FIG6)
        method = next(a for a in spec.assignments if a.field == "method")
        assert method.sources == (Reference("C", "order", "cost"),)

    def test_kinds_for(self):
        spec = parse_dxg(FIG6)
        assert spec.kinds_for("C") == {"order"}
        assert spec.kinds_for("S") == {""}

    def test_assignments_for(self):
        spec = parse_dxg(FIG6)
        assert len(spec.assignments_for("C", "order")) == 3
        assert len(spec.assignments_for("S", "")) == 3


class TestErrors:
    def test_missing_sections(self):
        with pytest.raises(DXGParseError):
            parse_dxg("Input:\n  C: a/b/c\n")
        with pytest.raises(DXGParseError):
            parse_dxg("DXG:\n  C:\n    f: 1\n")

    def test_undeclared_target_alias(self):
        with pytest.raises(DXGParseError, match="undeclared alias"):
            parse_dxg("Input:\n  C: a/b/c\nDXG:\n  X:\n    f: C.v\n")

    def test_undeclared_source_alias(self):
        with pytest.raises(DXGParseError, match="undeclared alias"):
            parse_dxg("Input:\n  C: a/b/c\nDXG:\n  C:\n    f: Z.other.field\n")

    def test_bad_alias_name(self):
        with pytest.raises(DXGParseError):
            parse_dxg("Input:\n  'not an id': a/b/c\nDXG:\n  C:\n    f: 1\n")
        # A dunder alias could be neither read (AST ban) nor bound.
        with pytest.raises(DXGParseError, match="must not start with '__'"):
            parse_dxg("Input:\n  __builtins__: a/b/c\nDXG:\n  __builtins__:\n"
                      "    f: 1\n")

    def test_bad_expression(self):
        with pytest.raises(DXGParseError):
            parse_dxg("Input:\n  C: a/b/c\nDXG:\n  C:\n    f: 'import os'\n")

    def test_empty_target(self):
        with pytest.raises(DXGParseError):
            parse_dxg("Input:\n  C: a/b/c\nDXG:\n  C:\n")

    def test_three_part_target_rejected(self):
        with pytest.raises(DXGParseError):
            parse_dxg("Input:\n  C: a/b/c\nDXG:\n  C.order.deep:\n    f: 1\n")


class TestProgrammaticBuild:
    def test_build_spec_from_dicts(self):
        spec = build_spec(
            {"A": "x/v1/A", "B": "x/v1/B"},
            {"B": {"copy": "A.value"}},
        )
        assert len(spec.assignments) == 1
        assert spec.assignments[0].sources == (Reference("A", "", "value"),)

    def test_constant_scalar_expression(self):
        spec = build_spec({"A": "x/v1/A"}, {"A": {"flag": True, "n": 3}})
        values = {a.field: a.expression.evaluate({}) for a in spec.assignments}
        assert values == {"flag": True, "n": 3}

    def test_function_names_not_treated_as_sources(self):
        spec = build_spec(
            {"A": "x/v1/A", "B": "x/v1/B"},
            {"B": {"v": "max(A.x, A.y)"}},
        )
        roots = {ref.alias for ref in spec.assignments[0].sources}
        assert roots == {"A"}
