"""Tests for the bounded confluence checker (§5 formal-methods support).

Interleaving model: per-object update order is fixed (watch streams are
FIFO per object); updates to different objects interleave arbitrarily.
A robust DXG must converge to the same fixpoint under every interleaving.
"""

import pytest

from repro.core.dxg import parse_dxg
from repro.core.dxg.parser import build_spec
from repro.core.dxg.verify import check_confluence, _interleavings
from repro.errors import ConfigurationError
from repro.schema import Schema

A_SCHEMA = Schema.from_text("schema: App/v1/A/S\nx: number\n")
C_SCHEMA = Schema.from_text("schema: App/v1/C/S\ny: number\n")
B_SCHEMA = Schema.from_text(
    "schema: App/v1/B/T\n"
    "sum: number # +kr: external\n"
    "flag: string # +kr: external\n"
)

SCHEMAS = {"A": A_SCHEMA, "B": B_SCHEMA, "C": C_SCHEMA}


def three_store_spec(body):
    return build_spec(
        {
            "A": "App/v1/A/knactor-a",
            "B": "App/v1/B/knactor-b",
            "C": "App/v1/C/knactor-c",
        },
        body,
    )


class TestInterleavings:
    def test_per_object_order_preserved(self):
        groups = ["a", "a", "c"]
        orders = list(_interleavings(groups))
        # C(3,1) = 3 positions for the 'c' update.
        assert len(orders) == 3
        for order in orders:
            assert order.index(0) < order.index(1)  # a's updates stay FIFO

    def test_single_object_has_one_interleaving(self):
        assert list(_interleavings(["a", "a", "a"])) == [(0, 1, 2)]

    def test_full_shuffle_for_distinct_objects(self):
        assert len(list(_interleavings(["a", "b", "c"]))) == 6


class TestConfluence:
    def test_pure_function_dxg_is_confluent(self):
        spec = three_store_spec(
            {"B": {"sum": "A.x + C.y", "flag": "'hi' if A.x > 0 else 'lo'"}}
        )
        report = check_confluence(
            spec,
            SCHEMAS,
            updates=[
                ("A", "", {"x": 1.0}),
                ("A", "", {"x": 5.0}),
                ("C", "", {"y": 2.0}),
            ],
        )
        assert report.confluent
        assert report.orders_checked == 3
        assert report.final_state[("B", "")]["sum"] == 7.0
        assert "confluent" in report.describe()

    def test_fig6_style_spec_is_confluent(self):
        checkout = Schema.from_text(
            "schema: Retail/v1/Checkout/Order\n"
            "cost: number\naddress: string\n"
            "trackingID: string # +kr: external\n"
        )
        shipping = Schema.from_text(
            "schema: Retail/v1/Shipping/Shipment\n"
            "addr: string # +kr: external\n"
            "method: string # +kr: external\n"
            "id: string\n"
        )
        spec = parse_dxg(
            "Input:\n"
            "  C: Retail/v1/Checkout/knactor-checkout\n"
            "  S: Retail/v1/Shipping/knactor-shipping\n"
            "DXG:\n"
            "  C.order:\n"
            "    trackingID: S.id\n"
            "  S:\n"
            "    addr: C.order.address\n"
            "    method: '\"air\" if C.order.cost > 1000 else \"ground\"'\n"
        )
        report = check_confluence(
            spec,
            {"C": checkout, "S": shipping},
            updates=[
                ("C", "order", {"cost": 2000.0, "address": "12 Elm"}),
                ("C", "order", {"cost": 10.0}),
                ("S", "", {"id": "trk-1"}),
            ],
        )
        assert report.confluent
        final_order = report.final_state[("C", "order")]
        assert final_order["trackingID"] == "trk-1"
        # The LAST cost write wins in every interleaving: method converges.
        assert report.final_state[("S", "")]["method"] == "ground"

    def test_static_analysis_catches_explicit_latch(self):
        """A latch written as ``this.flag`` is a self-dependency: static
        analysis rejects it outright (cycle detection working)."""
        from repro.core.dxg import analyze

        spec = three_store_spec(
            {"B": {"flag": "coalesce(this.flag, concat(A.x, '-', C.y))"}}
        )
        report = analyze(spec)
        assert not report.ok and report.cycles

    def test_order_dependent_dxg_detected(self):
        """A first-writer-wins latch (self-access via ``lookup(this,
        ...)``, which static analysis rejects as a read of the whole
        target) captures whatever the sources held the first time both
        existed -- which depends on the interleaving.  The bounded
        dynamic checker shows the divergence."""
        spec = three_store_spec(
            {"B": {"flag": "coalesce(lookup(this, 'flag'), concat(A.x, '-', C.y))"}}
        )
        report = check_confluence(
            spec,
            SCHEMAS,
            updates=[
                ("A", "", {"x": 1.0}),
                ("A", "", {"x": 2.0}),
                ("C", "", {"y": 9.0}),
            ],
            # The latch reads this.flag, so the creatable heuristic would
            # make B patch-only; the developer declares it creatable.
            creatable_targets=["B"],
        )
        assert not report.confluent
        assert report.counterexample is not None
        assert "NOT confluent" in report.describe()
        assert any("diverging objects" in p for p in report.problems)

    def test_max_orders_bounds_work(self):
        spec = three_store_spec({"B": {"sum": "A.x + C.y"}})
        report = check_confluence(
            spec,
            SCHEMAS,
            updates=[
                ("A", "", {"x": 1.0}),
                ("A", "", {"x": 2.0}),
                ("C", "", {"y": 1.0}),
                ("C", "", {"y": 2.0}),
            ],
            max_orders=4,
        )
        assert report.orders_checked == 4

    def test_validation(self):
        spec = three_store_spec({"B": {"sum": "A.x"}})
        with pytest.raises(ConfigurationError):
            check_confluence(spec, SCHEMAS, updates=[])
        with pytest.raises(ConfigurationError):
            check_confluence(
                spec, SCHEMAS, updates=[("A", "", {"x": 1.0})], max_orders=0
            )
        with pytest.raises(ConfigurationError):
            check_confluence(
                spec, {"A": A_SCHEMA},  # B, C schemas missing
                updates=[("A", "", {"x": 1.0})],
            )


class TestConfluenceProperty:
    def test_random_pure_dxgs_are_confluent(self):
        """Pure functions over latest-state are confluent; spot-check a
        generated family."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=10, deadline=None)
        @given(
            coefficients=st.lists(
                st.integers(min_value=1, max_value=5), min_size=1, max_size=2
            )
        )
        def run(coefficients):
            expr = " + ".join(
                f"A.x * {c} + C.y * {c}" for c in coefficients
            )
            spec = three_store_spec({"B": {"sum": expr}})
            report = check_confluence(
                spec,
                SCHEMAS,
                updates=[
                    ("A", "", {"x": 1.0}),
                    ("C", "", {"y": 3.0}),
                    ("A", "", {"x": 2.0}),
                ],
            )
            assert report.confluent

        run()
