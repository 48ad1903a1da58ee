"""Unit tests for the log-query operator library."""

import pytest

from repro.errors import QueryError, StoreError
from repro.query import OPERATORS, compile_ops


RECORDS = [
    {"device": "lamp-1", "watts": 9, "hours": 2, "room": "den"},
    {"device": "lamp-2", "watts": 12, "hours": 1, "room": "den"},
    {"device": "sensor-1", "watts": 1, "hours": 24, "room": "hall"},
]


def run(ops, records=None):
    return compile_ops(ops)(list(records if records is not None else RECORDS))


class TestOperators:
    def test_filter(self):
        rows = run([{"op": "filter", "expr": "watts > 5"}])
        assert [r["device"] for r in rows] == ["lamp-1", "lamp-2"]

    def test_filter_missing_field_is_false(self):
        rows = run([{"op": "filter", "expr": "nonexistent == 1"}])
        assert rows == []

    def test_rename(self):
        rows = run([{"op": "rename", "from": "watts", "to": "power"}])
        assert rows[0]["power"] == 9 and "watts" not in rows[0]

    def test_rename_missing_field_noop(self):
        rows = run([{"op": "rename", "from": "nope", "to": "x"}])
        assert rows == RECORDS

    def test_cut(self):
        rows = run([{"op": "cut", "fields": ["device"]}])
        assert rows == [{"device": "lamp-1"}, {"device": "lamp-2"}, {"device": "sensor-1"}]

    def test_drop(self):
        rows = run([{"op": "drop", "fields": ["watts", "hours", "room"]}])
        assert rows[0] == {"device": "lamp-1"}

    def test_derive(self):
        rows = run([{"op": "derive", "field": "kwh", "expr": "watts * hours / 1000"}])
        assert rows[0]["kwh"] == pytest.approx(0.018)

    def test_sort(self):
        rows = run([{"op": "sort", "by": "watts"}])
        assert [r["watts"] for r in rows] == [1, 9, 12]

    def test_sort_reverse(self):
        rows = run([{"op": "sort", "by": "watts", "reverse": True}])
        assert [r["watts"] for r in rows] == [12, 9, 1]

    def test_sort_missing_values_first(self):
        records = [{"a": 2}, {"b": 1}, {"a": 1}]
        rows = run([{"op": "sort", "by": "a"}], records)
        assert rows[0] == {"b": 1}

    def test_head_and_tail(self):
        assert len(run([{"op": "head", "count": 2}])) == 2
        assert run([{"op": "tail", "count": 1}])[0]["device"] == "sensor-1"

    def test_distinct(self):
        rows = run([{"op": "distinct", "field": "room"}])
        assert [r["room"] for r in rows] == ["den", "hall"]

    def test_agg_global(self):
        rows = run([{"op": "agg", "aggs": {"total": "sum(watts)", "n": "count()"}}])
        assert rows == [{"total": 22, "n": 3}]

    def test_agg_grouped(self):
        rows = run(
            [
                {"op": "agg", "aggs": {"total": "sum(watts)"}, "by": ["room"]},
                {"op": "sort", "by": "room"},
            ]
        )
        assert rows == [{"room": "den", "total": 21}, {"room": "hall", "total": 1}]

    def test_agg_avg_min_max(self):
        rows = run(
            [{"op": "agg", "aggs": {"a": "avg(watts)", "lo": "min(watts)", "hi": "max(watts)"}}]
        )
        assert rows == [{"a": pytest.approx(22 / 3), "lo": 1, "hi": 12}]

    def test_agg_first_last(self):
        rows = run([{"op": "agg", "aggs": {"f": "first(device)", "l": "last(device)"}}])
        assert rows == [{"f": "lamp-1", "l": "sensor-1"}]

    def test_derive_with_builtin_functions(self):
        """Builtins stay callable even though they are free names."""
        rows = run([{"op": "derive", "field": "bucket", "expr": "int(watts // 10)"}])
        assert [r["bucket"] for r in rows] == [0, 1, 0]

    def test_record_field_shadows_builtin(self):
        """A record field named like a builtin is data, not the function."""
        rows = run(
            [{"op": "derive", "field": "d", "expr": "max + 1"}],
            [{"max": 41}],
        )
        assert rows[0]["d"] == 42

    def test_pipeline_composition(self):
        rows = run(
            [
                {"op": "derive", "field": "kwh", "expr": "watts * hours / 1000"},
                {"op": "filter", "expr": "room == 'den'"},
                {"op": "agg", "aggs": {"energy": "sum(kwh)"}},
            ]
        )
        assert rows == [{"energy": pytest.approx(0.030)}]


class TestErrors:
    def test_unknown_operator(self):
        with pytest.raises(StoreError):
            compile_ops([{"op": "explode"}])

    def test_missing_required_key(self):
        with pytest.raises(StoreError):
            compile_ops([{"op": "filter"}])

    def test_bad_spec_shape(self):
        with pytest.raises(StoreError):
            compile_ops(["filter"])

    def test_bad_aggregation_spelling(self):
        with pytest.raises(StoreError):
            compile_ops([{"op": "agg", "aggs": {"x": "sum watts"}}])

    def test_unknown_aggregation_function(self):
        with pytest.raises(StoreError):
            compile_ops([{"op": "agg", "aggs": {"x": "median(watts)"}}])

    def test_sort_unknown_field_raises_query_error(self):
        """No record carries the sort field: a typed QueryError naming
        the offending op spec, not a bare KeyError."""
        with pytest.raises(QueryError) as exc:
            run([{"op": "sort", "by": "wattz"}])
        assert "wattz" in str(exc.value)
        assert "sort" in str(exc.value)

    def test_operator_catalog_exposed(self):
        assert {"filter", "rename", "agg", "sort"} <= OPERATORS


class TestPurity:
    def test_input_records_not_mutated(self):
        records = [{"a": 1}]
        run([{"op": "derive", "field": "b", "expr": "a + 1"}], records)
        assert records == [{"a": 1}]

    def test_empty_input(self):
        assert run([{"op": "filter", "expr": "x == 1"}], []) == []
        # Global aggregation yields one identity row (SQL semantics);
        # grouped aggregation yields no groups.
        assert run([{"op": "agg", "aggs": {"n": "count()"}}], []) == [{"n": 0}]
        assert run([{"op": "agg", "aggs": {"n": "count()"}, "by": ["g"]}], []) == []
