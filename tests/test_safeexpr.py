"""Unit tests for the safe expression evaluator (the DXG's sandbox)."""

import pytest

from repro.errors import ExpressionError
from repro.store.cow import freeze
from repro.core.dxg import standard_functions
from repro.util.safeexpr import SAFE_BUILTINS, SafeExpression, Scope


class TestParsing:
    def test_empty_rejected(self):
        for bad in ("", "   ", None, 42):
            with pytest.raises(ExpressionError):
                SafeExpression(bad)

    def test_syntax_error_rejected(self):
        with pytest.raises(ExpressionError):
            SafeExpression("a +")

    @pytest.mark.parametrize(
        "evil",
        [
            "__import__('os')",
            "().__class__",
            "open('/etc/passwd')",  # unknown call name fails at eval, but
            "lambda: 1",  # lambdas are disallowed syntax
            "[x for x in ().__class__.__mro__]",
            "exec('1')",
            "x := 5",
            "a.__dict__",
            "f'{x}'",
        ],
    )
    def test_dangerous_syntax_rejected_or_unresolvable(self, evil):
        try:
            expr = SafeExpression(evil)
        except ExpressionError:
            return  # rejected at parse: good
        with pytest.raises(ExpressionError):
            expr.evaluate({"x": 1, "a": {}})

    def test_method_calls_rejected(self):
        with pytest.raises(ExpressionError):
            SafeExpression("x.upper()")

    @pytest.mark.parametrize("source", [
        "[0 for A.x in [1]]", "[0 for A['x'] in [1]]", "[0 for (i, A.x) in [(1, 2)]]"])
    def test_comprehension_targets_bind_names_only(self, source):
        with pytest.raises(ExpressionError, match="assignment to data"):
            SafeExpression(source)


class TestNamesAndPaths:
    def test_root_names(self):
        expr = SafeExpression("A.x + B.y.z + this.w")
        assert expr.names == {"A", "B", "this"}

    def test_comprehension_variable_not_free(self):
        expr = SafeExpression("[i.name for i in A.items]")
        assert expr.names == {"A"}

    def test_dependency_paths(self):
        expr = SafeExpression("currency_convert(S.quote.price, S.quote.currency, this.currency)")
        assert ("S", "quote", "price") in expr.paths
        assert ("S", "quote", "currency") in expr.paths
        assert ("this", "currency") in expr.paths
        assert ("currency_convert",) not in expr.paths

    def test_subscript_path_partial(self):
        expr = SafeExpression("A.rows[0]")
        assert ("A", "rows") in expr.paths


class TestEvaluation:
    def test_missing_name_raises(self):
        with pytest.raises(ExpressionError, match="unbound"):
            SafeExpression("nope + 1").evaluate({})

    def test_missing_field_raises(self):
        with pytest.raises(ExpressionError, match="no field"):
            SafeExpression("A.missing").evaluate({"A": {"present": 1}})

    def test_context_shadows_functions(self):
        """Data wins over builtins, like Python locals over builtins."""
        assert SafeExpression("len").evaluate({"len": 5}) == 5
        assert SafeExpression("len('abc')").evaluate({}) == 3

    def test_attribute_chains_on_dicts(self):
        value = SafeExpression("A.b.c").evaluate({"A": {"b": {"c": 42}}})
        assert value == 42

    def test_subscript_access(self):
        value = SafeExpression("A['key'][1]").evaluate({"A": {"key": [10, 20]}})
        assert value == 20

    def test_dict_method_names_resolve_to_fields(self):
        """'items', 'keys', 'values' are data, not dict methods."""
        context = {"A": {"items": [1], "keys": 2, "values": 3}}
        assert SafeExpression("A.items").evaluate(context) == [1]
        assert SafeExpression("A.keys").evaluate(context) == 2
        assert SafeExpression("A.values").evaluate(context) == 3

    def test_object_iteration_yields_values(self):
        """Record semantics: iterating an object walks its field values."""
        context = {"A": {"items": {"k1": {"n": 1}, "k2": {"n": 2}}}}
        result = SafeExpression("[i.n for i in A.items]").evaluate(context)
        assert sorted(result) == [1, 2]

    def test_results_deeply_unwrapped(self):
        result = SafeExpression("A.nested").evaluate({"A": {"nested": {"x": [1]}}})
        assert type(result) is dict and type(result["x"]) is list

    def test_custom_functions(self):
        expr = SafeExpression("double(x)")
        assert expr.evaluate({"x": 21}, {"double": lambda v: v * 2}) == 42

    def test_runtime_error_wrapped(self):
        with pytest.raises(ExpressionError, match="failed"):
            SafeExpression("1 / x").evaluate({"x": 0})

    def test_builtin_coverage(self):
        assert set(SAFE_BUILTINS) >= {"len", "sum", "min", "max", "round"}

    def test_conditional_and_boolean_ops(self):
        expr = SafeExpression("'yes' if a and not b else 'no'")
        assert expr.evaluate({"a": True, "b": False}) == "yes"
        assert expr.evaluate({"a": True, "b": True}) == "no"

    def test_membership(self):
        assert SafeExpression("'x' in A.tags").evaluate({"A": {"tags": ["x"]}})


class TestObjectsArePlainData:
    """An object reaches builtins and registered functions as its data,
    and iterating it walks its field values (Fig. 6's ``items: object``)."""

    CONTEXT = {"C": {"order": {"items": {"a": {"name": "x"}},
                               "addr": {"street": "Main"},
                               "costs": {"p": 3, "q": 1},
                               "flags": {"p": True, "q": False}}}}

    def test_str_of_an_object_is_its_datas_text(self):
        assert SafeExpression("str(C.order.items)").evaluate(self.CONTEXT) == (
            "{'a': {'name': 'x'}}")

    def test_a_registered_function_gets_the_data(self):
        value = SafeExpression('concat("to: ", C.order.addr)').evaluate(
            self.CONTEXT, standard_functions().table())
        assert value == "to: {'street': 'Main'}"

    @pytest.mark.parametrize("source, expected", [
        ("sum(C.order.costs)", 4),
        ("sum(C.order.costs, 10)", 14),
        ("min(C.order.costs)", 1),
        ("max(C.order.costs)", 3),
        ("sorted(C.order.costs)", [1, 3]),
        ("sorted(C.order.costs, reverse=True)", [3, 1]),
        ("any(C.order.flags)", True),
        ("all(C.order.flags)", False),
        ("max(2, 5)", 5),
        ("sum([1, 2])", 3),
    ])
    def test_iterating_builtins_walk_an_objects_values(self, source, expected):
        assert SafeExpression(source).evaluate(self.CONTEXT) == expected

    def test_len_and_membership_still_see_field_names(self):
        assert SafeExpression("len(C.order.costs)").evaluate(self.CONTEXT) == 2
        assert SafeExpression("'p' in C.order.costs").evaluate(self.CONTEXT)


class TestComprehensionBodies:
    """A comprehension / generator body is a nested scope: the names it
    reads must resolve exactly like names outside it."""

    CONTEXT = {"C": {"items": [{"p": -1}, {"p": 2}]}, "S": {"rate": 3}}
    FUNCTIONS = {"dbl": lambda v: v * 2}

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("[i.p * S.rate for i in C.items]", [-3, 6]),
            ("{i.p * S.rate for i in C.items}", {-3, 6}),
            ("sum(i.p * S.rate for i in C.items)", 3),
            ("[dbl(i.p) for i in C.items]", [-2, 4]),
            ("{dbl(i.p) for i in C.items}", {-2, 4}),
            ("sum(dbl(i.p) for i in C.items)", 2),
            ("[abs(i.p) for i in C.items]", [1, 2]),
            ("{abs(i.p) for i in C.items}", {1, 2}),
            ("sum(abs(i.p) for i in C.items)", 3),
            ("[i.p for i in C.items if i.p < S.rate and abs(i.p) > 1]", [2]),
            ("[[dbl(j) + S.rate for j in [i.p]] for i in C.items]", [[1], [7]]),
        ],
    )
    @pytest.mark.parametrize("frozen", [False, True])
    def test_alias_function_and_builtin_resolve(self, source, expected, frozen):
        context = freeze(self.CONTEXT) if frozen else self.CONTEXT
        expr = SafeExpression(source)
        assert expr.evaluate(context, self.FUNCTIONS) == expected
        scope = Scope(self.FUNCTIONS, context)
        assert expr.evaluate(scope) == expected

    def test_comprehension_variable_does_not_leak(self):
        scope = Scope(self.FUNCTIONS, self.CONTEXT)
        before = set(scope.names)
        for source in ("[i.p for i in C.items]", "{i.p for i in C.items}",
                       "sum(i.p for i in C.items)"):
            SafeExpression(source).evaluate(scope)
        assert set(scope.names) == before
        with pytest.raises(ExpressionError, match=r"unbound name\(s\) \['i'\]"):
            SafeExpression("i").evaluate(scope)
        # ... and does not overwrite a data name it shadows.
        scope.bind("i", "data")
        assert SafeExpression("[i.p for i in C.items]").evaluate(scope) == [-1, 2]
        assert SafeExpression("i").evaluate(scope) == "data"


class TestScope:
    def test_data_shadows_function_shadows_builtin(self):
        scope = Scope({"max": lambda *a: "registered"})
        call = SafeExpression("max(1, 2)")
        assert call.evaluate(scope) == "registered"
        scope.bind("max", 7)
        assert SafeExpression("max").evaluate(scope) == 7
        with pytest.raises(ExpressionError, match="failed"):
            call.evaluate(scope)  # an int is not callable
        scope.unbind("max")
        assert call.evaluate(scope) == "registered"
        assert SafeExpression("max(1, 2)").evaluate({}) == 2

    def test_unbind_makes_a_data_name_unbound_again(self):
        scope = Scope()
        expr = SafeExpression("cid")
        scope.bind("cid", "x")
        assert expr.evaluate(scope) == "x"
        scope.unbind("cid")
        with pytest.raises(ExpressionError, match=r"unbound name\(s\) \['cid'\]"):
            expr.evaluate(scope)
        scope.unbind("cid")  # unbinding an unbound name is a no-op

    def test_rebinding_is_seen_by_the_next_evaluation(self):
        scope = Scope()
        expr = SafeExpression("A.n + 1")
        for n in (1, 5):
            scope.bind("A", {"n": n})
            assert expr.evaluate(scope) == n + 1

    def test_an_expression_cannot_write_what_it_reads(self):
        """Bound data is the caller's own object; what an expression
        returns is a copy, and nothing it can say writes to the data."""
        data = {"inner": {"n": 1, "rows": [1]}, "n": 1}
        scope = Scope(data={"A": data})
        assert scope.names["A"] is data
        result = SafeExpression("A.inner").evaluate(scope)
        result["n"] = 2
        result["rows"].append(2)
        for source in ("[A.inner for A.n in [5]]", "A.update({'n': 5})",
                       "setattr(A, 'n', 5)", "A.inner.pop('n')",
                       "[i for i in A.inner.rows if A.inner.rows.append(i)]"):
            with pytest.raises(ExpressionError):
                SafeExpression(source).evaluate(scope)
        assert data == {"inner": {"n": 1, "rows": [1]}, "n": 1}

    def test_builtins_stay_empty(self):
        """Nothing bound, registered or unbound can put real builtins
        within reach of ``eval``."""
        scope = Scope({"__builtins__": {"open": open}})
        assert scope.names["__builtins__"] == {}
        with pytest.raises(ExpressionError, match="dunder"):
            scope.bind("__builtins__", {"open": open})
        scope.unbind("__builtins__")
        assert scope.names["__builtins__"] == {}
        with pytest.raises(ExpressionError, match="unbound"):
            SafeExpression("open('/etc/passwd')").evaluate(scope)

    def test_dict_form_refuses_dunder_context_names(self):
        with pytest.raises(ExpressionError, match="dunder"):
            SafeExpression("1").evaluate({"__builtins__": {}})


class TestUnwrap:
    """A result comes back as plain data: frozen store state unwrapped
    into fresh dicts and lists, tuples into lists, scalars as they are."""

    def test_unwrap_nested(self):
        state = freeze({"a": {"b": [{"c": 1}]}})
        restored = SafeExpression("A").evaluate({"A": state})
        assert restored == {"a": {"b": [{"c": 1}]}}
        assert type(restored) is dict
        assert type(restored["a"]["b"]) is list
        assert type(restored["a"]["b"][0]) is dict
        restored["a"]["b"][0]["c"] = 2  # a copy: the state is untouched
        assert state["a"]["b"][0]["c"] == 1

    def test_unwrap_plain_passthrough(self):
        assert SafeExpression("5").evaluate({}) == 5
        assert SafeExpression("'x'").evaluate({}) == "x"
        assert SafeExpression("(1, 2)").evaluate({}) == [1, 2]
