"""Property test: compiled evaluation agrees with the interpreter it replaced.

:class:`~repro.util.safeexpr.SafeExpression` compiles attribute chains to
dict lookups and iterates an object's values through a helper, so it
evaluates on the plain data.  The evaluator it replaced wrapped every
bound dict in a read-only view exposing keys as attributes and deep-
unwrapped the result; that view, ``_wrap``, ``unwrap`` and the evaluation
loop are kept here as the oracle.  Random expressions -- attribute
chains, subscripts and missing fields, comprehensions over objects and
lists, the six iterating builtins, conditionals -- over random documents
must give the same value, or the same kind of ``ExpressionError``, from
both.  ``str``/``concat`` of an object are left out on purpose: the
oracle printed its wrapper there (``"AttrView({...})"``), which was the
defect the compiled form fixes.
"""

import ast
import builtins
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dxg import standard_functions
from repro.errors import ExpressionError
from repro.store.cow import freeze
from repro.util.safeexpr import SAFE_BUILTINS, SafeExpression

# ---------------------------------------------------------------------------
# The oracle: the interpreting evaluator, as it stood
# ---------------------------------------------------------------------------


class _AttrView:
    """Read-only dict wrapper exposing keys as attributes."""

    __slots__ = ("_data",)

    def __init__(self, data):
        object.__setattr__(self, "_data", data)

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        try:
            return _wrap(self._data[name])
        except KeyError:
            raise ExpressionError(f"no field {name!r}") from None

    def __getitem__(self, key):
        try:
            return _wrap(self._data[key])
        except KeyError:
            raise ExpressionError(f"no field {key!r}") from None

    def __iter__(self):
        return iter(_wrap(v) for v in self._data.values())

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._data

    def __eq__(self, other):
        if isinstance(other, _AttrView):
            return self._data == other._data
        return self._data == other

    def __ne__(self, other):
        return not self.__eq__(other)

    def __bool__(self):
        return bool(self._data)

    def __repr__(self):
        return f"AttrView({self._data!r})"

    __hash__ = None


def _wrap(value):
    if isinstance(value, _AttrView):
        return value
    if isinstance(value, dict):
        return _AttrView(value)
    if isinstance(value, list):
        return [_wrap(v) for v in value]
    return value


def unwrap(value):
    """Deep-convert wrapped views back into plain dicts/lists."""
    if isinstance(value, _AttrView):
        return unwrap(value._data)
    if isinstance(value, dict):
        return {k: unwrap(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [unwrap(v) for v in value]
    return value


#: The plain Python builtins the oracle's table held.
_ORACLE_BUILTINS = {name: getattr(builtins, name) for name in SAFE_BUILTINS}


def interpret(source, context, functions):
    """Evaluate ``source`` the old way: the user's tree as written, over
    wrapped data, with the result unwrapped."""
    expr = SafeExpression(source)  # the same whitelist and free names
    with warnings.catch_warnings():  # "(1)[0]" fails when evaluated
        warnings.simplefilter("ignore", SyntaxWarning)
        code = compile(ast.parse(expr.source, mode="eval"), "<oracle>", "eval")
    names = {**_ORACLE_BUILTINS, **functions, "__builtins__": {}}
    names.update((name, _wrap(value)) for name, value in context.items())
    if not expr.names <= names.keys():
        raise ExpressionError(f"unbound name(s) in {source!r}")
    try:
        return unwrap(eval(code, names))  # noqa: S307 -- whitelisted AST
    except ExpressionError:
        raise
    except Exception as exc:
        raise ExpressionError(f"evaluation of {source!r} failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Random documents and expressions
# ---------------------------------------------------------------------------

#: Field names: ``items``/``keys``/``values`` must stay data, never methods.
FIELDS = ("a", "b", "items", "keys", "values")

_scalars = st.integers(-3, 3) | st.booleans() | st.sampled_from(["", "x", "ab"])
_documents = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=3),
    max_leaves=8,
)
_contexts = st.fixed_dictionaries({
    "A": st.dictionaries(st.sampled_from(FIELDS), _documents, max_size=4),
    "B": st.dictionaries(st.sampled_from(FIELDS), _documents, max_size=4),
})

#: Builtins that iterate their one argument, plus two that do not.
ITERATING = ("sum", "min", "max", "sorted", "any", "all")


def _extend(inner):
    field = st.sampled_from(FIELDS)
    body = st.sampled_from(["i", "i.a", "i.items", "len(i)", "i['b']", "not i"])
    return st.one_of(
        st.builds("{}.{}".format, inner, field),
        st.builds("{}[{!r}]".format, inner, field),
        st.builds("{}[0]".format, inner),
        st.builds("[{} for i in {}]".format, body, inner),
        st.builds("[i for i in {} if {}]".format, inner, body),
        st.builds("{}({} for i in {})".format,
                  st.sampled_from(ITERATING), body, inner),
        st.builds("{}({})".format,
                  st.sampled_from(ITERATING + ("len", "bool")), inner),
        st.builds("sum({}, 1)".format, inner),
        st.builds("sorted({}, reverse=True)".format, inner),
        st.builds("({} if {} else {})".format, inner, inner, inner),
        st.builds("({} {} {})".format, inner,
                  st.sampled_from(["==", "!=", "in", "not in", "+", "and", "or"]),
                  inner),
    )


_expressions = st.recursive(
    st.sampled_from(["A", "B", "A.a", "B.items", "A.keys", "A.values", "(1)", "[]"]),
    _extend,
    max_leaves=6,
)


def outcome(evaluate):
    """``("ok", value)``, or the kind of error: a missing field or not."""
    try:
        return ("ok", evaluate())
    except ExpressionError as exc:
        return ("error", str(exc).startswith("no field"))


class TestCompiledEqualsInterpreted:
    @settings(max_examples=200, deadline=None)
    @given(source=_expressions, context=_contexts, frozen=st.booleans())
    def test_same_value_or_same_error(self, source, context, frozen):
        functions = standard_functions().table()
        compiled = SafeExpression(source)
        data = freeze(context) if frozen else context
        assert outcome(lambda: compiled.evaluate(data, functions)) == outcome(
            lambda: interpret(source, context, functions)), source

    def test_the_drawn_expressions_evaluate(self):
        """The property is not vacuous: these, drawn from the same
        grammar, succeed on both evaluators."""
        context = {"A": {"a": {"items": [1, 2], "b": 3}, "keys": {"a": 1}},
                   "B": {"items": {"a": {"a": 2}, "b": {"a": 5}}}}
        for source in ("[i.a for i in B.items]", "sum(A.keys)",
                       "max(i.a for i in B.items)", "sorted(A.keys, reverse=True)",
                       "A.a.items if A.keys.a else A.a.b", "A.a['items'][0]",
                       "'a' in A.keys", "any(A.a)", "all(B.items)"):
            want = interpret(source, context, {})
            assert SafeExpression(source).evaluate(context) == want, source
