"""Safe evaluation of DXG / query expressions.

The paper's DXG specifications (Fig. 6) embed small expressions::

    currency_convert(S.quote.price, S.quote.currency, this.currency)
    [item.name for item in C.order.items]
    "air" if C.order.cost > 1000 else "ground"

These are parsed with :mod:`ast` and evaluated against a context of named
data-store states.  Only a whitelisted set of node types is allowed -- no
attribute access on arbitrary objects (attributes resolve to dict keys), no
imports, no dunder access, and calls may only target functions explicitly
registered by the integrator author.
"""

import ast

from repro.errors import ExpressionError

_ALLOWED_NODES = (
    ast.Expression,
    ast.Constant,
    ast.Name,
    ast.Load,
    ast.Store,  # comprehension targets bind names
    ast.Attribute,
    ast.Subscript,
    ast.Slice,
    ast.Tuple,
    ast.List,
    ast.Dict,
    ast.Set,
    ast.Call,
    ast.keyword,
    ast.IfExp,
    ast.BoolOp,
    ast.And,
    ast.Or,
    ast.UnaryOp,
    ast.Not,
    ast.USub,
    ast.UAdd,
    ast.BinOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
    ast.Compare,
    ast.Eq,
    ast.NotEq,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
    ast.In,
    ast.NotIn,
    ast.Is,
    ast.IsNot,
    ast.ListComp,
    ast.SetComp,
    ast.GeneratorExp,
    ast.comprehension,
)

#: Builtin functions available in every expression (pure, total-ish).
SAFE_BUILTINS = {
    "abs": abs,
    "len": len,
    "min": min,
    "max": max,
    "sum": sum,
    "round": round,
    "sorted": sorted,
    "str": str,
    "int": int,
    "float": float,
    "bool": bool,
    "any": any,
    "all": all,
}


class _AttrView:
    """Read-only dict wrapper exposing keys as attributes.

    Deliberately NOT a dict subclass, and with no public methods at all:
    field names like ``items`` or ``keys`` must resolve to the *data*,
    not to dict methods (the paper's own Fig. 6 reads ``C.order.items``).
    Use :func:`unwrap` to get plain dicts back for interop.
    """

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
        # Iterating an *object* yields its field VALUES (record semantics,
        # like Zed's `items[]`): Fig. 6's `[item.name for item in
        # C.order.items]` works with Fig. 5's `items: object`.
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


class Scope:
    """The one name table expressions are evaluated in.

    Built once from the safe builtins and the registered functions; data
    names are then bound and unbound **in place**, so evaluating against
    changing data allocates no table per evaluation.  Data shadows
    functions shadows builtins: a field named ``max`` is data while it
    is bound, and the function is back once it is unbound.
    """

    __slots__ = ("names", "_table")

    def __init__(self, functions=None, data=None):
        # ``__builtins__`` goes last so that nothing registered replaces
        # the empty one, and sits in the table so that nothing unbinds
        # it either (``eval`` would put the real one back).
        self._table = {**SAFE_BUILTINS, **(functions or {}), "__builtins__": {}}
        self.names = dict(self._table)  # the globals of every evaluation
        for name, value in (data or {}).items():
            self.bind(name, value)

    def bind(self, name, value):
        if name.startswith("__"):
            raise ExpressionError(f"dunder name {name!r} cannot be bound")
        self.names[name] = _wrap(value)

    def unbind(self, name):
        if name in self._table:
            self.names[name] = self._table[name]
        else:
            self.names.pop(name, None)


class SafeExpression:
    """A parsed, validated expression ready for repeated evaluation."""

    def __init__(self, source):
        if not isinstance(source, str) or not source.strip():
            raise ExpressionError(f"expression must be a non-empty string: {source!r}")
        self.source = source.strip()
        try:
            tree = ast.parse(self.source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"syntax error in {self.source!r}: {exc}") from exc
        self._validate(tree)
        self._code = compile(tree, "<dxg-expr>", "eval")
        self.names = self._root_names(tree)
        self.paths = self._dependency_paths(tree)

    def _validate(self, tree):
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ExpressionError(
                    f"disallowed syntax {type(node).__name__!r} in {self.source!r}"
                )
            if isinstance(node, ast.Attribute) and node.attr.startswith("__"):
                raise ExpressionError(f"dunder access forbidden in {self.source!r}")
            if isinstance(node, ast.Name) and node.id.startswith("__"):
                raise ExpressionError(f"dunder name forbidden in {self.source!r}")
            if isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Name):
                    raise ExpressionError(
                        f"only plain function calls are allowed in {self.source!r}"
                    )

    @staticmethod
    def _root_names(tree):
        """Free variable names (excluding comprehension-bound names)."""
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.comprehension):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in bound:
                names.add(node.id)
        return frozenset(names)

    def _dependency_paths(self, tree):
        """Dotted paths the expression reads, e.g. ``{("S","quote","price")}``.

        Paths rooted at comprehension-bound names and at function names are
        excluded.  An attribute chain contributes its longest prefix of
        plain attribute accesses.
        """
        bound = set()
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.comprehension):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)

        paths = set()

        def chain(node):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                parts.append(node.id)
                return tuple(reversed(parts))
            return None

        class Visitor(ast.NodeVisitor):
            def visit_Attribute(self, node):
                path = chain(node)
                if path is not None and path[0] not in bound:
                    paths.add(path)
                else:
                    self.generic_visit(node)

            def visit_Name(self, node):
                if node.id not in bound and node.id not in called:
                    paths.add((node.id,))

        Visitor().visit(tree)
        # Drop paths shadowed by a longer recorded path with the same root:
        # 'S.quote.price' subsumes nothing here, but a bare ('S',) recorded
        # from a different sub-expression is kept -- it is a real read.
        return frozenset(paths)

    def evaluate(self, scope, functions=None):
        """Evaluate in ``scope``: a :class:`Scope`, or a context mapping
        (name -> state dict / scalar) bound over ``functions`` first."""
        if not isinstance(scope, Scope):
            scope = Scope(functions, scope)
        names = scope.names
        if not self.names <= names.keys():
            raise ExpressionError(
                f"unbound name(s) {sorted(self.names - names.keys())} "
                f"in {self.source!r}"
            )
        try:
            # One dict as globals and no locals: comprehension bodies are
            # nested scopes and look their free names up as globals.
            result = eval(self._code, names)  # noqa: S307 -- whitelisted AST
            return unwrap(result)
        except ExpressionError:
            raise
        except Exception as exc:
            raise ExpressionError(
                f"evaluation of {self.source!r} failed: {exc}"
            ) from exc

    def __repr__(self):
        return f"<SafeExpression {self.source!r}>"
