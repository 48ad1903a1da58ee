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

The checked tree is then compiled to run on the plain data itself: an
attribute chain becomes dict lookups, a comprehension iterates an object's
field values, and so do ``sum``/``min``/``max``/``sorted``/``any``/``all``
given one object.  Nothing is wrapped on the way in; a container result
comes back as a plain copy.  The helper the rewrite inserts is named with
``__``, which no expression, field or alias can name.
"""

import ast
import warnings

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


def _values(value):
    """What iterating ``value`` walks: an object's field values (record
    semantics, like Zed's ``items[]``: Fig. 6's ``[item.name for item in
    C.order.items]`` works with Fig. 5's ``items: object``), a list's
    elements."""
    return value.values() if isinstance(value, dict) else value


def _over_values(builtin):
    """``builtin`` walking an object argument's values, not its keys."""

    def call(iterable, *args, **kwargs):
        return builtin(_values(iterable), *args, **kwargs)

    return call


#: Builtin functions available in every expression (pure, total-ish).
SAFE_BUILTINS = {
    "abs": abs,
    "len": len,
    "min": _over_values(min),
    "max": _over_values(max),
    "sum": _over_values(sum),
    "round": round,
    "sorted": _over_values(sorted),
    "str": str,
    "int": int,
    "float": float,
    "bool": bool,
    "any": _over_values(any),
    "all": _over_values(all),
}


def _plain(value):
    """A result as plain data: containers (frozen views too) copied."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class _Compiler(ast.NodeTransformer):
    """Rewrites a validated tree to run on plain data: an attribute
    chain becomes dict lookups (``C.order.items`` ->
    ``C["order"]["items"]``, so ``items`` is a field, never a method)
    and a comprehension iterates ``__values(...)`` of its iterable."""

    def visit_Attribute(self, node):
        return ast.Subscript(value=self.visit(node.value),
                             slice=ast.Constant(node.attr), ctx=ast.Load())

    def visit_comprehension(self, node):
        self.generic_visit(node)
        node.iter = ast.Call(func=ast.Name("__values", ast.Load()),
                             args=[node.iter], keywords=[])
        return node


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
        # The dunder names go last so that nothing registered replaces
        # them, and sit in the table so that nothing unbinds them either
        # (``eval`` would put the real ``__builtins__`` back).
        self._table = {**SAFE_BUILTINS, **(functions or {}),
                       "__values": _values, "__builtins__": {}}
        self.names = dict(self._table)  # the globals of every evaluation
        for name, value in (data or {}).items():
            self.bind(name, value)

    def bind(self, name, value):
        if name.startswith("__"):
            raise ExpressionError(f"dunder name {name!r} cannot be bound")
        self.names[name] = value

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
        names, bound, called = set(), set(), set()
        for node in ast.walk(tree):
            self._check(node)
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.comprehension):
                bound.update(target.id for target in ast.walk(node.target)
                             if isinstance(target, ast.Name))
            elif isinstance(node, ast.Call):
                called.add(node.func.id)
        self.names = frozenset(names - bound)  # free names
        self.paths = self._dependency_paths(tree, bound, called)
        tree = ast.fix_missing_locations(_Compiler().visit(tree))
        with warnings.catch_warnings():  # "[].a" is a runtime error, not a typo
            warnings.simplefilter("ignore", SyntaxWarning)
            self._code = compile(tree, "<dxg-expr>", "eval")

    def _check(self, node):
        """The whitelist, on one node of the tree as written."""
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(
                f"disallowed syntax {type(node).__name__!r} in {self.source!r}"
            )
        if isinstance(node, ast.Attribute) and node.attr.startswith("__"):
            raise ExpressionError(f"dunder access forbidden in {self.source!r}")
        if isinstance(node, ast.Name) and node.id.startswith("__"):
            raise ExpressionError(f"dunder name forbidden in {self.source!r}")
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
                node.ctx, ast.Store):
            # A comprehension target must bind names: ``for A.x in``
            # would write into the data the expression reads.
            raise ExpressionError(f"assignment to data in {self.source!r}")
        if isinstance(node, ast.Call) and not isinstance(node.func, ast.Name):
            raise ExpressionError(
                f"only plain function calls are allowed in {self.source!r}"
            )

    @staticmethod
    def _dependency_paths(tree, bound, called):
        """Dotted paths the expression reads, e.g. ``{("S","quote","price")}``.

        Paths rooted at comprehension-bound names and at function names are
        excluded.  An attribute chain contributes its longest prefix of
        plain attribute accesses.
        """
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
            return _plain(eval(self._code, names))  # noqa: S307 -- whitelisted AST
        except ExpressionError:
            raise
        except KeyError as exc:
            raise ExpressionError(f"no field {exc}") from None
        except Exception as exc:
            raise ExpressionError(
                f"evaluation of {self.source!r} failed: {exc}"
            ) from exc

    def __repr__(self):
        return f"<SafeExpression {self.source!r}>"
