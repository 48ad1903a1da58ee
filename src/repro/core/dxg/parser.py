"""Parsing of DXG specifications (paper Fig. 6).

A specification has two sections::

    Input:
      C: OnlineRetail/v1/Checkout/knactor-checkout
      S: OnlineRetail/v1/Shipping/knactor-shipping
      P: OnlineRetail/v1/Payment/knactor-payment
    DXG:
      C.order:
        shippingCost: >
          currency_convert(S.quote.price, S.quote.currency, this.currency)
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

Terminology:

- an **alias** (``C``) names one knactor data store (from ``Input``),
- a **target** (``C.order`` or ``P``) names an object *kind* in an alias's
  store; a bare alias targets the store's default (unnamed) kind,
- an **assignment** fills one target field from an expression over
  references like ``S.quote.price`` (alias ``S``, default kind, field path
  ``quote.price``) and ``this.currency`` (the target object itself).

Reference resolution uses the declared target kinds: in ``C.order.items``
the ``order`` component is a kind because the spec declares target
``C.order``; in ``S.quote.price`` the ``quote`` component is a field
because ``S`` is only declared with its default kind.
"""

from dataclasses import dataclass, field

from repro.errors import DXGParseError
from repro.util import yamlish
from repro.util.safeexpr import SafeExpression

#: Kind name used when a target is a bare alias.
DEFAULT_KIND = ""


@dataclass(frozen=True)
class Reference:
    """A resolved read reference: alias + kind + dotted field path."""

    alias: str
    kind: str
    path: str  # "" means "the whole object"

    def node(self):
        return (self.alias, self.kind, self.path)

    def __str__(self):
        kind = f".{self.kind}" if self.kind else ""
        path = f".{self.path}" if self.path else ""
        return f"{self.alias}{kind}{path}"


@dataclass
class Assignment:
    """One DXG edge bundle: ``target.field = expression(sources...)``."""

    target_alias: str
    target_kind: str
    field: str
    expression: SafeExpression
    sources: tuple = ()  # tuple[Reference]
    uses_this: tuple = ()  # dotted self-paths read via ``this.``

    @property
    def target_node(self):
        return (self.target_alias, self.target_kind, self.field)

    def describe(self):
        kind = f".{self.target_kind}" if self.target_kind else ""
        return f"{self.target_alias}{kind}.{self.field} = {self.expression.source}"


@dataclass
class DXGSpec:
    """A parsed DXG: inputs, declared targets, and assignments.

    ``globals_`` maps aliases to FIXED object keys: a global alias reads
    one shared object (a rate table, a config singleton) instead of the
    per-correlation object -- lookup data for every exchange group.
    """

    inputs: dict  # alias -> store reference string
    assignments: list = field(init=False, default_factory=list)
    globals_: dict = field(default_factory=dict)  # alias -> fixed object key
    source_text: str = ""

    @property
    def aliases(self):
        return set(self.inputs)

    def targets(self):
        """Declared (alias, kind) targets in declaration order."""
        seen = []
        for a in self.assignments:
            key = (a.target_alias, a.target_kind)
            if key not in seen:
                seen.append(key)
        return seen

    def kinds_for(self, alias):
        """Kinds this spec declares or references for an alias."""
        kinds = set()
        for a in self.assignments:
            if a.target_alias == alias:
                kinds.add(a.target_kind)
            for ref in a.sources:
                if ref.alias == alias:
                    kinds.add(ref.kind)
        return kinds

    def assignments_for(self, alias, kind):
        return [
            a
            for a in self.assignments
            if a.target_alias == alias and a.target_kind == kind
        ]


def parse_dxg(text):
    """Parse the Fig. 6 syntax into a :class:`DXGSpec`."""
    data = yamlish.parse(text)
    if not isinstance(data, dict):
        raise DXGParseError("DXG spec must be a mapping")
    if "Input" not in data or "DXG" not in data:
        raise DXGParseError("DXG spec needs 'Input' and 'DXG' sections")
    inputs = data["Input"]
    if not isinstance(inputs, dict) or not inputs:
        raise DXGParseError("'Input' must map aliases to store references")
    for alias, ref in inputs.items():
        if not isinstance(alias, str) or not alias.isidentifier():
            raise DXGParseError(f"alias {alias!r} must be an identifier")
        if alias.startswith("__"):
            # No expression can name it, and no scope will bind it.
            raise DXGParseError(f"alias {alias!r} must not start with '__'")
        if not isinstance(ref, str) or not ref:
            raise DXGParseError(f"alias {alias!r} has an invalid store reference")
    body = data["DXG"]
    if not isinstance(body, dict):
        raise DXGParseError("'DXG' must map targets to field assignments")
    kinds = data.get("Kinds", {})
    if kinds is not None and not isinstance(kinds, dict):
        raise DXGParseError("'Kinds' must map aliases to kind-name lists")
    globals_ = data.get("Globals", {})
    if globals_ is not None and not isinstance(globals_, dict):
        raise DXGParseError("'Globals' must map aliases to fixed object keys")
    return build_spec(
        inputs, body, source_text=text, extra_kinds=kinds, globals_=globals_
    )


def build_spec(inputs, body, source_text="", extra_kinds=None, globals_=None):
    """Build a :class:`DXGSpec` from already-parsed mappings.

    ``body`` maps target spellings (``"C.order"`` / ``"P"``) to
    ``{field: expression}`` mappings.  ``extra_kinds`` declares kinds an
    alias is only *read* with (``{"C": ["order"]}``) -- needed when a DXG
    references ``C.order.status`` without ever writing to ``C.order``.
    Exposed separately so integrators can be configured programmatically.
    """
    # Pass 1: declared target kinds per alias (needed to resolve refs).
    declared_kinds = {}
    for alias, kind_names in (extra_kinds or {}).items():
        if alias not in inputs:
            raise DXGParseError(f"'Kinds' uses undeclared alias {alias!r}")
        names = kind_names if isinstance(kind_names, list) else [kind_names]
        declared_kinds.setdefault(alias, set()).update(str(k) for k in names)
    targets = []
    for target_spelling, fields in body.items():
        alias, kind = _parse_target(str(target_spelling), inputs)
        declared_kinds.setdefault(alias, set()).add(kind)
        targets.append((alias, kind, fields))

    globals_ = dict(globals_ or {})
    for alias, key in globals_.items():
        if alias not in inputs:
            raise DXGParseError(f"'Globals' uses undeclared alias {alias!r}")
        if not isinstance(key, str) or not key:
            raise DXGParseError(f"global alias {alias!r} needs an object key")
    spec = DXGSpec(
        inputs=dict(inputs), source_text=source_text, globals_=globals_
    )
    for alias, kind, fields in targets:
        if alias in globals_:
            raise DXGParseError(
                f"global alias {alias!r} is read-only lookup data; "
                "it cannot be a target"
            )
        if not isinstance(fields, dict) or not fields:
            raise DXGParseError(
                f"target {alias}{'.' + kind if kind else ''} has no assignments"
            )
        for field_path, expr_text in _flatten_fields(fields).items():
            spec.assignments.append(
                _build_assignment(
                    alias, kind, field_path, expr_text, inputs, declared_kinds
                )
            )
    return spec


def _flatten_fields(fields, prefix=""):
    """Nested mappings denote nested target fields (dotted paths).

    ``destination: {street_address: expr}`` assigns the dotted field
    ``destination.street_address``.  To assign a *literal* dict, write it
    as an expression: ``meta: '{"a": 1}'``.
    """
    flat = {}
    for key, value in fields.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            if not value:
                raise DXGParseError(f"field {path!r} has an empty mapping")
            flat.update(_flatten_fields(value, path + "."))
        else:
            flat[path] = value
    return flat


def _parse_target(spelling, inputs):
    parts = spelling.split(".")
    alias = parts[0]
    if alias not in inputs:
        raise DXGParseError(f"target {spelling!r} uses undeclared alias {alias!r}")
    if len(parts) == 1:
        return alias, DEFAULT_KIND
    if len(parts) == 2:
        return alias, parts[1]
    raise DXGParseError(
        f"target {spelling!r} must be 'Alias' or 'Alias.kind'"
    )


def _build_assignment(alias, kind, field_path, expr_text, inputs, declared_kinds):
    if not isinstance(expr_text, str):
        # Scalars are allowed as constant expressions: `method: ground`
        expr_text = repr(expr_text)
    try:
        expression = SafeExpression(expr_text)
    except Exception as exc:
        raise DXGParseError(
            f"bad expression for {alias}.{field_path}: {exc}"
        ) from exc
    sources = []
    uses_this = []
    for path in expression.paths:
        root = path[0]
        if root == "this":
            uses_this.append(".".join(path[1:]))
            continue
        if root not in inputs:
            # Function names and builtins show up as bare names; skip them.
            if len(path) == 1:
                continue
            raise DXGParseError(
                f"expression for {alias}.{field_path} references "
                f"undeclared alias {root!r}"
            )
        sources.append(_resolve_reference(path, declared_kinds))
    return Assignment(
        target_alias=alias,
        target_kind=kind,
        field=field_path,
        expression=expression,
        sources=tuple(sources),
        uses_this=tuple(uses_this),
    )


def _resolve_reference(path, declared_kinds):
    """Resolve ``(alias, part1, ...)`` against declared kinds."""
    alias = path[0]
    rest = path[1:]
    kinds = declared_kinds.get(alias, set())
    if rest and rest[0] in kinds and rest[0] != DEFAULT_KIND:
        return Reference(alias=alias, kind=rest[0], path=".".join(rest[1:]))
    return Reference(alias=alias, kind=DEFAULT_KIND, path=".".join(rest))
