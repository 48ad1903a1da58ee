"""The shared query core: operator compilation for every read surface.

One pipeline language serves the whole repo -- the Log store's
server-side analytics, Sync/Rollup push-down dataflows, the unified
``DataExchange.query`` read API, and the federation plane's composed
views all compile the same operator specs through :func:`compile_ops`.

A query is a list of operator specs applied left-to-right to a batch of
records (plain dicts)::

    {"op": "filter",   "expr": "triggered == true"}
    {"op": "rename",   "from": "triggered", "to": "motion"}
    {"op": "cut",      "fields": ["ts", "motion"]}
    {"op": "drop",     "fields": ["raw"]}
    {"op": "derive",   "field": "kwh", "expr": "watts * hours / 1000"}
    {"op": "sort",     "by": "ts", "reverse": false}
    {"op": "head",     "count": 10}
    {"op": "tail",     "count": 10}
    {"op": "distinct", "field": "device"}
    {"op": "agg",      "aggs": {"total": "sum(kwh)"}, "by": ["device"]}

Expressions reference record fields by name (missing fields evaluate to
``None`` rather than failing: logs are semi-structured) and may use the
safe builtins of :mod:`repro.util.safeexpr`.

Errors are typed: a malformed spec or a pipeline failure raises
:class:`~repro.errors.QueryError` (a :class:`~repro.errors.StoreError`
subclass, so pre-existing handlers keep working) that names the
offending operator spec.
"""

from repro.errors import ExpressionError, QueryError
from repro.util.safeexpr import SAFE_BUILTINS, SafeExpression


def _eval(expr, record):
    """Evaluate against a record; absent fields read as None.

    Free names that are safe builtins (``int``, ``len``, ...) stay
    functions unless the record actually has a field of that name.
    """
    context = {
        name: record.get(name)
        for name in expr.names
        if name != "this" and (name not in SAFE_BUILTINS or name in record)
    }
    context["this"] = record
    try:
        return expr.evaluate(context)
    except ExpressionError:
        return None


def compile_ops(ops):
    """Compile operator specs into a ``records -> records`` callable."""
    stages = [_compile_op(spec) for spec in ops]

    def run(records):
        for stage in stages:
            records = stage(records)
        return records

    run.stages = len(stages)
    return run


def _compile_op(spec):
    if not isinstance(spec, dict) or "op" not in spec:
        raise QueryError(f"bad operator spec {spec!r}")
    op = spec["op"]
    builder = _BUILDERS.get(op)
    if builder is None:
        raise QueryError(f"unknown operator {op!r}")
    return builder(spec)


def _require(spec, *keys):
    for key in keys:
        if key not in spec:
            raise QueryError(f"operator {spec.get('op')!r} requires {key!r}")


def _build_filter(spec):
    _require(spec, "expr")
    expr = SafeExpression(spec["expr"])

    def stage(records):
        return [r for r in records if _eval(expr, r)]

    return stage


def _build_rename(spec):
    _require(spec, "from", "to")
    src, dst = spec["from"], spec["to"]

    def stage(records):
        out = []
        for record in records:
            record = dict(record)
            if src in record:
                record[dst] = record.pop(src)
            out.append(record)
        return out

    return stage


def _build_cut(spec):
    _require(spec, "fields")
    fields = list(spec["fields"])

    def stage(records):
        return [{f: r.get(f) for f in fields if f in r} for r in records]

    return stage


def _build_drop(spec):
    _require(spec, "fields")
    fields = set(spec["fields"])

    def stage(records):
        return [{k: v for k, v in r.items() if k not in fields} for r in records]

    return stage


def _build_derive(spec):
    _require(spec, "field", "expr")
    field = spec["field"]
    expr = SafeExpression(spec["expr"])

    def stage(records):
        out = []
        for record in records:
            record = dict(record)
            record[field] = _eval(expr, record)
            out.append(record)
        return out

    return stage


def _build_sort(spec):
    _require(spec, "by")
    by = spec["by"]
    reverse = bool(spec.get("reverse", False))

    def key(record):
        value = record.get(by)
        # None sorts first (stable across mixed presence).
        return (value is not None, value)

    def stage(records):
        if records and not any(by in r for r in records):
            # A field no record carries is a spec mistake, not a
            # semi-structured gap -- fail loudly, naming the operator.
            raise QueryError(
                f"sort: unknown field {by!r} (no scanned record has it) "
                f"in op {spec!r}"
            )
        try:
            return sorted(records, key=key, reverse=reverse)
        except TypeError as error:
            raise QueryError(
                f"sort: field {by!r} mixes un-orderable types in op "
                f"{spec!r}: {error}"
            ) from None

    return stage


def _build_head(spec):
    count = int(spec.get("count", 1))

    def stage(records):
        return records[:count]

    return stage


def _build_tail(spec):
    count = int(spec.get("count", 1))

    def stage(records):
        return records[-count:] if count else []

    return stage


def _build_distinct(spec):
    _require(spec, "field")
    field = spec["field"]

    def stage(records):
        seen = set()
        out = []
        for record in records:
            value = record.get(field)
            marker = (type(value).__name__, str(value))
            if marker not in seen:
                seen.add(marker)
                out.append(record)
        return out

    return stage


_AGG_RE_HELP = "aggregations must look like 'sum(field)', 'count()', 'avg(x)'"
_AGG_FUNCS = {
    "sum": lambda values: sum(values) if values else 0,
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
    "avg": lambda values: (sum(values) / len(values)) if values else None,
    "count": len,
    "first": lambda values: values[0] if values else None,
    "last": lambda values: values[-1] if values else None,
}


def _parse_agg(text):
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise QueryError(f"bad aggregation {text!r}: {_AGG_RE_HELP}")
    fn_name, arg = text[:-1].split("(", 1)
    fn = _AGG_FUNCS.get(fn_name.strip())
    if fn is None:
        raise QueryError(f"unknown aggregation function {fn_name!r}")
    return fn_name.strip(), fn, arg.strip()


def _build_agg(spec):
    _require(spec, "aggs")
    parsed = {out: _parse_agg(agg) for out, agg in spec["aggs"].items()}
    group_by = list(spec.get("by", []))

    def stage(records):
        groups = {}
        for record in records:
            key = tuple(record.get(g) for g in group_by)
            groups.setdefault(key, []).append(record)
        if not groups and not group_by:
            # Global aggregation over no records: one identity row
            # (count()=0, sum()=0, ...), matching SQL semantics.
            groups[()] = []
        out = []
        for key, members in groups.items():
            row = dict(zip(group_by, key))
            for out_field, (fn_name, fn, arg) in parsed.items():
                if fn_name == "count" and not arg:
                    row[out_field] = len(members)
                else:
                    values = [m[arg] for m in members if m.get(arg) is not None]
                    row[out_field] = fn(values)
            out.append(row)
        return out

    return stage


_BUILDERS = {
    "filter": _build_filter,
    "rename": _build_rename,
    "cut": _build_cut,
    "drop": _build_drop,
    "derive": _build_derive,
    "sort": _build_sort,
    "head": _build_head,
    "tail": _build_tail,
    "distinct": _build_distinct,
    "agg": _build_agg,
}

#: Operator names understood by :func:`compile_ops`.
OPERATORS = frozenset(_BUILDERS)
