"""Property tests: the executor's bound scope against from-scratch evaluation.

The executor evaluates every expression in ONE :class:`Scope` that it
binds once per exchange and re-binds in place, and writes a computed
field into a path-copied overlay of the (frozen) target.  Both are
checked here against references that build everything afresh:
``evaluate(context_dict, functions)`` per expression, and a
``copy.deepcopy``-based step evaluation, run pass after pass until a
pass changes nothing, kept in this file.
"""

import copy
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dxg import DXGExecutor, parse_dxg, standard_functions
from repro.core.dxg import executor as executor_module
from repro.core.dxg.executor import ExchangeStats
from repro.errors import ExpressionError
from repro.simnet import Environment
from repro.store.cow import FrozenViewError, freeze
from repro.util.paths import set_path
from repro.util.safeexpr import SafeExpression, Scope

_ints = st.integers(min_value=-20, max_value=20)
_rows = st.lists(st.fixed_dictionaries({"v": _ints}), max_size=3)

# ---------------------------------------------------------------------------
# Bound scope == from-scratch evaluate(dict, functions)
# ---------------------------------------------------------------------------

POOL = [SafeExpression(source) for source in (
    "A.x + B.y",
    "A.inner.z * 2",
    "A",
    "A.inner",
    "A.missing",
    "A.rows[0].v",
    "len(A.rows)",
    "[i.v * B.y for i in A.rows]",
    "{abs(i.v) for i in A.rows}",
    "sum(i.v for i in A.rows)",
    "sorted(clamp(i.v, 0, B.y) for i in A.rows)",
    "[[j + A.x for j in [i.v]] for i in A.rows if i.v != B.y]",
    "'hi' if A.x > B.y else 'lo'",
    "coalesce(A.opt, B.y)",
    "lookup(A.inner, 'z', 0)",
    "1 / A.x",
    "max",
    "max(A.x, B.y)",
    "cid",
    "concat(cid, '-', A.x)",
    "this.x + 1",
    "nope + 1",
)]

#: Every data name a context may bind; ``max`` shadows the builtin.
NAMES = ("A", "B", "this", "cid", "max")

_contexts = st.fixed_dictionaries({}, optional={
    "A": st.fixed_dictionaries(
        {"x": _ints, "inner": st.fixed_dictionaries({"z": _ints}),
         "rows": _rows},
        optional={"opt": _ints},
    ),
    "B": st.fixed_dictionaries({"y": _ints}),
    "this": st.fixed_dictionaries({"x": _ints}),
    "cid": st.text(alphabet="abc", min_size=1, max_size=3),
    "max": _ints,
})


def outcome(evaluate):
    try:
        return ("ok", evaluate())
    except ExpressionError as exc:
        return ("error", str(exc))


class TestBoundScopeEqualsFromScratch:
    @settings(max_examples=60, deadline=None)
    @given(contexts=st.lists(_contexts, min_size=1, max_size=4),
           frozen=st.booleans())
    def test_same_outcome_over_a_history_of_contexts(self, contexts, frozen):
        """One scope lives through the whole history, like an executor's:
        a binding left over from an earlier context would show."""
        functions = standard_functions().table()
        scope = Scope(functions)
        for context in contexts:
            if frozen:
                context = freeze(context)
            for name in NAMES:
                if name in context:
                    scope.bind(name, context[name])
                else:
                    scope.unbind(name)
            for expr in POOL:
                assert outcome(lambda: expr.evaluate(scope)) == outcome(
                    lambda: expr.evaluate(context, functions)
                ), expr.source
        assert set(scope.names) - set(NAMES) == (
            set(Scope(functions).names) - set(NAMES))


# ---------------------------------------------------------------------------
# The worklist == the deepcopy-based reference, pass after pass
# ---------------------------------------------------------------------------

SPEC = parse_dxg("""\
Input:
  A: app/v1/A/store-a
  B: app/v1/B/store-b
  T: app/v1/T/store-t
DXG:
  A.order:
    stamp: concat(cid, ':', A.n)
  T.rec:
    total: sum(i.p * B.rate for i in A.order.items)
    label: concat(cid, '-', A.order.name)
    doubled: this.total * 2
    nested:
      deep: this.doubled + this.seed
      flag: this.nested.deep > 10
    keep:
      n: A.n
    big: max(this.seed, B.rate)
  B:
    seen: this.rate + A.n
""")

_items = st.lists(st.fixed_dictionaries({"p": _ints}), max_size=3)
_objects = st.fixed_dictionaries({
    # A has a default kind AND a named kind: the merged-slot path.
    ("A", ""): st.none() | st.fixed_dictionaries(
        {}, optional={"n": _ints, "order": _ints}),
    ("A", "order"): st.none() | st.fixed_dictionaries(
        {"items": _items}, optional={"name": st.sampled_from(["x", "y"])}),
    ("B", ""): st.none() | st.fixed_dictionaries({}, optional={"rate": _ints}),
    ("T", "rec"): st.none() | st.fixed_dictionaries({}, optional={
        "seed": _ints,
        "total": _ints,
        "nested": st.fixed_dictionaries(
            {"other": st.lists(_ints, max_size=2)}, optional={"deep": _ints}),
        "keep": st.fixed_dictionaries({"m": _ints}),
    }),
})
_cids = st.none() | st.sampled_from(["o1", "o2"])


def reference_context(objects):
    """The parent commit's ``_context_for``, verbatim."""
    context = {}
    for (alias, kind), data in objects.items():
        slot = context.setdefault(alias, {})
        if data is None:
            continue
        if kind:
            slot[kind] = data
        else:
            for key, value in data.items():
                if key in slot and isinstance(slot[key], dict):
                    continue
                slot[key] = value
    return context


def reference_step(executor, step, objects, cid):
    """One write step's values and not-ready count: deep-copied target
    (values computed earlier in the step are visible to later ``this.``
    reads), a fresh scope dict and a fresh function table per
    assignment."""
    values, skipped = {}, 0
    target = objects.get((step.alias, step.kind))
    working = copy.deepcopy(target if target is not None else {})
    context = reference_context(objects)
    for assignment in step.assignments:
        if any(objects.get((ref.alias, ref.kind)) is None
               for ref in assignment.sources):
            skipped += 1
            continue
        scope = dict(context)
        scope["this"] = working
        if cid is not None:
            scope["cid"] = cid
        try:
            value = assignment.expression.evaluate(
                scope, executor.functions.table())
        except ExpressionError:
            skipped += 1
            continue
        if value is None:
            skipped += 1
            continue
        values[assignment.field] = value
        set_path(working, assignment.field, value)
    return values, skipped


def reference_fixpoint(executor, objects, cid):
    """The plan's steps over a copy of ``objects``, pass after pass,
    until a pass changes nothing."""
    working = dict(objects)
    for _pass in range(executor.options.max_passes):
        moved = False
        for step in executor.plan.steps:
            current = working.get(step.target)
            values, _skipped = reference_step(executor, step, working, cid)
            changed = executor._changed_fields(current or {}, values)
            if not changed or (current is None and not step.creatable):
                continue
            working[step.target] = copy.deepcopy(current or {})
            for path, value in changed.items():
                set_path(working[step.target], path, value)
            moved = True
        if not moved:
            return working
    raise AssertionError("the reference did not quiesce")


def make_executor():
    return DXGExecutor(
        Environment(), SPEC, handles={"A": None, "B": None, "T": None})


class TestComputeStepEqualsReference:
    def test_the_spec_exercises_chaining(self):
        step = make_executor().plan.step_for("T", "rec")
        fields = [a.field for a in step.assignments]
        for earlier, later in (("total", "doubled"), ("doubled", "nested.deep"),
                               ("nested.deep", "nested.flag")):
            assert fields.index(earlier) < fields.index(later)

    @settings(max_examples=80, deadline=None)
    @given(history=st.lists(st.tuples(_objects, _cids), min_size=1, max_size=4),
           frozen=st.booleans())
    def test_same_values_and_target_never_mutated(self, history, frozen):
        executor = make_executor()  # one executor, one scope, many exchanges
        for objects, cid in history:
            if frozen:
                objects = {key: freeze(data) for key, data in objects.items()}
            before = copy.deepcopy(objects)
            evaluated = Counter()
            evaluate = SafeExpression.evaluate

            def counting(expr, scope):
                evaluated[expr.source] += 1
                return evaluate(expr, scope)

            # A frozen target raises FrozenViewError if it is written.
            with mock.patch.object(SafeExpression, "evaluate", counting):
                got = executor._fixpoint(cid, objects, ExchangeStats())
            assert got == reference_fixpoint(executor, objects, cid)
            assert objects == before
            # The DXG is acyclic: the worklist evaluates nothing twice.
            assert max(evaluated.values(), default=0) <= 1

    def test_a_write_into_the_frozen_target_is_not_swallowed(self, monkeypatch):
        """The overlay write sits outside the ExpressionError handler: if
        it ever reached the target's frozen state, that must raise, not
        count as one more skipped assignment."""
        monkeypatch.setattr(executor_module, "set_shared", set_path)
        executor = make_executor()
        objects = {
            ("A", ""): freeze({"n": 1}), ("A", "order"): None,
            ("B", ""): None,
            ("T", "rec"): freeze({"keep": {"m": 1}}),
        }
        with pytest.raises(FrozenViewError):
            executor._fixpoint("o1", objects, ExchangeStats())
