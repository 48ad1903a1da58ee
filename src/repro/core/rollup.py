"""Rollup: a built-in integrator bridging Log and Object exchanges.

The paper's two built-in integrators each specialize in one DE type
("built-in integrators specialized for processing states over a type of
DE and data exchange patterns"): Cast syncs Object stores, Sync moves
Log records.  Rollup covers the third recurring pattern: **aggregate a
Log store into fields of an Object store** -- sensor readings into a
gauge, request logs into a rate, energy records into a running total.

Each :class:`RollupRule` runs a ZQL aggregation over the source pool
whenever a batch lands (optionally restricted to a trailing window) and
patches the result into the target object's fields.  A batch marks its
rule dirty: batches landing while the rule rolls make one more roll.
"""

from dataclasses import dataclass
from functools import partial

from repro.core.integrator import Integrator
from repro.errors import AlreadyExistsError, ConfigurationError, NotFoundError
from repro.query.core import compile_ops


@dataclass
class RollupRule:
    """One log -> object aggregation.

    - ``source``: hosted Log store name; ``target``: hosted Object store
      name; ``target_key``: the object to patch (created if absent).
    - ``aggs``: output field -> aggregation spelling (``"sum(kwh)"``).
    - ``where``: optional filter expression over records.
    - ``window``: optional trailing window in seconds of ``_ts`` (None =
      the whole pool).
    """

    source: str
    target: str
    target_key: str
    aggs: dict
    where: str = None
    window: float = None
    log_de: str = "log"
    object_de: str = "object"

    def ops(self, now):
        ops = []
        if self.window is not None:
            ops.append(
                {"op": "filter", "expr": f"_ts >= {now - self.window!r}"}
            )
        if self.where:
            ops.append({"op": "filter", "expr": self.where})
        ops.append({"op": "agg", "aggs": dict(self.aggs)})
        return ops


@dataclass
class _BoundRule:
    key: str  # the rule's work-queue key
    rule: RollupRule
    source_handle: object
    target_handle: object
    updates: int = 0


class Rollup(Integrator):
    """Log-to-Object aggregation integrator."""

    def __init__(self, name, rules=(), location=None):
        super().__init__(name, list(rules))
        self.location = location or name
        self._bound = {}  # work-queue key -> _BoundRule

    def _apply_configuration(self, rules):
        bound_rules, followers = {}, []
        for index, rule in enumerate(rules):
            if not rule.aggs:
                raise ConfigurationError(
                    f"rollup {rule.source} -> {rule.target} has no aggregations"
                )
            if rule.window is not None and rule.window <= 0:
                raise ConfigurationError("window must be positive")
            compile_ops(rule.ops(now=0.0))  # validate early
            bound = _BoundRule(
                key=f"{index}:{rule.source}->{rule.target}/{rule.target_key}",
                rule=rule,
                source_handle=self._handle(rule.log_de, rule.source),
                target_handle=self._handle(rule.object_de, rule.target),
            )
            # A batch landing and a catch-up are the same work: aggregate
            # the whole pool (or window) again, whatever is in it by now.
            followers.append(self._follow(
                bound.source_handle, partial(self._on_batch, bound),
                partial(self.queue.requeue, bound.key)))
            bound_rules[bound.key] = bound
        return f"{len(bound_rules)} rule(s)", followers, {"_bound": bound_rules}

    def _on_batch(self, bound, _event):
        self.queue.requeue(bound.key)

    def _pass(self, key, _payload):
        bound = self._bound.get(key)
        if bound is None:
            return  # the rule was reconfigured away
        rule = bound.rule
        [row] = yield bound.source_handle.query(
            ops=rule.ops(self.runtime.env.now))
        patch = {out: row.get(out) for out in rule.aggs}
        patch = {k: v for k, v in patch.items() if v is not None}
        if not patch:
            return
        try:
            yield bound.target_handle.patch(rule.target_key, patch)
        except NotFoundError:
            try:
                yield bound.target_handle.create(rule.target_key, patch)
            except AlreadyExistsError:
                yield bound.target_handle.patch(rule.target_key, patch)
        bound.updates += 1

    def stats(self):
        return dict(super().stats(), rules=[
            {
                "source": b.rule.source,
                "target": f"{b.rule.target}/{b.rule.target_key}",
                "updates": b.updates,
            }
            for b in self._bound.values()
        ])
