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
from repro.store.follow import Follower


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
    follower: object = None
    updates: int = 0


class Rollup(Integrator):
    """Log-to-Object aggregation integrator."""

    def __init__(self, name, rules=(), location=None):
        super().__init__(name)
        self._initial_rules = list(rules)
        self.location = location or name
        self._bound = {}  # work-queue key -> _BoundRule

    def _on_bind(self):
        self._apply_configuration(self._initial_rules)

    def _apply_configuration(self, rules):
        self._on_stop()
        self._bound = {}
        for index, rule in enumerate(rules):
            if not rule.aggs:
                raise ConfigurationError(
                    f"rollup {rule.source} -> {rule.target} has no aggregations"
                )
            if rule.window is not None and rule.window <= 0:
                raise ConfigurationError("window must be positive")
            compile_ops(rule.ops(now=0.0))  # validate early
            log_de = self.runtime.exchange(rule.log_de)
            object_de = self.runtime.exchange(rule.object_de)
            bound = _BoundRule(
                key=f"{index}:{rule.source}->{rule.target}/{rule.target_key}",
                rule=rule,
                source_handle=log_de.handle(
                    rule.source, principal=self.name, location=self.location
                ),
                target_handle=object_de.handle(
                    rule.target, principal=self.name, location=self.location
                ),
            )
            # A batch landing and a catch-up are the same work: aggregate
            # the whole pool (or window) again, whatever is in it by now.
            bound.follower = Follower(
                self.runtime.env,
                partial(bound.source_handle.watch, partial(self._on_batch, bound)),
                partial(self.queue.requeue, bound.key),
            )
            self._bound[bound.key] = bound
        if self.started:
            self._on_start()
        return f"{len(self._bound)} rule(s)"

    def _on_start(self):
        for bound in self._bound.values():
            bound.follower.start()

    def _on_stop(self):
        for bound in self._bound.values():
            bound.follower.stop()

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
