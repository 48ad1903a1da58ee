"""Bounded verification of DXG robustness (paper §5).

"The visibility over states and data exchanges in Knactor allows
developers to leverage tools such as formal methods and static analysis
[...] for implementing composition at large-scale."

Static analysis (cycle/unused-state detection) lives in
:mod:`repro.core.dxg.analysis`.  This module adds a *dynamic* bounded
checker: **confluence**.  A data exchange is confluent when the final
fixpoint does not depend on the order in which source updates arrive --
the property that makes integrators safe to run against watch streams,
whose delivery order across stores is not guaranteed.

:func:`check_confluence` replays a set of source-state updates in every
*valid* interleaving (bounded): per-object update order is preserved --
that is the FIFO guarantee a watch stream gives -- while updates to
DIFFERENT objects interleave arbitrarily, which is exactly what is NOT
guaranteed across stores.  The executor runs to fixpoint after each
delivery; final states of all involved objects must match across
interleavings.  Any divergence is reported with the two orderings that
disagree -- the counterexample a developer needs.
"""

from dataclasses import dataclass, field
from itertools import islice

from repro.core.dxg.executor import DXGExecutor
from repro.errors import ConfigurationError
from repro.exchange import ObjectDE
from repro.simnet import Environment, FixedLatency, Network
from repro.store import MemKV


@dataclass
class ConfluenceReport:
    """Outcome of a bounded confluence check."""

    confluent: bool
    orders_checked: int
    final_state: dict = None  # (alias, kind) -> data, when confluent
    counterexample: tuple = None  # (order_a, state_a, order_b, state_b)
    problems: list = field(init=False, default_factory=list)

    def describe(self):
        if self.confluent:
            return f"confluent across {self.orders_checked} orderings"
        lines = [f"NOT confluent (checked {self.orders_checked} orderings)"]
        if self.counterexample:
            order_a, state_a, order_b, state_b = self.counterexample
            lines.append(f"  order {order_a} -> {state_a}")
            lines.append(f"  order {order_b} -> {state_b}")
        lines.extend(f"  {p}" for p in self.problems)
        return "\n".join(lines)


#: The correlation id every checked ordering runs under.
_CID = "verify"


def check_confluence(spec, schemas, updates, creatable_targets=None,
                     max_orders=24):
    """Bounded confluence check for one correlation group.

    - ``spec``: a parsed :class:`DXGSpec`.
    - ``schemas``: ``{alias: Schema}`` for every alias (hosted on a fresh
      in-memory exchange per ordering).
    - ``updates``: list of ``(alias, kind, data)`` source writes; the
      first occurrence of an (alias, kind) creates the object, later ones
      update it.  All orderings (up to ``max_orders``) are executed with
      an exchange run to fixpoint after every write.
    - Returns a :class:`ConfluenceReport`.
    """
    if not updates:
        raise ConfigurationError("need at least one source update")
    if max_orders < 1:
        raise ConfigurationError("max_orders must be >= 1")

    groups = [(alias, kind) for alias, kind, _data in updates]
    orders = list(islice(_interleavings(groups), max_orders))
    outcomes = []
    for order in orders:
        state = _run_order(spec, schemas, updates, order, creatable_targets)
        outcomes.append((order, state))

    report = ConfluenceReport(confluent=True, orders_checked=len(orders))
    baseline_order, baseline = outcomes[0]
    report.final_state = baseline
    for order, state in outcomes[1:]:
        if state != baseline:
            report.confluent = False
            report.counterexample = (baseline_order, baseline, order, state)
            report.final_state = None
            diverging = sorted(
                k for k in set(baseline) | set(state)
                if baseline.get(k) != state.get(k)
            )
            report.problems.append(
                "diverging objects: "
                + ", ".join(".".join(p for p in key if p) for key in diverging)
            )
            break
    return report


def _interleavings(groups):
    """All index orderings preserving each group's internal order.

    ``groups[i]`` is update ``i``'s object identity; within one object,
    updates stay FIFO (the watch-stream guarantee), across objects they
    shuffle freely.
    """
    queues = {}
    for index, group in enumerate(groups):
        queues.setdefault(group, []).append(index)

    def merge(remaining, prefix):
        live = [g for g, q in remaining.items() if q]
        if not live:
            yield tuple(prefix)
            return
        for group in live:
            head, *rest = remaining[group]
            next_remaining = dict(remaining)
            next_remaining[group] = rest
            yield from merge(next_remaining, prefix + [head])

    yield from merge(queues, [])


def _run_order(spec, schemas, updates, order, creatable_targets):
    env = Environment()
    network = Network(env, default_latency=FixedLatency(0.0))
    de = ObjectDE(env, MemKV(env, network, watch_overhead=0.0))
    handles = {}
    owners = {}
    for alias in spec.inputs:
        schema = schemas.get(alias)
        if schema is None:
            raise ConfigurationError(f"no schema supplied for alias {alias!r}")
        store_name = f"verify-{alias}"
        de.host_store(store_name, schema, owner=f"owner-{alias}")
        de.grant("verifier", store_name, role="integrator")
        handles[alias] = de.handle(store_name, principal="verifier")
        owners[alias] = de.handle(store_name, principal=f"owner-{alias}")
    executor = DXGExecutor(env, spec, handles,
                           creatable_targets=creatable_targets)

    from repro.errors import AlreadyExistsError

    created = set()
    for index in order:
        alias, kind, data = updates[index]
        key = executor.object_key(kind, _CID)
        owner = owners[alias]
        if (alias, kind) in created:
            env.run(until=owner.patch(key, data))
        else:
            # The integrator may have created the object already (it is a
            # creatable DXG target); the owner's first write then merges.
            try:
                env.run(until=owner.create(key, data))
            except AlreadyExistsError:
                env.run(until=owner.patch(key, data))
            created.add((alias, kind))
        env.run(until=executor.exchange(_CID))

    # Final snapshot of every involved object.
    snapshot = {}
    for alias, kind in executor._involved:
        key = executor.object_key(kind, _CID)
        try:
            view = env.run(until=owners[alias].get(key))
            snapshot[(alias, kind)] = view["data"]
        except Exception:
            snapshot[(alias, kind)] = None
    return snapshot
