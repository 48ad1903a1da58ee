"""Sync: the built-in integrator for Log exchanges.

A Sync is configured with one or more :class:`Flow` entries; each flow
watches a source Log store and, on every appended batch, runs a dataflow
pipeline over the new records and loads the result into a target Log
store.  The pipeline can execute at the source (analytics push-down,
the Log DE's native strength) or locally in the integrator -- an
ablation knob.

Example (the paper's smart home, Fig. 4): the House retrieves motion
readings from Motion, and Sync renames ``triggered`` to ``motion`` before
loading into the House's store::

    Sync("home-sync", flows=[
        Flow(source="knactor-motion-log", target="knactor-house-log",
             pipeline=Pipeline().filter("triggered == True")
                                 .rename("triggered", "motion")
                                 .cut("motion")),
    ])
"""

from dataclasses import dataclass, field
from functools import partial

from repro.errors import ConfigurationError
from repro.core.integrator import Integrator
from repro.obs.context import span_process
from repro.query.core import compile_ops


@dataclass
class Flow:
    """One source -> pipeline -> target flow."""

    source: str  # hosted Log store name
    target: str  # hosted Log store name
    pipeline: object = None  # Pipeline or list of op specs
    de: str = "log"
    at_source: bool = True  # run the pipeline in the source store (push-down)

    def ops(self):
        if self.pipeline is None:
            return []
        if hasattr(self.pipeline, "build"):
            return self.pipeline.build()
        return list(self.pipeline)


@dataclass
class _BoundFlow:
    flow: Flow
    source_handle: object
    target_handle: object
    ops: list = field(default_factory=list)
    next_seq: int = 0
    records_moved: int = 0
    batches: int = 0
    unmoved: set = field(default_factory=set)  # claimed (since, until)


class Sync(Integrator):
    """Dataflow integrator over Log Data Exchanges."""

    #: Simulated integrator CPU per locally-executed pipeline stage per record.
    local_stage_cost = 2e-6

    def __init__(self, name, flows=(), location=None):
        super().__init__(name, list(flows))
        self.location = location or name
        self._bound = {}  # (source, target) -> _BoundFlow

    # -- configuration --------------------------------------------------------

    def _apply_configuration(self, flows):
        bound_flows, followers = {}, []
        for flow in flows:
            if flow.source == flow.target:
                raise ConfigurationError(
                    f"flow source and target are the same store {flow.source!r}"
                )
            if (flow.source, flow.target) in bound_flows:
                raise ConfigurationError(
                    f"two flows from {flow.source!r} to {flow.target!r}")
            ops = flow.ops()
            compile_ops(ops)  # validate early
            bound = _BoundFlow(
                flow=flow,
                source_handle=self._handle(flow.de, flow.source),
                target_handle=self._handle(flow.de, flow.target),
                ops=ops,
            )
            kept = self._bound.get((flow.source, flow.target))
            if kept is not None:  # a kept flow carries on where it was
                bound.next_seq, bound.batches = kept.next_seq, kept.batches
                bound.records_moved = kept.records_moved
                bound.unmoved = set(kept.unmoved)
            followers.append(self._follow(
                bound.source_handle, partial(self._on_batch, bound),
                partial(self._catch_up, bound)))
            bound_flows[flow.source, flow.target] = bound
        return f"{len(bound_flows)} flow(s)", followers, {"_bound": bound_flows}

    def _catch_up(self, bound):
        """Bring the flow level with its source: a claimed range neither
        moved, queued nor parked was lost with a killed queue and is
        queued again, and records loaded while the subscription was down
        are recovered by claiming everything at or beyond ``next_seq``."""
        for since, until in sorted(bound.unmoved):
            key = (bound.flow.source, bound.flow.target, since, until)
            if key not in self.queue and key not in self.dead_letters.keys():
                self.queue.requeue(key)
        stats = yield bound.source_handle.stats()
        if stats["next_seq"] > bound.next_seq:
            self._claim(bound, stats["next_seq"], None, None)

    def _on_batch(self, bound, event):
        records = event.object["records"]
        until = max((r["_seq"] + 1 for r in records if "_seq" in r),
                    default=bound.next_seq)
        # Moved as delivered only from the cursor; past a loss, queried.
        local = (not bound.flow.at_source
                 and event.object["first_seq"] == bound.next_seq)
        self._claim(bound, until, records if local else None, event.ctx)

    def _claim(self, bound, until, records, parent):
        """Claim ``[next_seq, until)`` at intake, so concurrent batches
        never overlap, and queue its move keyed by the range."""
        since = bound.next_seq
        bound.next_seq = max(since, until)
        bound.batches += 1
        bound.unmoved.add((since, until))
        key = (bound.flow.source, bound.flow.target, since, until)
        self.queue.add(key, (records, parent))

    def _pass(self, key, payload):
        records, parent = payload or (None, None)  # None: a replay
        work = self._move(self.runtime.env, key, records)
        if parent is not None and parent.sink is not None:
            # The load that appended this batch is the causal parent
            # of the flow run that moves it downstream.
            octx = parent.sink.start_span(
                "sync-flow", service=self.name, parent=parent,
                source=key[0], target=key[1],
            )
            work = span_process(work, octx)
        return work

    def _move(self, env, key, records):
        bound = self._bound.get(key[:2])
        if bound is None or key[2:] not in bound.unmoved:
            return  # the flow was reconfigured away, or the range moved
        since, until = key[2:]
        if records is None:
            # Analytics push-down (and every catch-up or replay): the
            # pipeline runs in the source store.
            records = yield bound.source_handle.query(
                ops=bound.ops, since_seq=since, until_seq=until
            )
        else:
            # Local execution: transform the delivered batch in-process.
            pipeline = compile_ops(bound.ops)
            cost = self.local_stage_cost * max(1, len(bound.ops)) * len(records)
            if cost > 0:
                yield env.timeout(cost)
            records = pipeline([dict(r) for r in records])
        clean = [
            {k: v for k, v in record.items() if not k.startswith("_")}
            for record in records
        ]
        clean = [r for r in clean if r]
        if clean:
            yield bound.target_handle.load(clean)
        # A reconfiguration that kept the flow carried the range along.
        bound = self._bound.get(key[:2], bound)
        bound.records_moved += len(clean)
        bound.unmoved.discard((since, until))

    def stats(self):
        return dict(super().stats(), flows=[
            {
                "source": b.flow.source,
                "target": b.flow.target,
                "batches": b.batches,
                "records_moved": b.records_moved,
                "at_source": b.flow.at_source,
            }
            for b in self._bound.values()
        ])
