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
from repro.store.follow import Follower


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
    follower: object = None


class Sync(Integrator):
    """Dataflow integrator over Log Data Exchanges."""

    #: Simulated integrator CPU per locally-executed pipeline stage per record.
    local_stage_cost = 2e-6

    def __init__(self, name, flows=(), location=None):
        super().__init__(name)
        self._initial_flows = list(flows)
        self.location = location or name
        self._bound = {}  # (source, target) -> _BoundFlow

    # -- configuration --------------------------------------------------------

    def _on_bind(self):
        self._apply_configuration(self._initial_flows)

    def _apply_configuration(self, flows):
        self._on_stop()
        self._bound = {}
        for flow in flows:
            if flow.source == flow.target:
                raise ConfigurationError(
                    f"flow source and target are the same store {flow.source!r}"
                )
            if (flow.source, flow.target) in self._bound:
                raise ConfigurationError(
                    f"two flows from {flow.source!r} to {flow.target!r}")
            de = self.runtime.exchange(flow.de)
            ops = flow.ops()
            compile_ops(ops)  # validate early
            bound = _BoundFlow(
                flow=flow,
                source_handle=de.handle(
                    flow.source, principal=self.name, location=self.location
                ),
                target_handle=de.handle(
                    flow.target, principal=self.name, location=self.location
                ),
                ops=ops,
            )
            bound.follower = Follower(
                self.runtime.env,
                partial(bound.source_handle.watch, partial(self._on_batch, bound)),
                partial(self._catch_up, bound),
            )
            self._bound[flow.source, flow.target] = bound
        if self.started:
            self._on_start()
        return f"{len(self._bound)} flow(s)"

    # -- lifecycle ----------------------------------------------------------------

    def _on_start(self):
        for bound in self._bound.values():
            bound.follower.start()

    def _on_stop(self):
        for bound in self._bound.values():
            bound.follower.stop()

    def _catch_up(self, bound):
        """Records loaded while the subscription was down are recovered
        by claiming everything at or beyond ``next_seq``."""
        stats = yield bound.source_handle.stats()
        if stats["next_seq"] > bound.next_seq:
            self._claim(bound, stats["next_seq"], None, None)

    def _on_batch(self, bound, event):
        records = event.object["records"]
        until = max((r["_seq"] + 1 for r in records if "_seq" in r),
                    default=bound.next_seq)
        self._claim(bound, until,
                    None if bound.flow.at_source else records, event.ctx)

    def _claim(self, bound, until, records, parent):
        """Claim ``[next_seq, until)`` at intake, so concurrent batches
        never overlap, and queue its move keyed by the range."""
        since = bound.next_seq
        bound.next_seq = max(since, until)
        bound.batches += 1
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
        if bound is None:
            return  # the flow was reconfigured away
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
            bound.records_moved += len(clean)

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
