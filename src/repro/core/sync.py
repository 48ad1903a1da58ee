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

from repro.errors import ConfigurationError, UnavailableError
from repro.core.integrator import Integrator
from repro.obs.context import bind_generator, current_context, span_process
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
        self._bound = []

    # -- configuration --------------------------------------------------------

    def _on_bind(self):
        self._apply_configuration(self._initial_flows)

    def _apply_configuration(self, flows):
        self._on_stop()
        self._bound = []
        for flow in flows:
            if flow.source == flow.target:
                raise ConfigurationError(
                    f"flow source and target are the same store {flow.source!r}"
                )
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
            self._bound.append(bound)
        if self.started:
            self._on_start()
        return f"{len(self._bound)} flow(s)"

    # -- lifecycle ----------------------------------------------------------------

    def _on_start(self):
        for bound in self._bound:
            bound.follower.start()

    def _on_stop(self):
        for bound in self._bound:
            bound.follower.stop()

    def _catch_up(self, bound):
        """Records loaded while the subscription was down are recovered
        by querying everything at or beyond ``next_seq``."""
        env = self.runtime.env
        stats = yield bound.source_handle.stats()
        since, until = bound.next_seq, stats["next_seq"]
        if until <= since:
            return
        # Claimed before asking, like a delivered batch's range: the two
        # must never overlap.
        bound.next_seq = until
        try:
            records = yield bound.source_handle.query(
                ops=bound.ops, since_seq=since, until_seq=until
            )
            yield env.process(self._deliver(env, bound, records))
        except UnavailableError:
            if bound.next_seq == until:
                bound.next_seq = since  # unmoved: the retry asks again
            raise
        bound.batches += 1

    def _on_batch(self, bound, event):
        env = self.runtime.env
        self.runtime.tracer.record(
            "sync", "batch", integrator=self.name,
            source=bound.flow.source,
            count=len(event.object["records"]),
        )
        work = self._move(env, bound, event.object["records"])
        parent = event.ctx
        if parent is not None and parent.sink is not None:
            # The load that appended this batch is the causal parent
            # of the flow run that moves it downstream.
            octx = parent.sink.start_span(
                "sync-flow", service=self.name, parent=parent,
                source=bound.flow.source, target=bound.flow.target,
            )
            work = span_process(work, octx)
        env.process(work)

    def _move(self, env, bound, batch_records):
        bound.batches += 1
        # Claim the sequence range synchronously: concurrent batches must
        # not double-process overlapping records.
        since = bound.next_seq
        until = max(
            (r["_seq"] + 1 for r in batch_records if "_seq" in r),
            default=since,
        )
        bound.next_seq = max(bound.next_seq, until)
        if bound.flow.at_source:
            # Analytics push-down: the pipeline runs in the source store.
            records = yield bound.source_handle.query(
                ops=bound.ops, since_seq=since, until_seq=until
            )
        else:
            # Local execution: transform the delivered batch in-process.
            pipeline = compile_ops(bound.ops)
            cost = self.local_stage_cost * max(1, len(bound.ops)) * len(batch_records)
            if cost > 0:
                yield env.timeout(cost)
            records = pipeline([dict(r) for r in batch_records])
        deliver = self._deliver(env, bound, records)
        ctx = current_context()  # armed by the sync-flow span wrapper
        if ctx is not None:
            deliver = bind_generator(deliver, ctx)
        yield env.process(deliver)

    def _deliver(self, env, bound, records):
        clean = [
            {k: v for k, v in record.items() if not k.startswith("_")}
            for record in records
        ]
        clean = [r for r in clean if r]
        if clean:
            yield bound.target_handle.load(clean)
            bound.records_moved += len(clean)
            self.runtime.tracer.record(
                "sync", "loaded", integrator=self.name,
                target=bound.flow.target, count=len(clean),
            )
        else:
            yield env.timeout(0)

    def status(self):
        base = super().status()
        base["flows"] = [
            {
                "source": b.flow.source,
                "target": b.flow.target,
                "batches": b.batches,
                "records_moved": b.records_moved,
                "at_source": b.flow.at_source,
            }
            for b in self._bound
        ]
        return base
