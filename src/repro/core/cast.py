"""Cast: the built-in integrator for Object exchanges, driven by a DXG.

Cast watches every store its DXG involves; when any object changes it runs
the data exchange for that object's correlation id (fixpoint evaluation,
see :mod:`repro.core.dxg.executor`).  It is level-triggered on *news*: a
watch event carrying state the executor already holds -- the echo of a
read or write Cast itself just made, a rewrite to the same value -- is
counted (``events_ignored``) and starts nothing.  Reconfiguration swaps
the DXG in place -- running services are untouched.

Push-down (paper §3.3 / Table 2's ``K-redis-udf``): with a UDF-capable
backend, Cast registers the whole exchange as a server-side function and
issues a single ``fcall`` per change instead of N reads + M writes.
"""

import random
import zlib
from collections import OrderedDict
from functools import partial

from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    ConflictError,
    DXGError,
    UnavailableError,
)
from repro.faults.dlq import DeadLetterQueue
from repro.obs.context import use
from repro.core.dxg import DXGExecutor, analyze, parse_dxg, standard_functions
from repro.core.dxg.executor import ExecutorOptions
from repro.core.dxg.parser import DXGSpec, build_spec
from repro.core.integrator import Integrator
from repro.store.base import MODIFIED, WatchEvent
from repro.store.follow import Follower
from repro.store.memkv import MemKVClient


class Cast(Integrator):
    """DXG-driven integrator over an Object Data Exchange."""

    #: Simulated integrator CPU time per assignment per exchange.
    compute_cost_per_assignment = 5e-6

    #: Transient-failure policy: an exchange hitting an unavailable /
    #: conflicting store is requeued with jittered backoff up to this
    #: many times, then its cid is dead-lettered.
    max_exchange_attempts = 5
    requeue_backoff = 0.005

    #: The runtime exchange a Cast composes over.
    de_name = "object"

    def __init__(
        self,
        name,
        spec,
        options=None,
        pushdown=False,
        store_map=None,
        location=None,
        workers=1,
    ):
        super().__init__(name)
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers
        self._initial_spec = spec
        self.functions = standard_functions()
        self.options = options or ExecutorOptions()
        self.pushdown = pushdown
        self.store_map = dict(store_map) if store_map else None
        self.location = location or name
        self.executor = None
        self.analysis = None
        self._inputs = None
        self._body = None
        self._extra_kinds = {}
        self._globals = {}
        self._followers = []
        self._queue = OrderedDict()
        self._cid_ctx = {}  # cid -> causal ctx of the latest triggering commit
        self._wakeups = []
        self._workers = []
        self._in_flight = set()
        self._seen_cids = set()
        # cids whose last exchange was abandoned (denied, diverged,
        # dead-lettered): what it read and wrote is cached but covered by
        # no finished computation, so their next event is news whatever
        # state it carries.  Kept by ``_work_loop`` alone, beside
        # ``_in_flight``, save for a retry dropped with its worker.
        self._owed = set()
        self._udf_name = None
        self._udf_client = None
        self._exchange_failures = {}  # cid -> consecutive transient failures
        self._rng = random.Random(zlib.crc32(name.encode()))
        self.dead_letters = DeadLetterQueue(name=name)
        self.exchanges_run = 0
        self.events_ignored = 0  # watch events that carried no news
        self.denied = 0
        self.errors = 0
        self.unavailable_count = 0
        self.kill_count = 0

    # -- configuration ------------------------------------------------------------

    def _on_bind(self):
        self._apply_configuration(self._initial_spec)

    def _apply_configuration(self, spec=None, body=None):
        """(Re)build the executor from a spec (text / DXGSpec) or a body.

        ``body`` is the programmatic form: ``{target: {field: expr}}``,
        merged over the current body (None removes a field) -- this is how
        run-time policy additions work (e.g. T2's shipment-method policy).
        """
        if spec is not None and body is not None:
            raise ConfigurationError("pass either spec or body, not both")
        if spec is not None:
            if isinstance(spec, str):
                spec = parse_dxg(spec)
            if not isinstance(spec, DXGSpec):
                raise ConfigurationError(f"bad spec {spec!r}")
            self._inputs = dict(spec.inputs)
            self._globals = dict(spec.globals_)
            self._body = self._body_of(spec)
            # Preserve source-only kinds for later body-based rebuilds.
            target_kinds = {
                (a.target_alias, a.target_kind) for a in spec.assignments
            }
            self._extra_kinds = {}
            for a in spec.assignments:
                for ref in a.sources:
                    if ref.kind and (ref.alias, ref.kind) not in target_kinds:
                        self._extra_kinds.setdefault(ref.alias, set()).add(ref.kind)
        else:
            if self._body is None:
                raise ConfigurationError("no existing spec to amend")
            merged = {t: dict(fields) for t, fields in self._body.items()}
            for target, fields in (body or {}).items():
                slot = merged.setdefault(target, {})
                for field_name, expr in fields.items():
                    if expr is None:
                        slot.pop(field_name, None)
                    else:
                        slot[field_name] = expr
                if not slot:
                    del merged[target]
            spec = build_spec(
                self._inputs, merged,
                extra_kinds={a: sorted(k) for a, k in self._extra_kinds.items()},
                globals_=self._globals,
            )
            self._body = merged

        de = self.runtime.exchange(self.de_name)
        store_names = {
            alias: self._store_name(alias, ref)
            for alias, ref in spec.inputs.items()
        }
        schemas = {
            alias: de.schema_for(store_name)
            for alias, store_name in store_names.items()
        }
        self.analysis = analyze(spec, functions=self.functions, schemas=schemas)
        self.analysis.raise_if_invalid()
        handles = {
            alias: de.handle(store_name, principal=self.name, location=self.location)
            for alias, store_name in store_names.items()
        }
        self.executor = DXGExecutor(
            self.runtime.env,
            spec,
            handles,
            functions=self.functions,
            options=self.options,
            tracer=self.runtime.tracer,
        )
        self._store_names = store_names
        if self.pushdown:
            self._install_pushdown(de)
        if self.started:
            self._follow_stores()
        return f"dxg with {len(spec.assignments)} assignment(s)"

    @staticmethod
    def _body_of(spec):
        body = {}
        for a in spec.assignments:
            target = f"{a.target_alias}.{a.target_kind}" if a.target_kind else a.target_alias
            body.setdefault(target, {})[a.field] = a.expression.source
        return body

    def _store_name(self, alias, ref):
        if self.store_map and alias in self.store_map:
            return self.store_map[alias]
        # Convention: the input reference's last component names the store.
        return ref.rsplit("/", 1)[-1]

    def _install_pushdown(self, de):
        if not getattr(de, "supports_udf", False):
            raise ConfigurationError(
                f"integrator {self.name!r}: push-down requires a "
                "UDF-capable backend (MemKV)"
            )
        prefixes = {
            alias: de.store(store_name).key_prefix
            for alias, store_name in self._store_names.items()
        }
        self._udf_name = f"dxg:{self.name}:g{self.generation + 1}"
        de.backend.functions.register(
            self._udf_name,
            self.executor.as_udf(prefixes),
            cost=self.executor.udf_cost,
        )
        self._udf_client = MemKVClient(de.backend, location=self.location)

    # -- convenience reconfiguration API ----------------------------------------------

    def set_assignment(self, target, field, expression):
        """Add/replace one assignment at run time (a data-centric policy)."""
        return self.reconfigure(body={target: {field: expression}})

    def remove_assignment(self, target, field):
        return self.reconfigure(body={target: {field: None}})

    # -- lifecycle ------------------------------------------------------------------------

    def _on_start(self):
        self._follow_stores()
        env = self.runtime.env
        self._workers = [
            env.process(self._work_loop(env)) for _ in range(self.workers)
        ]

    def _on_stop(self):
        for follower in self._followers:
            follower.stop()
        self._kick()

    def _follow_stores(self):
        """One follower per alias of the current executor (a
        reconfiguration binds new handles, so it replaces them all)."""
        for follower in self._followers:
            follower.stop()
        self._followers = [
            Follower(
                self.runtime.env,
                partial(handle.watch, partial(self._ingest, alias)),
                partial(self._catch_up, alias, handle),
            )
            for alias, handle in self.executor.handles.items()
        ]
        for follower in self._followers:
            follower.start()

    def _catch_up(self, alias, handle):
        """``alias``'s stream broke (or the worker restarted): re-list its
        store, then re-run every known group and ingest each listed
        object as the event it would have raised.  Nothing is queued
        until the store has answered -- exchanges against a store that
        is still down only burn their attempts on the way to the DLQ."""
        views = ()
        if not self.executor.is_global(alias):  # those share one cache slot
            views = yield handle.list()
        for cid in sorted(self._seen_cids):
            self._queue[cid] = True
        for view in views:
            self._ingest(alias, WatchEvent(
                MODIFIED, view["key"], view["data"], view["revision"]))
        self._kick()

    def _ingest(self, alias, event):
        kind, cid = DXGExecutor.split_key(event.key)
        self.runtime.tracer.record(
            "cast", "event", integrator=self.name, alias=alias,
            kind=kind, cid=cid, type=event.type,
        )
        news = self.executor.observe(
            alias, kind, cid, None if event.type == "DELETED" else event.object
        )
        if not news and cid not in self._owed:
            self.events_ignored += 1
            return
        if self.executor.is_global(alias):
            # A lookup object changed: every known exchange group may
            # derive different values now.  Sorted: deterministic.
            for seen_cid in sorted(self._seen_cids):
                self._queue[seen_cid] = True
        else:
            self._seen_cids.add(cid)
            self._queue[cid] = True
            # The commit that triggered this exchange is its causal
            # parent (lookup-object fan-outs keep no per-cid parent:
            # one global change is not "the" cause of N exchanges).
            self._cid_ctx[cid] = event.ctx
        self._kick()

    def _kick(self):
        pending, self._wakeups = self._wakeups, []
        for wakeup in pending:
            if not wakeup.triggered:
                wakeup.succeed()

    # -- the exchange loop ----------------------------------------------------------------

    def _work_loop(self, env):
        while self.started:
            cid = self._next_cid()
            if cid is None:
                wakeup = env.event()
                self._wakeups.append(wakeup)
                yield wakeup
                continue
            self._in_flight.add(cid)
            self._owed.discard(cid)  # this is the exchange it was owed
            settled = False
            try:
                settled = yield env.process(self._process(env, cid))
            finally:
                self._in_flight.discard(cid)
                if not settled:
                    # Every exit of ``_process`` that neither finished
                    # nor scheduled a retry, listed there or not.
                    self._owed.add(cid)
                self._kick()  # a worker may be waiting on this cid

    def _next_cid(self):
        """Pop the first queued cid that is not already being processed.

        Per-cid execution stays serial even with multiple workers: two
        concurrent exchanges for one correlation id would race their
        read-compute-write cycles.
        """
        for cid in self._queue:
            if cid not in self._in_flight:
                del self._queue[cid]
                return cid
        return None

    def _process(self, env, cid):
        """One exchange for ``cid``; True when it finished or a retry is
        scheduled, anything else leaves the cid owed one."""
        tracer = self.runtime.tracer
        tracer.record("cast", "begin", integrator=self.name, cid=cid)
        parent = self._cid_ctx.pop(cid, None)
        octx = None
        if parent is not None and parent.sink is not None:
            octx = parent.sink.start_span(
                "exchange", service=self.name, parent=parent, cid=cid,
            )
        compute = self.compute_cost_per_assignment * len(
            self.executor.spec.assignments
        )
        if not self.pushdown and compute > 0:
            yield env.timeout(compute)
        tracer.record("cast", "writes.begin", integrator=self.name, cid=cid)
        try:
            if self.pushdown:
                # The fcall request captures the ambient context
                # synchronously, so the pushdown UDF's server-side
                # writes chain onto the exchange span.
                with use(octx):
                    work = self._udf_client.fcall(self._udf_name, cid)
                yield work
            else:
                yield self.executor.exchange(cid, ctx=octx)
        except AccessDeniedError as exc:
            # A run-time access policy (e.g. sleep hours) vetoed this
            # exchange.  That is policy working, not a crash: count it and
            # move on; a later event will retry the cid (any event: the
            # cid is owed an exchange, see ``_ingest``).
            self.denied += 1
            tracer.record(
                "cast", "denied", integrator=self.name, cid=cid,
                reason=str(exc),
            )
            if octx is not None:
                octx.sink.end_span(octx, outcome="denied")
            return
        except (UnavailableError, ConflictError) as exc:
            # Transient substrate failure (crashed/partitioned store,
            # optimistic-concurrency race): requeue with backoff; after
            # max_exchange_attempts the cid is parked in the DLQ so one
            # unreachable group never wedges the worker pool.
            self.unavailable_count += 1
            if octx is not None:
                octx.sink.end_span(octx, outcome=type(exc).__name__)
                self._cid_ctx.setdefault(cid, parent)  # retried: re-parent
            return self._retry_later(env, cid, exc)
        except DXGError as exc:
            # Value-level divergence (non-quiescence) on this cid: record
            # it and keep the integrator alive for other exchanges.
            self.errors += 1
            tracer.record(
                "cast", "error", integrator=self.name, cid=cid,
                reason=str(exc),
            )
            if octx is not None:
                octx.sink.end_span(octx, outcome="dxg-error")
            return
        self._exchange_failures.pop(cid, None)
        self.exchanges_run += 1
        tracer.record("cast", "end", integrator=self.name, cid=cid)
        if octx is not None:
            octx.sink.end_span(octx, outcome="ok")
        return True

    def _retry_later(self, env, cid, exc):
        """Requeue ``cid`` after a backoff; False once it is given up
        on (dead-lettered: its next event re-queues it)."""
        count = self._exchange_failures.get(cid, 0) + 1
        if count > self.max_exchange_attempts:
            self._exchange_failures.pop(cid, None)
            self.dead_letters.push(
                cid, exc, attempts=count, time=env.now, source=self.name
            )
            self.runtime.tracer.record(
                "cast", "dead-letter", integrator=self.name, cid=cid,
                reason=str(exc),
            )
            return False
        self._exchange_failures[cid] = count
        delay = (
            min(0.5, self.requeue_backoff * (2 ** (count - 1)))
            * self._rng.uniform(0.5, 1.5)
        )
        timer = env.timeout(delay)
        timer.callbacks.append(lambda _evt, c=cid: self._requeue_cid(c))
        self.runtime.tracer.record(
            "cast", "retry-later", integrator=self.name, cid=cid,
            attempt=count, delay=delay,
        )
        return True

    def _requeue_cid(self, cid):
        if not self.started:
            self._owed.add(cid)  # the retry is dropped with the worker
            return
        self._queue[cid] = True
        self._kick()

    # -- process faults (see repro.faults) ---------------------------------

    def kill(self):
        """Simulate a worker-process crash: queue and retry state vanish.

        The watches are cancelled (connections die with the process); a
        :meth:`restart` re-opens them and catches up, so level-triggered
        re-evaluation recovers anything lost.
        """
        if not self.started:
            return
        self.kill_count += 1
        self._queue.clear()
        self._exchange_failures.clear()
        self.stop()
        self.runtime.tracer.record("cast", "killed", integrator=self.name)

    def restart(self):
        """Restart after :meth:`kill`: start, then catch up every store."""
        if self.started:
            return
        self.start()
        for follower in self._followers:
            follower.resync()
        self.runtime.tracer.record("cast", "restarted", integrator=self.name)

    def stats(self):
        base = super().stats()
        base.update(
            exchanges_run=self.exchanges_run,
            events_ignored=self.events_ignored,
            queue_depth=len(self._queue),
            dead_letters=len(self.dead_letters),
            dead_letter_keys=self.dead_letters.keys(),
            unavailable=self.unavailable_count,
            kills=self.kill_count,
        )
        return base

    def status(self):
        base = super().status()
        base.update(
            {
                "exchanges_run": self.exchanges_run,
                "events_ignored": self.events_ignored,
                "dead_letters": len(self.dead_letters),
                "unavailable": self.unavailable_count,
                "pushdown": self.pushdown,
                "assignments": len(self.executor.spec.assignments)
                if self.executor
                else 0,
                "warnings": list(self.analysis.warnings) if self.analysis else [],
            }
        )
        return base
