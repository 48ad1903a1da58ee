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
from functools import partial

from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    DXGError,
    ReproError,
)
from repro.obs.context import use
from repro.core.dxg import DXGExecutor, analyze, parse_dxg, standard_functions
from repro.core.dxg.executor import ExecutorOptions
from repro.core.dxg.parser import DXGSpec, build_spec
from repro.core.integrator import Integrator
from repro.store.base import MODIFIED, WatchEvent
from repro.store.follow import TRANSIENT
from repro.store.memkv import MemKVClient


class Cast(Integrator):
    """DXG-driven integrator over an Object Data Exchange."""

    #: Simulated integrator CPU time per assignment per exchange.
    compute_cost_per_assignment = 5e-6

    #: Retries (on :meth:`_backoff`) of an exchange that keeps failing on
    #: an unavailable / conflicting store before its cid is dead-lettered.
    max_requeues = 5

    #: The runtime exchange a Cast composes over.
    de_name = "object"

    #: Not yet: its catch-up re-runs every known cid (ROADMAP item 11).
    catch_up_on_swap = False

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
        super().__init__(name, spec)
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers
        self.functions = standard_functions()
        self.options = options or ExecutorOptions()
        self.pushdown = pushdown
        self.store_map = dict(store_map) if store_map else None
        self.location = location or name
        # Set per generation, as are _body, _extra_kinds and _udf_*.
        self.executor = None
        self.analysis = None
        self._seen_cids = set()
        # cids whose last exchange was abandoned (denied, diverged, failed
        # on the store): what it read and wrote is cached but covered by
        # no finished computation, so their next event is news whatever
        # state it carries.  Cleared when the exchange it is owed starts.
        self._owed = set()
        self._rng = random.Random(zlib.crc32(name.encode()))
        self.exchanges_run = 0
        self.events_ignored = 0  # watch events that carried no news
        self.denied = 0
        self.errors = 0
        self.unavailable_count = 0

    # -- configuration ------------------------------------------------------------

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
            merged = self._body_of(spec)
            # Preserve source-only kinds for later body-based rebuilds.
            target_kinds = {
                (a.target_alias, a.target_kind) for a in spec.assignments
            }
            extra_kinds = {}
            for a in spec.assignments:
                for ref in a.sources:
                    if ref.kind and (ref.alias, ref.kind) not in target_kinds:
                        extra_kinds.setdefault(ref.alias, set()).add(ref.kind)
        else:
            if self.executor is None:
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
            extra_kinds, old = self._extra_kinds, self.executor.spec
            spec = build_spec(
                old.inputs, merged,
                extra_kinds={a: sorted(k) for a, k in extra_kinds.items()},
                globals_=old.globals_,
            )

        de = self.runtime.exchange(self.de_name)
        store_names = {
            alias: self._store_name(alias, ref)
            for alias, ref in spec.inputs.items()
        }
        schemas = {
            alias: de.schema_for(store_name)
            for alias, store_name in store_names.items()
        }
        analysis = analyze(spec, functions=self.functions, schemas=schemas)
        analysis.raise_if_invalid()
        handles = {alias: self._handle(self.de_name, store_name)
                   for alias, store_name in store_names.items()}
        executor = DXGExecutor(
            self.runtime.env,
            spec,
            handles,
            functions=self.functions,
            options=self.options,
        )
        udf_name = udf_client = None
        if self.pushdown:
            udf_name, udf_client = self._install_pushdown(
                de, executor, store_names)
        # One follower per alias (the new handles replace them all).
        followers = [
            self._follow(handle, partial(self._ingest, alias),
                         partial(self._catch_up, alias, handle))
            for alias, handle in handles.items()
        ]
        return f"dxg with {len(spec.assignments)} assignment(s)", followers, {
            "executor": executor, "analysis": analysis, "_body": merged,
            "_extra_kinds": extra_kinds, "_udf_name": udf_name,
            "_udf_client": udf_client,
        }

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

    def _install_pushdown(self, de, executor, store_names):
        """Register the next generation's UDF; its name and a client."""
        if not getattr(de, "supports_udf", False):
            raise ConfigurationError(
                f"integrator {self.name!r}: push-down requires a "
                "UDF-capable backend (MemKV)"
            )
        prefixes = {
            alias: de.store(store_name).key_prefix
            for alias, store_name in store_names.items()
        }
        udf_name = f"dxg:{self.name}:g{self.generation + 1}"
        de.backend.functions.register(
            udf_name, executor.as_udf(prefixes), cost=executor.udf_cost,
        )
        return udf_name, MemKVClient(de.backend, location=self.location)

    # -- convenience reconfiguration API ----------------------------------------------

    def set_assignment(self, target, field, expression):
        """Add/replace one assignment at run time (a data-centric policy)."""
        return self.reconfigure(body={target: {field: expression}})

    def remove_assignment(self, target, field):
        return self.reconfigure(body={target: {field: None}})

    # -- following the stores ------------------------------------------------------------

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
            self.queue.requeue(cid)
        for view in views:
            self._ingest(alias, WatchEvent(
                MODIFIED, view["key"], view["data"], view["revision"]))

    def _ingest(self, alias, event):
        kind, cid = DXGExecutor.split_key(event.key)
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
                self.queue.requeue(seen_cid)
        else:
            self._seen_cids.add(cid)
            # The commit that triggered this exchange is its causal
            # parent (lookup-object fan-outs keep no per-cid parent:
            # one global change is not "the" cause of N exchanges).
            self.queue.add(cid, event.ctx)

    # -- the exchange ---------------------------------------------------------------------

    def _pass(self, cid, parent):
        self._owed.discard(cid)  # this is the exchange it was owed
        return self._process(self.runtime.env, cid, parent)

    def _process(self, env, cid, parent):
        """One exchange for ``cid``.  Any exit but a finished exchange
        leaves the cid owed one; a failure on the store is raised on for
        the queue to retry (jittered backoff, then the DLQ), any other
        ``ReproError`` but a denial or a divergence for it to park."""
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
        if octx is not None:
            octx.sink.annotate(octx, "writes.begin")
        try:
            if self.pushdown:
                # The fcall request captures the ambient context
                # synchronously, so the pushdown UDF's server-side
                # writes chain onto the exchange span.
                with use(octx):
                    work = self._udf_client.fcall(self._udf_name, cid)
                yield work
            else:
                yield from self.executor._exchange(cid, ctx=octx)
        except AccessDeniedError:
            # A run-time access policy (e.g. sleep hours) vetoed this
            # exchange.  That is policy working, not a crash: count it and
            # move on; a later event will retry the cid (any event: the
            # cid is owed an exchange, see ``_ingest``).
            self.denied += 1
            self._owed.add(cid)
            outcome = "denied"
        except DXGError:
            # Value-level divergence (non-quiescence) on this cid: count
            # it and keep the integrator alive for other exchanges.
            self.errors += 1
            self._owed.add(cid)
            outcome = "dxg-error"
        except ReproError as exc:
            # Transient substrate failure (crashed/partitioned store,
            # optimistic-concurrency race): the queue requeues the cid
            # with backoff, and after max_requeues parks it in the DLQ so
            # one unreachable group never wedges the worker pool.  Any
            # other failure is parked at once.
            if isinstance(exc, TRANSIENT):
                self.unavailable_count += 1
            self._owed.add(cid)
            if octx is not None:
                octx.sink.end_span(octx, outcome=type(exc).__name__)
            raise
        else:
            self.exchanges_run += 1
            outcome = "ok"
        if octx is not None:
            octx.sink.end_span(octx, outcome=outcome)

    def _backoff(self, attempt):
        """5 ms doubling to 0.5 s, with this Cast's seeded jitter."""
        return (min(0.5, 0.005 * (2 ** (attempt - 1)))
                * self._rng.uniform(0.5, 1.5))

    def stats(self):
        return dict(
            super().stats(),
            exchanges_run=self.exchanges_run,
            events_ignored=self.events_ignored,
            unavailable=self.unavailable_count,
            pushdown=self.pushdown,
            assignments=(len(self.executor.spec.assignments)
                         if self.executor else 0),
            warnings=list(self.analysis.warnings) if self.analysis else [],
        )
