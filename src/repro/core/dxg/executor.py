"""Runtime evaluation of DXGs against Data Exchange handles.

The executor maintains one *exchange group* per correlation id (the object
name that ties an order to its shipment and payment).  ``exchange(cid)``
reads every involved object **once**, then evaluates the plan's write
steps over that one map repeatedly until no write happens -- the fixpoint
at which all derivable state has propagated.  Each write's reply is
folded into the map, so a confirming pass costs no read; a foreign write
landing mid-exchange is not looked for: it arrives as a watch event and
gets an exchange of its own (level-triggered, paper §3.2).

The cache doubles as the integrator's memory of what its exchanges have
covered.  :meth:`DXGExecutor.observe` compares a watch event's object *by
value* with the slot's cached state: equal means the event is the echo of
a read or write some exchange already made (or a foreign rewrite to the
same value -- expressions are pure, so there is nothing to exchange) and
starts no exchange; anything else is news.  That is sound while every
cached state is covered by a finished or queued exchange; the integrator
keeps it so by treating the next event of an abandoned exchange's
correlation id as news whatever it carries (``Cast._owed``), and a
lookup object's slot -- one for all correlation ids -- is moved by its
watch events only, never by one correlation id's gather.

Guarantees (tested as invariants):

- **quiescence**: a spec that passes static cycle analysis reaches
  fixpoint; re-running ``exchange`` on unchanged sources performs zero
  writes (idempotence), and an event carrying unchanged state performs
  zero reads and zero evaluations, because it starts nothing;
- **not-ready tolerance**: assignments whose sources are missing are
  skipped and picked up on a later event (e.g. ``trackingID`` waits for
  the Shipping reconciler to produce ``id``);
- **no-None writes**: an expression evaluating to None is treated as
  not-ready rather than written (a None write would delete the field
  under merge-patch semantics).

Two read modes: ``refresh_reads=True`` re-GETs every involved object per
exchange -- once, not once per pass (the paper's data movement; what
Table 2 measures); False serves that one gather from the watch-fed
informer cache (an optimization knob).

Push-down: :meth:`DXGExecutor.as_udf` packages the same evaluation as a
server-side function for UDF-capable backends; the Cast integrator then
issues one ``fcall`` per exchange instead of N reads + M writes.
"""

from dataclasses import dataclass

from repro.errors import (
    AlreadyExistsError,
    ConfigurationError,
    DXGError,
    ExpressionError,
    NotFoundError,
)
from repro.core.dxg.functions import standard_functions
from repro.core.dxg.planner import plan as build_plan
from repro.obs.context import bind_generator, current_context
from repro.store.cow import retain, set_shared
from repro.util.paths import get_path, set_path, split
from repro.util.safeexpr import Scope


@dataclass
class ExecutorOptions:
    """Tunables for the ablation benchmarks."""

    consolidate: bool = True  # one patch per target object per pass
    # GET every involved object once per exchange (never per pass), or
    # serve that one gather from the watch-fed informer cache.
    refresh_reads: bool = True
    trust_cache_for_missing: bool = False  # skip GETs of never-seen objects
    transactional: bool = False  # commit each pass as ONE atomic txn
    max_passes: int = 8

    def __post_init__(self):
        if self.max_passes < 1:
            raise ConfigurationError("max_passes must be >= 1")


@dataclass
class ExchangeStats:
    """Counters for one ``exchange`` invocation (and cumulative totals)."""

    passes: int = 0
    reads: int = 0
    writes: int = 0
    creates: int = 0
    fields_written: int = 0
    skipped: int = 0

    def merge(self, other):
        self.passes += other.passes
        self.reads += other.reads
        self.writes += other.writes
        self.creates += other.creates
        self.fields_written += other.fields_written
        self.skipped += other.skipped


_MISSING = object()

#: Cache slot for global (singleton) aliases: one shared object, not
#: per correlation id.
GLOBAL_CID = "__global__"


class DXGExecutor:
    """Evaluates one DXG spec against bound store handles."""

    def __init__(self, env, spec, handles, functions=None, options=None,
                 creatable_targets=None, tracer=None):
        self.env = env
        self.spec = spec
        self.handles = dict(handles)
        missing = set(spec.inputs) - set(self.handles)
        if missing:
            raise ConfigurationError(
                f"no store handle bound for alias(es) {sorted(missing)}"
            )
        self.functions = functions if functions is not None else standard_functions()
        self.options = options or ExecutorOptions()
        self.plan = build_plan(spec, creatable_targets=creatable_targets)
        self.tracer = tracer
        self.cache = {}  # (alias, kind, cid) -> data dict
        self.totals = ExchangeStats()
        # Everything the DXG reads or writes, per (alias, kind).
        self._involved = self._involved_objects()
        # What evaluation needs that does not depend on the data: the
        # named kinds under each alias; per target, each assignment with
        # the objects it reads and its split field path; and the one
        # scope, rebuilt only when the function registry changes.
        self._named = {}
        for alias, kind in self._involved:
            named = self._named.setdefault(alias, [])
            if kind:
                named.append(kind)
        self._bound = {
            step.target: [
                (a, tuple(dict.fromkeys((r.alias, r.kind) for r in a.sources)),
                 tuple(split(a.field)))
                for a in step.assignments
            ]
            for step in self.plan.steps
        }
        self._scope = None
        self._scope_version = None

    def _involved_objects(self):
        involved = set()
        for a in self.spec.assignments:
            involved.add((a.target_alias, a.target_kind))
            for ref in a.sources:
                involved.add((ref.alias, ref.kind))
        return sorted(involved)

    # -- cache (informer) -----------------------------------------------------

    @staticmethod
    def object_key(kind, cid):
        return f"{kind}/{cid}" if kind else cid

    def is_global(self, alias):
        return alias in self.spec.globals_

    def _slot(self, alias, kind, cid):
        """Cache key: global aliases share one slot across all cids."""
        return (alias, kind, GLOBAL_CID if self.is_global(alias) else cid)

    def _read_key(self, alias, kind, cid):
        if self.is_global(alias):
            return self.spec.globals_[alias]
        return self.object_key(kind, cid)

    @staticmethod
    def split_key(key):
        """Inverse of :meth:`object_key`: -> (kind, cid)."""
        if "/" in key:
            kind, cid = key.split("/", 1)
            return kind, cid
        return "", key

    def update_cache(self, alias, kind, cid, data):
        slot = self._slot(alias, kind, cid)
        if data is None:
            self.cache.pop(slot, None)
        else:
            # Zero-copy plane: watch events hand us immutable views, so
            # the cache can alias them -- nothing downstream mutates it
            # (computation path-copies the target, see ``_compute_step``).
            self.cache[slot] = retain(data)

    def observe(self, alias, kind, cid, data):
        """Take in a watch event's object (None: deleted); is it news?

        An event whose object equals, by value, what the slot already
        holds is the echo of a read or write an exchange has made and
        changes nothing.  Values, not revisions: a shard's revisions do
        not survive a reshard move, and a rewrite to the same value has
        nothing to exchange.  Deletions and never-seen slots are always
        news.  The cache is updated only on news.
        """
        slot = self._slot(alias, kind, cid)
        if data is not None and self.cache.get(slot) == data:
            return False
        self.update_cache(alias, kind, cid, data)
        return True

    # -- evaluation core (pure; shared by remote and push-down paths) ----------

    def _bind(self, objects, cid):
        """The executor's scope with every alias and ``cid`` bound.

        Per alias: the default-kind object's fields appear at top level,
        named kinds appear under their kind name (and claim it over a
        default-kind field of the same name).
        """
        if self._scope_version != self.functions.version:
            self._scope_version = self.functions.version
            self._scope = Scope(self.functions.table())
        scope = self._scope
        for alias, named in self._named.items():
            slot = objects.get((alias, "")) or {}
            if named:
                slot = dict(slot)
                for kind in named:
                    data = objects.get((alias, kind))
                    if data is not None:
                        slot[kind] = data
            scope.bind(alias, slot)
        if cid is None:
            scope.unbind("cid")
        else:
            scope.bind("cid", cid)
        return scope

    def _compute_step(self, step, objects, cid=None):
        """Evaluate one step's assignments; returns (values, skipped).

        ``objects`` is ``{(alias, kind): data|None}``; the step's target
        is read from it ({} when the object does not exist yet) and is
        never written: ``working`` copies only the containers on the way
        to a computed field.  Values computed earlier in the same step
        are visible to later ``this.`` reads (intra-step chaining).
        The correlation id is exposed to expressions as ``cid``.
        """
        values = {}
        skipped = 0
        scope = self._bind(objects, cid)
        target = step.target
        working = dict(objects.get(target) or {})
        scope.bind("this", working)
        for assignment, source_keys, parts in self._bound[target]:
            # Skip if any wholly-missing source object is referenced.
            if any(objects.get(key) is None for key in source_keys):
                skipped += 1
                continue
            try:
                value = assignment.expression.evaluate(scope)
            except ExpressionError:
                skipped += 1
                continue
            if value is None:
                skipped += 1
                continue
            values[assignment.field] = value
            set_shared(working, parts, value)
        return values, skipped

    @staticmethod
    def _changed_fields(current, values):
        return {
            path: value
            for path, value in values.items()
            if get_path(current, path, default=_MISSING) != value
        }

    @staticmethod
    def _nested(values):
        out = {}
        for path, value in values.items():
            set_path(out, path, value)
        return out

    # -- the exchange (remote path) ----------------------------------------------

    def exchange(self, cid, ctx=None):
        """Run the data exchange for one correlation id (simnet process).

        With ``ctx``, the whole fixpoint runs with that causal context
        ambient, so every read and write the exchange performs chains
        onto the integrator's exchange span.
        """
        return self.env.process(self._exchange(cid, ctx=ctx))

    def _exchange(self, cid, ctx=None):
        def bound(gen):
            # The fixpoint's reads/writes happen in sub-processes; each
            # needs the causal context re-armed around its resumptions.
            return bind_generator(gen, ctx) if ctx is not None else gen

        stats = ExchangeStats()
        objects = yield self.env.process(bound(self._gather(cid, stats)))
        for _pass in range(self.options.max_passes):
            stats.passes += 1
            wrote = yield self.env.process(
                bound(self._run_steps(cid, objects, stats))
            )
            if not wrote:
                break
        else:
            raise DXGError(
                f"exchange for {cid!r} did not quiesce in "
                f"{self.options.max_passes} passes"
            )
        self.totals.merge(stats)
        if self.tracer is not None:
            self.tracer.record(
                "integrator", "exchange", cid=cid,
                writes=stats.writes, passes=stats.passes,
            )
        return stats

    def _gather(self, cid, stats):
        objects = {}
        for alias, kind in self._involved:
            slot = self._slot(alias, kind, cid)
            if self.options.refresh_reads:
                if (
                    self.options.trust_cache_for_missing
                    and slot not in self.cache
                ):
                    # Informer-style: the watch stream has never shown
                    # this object; do not pay a round trip to learn 404.
                    objects[(alias, kind)] = None
                    continue
                handle = self.handles[alias]
                started = self.env.now
                try:
                    view = yield handle.get(self._read_key(alias, kind, cid))
                    data = view["data"]
                except NotFoundError:
                    data = None
                stats.reads += 1
                objects[(alias, kind)] = data
                # A lookup object's one slot is shared by every cid and
                # this gather covers only its own: that slot moves on
                # the object's watch event alone, so a read that
                # overtakes the event leaves it news (it fans out to
                # every known cid, see ``Cast._ingest``).
                if not self.is_global(alias):
                    if data is None:
                        self.cache.pop(slot, None)
                    else:
                        self.cache[slot] = retain(data)
                if self.tracer is not None:
                    self.tracer.record(
                        "exchange", "read.done", alias=alias, cid=cid,
                        duration=self.env.now - started,
                    )
            else:
                objects[(alias, kind)] = self.cache.get(slot)
        return objects

    def _run_steps(self, cid, objects, stats):
        if self.options.transactional:
            work = self._run_steps_txn(cid, objects, stats)
            ctx = current_context()  # armed by _exchange's bound() wrapper
            if ctx is not None:
                work = bind_generator(work, ctx)
            wrote = yield self.env.process(work)
            return wrote
        wrote = False
        for step in self.plan.steps:
            current = objects.get((step.alias, step.kind))
            exists = current is not None
            values, skipped = self._compute_step(step, objects, cid=cid)
            stats.skipped += skipped
            changed = self._changed_fields(current or {}, values)
            if not changed:
                continue
            handle = self.handles[step.alias]
            key = self.object_key(step.kind, cid)
            if not exists:
                if not step.creatable:
                    continue  # the owning service has not created it yet
                try:
                    view = yield handle.create(key, self._nested(changed))
                except AlreadyExistsError:
                    view = yield handle.patch(key, self._nested(changed))
                stats.creates += 1
                stats.writes += 1
                stats.fields_written += len(changed)
            elif self.options.consolidate:
                view = yield handle.patch(key, self._nested(changed))
                stats.writes += 1
                stats.fields_written += len(changed)
            else:
                view = None
                for path, value in changed.items():
                    view = yield handle.patch(key, self._nested({path: value}))
                    stats.writes += 1
                    stats.fields_written += 1
            objects[(step.alias, step.kind)] = view["data"]
            self.update_cache(step.alias, step.kind, cid, view["data"])
            wrote = True
        return wrote

    def _run_steps_txn(self, cid, objects, stats):
        """Atomic variant: one pass's writes commit as ONE transaction.

        Composition-level atomicity (paper §5's "run-time primitives such
        as transactions"): observers never see a shipment without its
        matching charge.  Requires every handle to live on the same Data
        Exchange (they do: a Cast is bound to one DE).
        """
        first_handle = next(iter(self.handles.values()))
        txn = first_handle.de.transaction(
            first_handle.principal, location=first_handle.client.location
        )
        planned = []  # (step, changed, exists)
        working = dict(objects)
        for step in self.plan.steps:
            current = working.get((step.alias, step.kind))
            exists = current is not None
            values, skipped = self._compute_step(step, working, cid=cid)
            stats.skipped += skipped
            changed = self._changed_fields(current or {}, values)
            if not changed:
                continue
            if not exists and not step.creatable:
                continue
            handle = self.handles[step.alias]
            key = self.object_key(step.kind, cid)
            nested = self._nested(changed)
            if not exists:
                txn.create(handle.store_name, key, nested)
                stats.creates += 1
            else:
                txn.patch(handle.store_name, key, nested)
            stats.fields_written += len(changed)
            # Make this step's results visible to later steps in the pass.
            base = dict(current) if exists else {}
            for path, value in changed.items():
                set_shared(base, path, value)
            working[(step.alias, step.kind)] = base
            planned.append((step, key))
        if not planned:
            return False
        views = yield txn.commit()
        stats.writes += 1  # one atomic commit
        for (step, _key), view in zip(planned, views):
            data = view["data"] if view else None
            objects[(step.alias, step.kind)] = data
            self.update_cache(step.alias, step.kind, cid, data)
        return True

    # -- push-down path --------------------------------------------------------------

    def as_udf(self, key_prefixes):
        """Package this DXG as a server-side function.

        ``key_prefixes`` maps alias -> the store's key prefix on the
        shared backend.  The returned ``fn(ctx, cid)`` runs the same
        fixpoint evaluation using direct (local) store access; the Cast
        integrator registers it and issues one ``fcall`` per exchange.
        """
        prefixes = dict(key_prefixes)
        missing = set(self.spec.inputs) - set(prefixes)
        if missing:
            raise ConfigurationError(
                f"no key prefix for alias(es) {sorted(missing)}"
            )

        def dxg_udf(ctx, cid):
            stats = {"passes": 0, "writes": 0, "reads": 0}
            objects = {}
            for alias, kind in self._involved:
                key = prefixes[alias] + self._read_key(alias, kind, cid)
                try:
                    objects[(alias, kind)] = ctx.get(key)["data"]
                except NotFoundError:
                    objects[(alias, kind)] = None
                stats["reads"] += 1
            for _pass in range(self.options.max_passes):
                stats["passes"] += 1
                wrote = False
                for step in self.plan.steps:
                    current = objects.get((step.alias, step.kind))
                    exists = current is not None
                    values, _skipped = self._compute_step(
                        step, objects, cid=cid
                    )
                    changed = self._changed_fields(current or {}, values)
                    if not changed:
                        continue
                    key = prefixes[step.alias] + self.object_key(step.kind, cid)
                    if not exists:
                        if not step.creatable:
                            continue
                        view = ctx.create(key, self._nested(changed))
                    else:
                        view = ctx.patch(key, self._nested(changed))
                    objects[(step.alias, step.kind)] = view["data"]
                    stats["writes"] += 1
                    wrote = True
                if not wrote:
                    break
            return stats

        return dxg_udf

    @property
    def udf_cost(self):
        """Simulated CPU time of one pushed-down exchange evaluation."""
        from repro.config import UDF_COST_PER_ASSIGNMENT

        return UDF_COST_PER_ASSIGNMENT * max(1, len(self.spec.assignments))
