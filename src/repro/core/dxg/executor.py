"""Runtime evaluation of DXGs against Data Exchange handles.

The executor maintains one *exchange group* per correlation id (the object
name that ties an order to its shipment and payment).  ``exchange(cid)``
reads every involved object **once**, then evaluates the assignments over
an in-memory copy of that map in field order, each again only when a
field it reads has changed -- the fixpoint at which all derivable state
has propagated (:meth:`DXGExecutor._fixpoint`, pure).  Only then does it
write, once per target that moved: one create or patch through the
handles, one transaction for them all (``transactional``), or local
writes inside the pushed-down UDF -- the one evaluation, three thin
writers.  The exchange runs inside its caller's process (Cast's pass);
it spawns none of its own.  A foreign write landing mid-exchange is not
looked for: it arrives as a watch event and gets an exchange of its own
(level-triggered, paper §3.2).

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
watch events only, never by one correlation id's gather.  A write's
reply is folded into its slot only when it is the object the fixpoint
computed; one that carries a foreign write the fixpoint never saw
empties the slot instead, so the next event for it is news.

The cache is not a :class:`~repro.store.follow.Mirror`: its slots are
Cast's echo memory, filled by gathers and write replies ahead of the
stream, so an informer-mode gather from a stream-fed mirror would write
again what a reply already showed, and move the §3.3 informer rows.

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

Push-down: :meth:`DXGExecutor.as_udf` packages the same fixpoint as a
server-side function for UDF-capable backends; the Cast integrator then
issues one ``fcall`` per exchange instead of N reads + M writes.
"""

from dataclasses import dataclass

from repro.errors import (
    AlreadyExistsError,
    ConfigurationError,
    ConflictError,
    DXGError,
    ExpressionError,
    NotFoundError,
)
from repro.core.dxg.functions import standard_functions
from repro.core.dxg.graph import DependencyGraph, paths_overlap
from repro.core.dxg.planner import plan as build_plan
from repro.obs.context import bind_generator, current_context
from repro.store.cow import retain, set_shared
from repro.util.paths import get_path, set_path, split
from repro.util.safeexpr import Scope


@dataclass
class ExecutorOptions:
    """Tunables for the §3.3 ablations (``tests/test_paper_claims.py``)."""

    consolidate: bool = True  # one patch per target object per exchange
    # GET every involved object once per exchange (never per pass), or
    # serve that one gather from the watch-fed informer cache.
    refresh_reads: bool = True
    trust_cache_for_missing: bool = False  # skip GETs of never-seen objects
    transactional: bool = False  # an exchange's writes as ONE atomic txn
    # Bounds an exchange at max_passes x (number of assignments)
    # evaluations; a DXG still changing then raises DXGError.
    max_passes: int = 8

    def __post_init__(self):
        if self.max_passes < 1:
            raise ConfigurationError("max_passes must be >= 1")


@dataclass
class ExchangeStats:
    """Counters for one ``exchange`` invocation (and cumulative totals)."""

    # Worklist sweeps: more than 1 only when a cycle or a target the
    # exchange created sends work back to an earlier assignment.
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
                 creatable_targets=None):
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
        self.cache = {}  # (alias, kind, cid) -> data dict
        self.totals = ExchangeStats()
        # Everything the DXG reads or writes, per (alias, kind).
        self._involved = self._involved_objects()
        # What evaluation needs that does not depend on the data: the
        # named kinds under each alias, the worklist's order and reach,
        # and the one scope, rebuilt only when the function registry
        # changes.
        self._named = {}
        for alias, kind in self._involved:
            named = self._named.setdefault(alias, [])
            if kind:
                named.append(kind)
        self._order, self._readers = self._worklist()
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
            # (computation path-copies the target, see ``_fixpoint``).
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

    def _worklist(self):
        """The assignments in field-topological order (plan order for a
        cycle, which Cast's analysis rejects but a bare executor may be
        given), each as ``(assignment, target, objects it reads, field
        path, creatable)``; and per position, the positions that read
        its write: when it changes its field, and when it creates its
        target.  A write to ``quote`` reaches readers of ``quote.price``
        and of ``this.quote``, and a bare alias reads every kind under
        it; a created target reaches every reader of the object, since
        a missing source skipped them."""
        try:
            rank = {node: i for i, node in enumerate(
                DependencyGraph.from_spec(self.spec).topological_order())}
        except ValueError:
            rank = {}
        order = sorted((
            (a, step.target,
             tuple(dict.fromkeys((r.alias, r.kind) for r in a.sources)),
             tuple(split(a.field)), step.creatable)
            for step in self.plan.steps for a in step.assignments
        ), key=lambda entry: rank.get(entry[0].target_node, 0))

        # (alias, kind, path) per read; a bare alias reads any kind.
        reads = [
            [(r.alias, r.kind if r.kind or r.path else None, r.path)
             for r in a.sources]
            + [(a.target_alias, a.target_kind, q) for q in a.uses_this]
            for a, *_rest in order
        ]

        def readers(alias, kind, path):
            return tuple(pos for pos, read in enumerate(reads) if any(
                a == alias and k in (kind, None) and paths_overlap(p, path)
                for a, k, p in read))

        return order, [(readers(*target, a.field), readers(*target, ""))
                       for a, target, *_rest in order]

    def _bind(self, objects, cid):
        """The executor's scope with every alias and ``cid`` bound, once
        per exchange: :meth:`_fixpoint` binds an alias again only when it
        changes one of its objects."""
        if self._scope_version != self.functions.version:
            self._scope_version = self.functions.version
            self._scope = Scope(self.functions.table())
        for alias in self._named:
            self._bind_alias(objects, alias)
        if cid is None:
            self._scope.unbind("cid")
        else:
            self._scope.bind("cid", cid)
        return self._scope

    def _bind_alias(self, objects, alias):
        """The default-kind object's fields appear at top level, named
        kinds under their kind name (claiming it over a default-kind
        field of the same name)."""
        slot = objects.get((alias, "")) or {}
        named = self._named[alias]
        if named:
            slot = dict(slot)
            for kind in named:
                data = objects.get((alias, kind))
                if data is not None:
                    slot[kind] = data
        self._scope.bind(alias, slot)

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

    def _fixpoint(self, cid, objects, stats):
        """Pure: evaluate the assignments over a copy of ``objects`` until
        no field any of them reads has changed; -> that final map.

        A worklist in field order: every assignment once, and again only
        when a field it reads changed -- a later position, unless a cycle
        or a created target sends the work back (``stats.passes`` counts
        the sweeps).  A changed target is the gathered object with the
        field path-copied in (``objects`` itself is never written), and
        only its alias is bound again.  A target the plan may not create
        stays missing until its owner creates it: its assignments are
        not evaluated.
        """
        working = dict(objects)
        scope = self._bind(working, cid)
        budget = self.options.max_passes * len(self._order)
        pending = set(range(len(self._order)))
        last = len(self._order)
        while pending:
            pos = min(pending)
            pending.remove(pos)
            if pos <= last:  # back at or before the last one: a new sweep
                stats.passes += 1
            last = pos
            budget -= 1
            if budget < 0:
                raise DXGError(
                    f"exchange for {cid!r} did not quiesce in "
                    f"{self.options.max_passes} passes"
                )
            assignment, target, source_keys, parts, creatable = self._order[pos]
            current = working.get(target)
            if (current is None and not creatable) or any(
                    working.get(key) is None for key in source_keys):
                stats.skipped += 1
                continue
            scope.bind("this", {} if current is None else current)
            try:
                value = assignment.expression.evaluate(scope)
            except ExpressionError:
                value = None
            if value is None:
                stats.skipped += 1
                continue
            if current is not None and get_path(
                    current, parts, default=_MISSING) == value:
                continue
            new = dict(current or {})
            set_shared(new, parts, value)
            working[target] = new
            self._bind_alias(working, target[0])
            pending.update(self._readers[pos][current is None])
        return working

    def _changes(self, objects, working):
        """(step, changed fields, exists) per target the fixpoint moved,
        in plan order: what one exchange writes."""
        for step in self.plan.steps:
            final = working.get(step.target)
            current = objects.get(step.target)
            if final is current:
                continue
            changed = self._changed_fields(current or {}, {
                a.field: get_path(final, a.field, default=_MISSING)
                for a in step.assignments
            })
            yield step, changed, current is not None

    # -- the exchange (remote and transactional writers) ------------------------

    def exchange(self, cid, ctx=None):
        """Run the data exchange for one correlation id as a process of
        its own: the entry point for callers outside a running pass
        (Cast runs :meth:`_exchange` inside its own).

        With ``ctx``, the whole exchange runs with that causal context
        ambient, so every read and write it performs chains onto the
        integrator's exchange span.
        """
        return self.env.process(self._exchange(cid, ctx=ctx))

    def _exchange(self, cid, ctx=None):
        stats = ExchangeStats()

        def work():
            objects = yield from self._gather(cid, stats)
            yield from self._run_steps(cid, objects, stats)

        yield from (work() if ctx is None else bind_generator(work(), ctx))
        self.totals.merge(stats)
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
                ctx = current_context()  # the exchange span, if traced
                if ctx is not None and ctx.sink is not None:
                    ctx.sink.annotate(ctx, "read.done", alias=alias,
                                      duration=self.env.now - started)
            else:
                objects[(alias, kind)] = self.cache.get(slot)
        return objects

    def _run_steps(self, cid, objects, stats):
        """Evaluate to the fixpoint, then write what it changed: one
        create or patch per target (one patch per field unconsolidated),
        or one transaction for them all."""
        working = self._fixpoint(cid, objects, stats)
        if self.options.transactional:
            yield from self._commit(cid, objects, working, stats)
            return
        try:
            for step, changed, exists in self._changes(objects, working):
                handle = self.handles[step.alias]
                key = self.object_key(step.kind, cid)
                if not exists:
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
                    for path, value in changed.items():
                        view = yield handle.patch(key, self._nested({path: value}))
                        stats.writes += 1
                        stats.fields_written += 1
                self._fold(step, cid, view["data"], working)
        except NotFoundError as exc:
            # Deleted since the gather: a race with the owner, not a
            # poison pill.  A transient conflict requeues the cid, and
            # its re-gather creates the target again (DESIGN §7).
            raise ConflictError(f"{key!r} vanished mid-exchange") from exc

    def _commit(self, cid, objects, working, stats):
        """The exchange's writes as ONE transaction.

        Composition-level atomicity (paper §5's "run-time primitives such
        as transactions"): observers never see a shipment without its
        matching charge.  Requires every handle to live on the same Data
        Exchange (they do: a Cast is bound to one DE).
        """
        planned = list(self._changes(objects, working))
        if not planned:
            return
        first_handle = next(iter(self.handles.values()))
        txn = first_handle.de.transaction(
            first_handle.principal, location=first_handle.client.location
        )
        for step, changed, exists in planned:
            handle = self.handles[step.alias]
            key = self.object_key(step.kind, cid)
            if exists:
                txn.patch(handle.store_name, key, self._nested(changed))
            else:
                txn.create(handle.store_name, key, self._nested(changed))
                stats.creates += 1
            stats.fields_written += len(changed)
        views = yield txn.commit()
        stats.writes += 1  # one atomic commit
        for (step, _changed, _exists), view in zip(planned, views):
            self._fold(step, cid, view["data"] if view else None, working)

    def _fold(self, step, cid, data, working):
        """Fold a write's reply into the cache slot.  A reply that is not
        the object the fixpoint computed carries a foreign write the
        exchange never evaluated over: the slot is emptied instead, so
        the next event for it is news (DESIGN §7)."""
        if data != working[step.target]:
            data = None
        self.update_cache(step.alias, step.kind, cid, data)

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
            stats = ExchangeStats()
            objects = {}
            for alias, kind in self._involved:
                key = prefixes[alias] + self._read_key(alias, kind, cid)
                try:
                    objects[(alias, kind)] = ctx.get(key)["data"]
                except NotFoundError:
                    objects[(alias, kind)] = None
                stats.reads += 1
            working = self._fixpoint(cid, objects, stats)
            for step, changed, exists in self._changes(objects, working):
                key = prefixes[step.alias] + self.object_key(step.kind, cid)
                write = ctx.patch if exists else ctx.create
                write(key, self._nested(changed))
                stats.writes += 1
            return {"passes": stats.passes, "writes": stats.writes,
                    "reads": stats.reads}

        return dxg_udf

    @property
    def udf_cost(self):
        """Simulated CPU time of one pushed-down exchange evaluation."""
        from repro.config import UDF_COST_PER_ASSIGNMENT

        return UDF_COST_PER_ASSIGNMENT * max(1, len(self.spec.assignments))
