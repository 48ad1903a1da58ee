"""Reconcilers: a knactor's control loop over its own data store.

"The reconciler is a code module that interacts with the knactor's data
store(s) using the state access methods provided by the DE.  It responds
to state updates from the data store and initiates corresponding actions."
(paper §3.2)

The loop is **level-triggered** with a per-key work queue
(:class:`~repro.store.workqueue.WorkQueue`), like Kubernetes controllers:
watch events mark a key dirty; one pass at a time re-reads current state
and calls ``reconcile``.  Conflicting writes and transient store
unavailability retry within the pass on seeded-jitter exponential
backoff.  Each stream it consumes (the default Object store, subscribed
Log stores, handed over from their seq cursor at least once) is held
through a :class:`~repro.store.follow.Follower`: a broken one is
reopened, then the store is caught up on the same seeded backoff
(re-listed, or queried from the cursor).  A pass failing past its
retries for any reason but unavailability is requeued on that backoff,
and on the 4th failed pass in a row (``max_requeues`` + 1) the key is
*dead-lettered* (:mod:`repro.faults.dlq`), so one poison object never
stalls the rest of the keyspace.  Defaults for the retry/requeue knobs
live in :mod:`repro.config`.

Crucially -- and this is the Knactor pattern -- a reconciler only ever
touches *its own* store handles.  It has no client stubs, no topics, no
knowledge of other services.
"""

import random
import zlib
from functools import partial

from repro import config
from repro.core.integrator import Supervised
from repro.errors import (
    ConfigurationError,
    ConflictError,
    NotFoundError,
    ReproError,
    UnavailableError,
)
from repro.faults.dlq import DeadLetterQueue
from repro.flow.policy import SHED_OLDEST, check_overflow
from repro.obs.context import current_context, span_process
from repro.store.follow import Follower, FollowerGroup
from repro.store.workqueue import WorkQueue


class ReconcilerContext:
    """What a reconciler may touch: its knactor's own store handles."""

    def __init__(self, env, knactor_name, handles):
        self.env = env
        self.knactor_name = knactor_name
        self.stores = dict(handles)  # local_name -> handle

    @property
    def store(self):
        """The default Object store handle."""
        if "default" in self.stores:
            return self.stores["default"]
        if len(self.stores) == 1:
            return next(iter(self.stores.values()))
        raise ConfigurationError(
            f"{self.knactor_name}: ambiguous default store "
            f"(have {sorted(self.stores)})"
        )

    def log(self, local_name="log"):
        """A named Log store handle."""
        return self.stores[local_name]

    def trace(self, name, **attrs):
        """Annotate the running pass's ``reconcile`` span; a pass with no
        causal parent (or no observability plane) records nothing."""
        ctx = current_context()
        if ctx is not None and ctx.sink is not None:
            ctx.sink.annotate(ctx, name, knactor=self.knactor_name, **attrs)


class Reconciler(Supervised):
    """Base class: subclass and override :meth:`reconcile`.

    Class attributes subclasses (or callers, before :meth:`attach`) may
    tune, with defaults from :mod:`repro.config`:

    - ``service_time``: simulated local processing time per reconcile call
      (seconds of virtual time),
    - ``max_retries`` / ``backoff`` / ``backoff_jitter``: transient-retry
      policy (conflicts and unavailability) within one reconcile pass,
    - ``max_requeues``: failed passes a key gets before dead-lettering,
    - ``max_queue`` / ``queue_overflow``: bound on the dirty keys pending
      (``None`` = unbounded).  When a new key arrives at a full queue,
      the overflow policy decides which key is shed; shed keys land in
      the dead-letter queue so resyncs/operators can replay them --
      level triggering makes a shed safe, never silent.
    - ``log_subscriptions``: local names of Log stores whose appended
      records should be handed to :meth:`on_log_batch`.
    """

    service_time = 0.0
    max_retries = config.RECONCILER_MAX_RETRIES
    backoff = config.RECONCILER_BACKOFF
    backoff_jitter = config.RECONCILER_BACKOFF_JITTER
    max_requeues = config.RECONCILER_MAX_REQUEUES
    max_queue = None
    queue_overflow = SHED_OLDEST
    log_subscriptions = ()

    def __init__(self, name=None):
        self.name = name or type(self).__name__
        check_overflow(self.queue_overflow)
        self.dead_letters = DeadLetterQueue(name=self.name)
        self.ctx = None
        self.queue = None  # the work queue, once attached
        self._log_cursors = {}  # local_name -> first _seq not yet handled
        self._set_up = False
        self.followers = FollowerGroup([])
        # Seeded per-name: deterministic, yet different reconcilers get
        # decorrelated backoff (no synchronized retry storms).
        self._rng = random.Random(zlib.crc32(self.name.encode()))
        self.reconcile_count = 0
        self.error_count = 0
        self.unavailable_count = 0

    # -- subclass surface -----------------------------------------------------

    def setup(self, ctx):
        """One-time initialization (optional).  May be a generator."""

    def reconcile(self, ctx, key, obj):
        """Handle one (possibly coalesced) change to ``key``.

        ``obj`` is the object's current data, or None if it was deleted.
        May be a generator performing store operations via ``yield``.
        """

    def on_log_batch(self, ctx, local_name, records):
        """Handle records appended to a subscribed Log store (optional).

        May be a generator.  Delivery is at-least-once: the cursor moves
        past ``records`` once it returns, so a pass that fails (a write
        in a brown-out) hands them over again.  Writes should converge;
        a tally should skip records whose ``_seq`` it has counted.
        """

    def requeue(self, key):
        """Re-enqueue a key for another reconcile pass.

        For reconcilers that defer work (e.g. a downstream dependency was
        unavailable): watch events only fire on state *changes*, so a
        reconcile that bails out must requeue explicitly to be retried.
        """
        self.queue.requeue(key)

    # -- wiring (called by the Knactor/runtime) ----------------------------------

    def attach(self, ctx):
        """Bind to the knactor's stores: one follower per stream consumed
        (the default Object store, each subscribed Log store)."""
        self.ctx = ctx
        self.queue = WorkQueue(
            ctx.env, self._pass, self.dead_letters, 1, self._backoff_delay,
            self.max_requeues, self.max_requeues, self.max_queue,
            self.queue_overflow,
        )
        # The reconciler's own seeded jitter and counter: under faults the
        # catch-up draws from the same RNG, in the same order, as the
        # reconcile retries it interleaves with.
        follow = partial(Follower, ctx.env, backoff=self._backoff_delay,
                         on_transient=self._count_unavailable)
        followers = []
        default = ctx.stores.get("default")
        if default is not None:
            followers.append(follow(partial(default.watch, self._on_event),
                                    partial(self._resync, default)))
        for local_name in self.log_subscriptions:
            self._log_cursors.setdefault(local_name, 0)
            followers.append(follow(
                partial(ctx.stores[local_name].watch,
                        partial(self._on_log_event, local_name)),
                partial(self.queue.add, ("log", local_name), None)))
        self.followers.swap(followers)

    def _count_unavailable(self):
        self.unavailable_count += 1

    def start(self):
        if self.ctx is None:
            raise ConfigurationError(f"reconciler {self.name!r} is not attached")
        if self.started:
            return
        self.followers.start()
        if not self._set_up:
            # Once per reconciler, not per process life: a restart after
            # a kill resyncs from the store instead.
            self._set_up = True
            self.ctx.env.process(self._run_setup(self.ctx.env))
        self.queue.start()

    def _resync(self, default):
        """Re-list the default store (informer re-list): every object is
        marked dirty, keeping the context of any fresher event."""
        views = yield default.list()
        for view in views:
            self.queue.requeue(view["key"])

    def stop(self):
        self.followers.stop()
        self.queue.stop()

    def health(self):
        """Readiness summary, reported as ``stats()["health"]``."""
        if not self.started:
            return "stopped"
        if len(self.dead_letters) > 0:
            return "degraded"
        return "ready"

    def stats(self):
        """Work and failure counters as plain data (the ``stats()``
        contract of ``docs/observability.md``)."""
        return {
            "reconciles": self.reconcile_count,
            "conflicts": self.error_count,
            "queue_depth": len(self.queue.pending),
            "queue_peak": self.queue.peak,
            "shed": self.queue.shed,
            "health": self.health(),
            "dead_letters": len(self.dead_letters),
            "dead_letter_keys": self.dead_letters.keys(),
            "unavailable": self.unavailable_count,
            "kills": self.kill_count,
        }

    def _run_setup(self, env):
        # One tick after start, so what started at the same instant --
        # other knactors, their watches, the first requests -- goes first.
        yield env.timeout(0)
        result = self.setup(self.ctx)
        if hasattr(result, "send"):
            yield from result

    # -- event intake ---------------------------------------------------------------

    def _on_event(self, event):
        """Intake one watch event: mark its key dirty.  Coalescing keeps
        the LATEST commit's causal context: the reconcile pass acts on
        the state that commit produced.  A traced commit's ``write``
        span is annotated ``observed`` now: the pass may start later,
        behind a busy queue."""
        ctx = event.ctx
        if ctx is not None and ctx.sink is not None:
            ctx.sink.annotate(ctx, "observed",
                              knactor=self.ctx.knactor_name, key=event.key)
        self.queue.add(event.key, ctx)

    def _on_log_event(self, local_name, event):
        self.queue.add(("log", local_name), event.object["records"])

    # -- the pass ----------------------------------------------------------------------

    def _pass(self, key, payload):
        """The pass over ``key``.  ``payload`` is the records delivered
        for a ``("log", name)`` key, the causal context for an object."""
        env = self.ctx.env
        if isinstance(key, tuple):
            return self._work_loop(
                env, key, partial(self._hand_log, key[1], payload))
        work = self._work_loop(
            env, key, partial(self._reconcile_key, env, key))
        if payload is not None and payload.sink is not None:
            # Re-attach: the reconcile span parents off the commit that
            # dirtied the key, and its context is ambient for every store
            # request the pass makes downstream.
            octx = payload.sink.start_span(
                "reconcile", service=self.name, parent=payload, key=key,
            )
            work = span_process(work, octx)
        return work

    def _backoff_delay(self, attempt):
        """Capped exponential backoff with seeded jitter.

        Jitter matters under contention: several reconcilers conflicting
        on one object with identical fixed backoff retry in lockstep and
        collide again (a synchronized retry storm).
        """
        base = min(1.0, self.backoff * (2 ** min(attempt, 8)))
        if self.backoff_jitter <= 0:
            return base
        spread = min(self.backoff_jitter, 1.0)
        return base * self._rng.uniform(1.0 - spread, 1.0 + spread)

    def _work_loop(self, env, key, step):
        """One pass over a dirty key: the generator ``step(attempt)``,
        retried in place on conflicts and unavailability.  Unavailability
        outlasting the retries is the store's fault, not the key's: the
        key is requeued uncounted (a long outage must not dead-letter the
        keyspace).  Anything else failing fails the pass.
        """
        transient = None
        for attempt in range(self.max_retries + 1):
            try:
                yield from step(attempt)
                return
            except ConflictError:
                self.error_count += 1
                transient = "conflict"
                yield env.timeout(self._backoff_delay(attempt))
            except UnavailableError:
                self.unavailable_count += 1
                transient = "unavailable"
                yield env.timeout(self._backoff_delay(attempt))
            except ReproError:
                # Non-transient: this key is poison for the current
                # reconcile logic.  The queue requeues or parks it.
                self.error_count += 1
                raise
        if transient == "unavailable":
            self.queue.requeue(key)
        else:
            raise ConflictError(f"{key}: conflict retries exhausted")

    def _reconcile_key(self, env, key, attempt):
        obj = None  # deleted, or no default store
        default = self.ctx.stores.get("default")
        if default is not None:
            try:
                obj = (yield default.get(key))["data"]
            except NotFoundError:
                pass
        if self.service_time > 0:
            yield env.timeout(self.service_time)
        result = self.reconcile(self.ctx, key, obj)
        if hasattr(result, "send"):
            yield from result
        self.reconcile_count += 1
        self.ctx.trace("reconciled", key=key, attempts=attempt + 1)

    def _hand_log(self, local_name, records, _attempt):
        """Hand ``local_name``'s records from the cursor on to
        :meth:`on_log_batch`: the ones delivered if they start there,
        else (a catch-up, a requeue, a batch gone by unseen) a query from
        the cursor.  The cursor moves once the handler has returned."""
        since = self._log_cursors[local_name]
        if not records or records[0]["_seq"] != since:
            records = yield self.ctx.stores[local_name].query(since_seq=since)
        if records:
            result = self.on_log_batch(self.ctx, local_name, records)
            if hasattr(result, "send"):
                yield from result
            self._log_cursors[local_name] = records[-1]["_seq"] + 1
