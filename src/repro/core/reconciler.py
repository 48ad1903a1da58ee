"""Reconcilers: a knactor's control loop over its own data store.

"The reconciler is a code module that interacts with the knactor's data
store(s) using the state access methods provided by the DE.  It responds
to state updates from the data store and initiates corresponding actions."
(paper §3.2)

The loop is **level-triggered** with a per-key work queue, like Kubernetes
controllers: watch events mark a key dirty; a single worker drains the
queue, re-reading current state and calling ``reconcile``.  Conflicting
writes (optimistic-concurrency failures) retry with seeded-jitter
exponential backoff; transient store unavailability is ridden out the
same way.  Each stream it consumes (the default Object store, subscribed
Log stores) is held through a :class:`~repro.store.follow.Follower`: a
broken one is reopened, then the store is re-listed (logs: re-queried
from the seq cursor) on the same seeded backoff.  A key whose reconcile
keeps failing for non-transient reasons is *dead-lettered* after a
bounded number of requeues (:mod:`repro.faults.dlq`) so one poison
object never stalls the rest of the keyspace.  Defaults for the
retry/requeue knobs live in :mod:`repro.config`.

Crucially -- and this is the Knactor pattern -- a reconciler only ever
touches *its own* store handles.  It has no client stubs, no topics, no
knowledge of other services.
"""

import random
import zlib
from collections import OrderedDict
from functools import partial

from repro import config
from repro.errors import (
    ConfigurationError,
    ConflictError,
    NotFoundError,
    OverloadedError,
    ReproError,
    UnavailableError,
)
from repro.faults.dlq import DeadLetterQueue
from repro.flow.policy import BLOCK, SHED_OLDEST, check_overflow
from repro.obs.context import span_process
from repro.store.follow import Follower


class ReconcilerContext:
    """What a reconciler may touch: its knactor's own store handles."""

    def __init__(self, env, knactor_name, handles, tracer=None):
        self.env = env
        self.knactor_name = knactor_name
        self.stores = dict(handles)  # local_name -> handle
        self.tracer = tracer

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
        if self.tracer is not None:
            self.tracer.record("reconciler", name, knactor=self.knactor_name, **attrs)


class Reconciler:
    """Base class: subclass and override :meth:`reconcile`.

    Class attributes subclasses may tune (defaults from :mod:`repro.config`;
    constructor keyword arguments override either):

    - ``service_time``: simulated local processing time per reconcile call
      (seconds of virtual time),
    - ``max_retries`` / ``backoff`` / ``backoff_jitter``: transient-retry
      policy (conflicts and unavailability) within one reconcile pass,
    - ``max_requeues``: failed passes a key gets before dead-lettering,
    - ``max_queue`` / ``queue_overflow``: bound on the dirty-key work
      queue (``None`` = unbounded).  When a new key arrives at a full
      queue, the overflow policy decides which key is shed; shed keys
      land in the dead-letter queue so resyncs/operators can replay
      them -- level triggering makes a shed safe, never silent.
    - ``log_subscriptions``: local names of Log stores whose appended
      batches should be delivered to :meth:`on_log_batch`.
    """

    service_time = 0.0
    max_retries = config.RECONCILER_MAX_RETRIES
    backoff = config.RECONCILER_BACKOFF
    backoff_jitter = config.RECONCILER_BACKOFF_JITTER
    max_requeues = config.RECONCILER_MAX_REQUEUES
    max_queue = None
    queue_overflow = SHED_OLDEST
    log_subscriptions = ()

    def __init__(self, name=None, *, max_retries=None, backoff=None,
                 backoff_jitter=None, max_requeues=None, dead_letters=None,
                 max_queue=None, queue_overflow=None):
        self.name = name or type(self).__name__
        if max_retries is not None:
            self.max_retries = int(max_retries)
        if backoff is not None:
            self.backoff = float(backoff)
        if backoff_jitter is not None:
            self.backoff_jitter = float(backoff_jitter)
        if max_requeues is not None:
            self.max_requeues = int(max_requeues)
        if max_queue is not None:
            self.max_queue = int(max_queue)
        if queue_overflow is not None:
            self.queue_overflow = queue_overflow
        check_overflow(self.queue_overflow)
        self.dead_letters = (
            dead_letters if dead_letters is not None
            else DeadLetterQueue(name=self.name)
        )
        self.ctx = None
        self._queue = OrderedDict()  # key -> latest event type (dedup, FIFO)
        self._pending_ctx = {}  # key -> causal ctx of the latest commit
        self._log_cursors = {}  # local_name -> next unseen _seq
        self._wakeup = None
        self._running = False
        self._set_up = False
        self._followers = []
        self._failures = {}  # key -> consecutive failed passes
        # Seeded per-name: deterministic, yet different reconcilers get
        # decorrelated backoff (no synchronized retry storms).
        self._rng = random.Random(zlib.crc32(self.name.encode()))
        self.reconcile_count = 0
        self.error_count = 0
        self.unavailable_count = 0
        self.kill_count = 0
        self.shed_count = 0
        self.queue_peak = 0

    # -- subclass surface -----------------------------------------------------

    def setup(self, ctx):
        """One-time initialization (optional).  May be a generator."""

    def reconcile(self, ctx, key, obj):
        """Handle one (possibly coalesced) change to ``key``.

        ``obj`` is the object's current data, or None if it was deleted.
        May be a generator performing store operations via ``yield``.
        """

    def on_log_batch(self, ctx, local_name, records):
        """Handle a batch appended to a subscribed Log store (optional)."""

    def requeue(self, key):
        """Re-enqueue a key for another reconcile pass.

        For reconcilers that defer work (e.g. a downstream dependency was
        unavailable): watch events only fire on state *changes*, so a
        reconcile that bails out must requeue explicitly to be retried.
        """
        self._mark_dirty(key, "REQUEUED")
        self._kick()

    # -- wiring (called by the Knactor/runtime) ----------------------------------

    def attach(self, ctx):
        """Bind to the knactor's stores: one follower per stream consumed
        (the default Object store, each subscribed Log store)."""
        self.ctx = ctx
        default = ctx.stores.get("default")
        if default is not None:
            self._follow(partial(default.watch, self._on_event),
                         partial(self._resync, default))
        for local_name in self.log_subscriptions:
            self._log_cursors.setdefault(local_name, 0)
            handle = ctx.stores[local_name]
            self._follow(
                partial(handle.watch, partial(self._on_log_event, local_name)),
                partial(self._log_catch_up, local_name, handle))

    def _follow(self, open_stream, catch_up):
        # The reconciler's own seeded jitter and counter: under faults the
        # catch-up draws from the same RNG, in the same order, as the
        # reconcile retries it interleaves with.
        self._followers.append(Follower(
            self.ctx.env, open_stream, catch_up,
            backoff=self._backoff_delay, on_transient=self._count_unavailable,
        ))

    def _count_unavailable(self):
        self.unavailable_count += 1

    def start(self):
        if self.ctx is None:
            raise ConfigurationError(f"reconciler {self.name!r} is not attached")
        if self._running:
            return
        self._running = True
        env = self.ctx.env
        for follower in self._followers:
            follower.start()
        if not self._set_up:
            # Once per reconciler, not per process life: a restart after
            # a kill resyncs from the store instead.
            self._set_up = True
            env.process(self._run_setup(env))
        env.process(self._work_loop(env))

    def _log_catch_up(self, local_name, handle):
        """Replay a Log store from the seq cursor."""
        records = yield handle.query(since_seq=self._log_cursors[local_name])
        if records:
            work = self._hand_log_batch(local_name, records)
            if work is not None:
                yield work

    def _hand_log_batch(self, local_name, records):
        """Advance the cursor past ``records`` and hand them to
        :meth:`on_log_batch`; returns its process, if it started one."""
        top = max((r["_seq"] + 1 for r in records if "_seq" in r), default=0)
        if top > self._log_cursors.get(local_name, 0):
            self._log_cursors[local_name] = top
        result = self.on_log_batch(self.ctx, local_name, records)
        if hasattr(result, "send"):
            return self.ctx.env.process(result)

    def _resync(self, default):
        """Re-list the default store (informer re-list): every object is
        marked dirty unless a fresher event already did."""
        views = yield default.list()
        for view in views:
            self._mark_dirty(view["key"], "RESYNC", overwrite=False)
        self._kick()

    def stop(self):
        self._running = False
        for follower in self._followers:
            follower.stop()
        self._kick()

    # -- process faults (see repro.faults) ----------------------------------

    def kill(self):
        """Simulate a process crash: connections die, queue state is lost.

        Unlike :meth:`stop`, a kill is expected to be followed by
        :meth:`restart` (e.g. by a supervisor), which resyncs from the
        store -- the level-triggered design makes the lost queue safe.
        """
        if not self._running:
            return
        self.kill_count += 1
        self.stop()
        self._queue.clear()
        self._failures.clear()
        self.ctx.trace("killed")

    def restart(self):
        """Restart after :meth:`kill`: start, then catch up every stream
        (re-list the default store, replay logs from their cursors)."""
        if self._running:
            return
        self.start()
        for follower in self._followers:
            follower.resync()
        self.ctx.trace("restarted")

    def health(self):
        """Readiness summary surfaced through telemetry."""
        if not self._running:
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
            "queue_depth": len(self._queue),
            "queue_peak": self.queue_peak,
            "shed": self.shed_count,
            "health": self.health(),
            "dead_letters": len(self.dead_letters),
            "dead_letter_keys": self.dead_letters.keys(),
            "unavailable": self.unavailable_count,
            "kills": self.kill_count,
        }

    def _run_setup(self, env):
        result = self.setup(self.ctx)
        if hasattr(result, "send"):
            yield env.process(result)
        else:
            yield env.timeout(0)

    # -- event intake ---------------------------------------------------------------

    def _on_event(self, event):
        """Intake one watch event: mark its key dirty (latest type wins,
        FIFO order preserved) and wake the worker.  The events of one
        coalesced delivery arrive back to back, so the worker still wakes
        once for all of them: only the first kick finds it waiting."""
        self.ctx.trace(
            "observed", store=self.name, key=event.key, type=event.type,
        )
        if self._mark_dirty(event.key, event.type):
            # Coalescing keeps the LATEST commit's causal context: the
            # reconcile pass acts on the state that commit produced.
            self._pending_ctx[event.key] = getattr(event, "ctx", None)
        self._kick()

    def _mark_dirty(self, key, event_type, overwrite=True):
        """Mark ``key`` dirty under the bounded-queue policy.

        Re-marking an already-dirty key never grows the queue (the dict
        dedups), so the bound only bites on *new* keys.  Returns False
        when the incoming key was shed.
        """
        if key in self._queue:
            if overwrite:
                self._queue[key] = event_type
                self._queue.move_to_end(key)
            return True
        if (self.max_queue is not None
                and len(self._queue) >= self.max_queue
                and self.queue_overflow != BLOCK):
            if self.queue_overflow == SHED_OLDEST:
                old_key, old_type = self._queue.popitem(last=False)
                self._pending_ctx.pop(old_key, None)
                self._shed_key(old_key, old_type)
            else:  # shed_newest / reject: the incoming key is the casualty
                self._shed_key(key, event_type)
                return False
        self._queue[key] = event_type
        self.queue_peak = max(self.queue_peak, len(self._queue))
        return True

    def _shed_key(self, key, event_type):
        """Route one shed dirty-key to the DLQ (replayable, not silent)."""
        self.shed_count += 1
        now = self.ctx.env.now if self.ctx is not None else 0.0
        self.dead_letters.push(
            key,
            OverloadedError(
                f"work queue full ({self.max_queue}); {event_type} shed"
            ),
            attempts=0, time=now, source=self.name,
        )
        if self.ctx is not None:
            self.ctx.trace("shed", key=key, type=event_type)

    def _on_log_event(self, local_name, event):
        records = event.object["records"]
        self.ctx.trace("log-batch", store=local_name, count=len(records))
        self._hand_log_batch(local_name, records)

    def _kick(self):
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    # -- the work loop ----------------------------------------------------------------

    def _work_loop(self, env):
        while self._running:
            if not self._queue:
                self._wakeup = env.event()
                yield self._wakeup
                self._wakeup = None
                continue
            key, _event_type = self._queue.popitem(last=False)
            parent = self._pending_ctx.pop(key, None)
            work = self._reconcile_once(env, key)
            if parent is not None and parent.sink is not None:
                # Re-attach: the reconcile span parents off the commit
                # that dirtied the key, and its context is ambient for
                # every store request the pass makes downstream.
                octx = parent.sink.start_span(
                    "reconcile", service=self.name, parent=parent, key=key,
                )
                work = span_process(work, octx)
            yield env.process(work)

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

    def _reconcile_once(self, env, key):
        started = env.now
        transient = None
        for attempt in range(self.max_retries + 1):
            try:
                obj = None
                default = self.ctx.stores.get("default")
                if default is not None:
                    try:
                        view = yield default.get(key)
                        obj = view["data"]
                    except NotFoundError:
                        obj = None
                if self.service_time > 0:
                    yield env.timeout(self.service_time)
                result = self.reconcile(self.ctx, key, obj)
                if hasattr(result, "send"):
                    yield env.process(result)
                self.reconcile_count += 1
                self._failures.pop(key, None)
                self.ctx.trace(
                    "reconciled", key=key, duration=env.now - started,
                    attempts=attempt + 1,
                )
                return
            except ConflictError:
                self.error_count += 1
                transient = "conflict"
                yield env.timeout(self._backoff_delay(attempt))
            except UnavailableError:
                self.unavailable_count += 1
                transient = "unavailable"
                yield env.timeout(self._backoff_delay(attempt))
            except ReproError as exc:
                # Non-transient failure: this key is poison for the
                # current reconcile logic.  Park or requeue, never crash
                # the work loop.
                self.error_count += 1
                self._record_failure(env, key, exc)
                return
        # Transient retries exhausted.  Unavailability is the store's
        # fault, not the key's: requeue without counting it against the
        # key (a long outage must not dead-letter the whole keyspace).
        if transient == "unavailable":
            self._mark_dirty(key, "RETRY", overwrite=False)
        else:
            self._record_failure(
                env, key,
                ConflictError(f"{key}: conflict retries exhausted"),
            )

    def _record_failure(self, env, key, exc):
        """Bounded requeue; after ``max_requeues`` failed passes, DLQ."""
        count = self._failures.get(key, 0) + 1
        if count > self.max_requeues:
            self._failures.pop(key, None)
            self.dead_letters.push(
                key, exc, attempts=count, time=env.now, source=self.name
            )
            self.ctx.trace("dead-letter", key=key, error=str(exc))
        else:
            self._failures[key] = count
            self._mark_dirty(key, "RETRY", overwrite=False)
