"""Shared plumbing for simulated data-store backends.

Every backend is split into a :class:`StoreServer` (owns the data, processes
requests with per-operation latency, pushes watch events) and a
:class:`StoreClient` (issued per caller location; adds network round-trip
time).  Client operations return simnet *processes*, so callers write::

    obj = yield client.get("orders/o-1")

Latency model
-------------
Each operation costs ``base + payload_size * per_byte`` seconds of
server-side time, where payload size is a rough serialized-JSON estimate.
The per-byte term is what the zero-copy optimization (paper §3.3) removes
for co-located clients.  Network time is taken from the shared
:class:`~repro.simnet.network.Network` between the caller's location and the
server's location; co-located callers pay nothing.

Zero-copy state plane
---------------------
With ``zero_copy=True`` (the default) a server keeps object data as
frozen, structurally-shared :mod:`repro.store.cow` views: reads,
snapshots, and watch events alias the live structure instead of deep
copying it, and patches re-create only the containers along patched
paths.  Views are therefore **immutable** -- mutate through the store's
patch/update APIs, or ``thaw()`` a private copy.

With ``delta_watch=True`` the watch/replication protocol additionally
ships **revision-chained JSON-merge-patch deltas** instead of full
snapshots.  The server tracks, per watch, the last revision it sent for
each key; when the watcher provably holds the predecessor state it
sends just the delta.  The client-side :class:`Watch` materializes full
objects before invoking handlers, detects revision-chain gaps, and
falls back to a full-object resync (and ultimately a stream break) --
so handlers never observe the encoding.  Wire bytes are accounted on
both the server (``watch_wire_bytes``) and the network links.
"""

import copy
from dataclasses import dataclass, field

from repro.errors import (
    OverloadedError,
    ShardMovedError,
    StoreError,
    UnavailableError,
)
from repro.flow.policy import (
    BLOCK,
    REJECT,
    SHED_OLDEST,
    check_overflow,
)
from repro.obs.context import activate, bind_generator, current_context, restore
from repro.simnet.events import Interrupt
from repro.simnet.queue import Resource
from repro.store.cow import (
    CopiedState,
    CopyMeter,
    SharedState,
    estimate_size,
    merge_shared,
)

#: Watch event types (mirroring the Kubernetes watch protocol).
ADDED = "ADDED"
MODIFIED = "MODIFIED"
DELETED = "DELETED"

#: Per-event wire framing overhead (type + revision fields), bytes.
EVENT_OVERHEAD = 24


@dataclass(frozen=True)
class OpLatency:
    """Server-side cost of one operation class."""

    base: float
    per_byte: float = 0.0

    def cost(self, size):
        return self.base + self.per_byte * size


@dataclass(frozen=True)
class WatchEvent:
    """One change notification delivered to a watcher.

    ``delta``/``prev_revision`` carry the delta-encoding of a MODIFIED
    commit: a JSON-merge-patch that turns the object at
    ``prev_revision`` into the object at ``revision``.  On the wire a
    delta-encoded event has ``object=None``; the client-side
    :class:`Watch` materializes the full object before handlers see it.

    ``ctx`` is the causal :class:`~repro.obs.context.TraceContext` of
    the commit that produced this event (None for untraced writes and
    synthetic resync events); ``committed_at`` is the commit's virtual
    time, from which watchers derive delivery lag.  Both are trace
    metadata -- a handful of header bytes in a real system -- and are
    deliberately excluded from :meth:`wire_size` so enabling tracing
    never perturbs the simulated latency model.
    """

    type: str  # ADDED | MODIFIED | DELETED
    key: str
    object: dict
    revision: int
    delta: dict = None
    prev_revision: int = None
    ctx: object = None
    committed_at: float = None
    _wire_size: int = field(default=None, init=False, repr=False,
                            compare=False)

    def wire_size(self):
        """Bytes this event occupies in one watch message.

        Measured once per event: an event is immutable once committed,
        and fan-out hands the same one to every watcher.
        """
        size = self._wire_size
        if size is None:
            if self.object is None and self.delta is not None:
                payload = estimate_size(self.delta)
            elif self.object is not None:
                payload = estimate_size(self.object)
            else:
                payload = 0  # tombstone
            size = len(self.key) + EVENT_OVERHEAD + payload
            object.__setattr__(self, "_wire_size", size)
        return size


@dataclass
class StoredObject:
    """An object at rest in an Object store."""

    key: str
    data: dict
    revision: int
    created_at: float
    updated_at: float
    labels: dict = field(default_factory=dict)


class _Failure:
    """Internal marker carrying a server-side exception to the client."""

    __slots__ = ("exception",)

    def __init__(self, exception):
        self.exception = exception


class Watch:
    """A client's registration for change notifications.

    ``cancel()`` stops delivery.  Events are delivered over the server->
    client FIFO link, so a watcher sees changes in commit order.  When
    the server fails over, the watch is closed server-side and the
    client's ``on_close`` callback (if any) fires -- watchers re-watch
    and resync, the way Kubernetes informers re-list.

    A server with watch batching enabled delivers *lists* of events in
    one network message; :meth:`deliver` unpacks them.  A watcher that
    can consume whole batches in one go (reconcilers, Cast) registers
    ``batch_handler``; otherwise ``handler`` is invoked once per event,
    in order, so batching stays invisible to per-event consumers.

    Against a ``delta_watch`` server, :meth:`deliver` additionally
    **materializes** delta-encoded events: it keeps the last (revision,
    object) per key, applies merge-patch deltas by path copy, and hands
    handlers ordinary full-object events.  A delta whose
    ``prev_revision`` does not chain onto the held state is a **gap**:
    the event is buffered, one full-object ``get`` resyncs the key, and
    buffered deltas past the resync point are replayed.  If the resync
    itself cannot complete, the stream breaks (``on_close`` fires) and
    the watcher does a classic full resync.

    **Credit-based flow control** (``credits`` set): the stream carries
    a credit window, HTTP/2 style.  The server spends one credit per
    event sent and pauses fan-out when the window is empty; the client
    grants credits back after each delivery is dispatched.  While
    paused, events coalesce server-side per key (Object stores: newest
    wins -- safe, because the delta encoder re-anchors with a full
    snapshot whenever the revision chain breaks) or queue contiguously
    (Log stores, where every event carries distinct records).  A paused
    buffer that outgrows ``max_paused`` applies ``overflow``: ``reject``
    (the default) breaks the stream so the watcher does one explicit
    resync -- *bounded memory, then recover* -- while the shed policies
    trade completeness for continuity and ``block`` restores the
    unbounded legacy buffer.  Lost credit grants (faulted links) are not
    retransmitted; the stream simply stays paused until the buffer
    overflow forces the resync, so a lossy link degrades, never leaks.
    """

    #: Transient-resync retry budget before declaring the stream broken.
    resync_attempts = 8

    def __init__(self, server, location, handler, key_prefix="", on_close=None,
                 batch_handler=None, credits=None, overflow=None,
                 max_paused=None):
        self._server = server
        self.location = location
        self.handler = handler
        self.key_prefix = key_prefix
        self.on_close = on_close
        self.batch_handler = batch_handler
        self.active = True
        self.delivered = 0
        # -- credit window -------------------------------------------------
        self.credits = int(credits) if credits else None
        self.overflow = check_overflow(overflow if overflow is not None
                                       else REJECT)
        #: Coalesced-entry bound on the paused buffer before ``overflow``
        #: applies (default: four credit windows of slack).
        self.max_paused = (int(max_paused) if max_paused is not None
                           else (4 * self.credits if self.credits else None))
        self._credits_remaining = self.credits
        #: Server-side paused buffer, oldest first.  The server class
        #: picks the slot an event takes: "newest" keys it by event key
        #: (a later commit replaces the earlier one in place), "append"
        #: gives every event a slot of its own.
        self._coalesce = server.WATCH_COALESCE
        self._paused = {}
        self._appended = 0
        self.credit_pauses = 0
        self.paused_coalesced = 0
        self.paused_shed = 0
        self.forced_resyncs = 0
        self.grants_lost = 0
        self.peak_paused = 0
        # Server-side delta-encoder state: last revision sent per key
        # (valid because the stream is reliable-until-broken FIFO).
        self._sent_revisions = {}
        # Client-side materializer state: key -> (revision, object).
        self._state = {}
        self._gap_buffer = {}  # key -> [wire events] while a resync runs
        self.delta_events = 0
        self.full_events = 0
        self.gaps_detected = 0
        self.key_resyncs = 0

    def deliver(self, events):
        """Client-side arrival of one network message (1+ events)."""
        obs = getattr(self._server.tracer, "obs", None)
        if obs is not None:
            now = self._server.env.now
            lag = obs.registry.histogram(
                "watch_lag_seconds", store=self._server.location)
            for event in events:
                if event.committed_at is not None:
                    # The commit's trace context rides the event; keeping
                    # it as an exemplar links a freshness-SLO violation
                    # straight to the causal DAG of the stale write.
                    ctx = event.ctx
                    lag.observe(
                        now - event.committed_at,
                        exemplar=ctx.trace_id if ctx is not None else None,
                    )
        ready = []
        for event in events:
            materialized = self._materialize(event)
            if materialized is not None:
                ready.append(materialized)
        self._dispatch(ready)
        # Credits flow back only after the handler work is dispatched:
        # a consumer that falls behind simply grants later, and the
        # server's window -- not a queue -- absorbs the difference.
        if self.credits is not None and self.active:
            self._grant_credits(len(events))

    # -- credit flow (client side) ------------------------------------------

    def _grant_credits(self, count):
        """Return ``count`` credits to the server over the reverse link.

        A grant lost to a faulted link is NOT retransmitted: the stream
        stays paused until the paused-buffer overflow forces a resync.
        """
        server = self._server
        link = server.network.link(self.location, server.location)
        if link.send(
            lambda n: server._on_credit_grant(self, n), count
        ) is None:
            self.grants_lost += 1

    # -- paused buffer (server side) ----------------------------------------

    def _buffer_paused(self, event):
        """Coalesce one event into the paused buffer, applying overflow."""
        if not self._paused:
            self.credit_pauses += 1
            self._server.watch_pauses += 1
        if self._coalesce == "newest":
            slot = event.key
        else:  # append: log records are all distinct; never coalesce
            slot = self._appended = self._appended + 1
        if slot in self._paused:
            # Newest wins in place: the entry keeps its FIFO slot,
            # its payload becomes the latest commit.
            self._paused[slot] = event
            self.paused_coalesced += 1
            self._server.watch_paused_coalesced += 1
            return
        if not self._paused_admit(event):
            return
        self._paused[slot] = event
        self.peak_paused = max(self.peak_paused, len(self._paused))

    def _paused_admit(self, event):
        """Overflow policy for a NEW paused entry; False when shed."""
        if (self.max_paused is None or self.overflow == BLOCK
                or len(self._paused) < self.max_paused):
            return True
        if self.overflow == REJECT:
            # The consumer is too slow for bounded buffering: break the
            # stream, the watcher re-watches and resyncs -- one explicit
            # recovery instead of unbounded memory.
            self._force_resync()
            return False
        if self.overflow == SHED_OLDEST:
            del self._paused[next(iter(self._paused))]
            self._record_shed()
            return True
        self._record_shed()  # SHED_NEWEST: the incoming event is dropped
        return False

    def _record_shed(self):
        self.paused_shed += 1
        self._server.watch_shed_events += 1

    def _force_resync(self):
        self.forced_resyncs += 1
        self._server.watch_forced_resyncs += 1
        self._paused = {}
        self.break_connection(self._server.watch_keepalive)

    def _take_paused(self, count):
        """Dequeue up to ``count`` buffered events, oldest first."""
        slots = list(self._paused)[:count]
        return [self._paused.pop(slot) for slot in slots]

    def _dispatch(self, events):
        if not events:
            return
        if self.batch_handler is not None:
            self.batch_handler(list(events))
        elif self.handler is not None:
            for event in events:
                self.handler(event)

    # -- delta materialization (no-op for snapshot streams) -----------------

    def _materialize(self, event):
        if not self._server.delta_watch:
            return event
        key = event.key
        if key in self._gap_buffer:
            # A resync for this key is in flight: preserve order.
            self._gap_buffer[key].append(event)
            return None
        if event.type == DELETED:
            last = self._state.pop(key, None)
            self.full_events += 1
            if event.object is None and last is not None:
                # Tombstone on the wire; hand the handler the last-known
                # object, matching snapshot-stream semantics.
                return WatchEvent(DELETED, key, last[1], event.revision,
                                  ctx=event.ctx,
                                  committed_at=event.committed_at)
            return event
        if event.object is None and event.delta is not None:
            base = self._state.get(key)
            if base is None or base[0] != event.prev_revision:
                self.gaps_detected += 1
                self._begin_resync(key, event)
                return None
            merged = merge_shared(base[1], event.delta)
            self._state[key] = (event.revision, merged)
            self.delta_events += 1
            return WatchEvent(event.type, key, merged, event.revision,
                              ctx=event.ctx, committed_at=event.committed_at)
        self._state[key] = (event.revision, event.object)
        self.full_events += 1
        return event

    def _begin_resync(self, key, pending_event):
        self._gap_buffer[key] = [pending_event]
        self.key_resyncs += 1
        self._server.env.process(self._resync_key(self._server.env, key))

    def _resync_key(self, env, key):
        """Full-object fallback: one (retried) GET round trip for ``key``."""
        server = self._server
        view = None
        deleted = False
        for attempt in range(self.resync_attempts):
            if not self.active:
                self._gap_buffer.pop(key, None)
                return
            remote = self.location != server.location
            try:
                if remote:
                    yield server.network.transfer(self.location, server.location)
                result = yield server.handle("get", {"key": key})
                if remote:
                    yield server.network.transfer(server.location, self.location)
            except UnavailableError:
                result = None  # partitioned link: retry like a server error
            if result is None or (
                isinstance(result, _Failure)
                and isinstance(result.exception, UnavailableError)
            ):
                yield env.timeout(0.002 * (2 ** min(attempt, 6)))
                continue
            if isinstance(result, _Failure):
                deleted = True  # NotFound: the gap resolved to a deletion
                break
            view = result
            break
        else:
            # The store would not answer: the stream is unrecoverable at
            # this layer.  Break it; the watcher re-watches and resyncs.
            self._gap_buffer.pop(key, None)
            self.break_connection(0.0)
            return
        buffered = self._gap_buffer.pop(key, [])
        if not self.active:
            return
        ready = []
        if deleted:
            last = self._state.pop(key, None)
            ready.append(WatchEvent(
                DELETED, key, last[1] if last else None,
                server.revision,
            ))
        else:
            self._state[key] = (view["revision"], view["data"])
            ready.append(WatchEvent(MODIFIED, key, view["data"], view["revision"]))
        for event in buffered:
            if not deleted and event.revision <= view["revision"]:
                continue  # already folded into the resynced view
            materialized = self._materialize(event)
            if materialized is not None:
                ready.append(materialized)
        self._dispatch(ready)

    def matches(self, key):
        return self.active and key.startswith(self.key_prefix)

    def cancel(self):
        self.active = False
        if self in self._server._watches:
            self._server._watches.remove(self)

    def close(self):
        """Server-initiated termination (failover): notify the client.

        The notification travels over the server->client link; when that
        link is faulted (partition/drop window) the client instead
        detects the dead connection via its own keepalive timer.
        """
        if not self.active:
            return
        link = self._server.network.link(self._server.location, self.location)
        self.cancel()
        if self.on_close is not None:
            if link.send(lambda _msg: self.on_close(), None) is None:
                self._detect_break(self._server.watch_keepalive)

    def break_connection(self, detect_after=0.0):
        """The delivery stream broke (partition, crash, dropped event).

        The server cannot reach the client, so ``on_close`` fires from the
        client's *own* keepalive timer after ``detect_after`` seconds of
        virtual time -- no network delivery involved.  Watchers then
        re-watch and resync exactly as after a failover.
        """
        if not self.active:
            return
        self.cancel()
        self._detect_break(detect_after)

    def _detect_break(self, detect_after):
        if self.on_close is None:
            return
        timer = self._server.env.timeout(detect_after)
        timer.callbacks.append(lambda _evt: self.on_close())


#: Operations the reshard write fence applies to: everything that can
#: mutate object state.  Reads stay open on the old owner until the
#: ring flips (the sealed range's state is frozen, so they are
#: consistent), which keeps the cutover invisible to readers.
_FENCED_OPS = frozenset({
    "create", "update", "patch", "delete",
    "txn", "txn_prepare", "command", "fcall", "fcall_txn",
})


class StoreServer:
    """Base class for backend servers.

    Subclasses define ``OPS`` (operation name -> :class:`OpLatency`) and an
    ``op_<name>`` method per operation.  Requests are admitted through a
    bounded worker pool (default 1: the stores we model are effectively
    single-threaded per key space, which also keeps commit order coherent).
    """

    OPS = {}

    #: How long a client's keepalive takes to detect a dead watch stream
    #: (seconds of virtual time) when the server cannot say goodbye.
    watch_keepalive = 0.02

    #: How a credit-paused watch buffer coalesces: ``"newest"`` keeps one
    #: event per key (a later commit supersedes an earlier one -- Object
    #: stores), ``"append"`` keeps every event contiguously (Log stores,
    #: where each event carries distinct records).
    WATCH_COALESCE = "newest"

    def __init__(self, env, network, location, workers=1, tracer=None,
                 watch_batch_window=0.0, zero_copy=True, delta_watch=False):
        self.env = env
        self.network = network
        self.location = location
        self.tracer = tracer
        #: Zero-copy state plane: keep object data frozen and hand out
        #: structurally-shared views instead of deep copies.  Decided
        #: here, once; every copy site asks :attr:`copies`.
        self.zero_copy = bool(zero_copy)
        self.copies = SharedState() if self.zero_copy else CopiedState()
        #: Delta replication: watch events ship revision-chained
        #: merge-patch deltas instead of full snapshots.
        self.delta_watch = bool(delta_watch)
        self.copy_meter = CopyMeter()
        self._worker_pool = Resource(env, capacity=workers)
        # Registration order, NOT a set: fan-out order must be
        # deterministic across runs (hash randomization must not leak
        # into event schedules).
        self._watches = []
        #: Watch batching (>0 enables it): events committed within this
        #: window are coalesced per watcher and delivered as ONE network
        #: message, in commit order.  0 keeps the classic one-message-
        #: per-event fan-out.
        self.watch_batch_window = float(watch_batch_window)
        self._watch_buffers = {}  # Watch -> [pending events]
        self.watch_messages_sent = 0
        self.watch_events_sent = 0
        self.watch_wire_bytes = 0
        self.watch_deltas_sent = 0
        self.watch_fulls_sent = 0
        self.watch_drops_injected = 0
        # Credit-flow counters (aggregated across this server's watches).
        self.watch_pauses = 0
        self.watch_paused_coalesced = 0
        self.watch_shed_events = 0
        self.watch_forced_resyncs = 0
        self.watch_credit_grants = 0
        self._drop_next_watch_message = False
        #: Admission controller guarding :meth:`handle` (None = open door).
        self.admission = None
        self.op_counts = {}
        self.revision = 0
        # Cross-shard transactional plane (repro.txn): prepared-but-
        # undecided transactions, their key locks, and decided outcomes.
        # Volatile by default; the apiserver backend persists prepare/
        # decision markers to its WAL and rebuilds these on restart.
        self._prepared = {}  # txn_id -> [ops]
        self._txn_locks = {}  # key -> txn_id holding it in-doubt
        self._txn_outcomes = {}  # txn_id -> ("committed", views) | ("aborted", None)
        # Availability / failure state (see repro.faults).
        self.available = True
        self._epoch = 0  # bumped on failover/crash; queued ops abort
        # Live-reshard write fence (repro.store.reshard): while a ring
        # range is sealed here, mutations addressing it are rejected
        # with ShardMovedError until the ring flips and clients
        # re-resolve ownership.
        self._sealed_ranges = []
        self._sealed_version = None
        self.fence_rejections = 0
        self._ring_context = None  # owning ShardedStore, for error notes
        # Processes currently holding a worker slot.  A list, not a set:
        # abort order must be deterministic across runs.
        self._executing = []
        self.aborted_ops = 0
        self.crash_count = 0

    # -- request processing ------------------------------------------------

    def handle(self, op, args):
        """Process one request; returns a simnet process event.

        The event's value is the op result, or a :class:`_Failure` that the
        client converts back into an exception (server errors must not
        crash the event loop).
        """
        return self.env.process(self._handle(op, args))

    def _handle(self, op, args):
        epoch = self._epoch
        # Principal rides out-of-band like the trace ctx: stripped before
        # sizing (admission must not perturb the latency model), copied
        # rather than popped (retried attempts reuse the args dict).
        principal = args.get("principal")
        if principal is not None:
            args = {k: v for k, v in args.items() if k != "principal"}
        if self.admission is not None and not self.admission.admit(
            principal, self._worker_pool.queued
        ):
            # Rejected at the front door: no worker slot, no latency
            # charge.  OverloadedError is retryable, so clients behind a
            # RetryPolicy back off instead of piling on.
            yield self.env.timeout(0)
            return _Failure(OverloadedError(
                f"store {self.location!r} shed {op!r} for "
                f"principal {principal!r} (admission control)"
            ))
        yield self._worker_pool.acquire()
        proc = self.env.active_process
        self._executing.append(proc)
        try:
            if epoch != self._epoch or not self.available:
                # The server failed over / crashed while this request was
                # queued (or is still down): abort retryably.
                self.aborted_ops += 1
                return _Failure(UnavailableError(
                    f"store {self.location!r} is unavailable"
                ))
            if op in _FENCED_OPS:
                if self._sealed_ranges:
                    fenced = self._fenced_key(args)
                    if fenced is not None:
                        self.fence_rejections += 1
                        return _Failure(ShardMovedError(
                            f"store {self.location!r}: key {fenced!r} is in "
                            f"a range sealed for migration (ring "
                            f"v{self._sealed_version} pending); re-resolve "
                            "ownership and retry",
                            key=fenced, ring_version=self._sealed_version,
                        ))
                # Ownership fence: a write that sat in the worker queue
                # across a ring flip (or reached a retired shard) must
                # not commit here -- the key's state now lives with the
                # new owner, and a late commit on the old one would be
                # acked and watched but absent from the authoritative
                # copy (a lost write).
                stray = self._stray_key(args)
                if stray is not None:
                    self.fence_rejections += 1
                    ring = self._ring_context.ring
                    return _Failure(ShardMovedError(
                        f"store {self.location!r}: key {stray!r} moved to "
                        f"{self._ring_context.owner_location(stray)!r} "
                        f"(ring v{ring.version}); re-resolve ownership "
                        "and retry",
                        key=stray, ring_version=ring.version,
                        owner=self._ring_context.owner_location(stray),
                    ))
            method = getattr(self, f"op_{op}", None)
            if method is None:
                raise StoreError(f"{type(self).__name__} has no operation {op!r}")
            # Trace context rides out-of-band: strip it BEFORE sizing the
            # request, so op latency is identical with tracing on or off.
            # A copy, not a pop -- retried attempts reuse the args dict.
            ctx = args.get("ctx")
            if ctx is not None:
                args = {k: v for k, v in args.items() if k != "ctx"}
            latency = self.OPS.get(op)
            if latency is not None:
                size = estimate_size(args)
                delay = latency.cost(size)
                if delay > 0:
                    yield self.env.timeout(delay)
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
            token = activate(ctx) if ctx is not None else None
            try:
                result = method(**args)
            finally:
                if ctx is not None:
                    restore(token)
            if hasattr(result, "send"):  # op implemented as a sub-process
                if ctx is not None:
                    result = bind_generator(result, ctx)
                result = yield self.env.process(result)
            return result
        except Interrupt:
            # Aborted in flight by fail_over()/crash(): the operation had
            # not committed yet (commits are synchronous after the latency
            # yield), so the caller may safely retry.
            self.aborted_ops += 1
            return _Failure(UnavailableError(
                f"store {self.location!r}: in-flight {op!r} aborted by failover"
            ))
        except StoreError as exc:
            return _Failure(exc)
        finally:
            if proc in self._executing:
                self._executing.remove(proc)
            self._worker_pool.release()

    # -- watch fan-out -----------------------------------------------------

    def register_watch(self, watch):
        self._watches.append(watch)

    def notify(self, event):
        """Fan an event out to all matching watchers over their links.

        A watch stream is reliable-until-broken (TCP-like): when a fault
        rule loses a delivery, the whole stream breaks instead of
        silently skipping one event -- the watcher detects it via
        keepalive, re-watches, and resyncs, so the watch-completeness
        invariant survives lossy links.

        With ``watch_batch_window > 0``, the event is instead buffered
        per watcher and flushed as one message when the window closes,
        preserving per-watcher commit order while collapsing N messages
        into one under bursty write traffic.
        """
        for watch in list(self._watches):
            if watch.matches(event.key):
                if self.watch_batch_window > 0:
                    self._buffer_for_watch(watch, event)
                else:
                    self._send_to_watch(watch, (event,))

    def _encode_event(self, watch, event):
        """Wire encoding of ``event`` for one watcher.

        In delta mode, a MODIFIED commit whose predecessor revision is
        the last one sent on this stream ships as a merge-patch delta
        (``object=None``); anything else -- first sight of a key, a
        commit with no delta, or a chain break -- ships the full
        snapshot, re-anchoring the stream.  DELETED ships a tombstone.
        Valid because the stream is reliable-until-broken FIFO.
        """
        if not self.delta_watch:
            return event
        key = event.key
        if event.type == DELETED:
            watch._sent_revisions.pop(key, None)
            return WatchEvent(DELETED, key, None, event.revision,
                              ctx=event.ctx, committed_at=event.committed_at)
        last_sent = watch._sent_revisions.get(key)
        watch._sent_revisions[key] = event.revision
        if (
            event.delta is not None
            and event.prev_revision is not None
            and last_sent == event.prev_revision
        ):
            self.watch_deltas_sent += 1
            return WatchEvent(
                event.type, key, None, event.revision,
                delta=event.delta, prev_revision=event.prev_revision,
                ctx=event.ctx, committed_at=event.committed_at,
            )
        self.watch_fulls_sent += 1
        return WatchEvent(event.type, key, event.object, event.revision,
                          ctx=event.ctx, committed_at=event.committed_at)

    def _send_to_watch(self, watch, events):
        """Send ``events`` subject to the watch's credit window.

        Events the window cannot afford go to the watch's paused buffer
        (coalesced per :attr:`WATCH_COALESCE`); they flow once the
        client grants credits back.  Returns False if the stream broke.
        """
        if watch.credits is None:
            return self._transmit(watch, events)
        sendable = []
        for event in events:
            # A non-empty paused buffer forces buffering even with
            # credits in hand: FIFO order is part of the protocol.
            if watch._paused or len(sendable) >= watch._credits_remaining:
                watch._buffer_paused(event)
                if not watch.active:  # overflow forced a resync
                    return False
            else:
                sendable.append(event)
        if not sendable:
            return watch.active
        return self._transmit(watch, sendable)

    def _on_credit_grant(self, watch, count):
        """Client granted ``count`` credits back; drain the paused buffer."""
        if not watch.active:
            return
        self.watch_credit_grants += 1
        watch._credits_remaining = min(
            watch.credits, watch._credits_remaining + count
        )
        while watch.active and watch._credits_remaining > 0:
            batch = watch._take_paused(watch._credits_remaining)
            if not batch:
                return
            if not self._transmit(watch, batch):
                return

    def _transmit(self, watch, events):
        """One network message carrying ``events``; False if it broke."""
        encoded = [self._encode_event(watch, event) for event in events]
        wire_bytes = sum(event.wire_size() for event in encoded)
        if watch.credits is not None:
            # Spent at send time, not delivery: a lost message never
            # grants back, so losses shrink the effective window until
            # the paused-buffer overflow forces the resync.
            watch._credits_remaining -= len(encoded)
        if self._drop_next_watch_message:
            # Test hook: lose this message AFTER encoding, so the
            # server's sent-revision chain advances past what the client
            # holds -- a genuine delta gap, exercised by the resync path.
            self._drop_next_watch_message = False
            self.watch_drops_injected += 1
            return False
        link = self.network.link(self.location, watch.location)
        if link.send(watch.deliver, tuple(encoded), size=wire_bytes) is None:
            watch.break_connection(self.watch_keepalive)
            return False
        self.watch_messages_sent += 1
        self.watch_events_sent += len(encoded)
        self.watch_wire_bytes += wire_bytes
        watch.delivered += len(encoded)
        return True

    def drop_next_watch_message(self):
        """Fault hook: silently lose the next watch message (see tests)."""
        self._drop_next_watch_message = True

    @property
    def copy_stats(self):
        return self.copy_meter.snapshot()

    def _buffer_for_watch(self, watch, event):
        buffer = self._watch_buffers.get(watch)
        if buffer is not None:
            buffer.append(event)
            return
        self._watch_buffers[watch] = [event]
        timer = self.env.timeout(self.watch_batch_window)
        timer.callbacks.append(lambda _evt, w=watch: self._flush_watch(w))

    def _flush_watch(self, watch):
        events = self._watch_buffers.pop(watch, None)
        if events and watch.active:
            self._send_to_watch(watch, events)

    def next_revision(self):
        self.revision += 1
        return self.revision

    # -- reshard write fence (see repro.store.reshard) ---------------------

    def seal_ranges(self, ranges, ring_version=None):
        """Fence mutations addressing ring ``ranges`` on this shard.

        Called by the reshard engine once a moved range's state has been
        copied: from here until :meth:`clear_sealed_ranges`, writes into
        the range fail fast with :class:`~repro.errors.ShardMovedError`
        (non-retryable at the per-shard layer; the sharded client
        re-routes against the live ring instead).
        """
        self._sealed_ranges = list(ranges)
        self._sealed_version = ring_version

    def clear_sealed_ranges(self):
        self._sealed_ranges = []
        self._sealed_version = None

    def _fenced_key(self, args):
        """First key in ``args`` that lands in a sealed range, if any."""
        from repro.store.ring import key_in_ranges

        key = args.get("key")
        if isinstance(key, str) and key_in_ranges(key, self._sealed_ranges):
            return key
        ops = args.get("ops")
        if isinstance(ops, list):
            for entry in ops:
                k = entry.get("key") if isinstance(entry, dict) else None
                if isinstance(k, str) and key_in_ranges(
                    k, self._sealed_ranges
                ):
                    return k
        return None

    def _stray_key(self, args):
        """First key in ``args`` this server no longer owns, if any.

        Only meaningful for shards routed by a live ring
        (``_ring_context``); standalone servers own every key.
        """
        ctx = self._ring_context
        if ctx is None:
            return None

        def owned(key):
            try:
                return ctx.shard_for(key) is self
            except Exception:
                return True  # ring in transit: let the seal fence decide

        key = args.get("key")
        if isinstance(key, str) and not owned(key):
            return key
        ops = args.get("ops")
        if isinstance(ops, list):
            for entry in ops:
                k = entry.get("key") if isinstance(entry, dict) else None
                if isinstance(k, str) and not owned(k):
                    return k
        return None

    def _ownership_note(self, key):
        """`` [key -> owner shard @ ring vN]`` when part of a ring, else ``""``.

        Appended to conflict messages so errors name the authoritative
        owner *location* (stable across resharding) instead of a raw
        shard index that the next topology change would invalidate.
        """
        store = self._ring_context
        if store is None:
            return ""
        try:
            location = store.owner_location(key)
            version = store.ring.version
        except Exception:
            return ""
        return f" [key {key!r} -> shard {location!r} @ ring v{version}]"

    # -- cross-shard transaction surface (see repro.txn) ---------------------

    @property
    def in_doubt_txns(self):
        """Prepared-but-undecided transaction count (drains on recovery)."""
        return len(self._prepared)

    @property
    def prepared_txn_ids(self):
        return sorted(self._prepared)

    def _persist_txn_marker(self, kind, txn_id, ops=None):
        """Hook: durably record a prepare/commit/abort transition.

        The base store keeps transaction state in memory only (a crash
        forgets it, like the Redis-like backend forgets everything); the
        apiserver backend appends a marker to its WAL so recovery can
        rebuild in-doubt transactions and decided outcomes.
        """

    # -- failure injection surface (see repro.faults) -----------------------

    def fail_over(self):
        """Simulate a server failover: data survives, connections do not.

        Every active watch is closed (clients with ``on_close`` get told
        and are expected to re-watch + resync), and every in-flight
        operation aborts with a retryable
        :class:`~repro.errors.UnavailableError` -- clients behind a
        :class:`repro.faults.RetryPolicy` ride through transparently.
        Returns how many watches were dropped.
        """
        dropped = list(self._watches)
        for watch in dropped:
            watch.close()
        self.abort_in_flight()
        return len(dropped)

    def abort_in_flight(self):
        """Abort queued and executing operations with ``UnavailableError``.

        Executing operations are interrupted at their current yield point
        (always before their commit -- commits are synchronous after the
        latency delay); queued operations observe the epoch bump when
        they eventually acquire a worker.  Returns how many executing
        operations were interrupted.
        """
        self._epoch += 1
        interrupted = 0
        for proc in list(self._executing):
            if proc.is_alive and proc is not self.env.active_process:
                proc.interrupt("store failover")
                interrupted += 1
        return interrupted

    def sever_watches(self, location=None, detect_after=None):
        """Break watch streams (to one client location, or all).

        Used when the server cannot notify clients (crash, partition):
        each client's keepalive fires ``on_close`` after ``detect_after``
        (default: :attr:`watch_keepalive`) seconds.  Returns the count.
        """
        grace = detect_after if detect_after is not None else self.watch_keepalive
        severed = [
            w for w in list(self._watches)
            if w.active and (location is None or w.location == location)
        ]
        for watch in severed:
            watch.break_connection(grace)
        return len(severed)

    def crash(self):
        """Hard-kill the server: lose volatile state, abort everything.

        What "volatile state" means is backend-specific (``_on_crash``):
        the apiserver-like store recovers its objects from a write-ahead
        log on :meth:`restart`; the Redis-like store loses them.  While
        down, every operation fails with ``UnavailableError``.
        """
        if not self.available:
            return
        self.available = False
        self.crash_count += 1
        self.abort_in_flight()
        self.sever_watches()
        # In-doubt transaction state is volatile: backends with a durable
        # prepare path (the apiserver WAL) rebuild it in ``_on_restart``.
        self._prepared = {}
        self._txn_locks = {}
        self._txn_outcomes = {}
        self._on_crash()
        if self.tracer is not None:
            self.tracer.record("fault", "store-crash", location=self.location)

    def restart(self):
        """Bring a crashed server back (replaying durable state, if any)."""
        if self.available:
            return
        self._on_restart()
        self.available = True
        if self.tracer is not None:
            self.tracer.record("fault", "store-restart", location=self.location)

    def set_available(self, available):
        """Transient unavailability window: reject ops, keep state/watches."""
        self.available = bool(available)

    def _on_crash(self):
        """Subclass hook: drop volatile state."""

    def _on_restart(self):
        """Subclass hook: recover durable state."""


def combine_patches(first, second):
    """One merge-patch equivalent to applying ``first`` then ``second``.

    Unlike :func:`repro.store.cow.merge_patch` (which applies a
    patch to *data*), this combines two patches: ``None`` values are
    deletion markers and must survive into the combined patch.
    """
    out = copy.deepcopy(first)
    for key, value in second.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = combine_patches(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


class StoreClient:
    """Base class for backend clients bound to one caller location.

    With a :class:`repro.faults.RetryPolicy` (and optionally a
    :class:`repro.faults.CircuitBreaker`) attached, every operation rides
    through transient faults -- store failover/crash windows, partitioned
    links -- with seeded-jitter exponential backoff.  Without one, the
    first :class:`~repro.errors.UnavailableError` surfaces to the caller.

    Two opt-in hot-path optimizations (both off by default, preserving
    classic request/response semantics):

    - **read-through caching** (:meth:`enable_read_cache`): an informer-
      style watch mirrors the keyspace locally and ``get`` serves hits
      from that mirror with no network round trip (eventually consistent,
      like reading a Kubernetes informer cache);
    - **write coalescing** (``coalesce_writes = True``): while a patch
      for key K is on the wire, further patches for K merge into one
      pending follow-up request instead of queueing on the server.
    """

    def __init__(self, server, location, retry_policy=None, circuit_breaker=None):
        self.server = server
        self.env = server.env
        self.location = location
        self.retry_policy = retry_policy
        self.circuit_breaker = circuit_breaker
        #: Principal this client acts as (rides out-of-band in requests;
        #: consulted by the server's admission controller).
        self.principal = None
        #: Flow-control defaults applied by :meth:`watch` when the caller
        #: passes none (set by exchange handles from the DE's FlowConfig).
        self.default_watch_credits = None
        self.default_watch_overflow = None
        # Write coalescing (opt-in).
        self.coalesce_writes = False
        self._inflight_patches = set()  # keys with a patch on the wire
        self._pending_patches = {}  # key -> [combined patch, done event]
        self.patches_coalesced = 0
        # Read-through cache (opt-in via enable_read_cache()).
        self._read_cache = None
        self._cache_watch = None
        self._cache_prefix = ""
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def colocated(self):
        return self.location == self.server.location

    @property
    def copies(self):
        return self.server.copies

    @property
    def copy_meter(self):
        return self.server.copy_meter

    def request(self, op, **args):
        """Round-trip one operation; returns a simnet process event.

        The caller's ambient trace context (if any) is captured here --
        synchronously, before any scheduling -- and rides out-of-band in
        the request args, so server-side commits can chain onto it.  The
        retry factory closes over ``args``, so the context survives
        retried attempts.
        """
        ctx = current_context()
        if ctx is not None:
            args["ctx"] = ctx
        if self.principal is not None:
            args["principal"] = self.principal
        if self.retry_policy is None and self.circuit_breaker is None:
            return self.env.process(self._request(op, args))
        from repro.faults.retry import RetryPolicy

        policy = self.retry_policy
        if policy is None:  # breaker-only client: gate but never retry
            policy = self.retry_policy = RetryPolicy(max_attempts=1)
        return policy.execute(
            self.env,
            lambda: self.env.process(self._request(op, args)),
            breaker=self.circuit_breaker,
        )

    def _request(self, op, args):
        if not self.colocated:
            yield self.server.network.transfer(self.location, self.server.location)
        result = yield self.server.handle(op, args)
        if not self.colocated:
            yield self.server.network.transfer(self.server.location, self.location)
        if isinstance(result, _Failure):
            raise result.exception
        return result

    # -- shared typed surface (get / patch ride the optimizations) -----------

    def txn_prepare(self, txn_id, ops):
        """2PC phase 1: validate + lock + durably hold ``ops`` server-side."""
        return self.request("txn_prepare", txn_id=txn_id, ops=ops)

    def txn_commit(self, txn_id):
        """2PC phase 2: apply a prepared transaction (idempotent)."""
        return self.request("txn_commit", txn_id=txn_id)

    def txn_abort(self, txn_id):
        """Drop a prepared transaction and release its locks (idempotent)."""
        return self.request("txn_abort", txn_id=txn_id)

    def txn_status(self, txn_id):
        """Recovery probe: prepared / committed / aborted / unknown."""
        return self.request("txn_status", txn_id=txn_id)

    def get(self, key):
        """Read one object; served locally on a read-cache hit."""
        if self._read_cache is not None and key.startswith(self._cache_prefix):
            view = self._read_cache.get(key)
            if view is not None:
                self.cache_hits += 1
                hit = self.copies.cached(view, self.copy_meter)
                return self.env.timeout(0.0, hit)
            self.cache_misses += 1
        return self.request("get", key=key)

    def patch(self, key, patch, resource_version=None):
        """Merge-patch one object; same-key patches coalesce if enabled.

        Coalescing never applies to version-conditional patches: a
        ``resource_version`` precondition must reach the server as-is.
        """
        if self.coalesce_writes and resource_version is None:
            return self._coalesced_patch(key, patch)
        return self.request(
            "patch", key=key, patch=patch, resource_version=resource_version
        )

    # -- write coalescing -----------------------------------------------------

    def _coalesced_patch(self, key, patch):
        pending = self._pending_patches.get(key)
        if pending is not None:
            # A follow-up is already waiting: merge into it; every caller
            # coalesced into that flight shares its completion event.
            pending[0] = combine_patches(pending[0], patch)
            self.patches_coalesced += 1
            return pending[1]
        if key in self._inflight_patches:
            done = self.env.event()
            self._pending_patches[key] = [copy.deepcopy(patch), done]
            self.patches_coalesced += 1
            return done
        # Mark the key in flight NOW, not when the flight process first
        # runs: patches issued later in the same instant (a concurrent
        # burst -- the whole point of coalescing) must see it.
        self._inflight_patches.add(key)
        return self.env.process(self._patch_flight(key, patch, None))

    def _patch_flight(self, key, patch, done):
        try:
            view = yield self.request(
                "patch", key=key, patch=patch, resource_version=None
            )
        except BaseException as exc:
            self._inflight_patches.discard(key)
            self._launch_pending(key)
            if done is None:
                raise
            # Chained flight: the caller waits on ``done``, not on this
            # process, so route the failure there (and only there).
            done.fail(exc)
            return None
        self._inflight_patches.discard(key)
        self._launch_pending(key)
        if done is not None:
            done.succeed(view)
        return view

    def _launch_pending(self, key):
        pending = self._pending_patches.pop(key, None)
        if pending is not None:
            self._inflight_patches.add(key)
            self.env.process(self._patch_flight(key, pending[0], pending[1]))

    # -- read-through cache ---------------------------------------------------

    def enable_read_cache(self, key_prefix=""):
        """Mirror the (prefixed) keyspace locally; serve ``get`` from it.

        The mirror is informer-backed: a watch keeps it current, and an
        initial ``list`` warms it.  Reads are eventually consistent --
        they may trail the server by the watch-delivery latency, exactly
        like reading a Kubernetes informer cache.  A miss (or a broken
        watch, which drops the mirror cold) falls through to a normal
        server read, so correctness never depends on the cache.
        """
        if self._read_cache is not None:
            return self._cache_watch
        self._read_cache = {}
        self._cache_prefix = key_prefix
        self._cache_watch = self.watch(
            None,
            key_prefix=key_prefix,
            batch_handler=self._absorb_cache_events,
            on_close=self._on_cache_watch_lost,
        )
        self.env.process(self._warm_cache(key_prefix))
        return self._cache_watch

    def _warm_cache(self, key_prefix):
        try:
            views = yield self.request("list", key_prefix=key_prefix)
        except StoreError:
            return  # stay cold; gets fall through to the server
        cache = self._read_cache
        if cache is None:
            return
        for view in views:
            current = cache.get(view["key"])
            if current is None or view["revision"] >= current["revision"]:
                cache[view["key"]] = view

    def _absorb_cache_events(self, events):
        cache = self._read_cache
        if cache is None:
            return
        for event in events:
            if event.type == DELETED:
                cache.pop(event.key, None)
                continue
            current = cache.get(event.key)
            if current is not None and event.revision < current["revision"]:
                continue
            cache[event.key] = {
                "key": event.key,
                "data": event.object,
                "revision": event.revision,
                "created_at": current["created_at"] if current else None,
                "updated_at": self.env.now,
            }

    def _on_cache_watch_lost(self):
        """The mirror went stale-unknowable: drop it cold and rebuild."""
        self._read_cache = None
        self._cache_watch = None
        prefix, self._cache_prefix = self._cache_prefix, ""
        self.enable_read_cache(prefix)

    def watch(self, handler, key_prefix="", on_close=None, batch_handler=None,
              credits=None, overflow=None):
        """Register ``handler(WatchEvent)`` for matching changes.

        Registration itself is immediate (steady-state watches are the
        common case; connection setup is not modelled).  ``on_close``
        fires if the server drops the watch (failover).  A
        ``batch_handler(list_of_events)`` consumes whole coalesced
        deliveries in one call when the server batches fan-out.
        ``credits``/``overflow`` opt the stream into credit-based flow
        control (see :class:`Watch`); unset, they fall back to the
        client's ``default_watch_credits``/``default_watch_overflow``
        (which exchange handles configure).  Returns the :class:`Watch`
        handle for cancellation.
        """
        if credits is None:
            credits = self.default_watch_credits
        if overflow is None:
            overflow = self.default_watch_overflow
        watch = Watch(self.server, self.location, handler, key_prefix,
                      on_close=on_close, batch_handler=batch_handler,
                      credits=credits, overflow=overflow)
        self.server.register_watch(watch)
        return watch
