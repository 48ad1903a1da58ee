"""The server side of every simulated data-store backend.

Every backend is split into a :class:`StoreServer` (owns the data, processes
requests with per-operation latency, pushes watch events) and a
:class:`~repro.store.client.StoreClient` (issued per caller location; adds
network round-trip time).  Client operations return simnet *processes*, so
callers write::

    obj = yield client.get("orders/o-1")

This module owns :class:`StoreServer` -- the request path, the per-commit
watch fan-out, the reshard fences, 2PC participant state, the failure
surface -- and the value types servers share.  What is per watch stream
lives in :mod:`repro.store.watch`, what is per caller in
:mod:`repro.store.client`; their names stay importable from here.

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
"""

from dataclasses import dataclass, field
from types import GeneratorType

from repro.errors import OverloadedError, ShardMovedError, StoreError, UnavailableError
from repro.obs.context import activate, bind_generator, restore
from repro.simnet.events import Interrupt
from repro.simnet.queue import Resource
from repro.store.cow import CopiedState, CopyMeter, SharedState, estimate_size
from repro.store.ring import key_in_ranges
from repro.store.watch import (
    ADDED, DELETED, EVENT_OVERHEAD, MODIFIED, Watch, WatchEvent,
)

__all__ = [
    "ADDED", "DELETED", "EVENT_OVERHEAD", "MODIFIED", "ObjectClient",
    "OpLatency", "StoreClient", "StoreServer", "StoredObject", "Watch",
    "WatchEvent", "estimate_size",
]


@dataclass(frozen=True)
class OpLatency:
    """Server-side cost of one operation class."""

    base: float
    per_byte: float = 0.0

    def cost(self, size):
        return self.base + self.per_byte * size


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

    def take(self):
        """The exception, its slot emptied: ``raise failure.take()`` leaves
        no local holding it, so its traceback's frame is no cycle."""
        exception, self.exception = self.exception, None
        return exception


#: Operations the reshard write fence applies to: everything that can
#: mutate object state.  Reads stay open on the old owner until the
#: ring flips (the sealed range's state is frozen, so they are
#: consistent), which keeps the cutover invisible to readers.
_FENCED_OPS = frozenset({
    "create", "update", "patch", "delete",
    "txn", "txn_prepare", "command", "fcall", "fcall_txn",
})


#: ``op`` -> ``"op_" + op``, made once; methods are looked up per request.
_OP_METHODS = {}


def _addressed_keys(args):
    """Every key a request addresses: ``key`` and each ``ops[].key``."""
    key = args.get("key")
    ops = args.get("ops")
    if not isinstance(ops, list):  # a single-key request, or none
        return (key,) if isinstance(key, str) else ()
    keys = [key] if isinstance(key, str) else []
    for entry in ops:
        key = entry.get("key") if isinstance(entry, dict) else None
        if isinstance(key, str):
            keys.append(key)
    return keys


def store_stats(store):
    """``stats()`` of a server or a sharded frontend: both answer to the
    declared counters and to the same handful of read-only names."""
    out = {name: getattr(store, name) for name in StoreServer.COUNTERS}
    out.update(
        location=store.location,
        available=store.available,
        in_doubt_txns=store.in_doubt_txns,
        zero_copy=store.zero_copy,
        delta_watch=store.delta_watch,
        op_counts=dict(store.op_counts),
        copy=store.copy_stats,
    )
    admission = store.admission_stats()
    if admission is not None:
        out["admission"] = admission
    return out


class StoreServer:
    """Base class for backend servers.

    Subclasses define ``OPS`` (operation name -> :class:`OpLatency`) and an
    ``op_<name>`` method per operation.  Requests are admitted through a
    bounded worker pool of :attr:`WORKERS` slots.
    """

    OPS = {}

    #: Worker-pool slots: the stores we model are effectively
    #: single-threaded per key space, which also keeps commit order
    #: coherent.
    WORKERS = 1

    #: How long a client's keepalive takes to detect a dead watch stream
    #: (seconds of virtual time) when the server cannot say goodbye.
    watch_keepalive = 0.02

    #: How a credit-paused watch buffer coalesces: ``"newest"`` keeps one
    #: event per key (a later commit supersedes an earlier one -- Object
    #: stores), ``"append"`` keeps every event contiguously (Log stores,
    #: where each event carries distinct records).
    WATCH_COALESCE = "newest"

    # What a :class:`~repro.store.sharded.ShardedStore` frontend answers
    # for its shards is declared here, once, as three name lists; its
    # ``__getattr__`` applies one rule per list.

    #: Every monotonic counter a server keeps: each is a plain int
    #: attribute starting at 0 and written with ``+=`` where the thing
    #: it counts happens (watch counters from
    #: :class:`~repro.store.watch.Watch`), reported by :meth:`stats`.
    #: A frontend's is the sum over live + retired shards.
    COUNTERS = (
        # watch fan-out: messages, the events in them, their bytes, and
        # the delta/full split under ``delta_watch``
        "watch_messages_sent", "watch_events_sent", "watch_wire_bytes",
        "watch_deltas_sent", "watch_fulls_sent",
        # credit flow, aggregated across this server's watches
        "watch_pauses", "watch_paused_coalesced", "watch_forced_resyncs",
        "watch_credit_grants",
        # writes bounced off a reshard fence (the client reroutes them)
        "fence_rejections",
        # failure surface: ops aborted by failover/crash, and crashes
        "aborted_ops", "crash_count",
    )

    #: Verbs a frontend runs on every live shard, in shard order,
    #: returning the sum of what they return (``None`` counts 0): the
    #: failure surface and the admission front door.
    FAN_OUT = ("fail_over", "crash", "restart", "set_available",
               "sever_watches", "set_admission", "classify")

    #: Settings every shard of a frontend shares -- the same value, or
    #: for an object the same type -- checked as each shard joins; a
    #: frontend's is shard 0's.
    SHARD_SETTINGS = ("zero_copy", "delta_watch", "watch_batch_window",
                      "copies", "copy_meter", "admission")

    def __init__(self, env, network, location, tracer=None,
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
        self._worker_pool = Resource(env, capacity=self.WORKERS)
        # Registration order, NOT a set: fan-out order must be
        # deterministic across runs (hash randomization must not leak
        # into event schedules).
        self._watches = []
        #: Watch batching (>0 enables it): events committed within this
        #: window are coalesced per watcher and delivered as ONE network
        #: message, in commit order.  0 keeps the classic one-message-
        #: per-event fan-out.
        self.watch_batch_window = float(watch_batch_window)
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self._drop_next_watch_message = False
        #: Admission controller guarding :meth:`_handle` (None = open door).
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
        self._ring_context = None  # owning ShardedStore, for error notes
        # Processes holding a worker slot.  A dict, not a set: abort
        # order must be deterministic across runs.
        self._executing = {}

    # -- request processing ------------------------------------------------

    def _handle(self, op, args, principal, ctx):
        """admit -> slot -> epoch/availability -> fence -> charge -> apply;
        the first failing stage answers, with a :class:`_Failure`.  Run
        with ``yield from`` in the request's one process, generator ops
        too; ``principal`` and trace ``ctx`` ride beside ``args``, unsized.
        """
        epoch = self._epoch
        shed = self._admit(op, principal)
        if shed is not None:
            # Rejected at the front door: no slot, no latency charge.
            yield self.env.timeout(0)
            return shed
        pool = self._worker_pool
        if not pool.try_acquire():
            yield pool.acquire()  # FIFO behind the queued requests
        # The process a failover interrupts while it holds the slot.
        proc = self.env.active_process
        self._executing[proc] = None
        try:
            failure = self._check_available(epoch)
            if failure is None and op in _FENCED_OPS:
                failure = self._check_fences(args)
            if failure is not None:
                return failure
            name = _OP_METHODS.get(op) or _OP_METHODS.setdefault(op, "op_" + op)
            # Looked up per request, by name: an ``op_*`` rebound on the
            # class after this server was built is the one that runs.
            method = getattr(self, name, None)
            if method is None:
                raise StoreError(f"{type(self).__name__} has no operation {op!r}")
            # A batched read pays one get on its request's bytes (Redis
            # MGET, an etcd multi-key Range): priced from ``get``, so a
            # calibration or override of ``get`` prices both.
            latency = self.OPS.get("get" if op == "get_many" else op)
            if latency is not None:
                delay = latency.cost(estimate_size(args))
                if delay > 0:
                    yield self.env.timeout(delay)
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
            token = activate(ctx) if ctx is not None else None
            try:
                result = method(**args)
            finally:
                if ctx is not None:
                    restore(token)
            if isinstance(result, GeneratorType):  # an op that takes time
                if ctx is not None:
                    result = bind_generator(result, ctx)
                result = yield from result
            return result
        except Interrupt:
            # Aborted in flight by fail_over()/crash(), here or inside a
            # generator op: nothing had committed (commits are
            # synchronous after a yield), so the caller may safely retry.
            self.aborted_ops += 1
            return _Failure(UnavailableError(
                f"store {self.location!r}: in-flight {op!r} aborted by failover"
            ))
        except StoreError as exc:
            return _Failure(exc)
        finally:
            del self._executing[proc]
            pool.release()

    def _admit(self, op, principal):
        """Admission control, before a worker slot is taken."""
        if self.admission is None or self.admission.admit(
            principal, self._worker_pool.queued
        ):
            return None
        # OverloadedError is retryable, so clients behind a RetryPolicy
        # back off instead of piling on.
        return _Failure(OverloadedError(
            f"store {self.location!r} shed {op!r} for "
            f"principal {principal!r} (admission control)"
        ))

    def _check_available(self, epoch):
        """The server failed over / crashed while this request was queued
        (or is still down): abort retryably."""
        if epoch == self._epoch and self.available:
            return None
        self.aborted_ops += 1
        return _Failure(UnavailableError(
            f"store {self.location!r} is unavailable"
        ))

    def _check_fences(self, args):
        """Reshard fences on a mutation: sealed range, then ownership."""
        ring = self._ring_context
        if ring is None and not self._sealed_ranges:
            return None  # standalone and unsealed: nothing to walk
        keys = _addressed_keys(args)
        fenced = self._fenced_key(keys)
        if fenced is not None:
            self.fence_rejections += 1
            return _Failure(ShardMovedError(
                f"store {self.location!r}: key {fenced!r} is in "
                f"a range sealed for migration (ring "
                f"v{self._sealed_version} pending); re-resolve "
                "ownership and retry",
                key=fenced, ring_version=self._sealed_version,
            ))
        # Ownership fence: a write that sat in the worker queue across a
        # ring flip (or reached a retired shard) must not commit here --
        # the key's state now lives with the new owner, and a late commit
        # on the old one would be acked and watched but absent from the
        # authoritative copy (a lost write).
        stray = self._stray_key(keys)
        if stray is not None:
            self.fence_rejections += 1
            owner = ring.owner_location(stray)
            return _Failure(ShardMovedError(
                f"store {self.location!r}: key {stray!r} moved to "
                f"{owner!r} (ring v{ring.ring.version}); re-resolve "
                "ownership and retry",
                key=stray, ring_version=ring.ring.version, owner=owner,
            ))
        return None

    # -- watch fan-out -----------------------------------------------------

    def register_watch(self, watch):
        self._watches.append(watch)

    def unregister_watch(self, watch):
        if watch in self._watches:
            self._watches.remove(watch)

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
                    watch.send_batched(event)
                else:
                    watch.send((event,))

    def drop_next_watch_message(self):
        """Fault hook: silently lose the next watch message, after it is
        encoded -- a loss the link model never makes (a link delivers a
        message or breaks the stream).  A delta stream catches it at the
        key's next delta, a Log stream's consumer by ``first_seq``; a
        full-snapshot Object stream never sees it."""
        self._drop_next_watch_message = True

    def take_watch_drop(self):
        """True, once, if :meth:`drop_next_watch_message` armed a loss."""
        armed, self._drop_next_watch_message = self._drop_next_watch_message, False
        return armed

    @property
    def copy_stats(self):
        return self.copy_meter.snapshot()

    def admission_stats(self):
        """The front door's counters, or None while the door is open."""
        return self.admission.stats() if self.admission is not None else None

    def set_admission(self, factory):
        """Guard the front door with the controller ``factory()`` builds.

        A factory, not a controller: a sharded store builds one per
        shard, since each shard's own worker queue is the AIMD
        congestion signal.
        """
        self.admission = factory()

    def classify(self, principal, class_name):
        """Bind ``principal`` to an admission priority class (a no-op
        while the front door is open)."""
        if self.admission is not None:
            self.admission.assign(principal, class_name)

    def stats(self):
        """Everything this server counts, as one dict of plain data.

        The contract every component's ``stats()`` keeps (see
        ``docs/observability.md``): scalars at the top level, at most
        one level of named sections; the obs plane turns the numbers it
        has a metric for into series, ``KnactorRuntime.stats()`` carries
        the whole dict.
        """
        return store_stats(self)

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

    def _fenced_key(self, keys):
        """First of ``keys`` that lands in a sealed range, if any."""
        if self._sealed_ranges:
            for key in keys:
                if key_in_ranges(key, self._sealed_ranges):
                    return key
        return None

    def _stray_key(self, keys):
        """First of ``keys`` this server no longer owns, if any.

        Only meaningful for shards routed by a live ring
        (``_ring_context``); standalone servers own every key.
        """
        ring = self._ring_context
        if ring is not None:
            for key in keys:
                try:
                    if ring.shard_for(key) is not self:
                        return key
                except Exception:
                    pass  # ring in transit: let the seal fence decide
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

    def sever_watches(self, detect_after=None):
        """Break every watch stream.

        Used when the server cannot notify clients (crash, partition):
        each client's keepalive fires ``on_close`` after ``detect_after``
        (default: :attr:`watch_keepalive`) seconds.  Returns the count.
        """
        grace = detect_after if detect_after is not None else self.watch_keepalive
        severed = [w for w in list(self._watches) if w.active]
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

    def restart(self):
        """Bring a crashed server back (replaying durable state, if any)."""
        if self.available:
            return
        self._on_restart()
        self.available = True

    def set_available(self, available):
        """Transient unavailability window: reject ops, keep state/watches."""
        self.available = bool(available)

    def _on_crash(self):
        """Subclass hook: drop volatile state."""

    def _on_restart(self):
        """Subclass hook: recover durable state."""


# The client half imports ``_Failure`` from this module, so its names can
# only be re-exported once everything above exists.
from repro.store.client import ObjectClient, StoreClient  # noqa: E402
