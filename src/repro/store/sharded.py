"""A hash-sharded frontend over N homogeneous Object-store replicas.

The paper's prototype backs each data store with ONE apiserver or Redis
instance; every operation serializes through that server's worker queue.
:class:`ShardedStore` scales the hot path out the way production DBMSs
do (cf. Apiary's partitioned function state): the keyspace is
hash-partitioned across N replica servers, each with its *own* worker
pool, latency budget, and per-shard revision counter.

Design points:

- **Routing is client-side, deterministic, and live**: placement comes
  from a seeded consistent-hash ring (:mod:`repro.store.ring`), not
  Python's randomized ``hash`` and not a build-time modulo -- every
  client, every run, and every seed agrees on placement, and the ring
  can change membership *while the store serves traffic* (see
  :meth:`ShardedStore.reshard` and :mod:`repro.store.reshard`).
- **Topology is a first-class spec**: :class:`~repro.store.ring.Topology`
  (ring seed, min/max shards, autoscale policy) is the one way
  to say how a store is sharded.
- **Revisions are per shard.**  There is no global commit order across
  shards -- exactly like real sharded stores.  Cross-key invariants that
  need one commit order must keep those keys on one shard (see ``txn``).
- **Watches are merged, interest-filtered streams**: one underlying
  watch per shard, surfaced as a single :class:`MergedWatch`.  Per-key
  event order is preserved (a key lives on one shard; shard streams are
  FIFO); cross-shard interleaving is timing-dependent, as it would be
  against a real sharded backend.  A reshard extends/retires branches
  in place -- the merged stream never closes for a topology change.
- **Transactions are single-shard by default**: a txn whose keys map to
  more than one shard fails with
  :class:`~repro.errors.CrossShardTxnError` (carrying the key->owner
  map at the current ring version) unless the caller opts into the
  cross-shard transactional plane with ``txn(ops, mode="2pc")`` -- see
  :mod:`repro.txn` and ``docs/transactions.md``.

The frontend intentionally mirrors the :class:`~repro.store.base
.StoreServer` / :class:`~repro.store.base.StoreClient` split so the
Object Data Exchange can host stores on it unchanged.
"""

from repro.errors import (
    ConfigurationError,
    CrossShardTxnError,
    ShardMovedError,
    StoreError,
)
from repro.store.base import StoreServer, store_stats
from repro.store.client import ObjectClient, inline, spawn
from repro.store.memkv import MemKV, MemKVClient
from repro.store.ring import Topology
from repro.store.watch import Watch

#: How long a rerouting client backs off before re-resolving ownership
#: of a fenced key.  Well under the cutover drain window, so a client
#: lands on the new owner within a handful of probes after the flip.
REROUTE_BACKOFF = 0.004

#: Reroute attempts before giving up (covers a full cutover window --
#: seal + drain + reconcile -- with a wide margin).
REROUTE_ATTEMPTS = 250


#: Typed client used per shard, by backend class.
_SHARD_CLIENTS = {MemKV: MemKVClient}


def _shard_client(shard, location, retry_policy=None):
    return _SHARD_CLIENTS.get(type(shard), ObjectClient)(
        shard, location, retry_policy=retry_policy)


class ShardedStore:
    """Server-side frontend: owns the ring, the shard list, and the
    fault surface.

    Two construction forms:

    - ``ShardedStore([server, ...])`` -- explicit shard servers (the
      classic form; the default topology is inferred).
    - ``ShardedStore(topology=Topology(shards=4), shard_factory=f)`` --
      the factory builds each shard server from its stable shard id.

    A ``shard_factory`` (also settable later) is what makes
    :meth:`reshard` able to *grow*: new shards are minted from stable,
    never-reused integer ids, so ring placement -- and therefore run
    fingerprints -- depend only on the topology seed and the reshard
    history, never on object identity.
    """

    def __init__(self, shards=None, name="sharded", topology=None,
                 shard_factory=None):
        self.name = name
        self.shard_factory = shard_factory
        if shards is None and topology is None:
            raise StoreError(
                "a sharded store needs shard servers or a topology"
            )
        if shards is None:
            if shard_factory is None:
                raise StoreError(
                    "ShardedStore(topology=...) needs a shard_factory to "
                    "build the shard servers"
                )
            shards = [shard_factory(i) for i in range(topology.shards)]
        else:
            shards = list(shards)
        if not shards:
            raise StoreError("a sharded store needs at least one shard")
        if topology is None:
            topology = Topology(shards=len(shards))
        elif topology.shards != len(shards):
            raise StoreError(
                f"topology says {topology.shards} shards but "
                f"{len(shards)} servers were given"
            )
        kinds = {type(shard) for shard in shards}
        if len(kinds) > 1:
            raise StoreError(
                "shards must be homogeneous, got "
                + ", ".join(sorted(k.__name__ for k in kinds))
            )
        self.topology = topology
        self.shards = shards
        #: Stable shard ids, parallel to :attr:`shards`.  Ring members.
        self.shard_ids = list(range(len(shards)))
        self._next_shard_id = len(shards)
        self.ring = topology.build_ring(members=self.shard_ids)
        #: Shards removed by a shrink: kept for monotonic counters.
        self.retired_shards = []
        self.env = shards[0].env
        self.network = shards[0].network
        self._coordinator = None  # lazy; see .coordinator
        self._clients = []  # every ShardedStoreClient routing through us
        self._admission_factory = None
        self._resharder = None  # lazy; see .resharder
        for shard in self.shards:
            shard._ring_context = self

    @property
    def coordinator(self):
        """The cross-shard transaction coordinator (created on first use).

        One per store: the decision log must be singular for recovery to
        be meaningful.  Register it with a
        :class:`~repro.faults.FaultInjector` (``register_process``) to
        chaos-test the commit protocol.
        """
        if self._coordinator is None:
            from repro.txn import TxnCoordinator

            self._coordinator = TxnCoordinator(self)
        return self._coordinator

    @property
    def resharder(self):
        """The live-reshard engine (created on first use)."""
        if self._resharder is None:
            from repro.store.reshard import Resharder

            self._resharder = Resharder(self)
        return self._resharder

    # -- identity ------------------------------------------------------------

    @property
    def location(self):
        """Logical location of the frontend (shards have their own)."""
        return self.name

    @property
    def shard_count(self):
        return len(self.shards)

    def index_of_member(self, member):
        """Position of ring ``member`` in :attr:`shards`."""
        return self.shard_ids.index(member)

    def shard_by_id(self, member):
        return self.shards[self.index_of_member(member)]

    def shard_for(self, key):
        return self.shard_by_id(self.ring.owner_of(key))

    def owner_location(self, key):
        """Authoritative owner shard location for ``key`` (live ring)."""
        return self.shard_for(key).location

    # -- live resharding (see repro.store.reshard) ---------------------------

    def reshard(self, shard_count):
        """Migrate to ``shard_count`` shards, online.

        Returns a simnet process; reads, writes, and watches keep
        flowing while key ranges move.  Growing needs a
        :attr:`shard_factory`.  Bounds come from the topology.
        """
        return self.resharder.reshard(shard_count)

    @property
    def reshard_stats(self):
        return self.resharder.stats()

    def _install_shard(self):
        """Build + wire a new shard server (ring flip happens later).

        The server joins the fault/observability surface and every
        routing client immediately -- including live merged watches,
        which grow a branch so no event is missed once the ring flips --
        but owns no keys until the reshard engine flips the ring.
        """
        if self.shard_factory is None:
            raise ConfigurationError(
                f"store {self.name!r} cannot grow without a shard_factory"
            )
        member = self._next_shard_id
        self._next_shard_id += 1
        shard = self.shard_factory(member)
        if self.shards and type(shard) is not type(self.shards[0]):
            raise StoreError(
                "shards must be homogeneous, got "
                f"{type(shard).__name__} from the factory next to "
                f"{type(self.shards[0]).__name__}"
            )
        shard._ring_context = self
        if self._admission_factory is not None:
            shard.admission = self._admission_factory()
        self.shards.append(shard)
        self.shard_ids.append(member)
        for client in self._clients:
            client._attach_shard(shard)
        return member, shard

    def _uninstall_shard(self, member):
        """Retire a shard after the ring no longer routes to it."""
        index = self.index_of_member(member)
        shard = self.shards.pop(index)
        self.shard_ids.pop(index)
        self.retired_shards.append(shard)
        for client in self._clients:
            client._detach_shard(shard)
        return shard

    # -- aggregated observability -------------------------------------------

    @property
    def _all_shards(self):
        """Live + retired, for counters that must stay monotonic."""
        return self.shards + self.retired_shards

    def __getattr__(self, name):
        """The one aggregation rule: a counter declared on
        :class:`~repro.store.base.StoreServer` reads, on the frontend,
        as its sum over live + retired shards (``fence_rejections``,
        ``watch_events_sent``, ``crash_count``, ...)."""
        if name in StoreServer.COUNTERS:
            return sum(getattr(s, name) for s in self._all_shards)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def stats(self):
        """The shards' :meth:`StoreServer.stats`, aggregated, plus the
        frontend's own sections: ``ring``, ``reshard``, ``txn``."""
        out = store_stats(self)
        out.update(
            ring={"version": self.ring.version, "shards": len(self.shards),
                  "fence_rejections": out["fence_rejections"],
                  "reroutes": sum(c.reroutes for c in self._clients)},
            reshard=self.reshard_stats,
            txn=self.txn_stats(),
        )
        return out

    @property
    def op_counts(self):
        merged = {}
        for shard in self._all_shards:
            for op, count in shard.op_counts.items():
                merged[op] = merged.get(op, 0) + count
        return merged

    @property
    def revisions(self):
        """Per-shard revision counters (there is no global revision)."""
        return {shard.location: shard.revision for shard in self.shards}

    @property
    def ring_version(self):
        return self.ring.version

    @property
    def admission(self):
        """Shard 0's controller (set_admission installs one per shard)."""
        return self.shards[0].admission

    def set_admission(self, factory):
        """Install one admission controller per shard via ``factory()``.

        Per shard, not shared: each shard has its own worker queue (the
        AIMD congestion signal), exactly as N real replicas would.  The
        factory is kept so shards added by a reshard get their own too.
        """
        self._admission_factory = factory
        for shard in self.shards:
            shard.admission = factory()

    def admission_stats(self):
        """Merged per-class admitted/rejected counters across shards
        (None while no shard has a controller)."""
        if self.admission is None:
            return None
        merged = {"admitted": 0, "rejected": 0, "classes": {}}
        for shard in self._all_shards:
            if shard.admission is None:
                continue
            stats = shard.admission.stats()
            merged["admitted"] += stats["admitted"]
            merged["rejected"] += stats["rejected"]
            for name, cls in stats["classes"].items():
                slot = merged["classes"].setdefault(
                    name, {"admitted": 0, "rejected": 0, "scale": 1.0}
                )
                slot["admitted"] += cls["admitted"]
                slot["rejected"] += cls["rejected"]
                slot["scale"] = min(slot["scale"], cls["scale"])
        return merged

    @property
    def zero_copy(self):
        return all(s.zero_copy for s in self.shards)

    @property
    def delta_watch(self):
        return all(s.delta_watch for s in self.shards)

    @property
    def copy_stats(self):
        from repro.store.cow import CopyMeter

        return CopyMeter.merge_snapshots(
            [s.copy_stats for s in self._all_shards]
        )

    @property
    def in_doubt_txns(self):
        """Prepared-but-undecided 2PC participants, summed across shards.

        Drains to zero once the coordinator (or its recovery pass after a
        restart) delivers a decision to every prepared shard.
        """
        return sum(s.in_doubt_txns for s in self.shards)

    def txn_stats(self):
        """Coordinator counters (zeros if no cross-shard txn ever ran)."""
        if self._coordinator is None:
            return {}
        return self._coordinator.txn_stats()

    @property
    def watch_batch_window(self):
        return max(s.watch_batch_window for s in self.shards)

    @property
    def available(self):
        """The frontend is available only when every shard is."""
        return all(s.available for s in self.shards)

    # -- fault surface (delegates to every shard; use .shards for one) -------

    def fail_over(self):
        return sum(s.fail_over() for s in self.shards)

    def crash(self):
        for shard in self.shards:
            shard.crash()

    def restart(self):
        for shard in self.shards:
            shard.restart()

    def set_available(self, available):
        for shard in self.shards:
            shard.set_available(available)

    def sever_watches(self, location=None, detect_after=None):
        return sum(
            s.sever_watches(location=location, detect_after=detect_after)
            for s in self.shards
        )


class MergedWatch:
    """One logical watch stream assembled from one watch per shard.

    Cancellation fans out to every shard; a break on ANY shard stream
    invalidates the whole merged stream (events from that shard would
    silently go missing otherwise), so ``on_close`` fires exactly once
    and the remaining shard watches are cancelled.

    Resharding does NOT close the stream: a new shard adds a branch
    (same handler, same credit window) before the ring flips, and a
    retired shard's branch is detached after its last event drained.
    """

    def __init__(self, spec=None):
        self.watches = []
        self._spec = spec or {}
        self._closed = False

    @property
    def active(self):
        return any(w.active for w in self.watches)

    def __getattr__(self, name):
        """A counter declared on :class:`~repro.store.watch.Watch`
        (``delivered``, ``credit_pauses``, ...) is the sum over branches."""
        if name in Watch.COUNTERS:
            return sum(getattr(w, name) for w in self.watches)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def peak_paused(self):
        return max((w.peak_paused for w in self.watches), default=0)

    def cancel(self):
        for watch in self.watches:
            watch.cancel()

    def _attach(self, client):
        """Grow a branch on ``client``'s shard (reshard install path)."""
        if self._closed:
            return
        self.watches.append(client.watch(**self._spec))

    def _detach_server(self, server):
        """Drop branches on a retiring shard without firing ``on_close``."""
        for watch in list(self.watches):
            if watch._server is server:
                watch.cancel()
                self.watches.remove(watch)

    def _close_once(self, on_close):
        if self._closed:
            return
        self._closed = True
        self.cancel()
        on_close()


class ShardedStoreClient:
    """Client-side router: one typed client per shard, ring-addressed.

    Shares :class:`~repro.store.client.ObjectClient`'s Object surface,
    routed per operation against the live ring to the owner's client
    (its read cache and write coalescing included), in the request's one
    process; an operation fenced mid-cutover
    (:class:`~repro.errors.ShardMovedError`) transparently backs off
    and re-routes -- callers never see a topology change.
    """

    def __init__(self, store, location, retry_policy=None):
        self.store = store
        self.env = store.env
        self.location = location
        self.retry_policy = retry_policy
        self.reroutes = 0
        self._merged_watches = []
        self._cache_prefixes = []
        #: Per-shard typed clients, parallel to ``store.shards``.
        self.clients = [
            _shard_client(shard, location, retry_policy=retry_policy)
            for shard in store.shards
        ]
        store._clients.append(self)

    def _client_for(self, key):
        return self.clients[
            self.store.index_of_member(self.store.ring.owner_of(key))
        ]

    # -- reshard wiring (driven by the ShardedStore) -------------------------

    def _attach_shard(self, shard):
        client = _shard_client(shard, self.location,
                               retry_policy=self.retry_policy)
        base = self.clients[0]
        client.principal = base.principal
        client.default_watch_credits = base.default_watch_credits
        client.default_watch_overflow = base.default_watch_overflow
        client.coalesce_writes = base.coalesce_writes
        for prefix in self._cache_prefixes:
            client.enable_read_cache(prefix)
        self.clients.append(client)
        for merged in self._merged_watches:
            if not merged._closed:
                merged._attach(client)
        return client

    def _detach_shard(self, shard):
        for client in list(self.clients):
            if client.server is shard:
                self.clients.remove(client)
        for merged in self._merged_watches:
            merged._detach_server(shard)
        self._merged_watches = [
            m for m in self._merged_watches if not m._closed
        ]

    def _routed_proc(self, key, call):
        """Run ``call(client)``'s body against ``key``'s owner, rerouting
        on a cutover fence, in the request's one process.

        The backoff is deterministic (fixed interval) and the loop is
        bounded by the cutover window; a fence that never lifts (bug)
        surfaces the ShardMovedError instead of spinning forever.
        """
        for attempt in range(REROUTE_ATTEMPTS):
            try:
                return (yield from inline(call(self._client_for(key))))
            except ShardMovedError:
                self.reroutes += 1
                if attempt == REROUTE_ATTEMPTS - 1:
                    raise
                yield self.env.timeout(REROUTE_BACKOFF)

    def _op(self, op, args):
        """Object op ``op`` as a body: ``list`` scatters, anything else
        runs on the owner of ``args["key"]``."""
        if op == "list":
            if len(self.clients) == 1:
                return self.clients[0]._op(op, args)
            return self._list(args["key_prefix"])
        return self._routed_proc(args["key"], lambda c: c._op(op, args))

    # -- flow-control surface (fans out to every shard client) ---------------

    @property
    def principal(self):
        return self.clients[0].principal

    @principal.setter
    def principal(self, value):
        for client in self.clients:
            client.principal = value

    @property
    def default_watch_credits(self):
        return self.clients[0].default_watch_credits

    @default_watch_credits.setter
    def default_watch_credits(self, value):
        for client in self.clients:
            client.default_watch_credits = value

    @property
    def default_watch_overflow(self):
        return self.clients[0].default_watch_overflow

    @default_watch_overflow.setter
    def default_watch_overflow(self, value):
        for client in self.clients:
            client.default_watch_overflow = value

    # Writes route per shard; expose shard 0's copy policy and meter for
    # callers that want *a* meter (aggregate accounting lives on
    # store.copy_stats).

    @property
    def copies(self):
        return self.store.shards[0].copies

    @property
    def copy_meter(self):
        return self.store.shards[0].copy_meter

    # -- the Object surface: ObjectClient's, through this router's _op -------

    get, patch, create, update, delete, list, _spawn = (
        ObjectClient.get, ObjectClient.patch, ObjectClient.create,
        ObjectClient.update, ObjectClient.delete, ObjectClient.list,
        ObjectClient._spawn)

    def _list(self, key_prefix):
        """Fan ``list`` out to every shard; merge sorted by key.

        Mid-cutover a moved key can briefly exist on two shards (copied
        to the new owner, not yet purged from the old); the merge
        dedups by key, keeping the highest revision.
        """
        procs = [c.list(key_prefix=key_prefix) for c in self.clients]
        results = yield self.env.all_of(procs)
        best = {}
        for proc in procs:
            for view in results[proc]:
                seen = best.get(view["key"])
                if seen is None or view["revision"] > seen["revision"]:
                    best[view["key"]] = view
        return sorted(best.values(), key=lambda view: view["key"])

    # -- transactions --------------------------------------------------------

    def txn(self, ops, mode=None, idempotence_key=None):
        """Atomic batch; cross-shard only with an explicit ``mode``.

        Single-shard batches take the fast path: one server, one commit
        order, atomicity for free.  A batch whose keys map to several
        shards fails with :class:`~repro.errors.CrossShardTxnError`
        (carrying the key->owner map at the current ring version) unless
        the caller selects the cross-shard protocol, ``mode="2pc"``:
        atomic across shards via two-phase commit, with in-doubt
        participants blocking conflicting writers until the coordinator
        decides (see :mod:`repro.txn`).

        ``idempotence_key`` (cross-shard mode) makes the submission
        exactly-once across retries and replays.
        """
        if mode is not None:
            return self.store.coordinator.txn(
                ops, mode=mode, idempotence_key=idempotence_key
            )
        try:
            anchor = self._txn_anchor(ops)
        except StoreError as exc:
            failed = self.env.event()
            failed.fail(exc)
            return failed
        return spawn(self.env, self._routed_proc(
            anchor, lambda c: c._op("txn", {"ops": ops})))

    def _txn_anchor(self, ops):
        """The key that routes a single-shard txn (all keys co-owned).

        Raises :class:`~repro.errors.CrossShardTxnError` -- reporting
        ring ownership (key -> owner shard location @ ring version), not
        raw indices -- when the batch spans owners.
        """
        if not isinstance(ops, list) or not ops:
            # Shard raises the canonical validation error; any key routes.
            return ""
        ring = self.store.ring
        shard_map = {
            str(op.get("key") or ""):
                self.store.owner_location(str(op.get("key") or ""))
            for op in ops
        }
        owners = set(shard_map.values())
        if len(owners) > 1:
            raise CrossShardTxnError(
                "cross-shard transactions need an explicit mode: keys "
                f"{sorted(shard_map)} map to {len(owners)} owner shards "
                f"at ring v{ring.version} "
                f"({ {k: v for k, v in sorted(shard_map.items())} }); pass "
                "mode='2pc', or co-locate transactional keys",
                shard_map=shard_map,
                ring_version=ring.version,
            )
        return str(ops[0].get("key") or "")

    # -- watches -------------------------------------------------------------

    def watch(self, handler, key_prefix="", on_close=None,
              credits=None, overflow=None):
        """Merged, interest-filtered stream across all shards.

        ``credits`` is a *per-shard-stream* window: each underlying
        shard watch gets its own, since each shard fans out over its own
        link.  A credit-forced resync on any shard breaks the whole
        merged stream (``on_close`` once), exactly like a fault break.
        Reshard-proof: branches follow topology changes (same handler,
        same credit window) without ever closing the merged stream.
        """
        spec = {
            "handler": handler, "key_prefix": key_prefix,
            "credits": credits, "overflow": overflow,
            "on_close": None,
        }
        merged = MergedWatch(spec)
        if on_close is not None:
            spec["on_close"] = lambda: merged._close_once(on_close)
        for client in self.clients:
            merged._attach(client)
        self._merged_watches.append(merged)
        return merged

    # -- opt-in hot-path optimizations (delegate per shard) ------------------

    @property
    def coalesce_writes(self):
        return all(c.coalesce_writes for c in self.clients)

    @coalesce_writes.setter
    def coalesce_writes(self, value):
        for client in self.clients:
            client.coalesce_writes = bool(value)

    @property
    def patches_coalesced(self):
        return sum(c.patches_coalesced for c in self.clients)

    def enable_read_cache(self, key_prefix=""):
        self._cache_prefixes.append(key_prefix)
        for client in self.clients:
            client.enable_read_cache(key_prefix)

    @property
    def cache_hits(self):
        return sum(c.cache_hits for c in self.clients)

    @property
    def cache_misses(self):
        return sum(c.cache_misses for c in self.clients)
