"""A hash-sharded frontend over N homogeneous Object-store replicas.

The paper's prototype backs each data store with ONE apiserver or Redis
instance; every operation serializes through that server's worker queue.
:class:`ShardedStore` scales the hot path out the way production DBMSs
do (cf. Apiary's partitioned function state): the keyspace is
hash-partitioned across N replica servers, each with its *own* worker
pool, latency budget, and per-shard revision counter.

Design points:

- **A router, not a second store**: :class:`ShardedStore` owns only
  what is sharded -- the ring, one map from ring member id to shard
  server, resharding, the 2PC coordinator and the merged watches.
  Everything else comes from three name lists
  :class:`~repro.store.base.StoreServer` declares, applied by
  :meth:`ShardedStore.__getattr__`: a counter (``COUNTERS``) sums over
  live + retired shards, a fan-out verb (``FAN_OUT``) runs on every
  live shard and sums what they return, and a shard setting
  (``SHARD_SETTINGS``) is shard 0's -- a shard that differs on one
  cannot join.  Nothing is kept per router: re-routes are counted on
  the store.
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
from repro.obs.context import current_context
from repro.store.base import StoreServer, _addressed_keys, store_stats
from repro.store.client import ObjectClient, spawn
from repro.store.ring import Topology
from repro.store.watch import Watch

#: How long a rerouting client backs off before re-resolving ownership
#: of a fenced key.  Well under the cutover drain window, so a client
#: lands on the new owner within a handful of probes after the flip.
REROUTE_BACKOFF = 0.004

#: Reroute attempts before giving up (covers a full cutover window --
#: seal + drain + reconcile -- with a wide margin).
REROUTE_ATTEMPTS = 250


def _setting(shard, name):
    """A shard setting as shards compare it: a plain value as is, an
    object by its type (each shard has its own meter and controller)."""
    value = getattr(shard, name)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return type(value)


def _check_joins(first, shard):
    """Raise unless ``shard`` may serve beside ``first``: the same server
    type and the same :attr:`~repro.store.base.StoreServer.SHARD_SETTINGS`."""
    if type(shard) is not type(first):
        raise StoreError(
            f"shards must be homogeneous, got {type(shard).__name__} "
            f"next to {type(first).__name__}"
        )
    for name in StoreServer.SHARD_SETTINGS:
        mine, theirs = _setting(shard, name), _setting(first, name)
        if mine != theirs:
            raise StoreError(
                f"shards must agree on {name}: {shard.location!r} has "
                f"{mine!r}, {first.location!r} has {theirs!r}"
            )


class ShardedStore:
    """Server-side frontend: owns the ring, the member -> shard map, the
    reshard engine, the 2PC coordinator and the merged watches.

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

    Everything else a store server answers -- counters, the failure
    surface, the admission door, the copy and watch settings -- comes
    from the rules :class:`~repro.store.base.StoreServer` declares (see
    :meth:`__getattr__`); use :attr:`shards` for one shard.
    """

    def __init__(self, shards=None, name="sharded", topology=None,
                 shard_factory=None):
        self.name = self.location = name
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
        if not shards:
            raise StoreError("a sharded store needs at least one shard")
        if topology is None:
            topology = Topology(shards=len(shards))
        elif topology.shards != len(shards):
            raise StoreError(
                f"topology says {topology.shards} shards but "
                f"{len(shards)} servers were given"
            )
        for shard in shards[1:]:
            _check_joins(shards[0], shard)
        self.topology = topology
        #: Ring member id -> shard server, in join order.  Member ids are
        #: stable and never reused.
        self.servers = dict(enumerate(shards))
        self._next_shard_id = len(shards)
        self.ring = topology.build_ring(members=list(self.servers))
        #: Shards removed by a shrink: kept for monotonic counters.
        self.retired_shards = []
        self.env = shards[0].env
        self.network = shards[0].network
        #: Requests re-sent after a cutover fence, over every router.
        self.reroutes = 0
        self._merged_watches = []  # every open MergedWatch over us
        self._coordinator = None  # lazy; see .coordinator
        self._resharder = None  # lazy; see .resharder
        for shard in shards:
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

    # -- membership and routing ----------------------------------------------

    @property
    def shards(self):
        """The live shard servers, in join order."""
        return list(self.servers.values())

    @property
    def shard_count(self):
        return len(self.servers)

    def shard_for(self, key):
        return self.servers[self.ring.owner_of(key)]

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

        The server joins the fault/observability surface immediately,
        with a fresh copy of shard 0's admission controller (principal
        classes included), and every live merged watch grows a branch on
        it so no event is missed once the ring flips, but it owns no
        keys until the reshard engine flips the ring.
        """
        if self.shard_factory is None:
            raise ConfigurationError(
                f"store {self.name!r} cannot grow without a shard_factory"
            )
        member = self._next_shard_id
        self._next_shard_id += 1
        shard = self.shard_factory(member)
        first = self.shards[0]
        if first.admission is not None:
            shard.admission = first.admission.fresh()
        _check_joins(first, shard)
        shard._ring_context = self
        self.servers[member] = shard
        for merged in self._merged_watches:
            merged._attach(shard)
        return member, shard

    def _uninstall_shard(self, member):
        """Retire a shard after the ring no longer routes to it."""
        shard = self.servers.pop(member)
        self.retired_shards.append(shard)
        for merged in self._merged_watches:
            merged._detach_server(shard)
        return shard

    # -- what the shards answer, by declared rule ----------------------------

    @property
    def _all_shards(self):
        """Live + retired, for counters that must stay monotonic."""
        return self.shards + self.retired_shards

    def __getattr__(self, name):
        """The rules for a name :class:`~repro.store.base.StoreServer`
        declares: a shard setting is shard 0's (every shard has the
        same), a counter is the sum over live + retired shards, and a
        fan-out verb runs on every live shard and sums what they return
        (``None`` counts 0)."""
        if name in StoreServer.SHARD_SETTINGS:
            return getattr(self.shards[0], name)
        if name in StoreServer.COUNTERS:
            return sum(getattr(s, name) for s in self._all_shards)
        if name in StoreServer.FAN_OUT:
            def fan_out(*args, **kwargs):
                return sum(getattr(s, name)(*args, **kwargs) or 0
                           for s in self.shards)
            return fan_out
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def stats(self):
        """The shards' :meth:`StoreServer.stats`, aggregated, plus the
        frontend's own sections: ``ring``, ``reshard``, ``txn``."""
        out = store_stats(self)
        out.update(
            ring={"version": self.ring.version, "shards": self.shard_count,
                  "fence_rejections": out["fence_rejections"],
                  "reroutes": self.reroutes},
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
    def available(self):
        """The frontend is available only when every shard is."""
        return all(s.available for s in self.shards)


class MergedWatch:
    """One logical watch stream assembled from one watch per shard.

    Every branch is a :class:`~repro.store.watch.Watch` delivering to
    the router's location.  The stream registers on the
    :class:`ShardedStore`, which grows and drops its branches on a
    reshard.  Cancellation fans out to every branch and
    the store forgets the stream; a break on ANY branch invalidates the
    whole merged stream (events from that shard would silently go
    missing otherwise), so ``on_close`` fires exactly once and the
    remaining branches are cancelled.

    Resharding does NOT close the stream: a new shard adds a branch
    (same handler, same credit window) before the ring flips, and a
    retired shard's branch is detached after its last event drained.
    """

    def __init__(self, router, spec):
        self.watches = []
        self._router = router
        self._spec = spec
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
        """Close the stream for good: no reshard grows it back."""
        if not self._closed:
            self._closed = True
            self._router.server._merged_watches.remove(self)
        for watch in self.watches:
            watch.cancel()

    def _attach(self, shard):
        """Grow a branch on ``shard`` (open and reshard install paths)."""
        self.watches.append(Watch(self._router.location, shard, **self._spec))

    def _detach_server(self, server):
        """Drop branches on a retiring shard without firing ``on_close``."""
        for watch in list(self.watches):
            if watch._server is server:
                watch.cancel()
                self.watches.remove(watch)

    def _close_once(self, on_close):
        if not self._closed:
            self.cancel()
            on_close()


class ShardedStoreClient(ObjectClient):
    """Client-side router: an :class:`~repro.store.client.ObjectClient`
    over the whole ring.

    Its one server is the :class:`ShardedStore`; each attempt goes to
    the live ring's owner of the first key the request addresses, in
    the request's one process.  The principal, watch defaults and the
    read cache are the inherited ones: one copy per router, not one per
    shard.  An operation fenced mid-cutover
    (:class:`~repro.errors.ShardMovedError`) transparently backs off and
    re-routes (counted on the store) -- callers never see a topology
    change.  What stays sharded: scatter-gather ``list`` and
    ``get_many`` (one request per owning shard), the ``txn``
    mode dispatch and :class:`MergedWatch`.  The store keeps nothing
    per router.
    """

    # -- routing -------------------------------------------------------------

    def _request(self, op, args, principal=None, ctx=None):
        """One attempt, to the ring owner of the first addressed key."""
        keys = _addressed_keys(args)
        return self._send(self.server.shard_for(keys[0] if keys else ""),
                          op, args, principal, ctx)

    def _attempts(self, attempt, ctx):
        """Re-routing wraps the retry policy: each re-route runs a
        fresh set of attempts."""
        attempts = super()._attempts
        return self._routed_proc(lambda: attempts(attempt, ctx))

    def _routed_proc(self, body):
        """Run ``body()``, re-running it on a cutover fence, in the
        request's one process.

        The backoff is deterministic (fixed interval) and the loop is
        bounded by the cutover window; a fence that never lifts (bug)
        surfaces the ShardMovedError instead of spinning forever.
        """
        for attempt in range(REROUTE_ATTEMPTS):
            try:
                return (yield from body())
            except ShardMovedError:
                self.server.reroutes += 1
                if attempt == REROUTE_ATTEMPTS - 1:
                    raise
                yield self.env.timeout(REROUTE_BACKOFF)

    def _op(self, op, args):
        """``list`` and ``get_many`` scatter over several shards;
        anything else is an :class:`ObjectClient` op."""
        if op in ("list", "get_many") and self.server.shard_count > 1:
            principal, ctx = self.principal, current_context()
            scatter = self._list if op == "list" else self._get_many
            return scatter(args, principal, ctx)
        return super()._op(op, args)

    def _scatter(self, op, requests, principal, ctx):
        """``op`` to each ``(shard, args)`` of ``requests`` in parallel,
        each behind the retry policy; their replies, in request order."""
        attempts = super()._attempts
        procs = [
            spawn(self.env, attempts(
                lambda shard=shard, args=args: self._send(
                    shard, op, args, principal, ctx), ctx))
            for shard, args in requests
        ]
        results = yield self.env.all_of(procs)
        return [results[proc] for proc in procs]

    def _list(self, args, principal, ctx):
        """Fan ``list`` out to every shard; merge sorted by key.

        Mid-cutover a moved key can briefly exist on two shards (copied
        to the new owner, not yet purged from the old); the merge
        dedups by key, keeping the highest revision.
        """
        replies = yield from self._scatter(
            "list", [(shard, args) for shard in self.server.shards],
            principal, ctx)
        best = {}
        for views in replies:
            for view in views:
                seen = best.get(view["key"])
                if seen is None or view["revision"] > seen["revision"]:
                    best[view["key"]] = view
        return sorted(best.values(), key=lambda view: view["key"])

    def _get_many(self, args, principal, ctx):
        """One ``get_many`` per shard that owns a requested key, sent in
        parallel; the views merged back into request order."""
        groups = {}
        for key in args["keys"]:
            groups.setdefault(self.server.shard_for(key), []).append(key)
        replies = yield from self._scatter(
            "get_many", [(shard, {"keys": keys})
                         for shard, keys in groups.items()],
            principal, ctx)
        found = {view["key"]: view for views in replies for view in views}
        return [found[key] for key in args["keys"] if key in found]

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
            return self.server.coordinator.txn(
                ops, mode=mode, idempotence_key=idempotence_key
            )
        try:
            self._check_co_owned(ops)
        except StoreError as exc:
            failed = self.env.event()
            failed.fail(exc)
            return failed
        return self.request("txn", ops=ops)

    def _check_co_owned(self, ops):
        """Raise :class:`~repro.errors.CrossShardTxnError` -- reporting
        ring ownership (key -> owner shard location @ ring version), not
        raw indices -- when the batch spans owners.  A malformed batch
        passes: the owner shard raises the canonical validation error.
        """
        if not isinstance(ops, list) or not ops:
            return
        store = self.server
        ring = store.ring
        shard_map = {
            str(op.get("key") or ""):
                store.owner_location(str(op.get("key") or ""))
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

    # -- watches -------------------------------------------------------------

    def watch(self, handler, key_prefix="", on_close=None, credits=None):
        """Merged, interest-filtered stream across all shards.

        ``credits`` is a *per-shard-stream* window: each underlying
        shard watch gets its own, since each shard fans out over its own
        link.  A break on any shard (a fault, a delta gap, a full paused
        buffer) breaks the whole merged stream (``on_close`` once).
        Reshard-proof: branches follow topology changes (same handler,
        same credit window) without ever closing the merged stream.
        """
        spec = {
            "handler": handler, "key_prefix": key_prefix, "on_close": None,
            "credits": (credits if credits is not None
                        else self.default_watch_credits),
        }
        merged = MergedWatch(self, spec)
        if on_close is not None:
            spec["on_close"] = lambda: merged._close_once(on_close)
        self.server._merged_watches.append(merged)
        for shard in self.server.shards:
            merged._attach(shard)
        return merged
