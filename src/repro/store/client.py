"""Store clients: one caller location's way to a ``StoreServer``.

:class:`StoreClient` owns the transport -- the network round trip, the
principal and trace context that ride beside the args, retries,
opening watches -- and nothing backend-specific.  :class:`ObjectClient`
adds, once, the surface every Object backend answers and the two
optimizations that only make sense for keyed objects (write coalescing,
the read-through cache).  Backend modules subclass one or the other.
"""

import copy

from repro.obs.context import current_context
from repro.store.base import _Failure
from repro.store.follow import Follower
from repro.store.watch import DELETED, Watch


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

    With a :class:`repro.faults.RetryPolicy` attached, every operation rides
    through transient faults -- store failover/crash windows, partitioned
    links -- with seeded-jitter exponential backoff.  Without one, the
    first :class:`~repro.errors.UnavailableError` surfaces to the caller.
    """

    def __init__(self, server, location, retry_policy=None):
        self.server = server
        self.env = server.env
        self.location = location
        self.retry_policy = retry_policy
        #: Principal this client acts as (rides beside each request's
        #: args; consulted by the server's admission controller).
        self.principal = None
        #: Flow-control defaults applied by :meth:`watch` when the caller
        #: passes none (set by exchange handles from the DE's FlowConfig).
        self.default_watch_credits = None
        self.default_watch_overflow = None

    @property
    def copies(self):
        return self.server.copies

    @property
    def copy_meter(self):
        return self.server.copy_meter

    def request(self, op, **args):
        """Round-trip one operation; returns a simnet process event.

        The caller's ambient trace context (if any) is captured here --
        synchronously, before any scheduling -- and rides beside the
        args with the client's principal, so server-side commits can
        chain onto it.  The retry factory closes over both, so they
        survive retried attempts.
        """
        ctx = current_context()
        principal = self.principal
        if self.retry_policy is None:
            return self.env.process(self._request(op, args, principal, ctx))
        return self.retry_policy.execute(
            self.env,
            lambda: self.env.process(self._request(op, args, principal, ctx)),
        )

    def _request(self, op, args, principal=None, ctx=None):
        """One attempt: there, handle, back; a server failure re-raised."""
        server = self.server
        remote = self.location != server.location  # co-located callers pay nothing
        if remote:
            yield server.network.transfer(self.location, server.location)
        result = yield server.handle(op, args, principal, ctx)
        if remote:
            yield server.network.transfer(server.location, self.location)
        if isinstance(result, _Failure):
            raise result.exception
        return result

    def watch(self, handler, key_prefix="", on_close=None,
              credits=None, overflow=None):
        """Register ``handler(WatchEvent)`` for matching changes.

        Registration itself is immediate (steady-state watches are the
        common case; connection setup is not modelled).  ``on_close``
        fires if the server drops the watch (failover).
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
        watch = Watch(self, handler, key_prefix, on_close=on_close,
                      credits=credits, overflow=overflow)
        self.server.register_watch(watch)
        return watch


class ObjectClient(StoreClient):
    """The Object surface, shared by every Object backend's client.

    Two opt-in hot-path optimizations (both off by default, preserving
    classic request/response semantics):

    - **read-through caching** (:meth:`enable_read_cache`): an informer-
      style watch mirrors the keyspace locally and ``get`` serves hits
      from that mirror with no network round trip (eventually consistent,
      like reading a Kubernetes informer cache; :mod:`repro.store.follow`
      keeps it across stream breaks);
    - **write coalescing** (``coalesce_writes = True``): while a patch
      for key K is on the wire, further patches for K merge into one
      pending follow-up request instead of queueing on the server.
    """

    def __init__(self, server, location, retry_policy=None):
        super().__init__(server, location, retry_policy=retry_policy)
        # Write coalescing (opt-in).
        self.coalesce_writes = False
        self._inflight_patches = set()  # keys with a patch on the wire
        self._pending_patches = {}  # key -> [combined patch, done event]
        self.patches_coalesced = 0
        # Read-through cache (opt-in via enable_read_cache()).
        self._read_cache = None
        self._cache_follower = None
        self._cache_prefix = ""
        self.cache_hits = 0
        self.cache_misses = 0

    # -- typed surface (get / patch ride the optimizations) -------------------

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

    def create(self, key, data, labels=None):
        return self.request("create", key=key, data=data, labels=labels)

    def update(self, key, data, resource_version=None):
        return self.request(
            "update", key=key, data=data, resource_version=resource_version
        )

    def delete(self, key):
        return self.request("delete", key=key)

    def list(self, key_prefix=""):
        return self.request("list", key_prefix=key_prefix)

    def txn(self, ops):
        return self.request("txn", ops=ops)

    def txn_prepare(self, txn_id, ops):
        """2PC phase 1: validate + lock + durably hold ``ops`` server-side."""
        return self.request("txn_prepare", txn_id=txn_id, ops=ops)

    def txn_commit(self, txn_id):
        """2PC phase 2: apply a prepared transaction (idempotent)."""
        return self.request("txn_commit", txn_id=txn_id)

    def txn_abort(self, txn_id):
        """Drop a prepared transaction and release its locks (idempotent)."""
        return self.request("txn_abort", txn_id=txn_id)

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
        watch, which drops the mirror cold until the re-list lands)
        falls through to a normal server read, so correctness never
        depends on the cache.  Returns the stream.
        """
        if self._cache_follower is None:
            self._cache_prefix = key_prefix
            self._cache_follower = Follower(
                self.env, self._open_cache_stream, self._warm_cache)
            self._cache_follower.start()
            self._cache_follower.resync()
        return self._cache_follower.stream

    def _open_cache_stream(self, on_close):
        # A mirror is only as good as the stream feeding it: a new
        # stream starts from a cold one.
        self._read_cache = {}
        return self.watch(self._absorb_cache_event,
                          key_prefix=self._cache_prefix, on_close=on_close)

    def _warm_cache(self):
        views = yield self.request("list", key_prefix=self._cache_prefix)
        cache = self._read_cache
        for view in views:
            current = cache.get(view["key"])
            if current is None or view["revision"] >= current["revision"]:
                cache[view["key"]] = view

    def _absorb_cache_event(self, event):
        cache = self._read_cache
        if event.type == DELETED:
            cache.pop(event.key, None)
            return
        current = cache.get(event.key)
        if current is not None and event.revision < current["revision"]:
            return
        cache[event.key] = {
            "key": event.key,
            "data": event.object,
            "revision": event.revision,
            "created_at": current["created_at"] if current else None,
            "updated_at": self.env.now,
        }
