"""Store clients: one caller location's way to a ``StoreServer``.

:class:`StoreClient` owns the transport -- the network round trip, the
principal and trace context that ride beside the args, retries,
opening watches -- and nothing backend-specific.  :class:`ObjectClient`
adds, once, the surface every Object backend answers and the one
optimization that only makes sense for keyed objects (the read-through
cache).  Backend modules subclass one or the other.

A store request is one simnet process (:func:`spawn`): the retry policy,
the sharded router and an exchange handle's mask each run the body below
them inline (:func:`inline`) instead of starting a process of their own.
"""

from repro.obs.context import current_context
from repro.simnet.events import Event
from repro.store.base import _Failure
from repro.store.follow import Mirror
from repro.store.watch import Watch


def inline(body):
    """Run a request ``body`` in the calling process: a generator, or an
    event already under way (a read-cache hit)."""
    if isinstance(body, Event):
        return (yield body)
    return (yield from body)


def spawn(env, body):
    """``body`` as the event its caller yields: the one place a store
    request becomes a process (an event already is one)."""
    return body if isinstance(body, Event) else env.process(inline(body))


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
        #: Credit window applied by :meth:`watch` when the caller passes
        #: none (set by exchange handles from the DE's FlowConfig).
        self.default_watch_credits = None

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
        chain onto it.  Every retried attempt reuses both.
        """
        return spawn(self.env, self._call(op, args))

    def _call(self, op, args):
        """One request as a body: its attempts, each inline."""
        principal, ctx = self.principal, current_context()
        return self._attempts(
            lambda: self._request(op, args, principal, ctx), ctx)

    def _attempts(self, attempt, ctx):
        """``attempt()``'s body, behind the retry policy if there is one."""
        if self.retry_policy is None:
            return attempt()
        return self.retry_policy.run(self.env, attempt, None, ctx)

    def _request(self, op, args, principal=None, ctx=None):
        """One attempt, to this client's server."""
        return self._send(self.server, op, args, principal, ctx)

    def _send(self, server, op, args, principal, ctx):
        """One attempt: there, ``_handle``, back; a server failure re-raised."""
        remote = self.location != server.location  # co-located callers pay nothing
        if remote:
            yield server.network.transfer(self.location, server.location)
        result = yield from server._handle(op, args, principal, ctx)
        if remote:
            yield server.network.transfer(server.location, self.location)
        if isinstance(result, _Failure):
            raise result.take()
        return result

    def watch(self, handler, key_prefix="", on_close=None, credits=None):
        """Register ``handler(WatchEvent)`` for matching changes.

        Registration itself is immediate (steady-state watches are the
        common case; connection setup is not modelled).  ``on_close``
        fires if the stream breaks (see :class:`Watch`).  ``credits``
        opts the stream into credit-based flow control; unset, it falls
        back to the client's ``default_watch_credits`` (which exchange
        handles configure).  Returns the :class:`Watch` handle for
        cancellation.
        """
        if credits is None:
            credits = self.default_watch_credits
        return Watch(self.location, self.server, handler, key_prefix,
                     on_close=on_close, credits=credits)


class ObjectClient(StoreClient):
    """The Object surface, shared by every Object backend's client.

    One opt-in hot-path optimization (off by default, preserving classic
    request/response semantics): **read-through caching**
    (:meth:`enable_read_cache`), where a watch-fed
    :class:`~repro.store.follow.Mirror` of the keyspace serves ``get``
    with no network round trip.
    """

    def __init__(self, server, location, retry_policy=None):
        super().__init__(server, location, retry_policy=retry_policy)
        self.mirror = None  # the read cache, once enabled
        self.cache_hits = 0
        self.cache_misses = 0

    # -- typed surface (get rides the read cache) ------------------------------

    def get(self, key):
        """Read one object; served locally on a read-cache hit."""
        return self._spawn("get", key=key)

    def get_many(self, keys):
        """Read several objects in one request: the views of the keys
        that exist, in request order (an absent key is skipped, not an
        error).  Always reads the server; the read cache serves ``get``."""
        return self._spawn("get_many", keys=list(keys))

    def patch(self, key, patch, resource_version=None):
        """Merge-patch one object."""
        return self._spawn("patch", key=key, patch=patch,
                           resource_version=resource_version)

    def create(self, key, data, labels=None):
        return self._spawn("create", key=key, data=data, labels=labels)

    def update(self, key, data, resource_version=None):
        return self._spawn("update", key=key, data=data,
                           resource_version=resource_version)

    def delete(self, key):
        return self._spawn("delete", key=key)

    def list(self, key_prefix=""):
        return self._spawn("list", key_prefix=key_prefix)

    def _spawn(self, op, **args):
        return spawn(self.env, self._op(op, args))

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

    def _op(self, op, args):
        """Object op ``op`` as a body (see :func:`inline`), through the
        read cache."""
        if op == "get" and self.mirror is not None:
            if args["key"].startswith(self.mirror.prefix):
                view = (None if self.mirror.resyncing
                        else self.mirror.views.get(args["key"]))
                if view is not None:
                    self.cache_hits += 1
                    hit = self.copies.cached(view, self.copy_meter)
                    return self.env.timeout(0.0, hit)
                self.cache_misses += 1
        elif op == "get_many" and not args["keys"]:
            return self.env.timeout(0.0, [])  # nothing to read, no request
        return self._call(op, args)

    # -- read-through cache ---------------------------------------------------

    def enable_read_cache(self, key_prefix=""):
        """Mirror the (prefixed) keyspace locally; serve ``get`` from it.

        The :class:`~repro.store.follow.Mirror` is informer-backed.  Reads
        are eventually consistent -- they may trail the server by the
        watch-delivery latency, like reading a Kubernetes informer cache.
        A hit comes only from a caught-up mirror: a miss, or any read
        while it seeds or rebuilds after a broken watch, falls through to
        a server read.  Returns the stream.
        """
        if self.mirror is None:
            self.mirror = Mirror(self.env, self, key_prefix, None, None)
            self.mirror.follower.start()
            self.mirror.follower.resync()
        return self.mirror.follower.stream
