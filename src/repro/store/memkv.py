"""A Redis-like in-memory k-v store.

This is the high-performance Object backend of the paper's ``K-redis``
configuration.  Compared to the apiserver backend:

- operations execute in microseconds-to-sub-millisecond (no persistence
  quorum on the write path),
- keyspace notifications play the role of watch events (delivered with
  negligible server overhead),
- server-side functions (:mod:`repro.store.udf`) enable integrator
  push-down (``K-redis-udf`` in Table 2).

The object-level operation surface (create/get/update/patch/delete/list/
txn) matches the apiserver client so the Object Data Exchange can host
data stores on either backend unchanged.  Optimistic concurrency is
emulated with per-key revisions (as one would with ``WATCH``/``MULTI`` or
a Lua compare-and-set in real Redis); transactions correspond to
``MULTI``/``EXEC``.  A small raw command surface (GET / SET / INCR / ...)
is also provided for code that wants Redis semantics directly.
"""

import copy

from repro.errors import ConflictError, StoreError
from repro.store.base import OpLatency, StoreServer
from repro.store.client import ObjectClient
from repro.store.objectops import ObjectOpsMixin
from repro.store.udf import TxnUDFContext, UDFContext, UDFRegistry

#: Redis-class latencies: in-memory, no fsync on the critical path.
DEFAULT_OPS = {
    "create": OpLatency(base=0.00035, per_byte=1.5e-9),
    "update": OpLatency(base=0.00035, per_byte=1.5e-9),
    "patch": OpLatency(base=0.00040, per_byte=1.5e-9),
    "delete": OpLatency(base=0.00030),
    "get": OpLatency(base=0.00020, per_byte=0.5e-9),
    "list": OpLatency(base=0.00060, per_byte=0.5e-9),
    "command": OpLatency(base=0.00015),
    "fcall": OpLatency(base=0.00030),
    "fcall_txn": OpLatency(base=0.00035),
    "txn": OpLatency(base=0.00050, per_byte=1.5e-9),
    # Cross-shard 2PC participant ops (no fsync: in-memory hold).
    "txn_prepare": OpLatency(base=0.00050, per_byte=1.5e-9),
    "txn_commit": OpLatency(base=0.00040),
    "txn_abort": OpLatency(base=0.00020),
    # Live-reshard migration plane: bulk state transfer between shards.
    "export": OpLatency(base=0.00060, per_byte=0.5e-9),
    "ingest": OpLatency(base=0.00060, per_byte=1.5e-9),
}


class MemKV(ObjectOpsMixin, StoreServer):
    """The server side of the Redis-like store."""

    OPS = dict(DEFAULT_OPS)

    #: Server-side cost of one key access inside a function (seconds).
    local_access_cost = 0.00005

    def __init__(
        self,
        env,
        network,
        location="memkv",
        tracer=None,
        ops=None,
        watch_overhead=0.00015,
        watch_batch_window=0.0,
        zero_copy=True,
        delta_watch=False,
    ):
        super().__init__(env, network, location, tracer=tracer,
                         watch_batch_window=watch_batch_window,
                         zero_copy=zero_copy, delta_watch=delta_watch)
        if ops:
            self.OPS = {**self.OPS, **ops}
        self._objects = {}
        self._strings = {}
        self.functions = UDFRegistry()
        self.watch_overhead = watch_overhead
        self._fcall_effects = {}  # idempotence_key -> cached fcall result
        self.fcall_replays = 0  # dedup hits: retried/replayed fcall_txn

    # -- raw command surface -------------------------------------------------

    def op_command(self, name, args=()):
        name = name.upper()
        if name == "SET":
            key, value = args
            self._strings[key] = value
            return "OK"
        if name == "GET":
            return self._strings.get(args[0])
        if name == "DEL":
            removed = 0
            for key in args:
                if self._strings.pop(key, None) is not None:
                    removed += 1
            return removed
        if name == "INCR":
            key = args[0]
            value = int(self._strings.get(key, 0)) + 1
            self._strings[key] = value
            return value
        if name == "KEYS":
            prefix = args[0] if args else ""
            return sorted(k for k in self._strings if k.startswith(prefix))
        if name == "EXISTS":
            return sum(1 for key in args if key in self._strings)
        raise StoreError(f"unknown command {name!r}")

    # -- server-side functions -------------------------------------------------

    def op_fcall(self, name, args=()):
        """Execute a registered UDF server-side.

        The caller pays one round trip; the function's state accesses are
        charged at local-memory cost.  A generator the request's process
        runs, so the execution + local-access time elapses on the virtual
        clock, and the execution cost elapses BEFORE the function's writes
        commit (a failover during it aborts the call with nothing done).
        """
        fn, cost = self.functions.get(name)
        if cost > 0:
            yield self.env.timeout(cost)
        ctx = UDFContext(self)
        result = fn(ctx, *args)
        delay = ctx.ops * self.local_access_cost
        if delay > 0:
            yield self.env.timeout(delay)
        return result

    def op_fcall_txn(self, name, args=(), idempotence_key=None):
        """Execute a registered UDF as an in-store *transaction*.

        The function runs against a :class:`~repro.store.udf.TxnUDFContext`:
        reads hit live state (recording the revision each key was read
        at), writes buffer, and on return the buffer commits as one
        atomic ``txn`` batch with read-version preconditions.  If a read
        key moved underneath the function, the batch aborts and the
        function re-runs against fresh state (bounded optimistic retry).

        ``idempotence_key`` makes the call exactly-once: the first
        successful run caches its result under the key, and replays --
        client retries after a lost reply, DLQ re-deliveries -- return
        the cached result without re-running the function or its writes.
        """
        fn, cost = self.functions.get(name)
        if idempotence_key is not None:
            cached = self._fcall_effects.get(idempotence_key)
            if cached is not None:
                self.fcall_replays += 1
                return copy.deepcopy(cached[0])
        attempts = 0
        while True:
            attempts += 1
            if cost > 0:
                yield self.env.timeout(cost)
            ctx = TxnUDFContext(self)
            result = fn(ctx, *args)
            delay = ctx.ops * self.local_access_cost
            if delay > 0:
                yield self.env.timeout(delay)
            ops = ctx.build_ops()
            if not ops:
                break
            try:
                # Synchronous within this instant: the validated
                # batch applies with nothing interleaving.
                self.op_txn(ops)
                break
            except ConflictError:
                if attempts >= 8:
                    raise
        if idempotence_key is not None:
            self._fcall_effects[idempotence_key] = (copy.deepcopy(result),)
        return result

    # -- crash semantics -----------------------------------------------------

    def _on_crash(self):
        """In-memory store: a crash loses all state (no persistence path).

        The revision counter is intentionally *not* reset, so post-restart
        commits never reuse a revision that watchers already observed.
        The fcall idempotence cache is state too: it dies with the data
        it guards (a replay against an empty store must re-apply).
        """
        self._objects = {}
        self._strings = {}
        self._fcall_effects = {}


class MemKVClient(ObjectClient):
    """The Object client, plus raw commands and server-side functions."""

    def command(self, name, *args):
        return self.request("command", name=name, args=args)

    def fcall(self, name, *args):
        return self.request("fcall", name=name, args=args)

    def fcall_txn(self, name, *args, idempotence_key=None):
        return self.request(
            "fcall_txn", name=name, args=args, idempotence_key=idempotence_key
        )
