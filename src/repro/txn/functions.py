"""Integrators as in-store transactional functions (Apiary-style).

The paper's push-down optimization moves integrator logic into the data
store to erase per-access round trips; Apiary goes further and makes the
pushed-down function *transactional*.  This module composes the two:
a :class:`TxnFunctionIntegrator` registers its reconcile step as a UDF on
the backing store and drives it from a watch, but every invocation runs
through ``op_fcall_txn`` -- reads record their versions, writes buffer,
and the whole read-modify-write commits as ONE atomic batch (or re-runs
on conflict).  Each invocation carries an idempotence key derived from
the triggering event (``name:key:revision``), which is also its
work-queue key, so retries, DLQ replays, and crash-recovery
re-deliveries of the same event are exactly-once.
"""

from functools import partial

from repro.errors import ConfigurationError
from repro.core.integrator import Integrator
from repro.store.base import DELETED, MODIFIED, WatchEvent
from repro.store.follow import Follower
from repro.store.memkv import MemKV, MemKVClient


class TxnFunctionIntegrator(Integrator):
    """A level-triggered integrator whose reconcile step is a store txn.

    ``fn(ctx, key)`` receives a
    :class:`~repro.store.udf.TxnUDFContext` and the key of the object
    that changed; whatever it reads and writes through ``ctx`` commits
    atomically when it returns.  The function must be level-triggered
    (derive everything from current state): a re-run after a conflict or
    a replay after a crash sees fresh state and must converge.
    """

    #: Compute charged per invocation (virtual seconds); ``reconfigure(
    #: cost=...)`` overrides it per instance.
    cost = 0.0002

    def __init__(self, name, client, fn, key_prefix=""):
        super().__init__(name)
        server = client.server
        if not isinstance(client, MemKVClient):
            raise ConfigurationError(
                f"client for {server.location!r} has no fcall_txn surface"
                if isinstance(server, MemKV) else
                f"store {server.location!r} does not support server-side "
                "functions (use the MemKV backend)"
            )
        self.client = client
        self.fn = fn
        self.key_prefix = key_prefix
        self.followers.swap([Follower(
            client.env,
            partial(client.watch, self._on_event, key_prefix=key_prefix),
            self._catch_up,
        )])
        self.invocations = 0
        self.commits = 0

    def bind(self, runtime=None):
        """Attach; standalone use (no runtime) binds to the store client."""
        return super().bind(runtime if runtime is not None else self.client)

    # -- Integrator hooks ----------------------------------------------------

    def _apply_configuration(self, fn=None, cost=None):
        """Register the pushed-down function (at bind, and to swap it at
        run time: no redeploys); the stream stays open."""
        fn = self.fn if fn is None else fn
        cost = self.cost if cost is None else cost
        self.client.server.functions.register(self.name, fn, cost=cost)
        return (f"function {self.name} swapped", self.followers.members,
                {"fn": fn, "cost": cost})

    # -- the reconcile drive -------------------------------------------------

    def _catch_up(self):
        """Present every key under the prefix as the event its current
        revision raised (or would have, had the stream been up): one
        already handled replays under the same idempotence key."""
        for view in (yield self.client.list(self.key_prefix)):
            self._on_event(WatchEvent(
                MODIFIED, view["key"], view["data"], view["revision"]))

    def _on_event(self, event):
        if event.type != DELETED:
            self.queue.requeue(f"{self.name}:{event.key}:{event.revision}")

    def _pass(self, idempotence_key, _payload):
        key = idempotence_key[len(self.name) + 1:].rpartition(":")[0]
        self.invocations += 1
        yield self.client.fcall_txn(
            self.name, key, idempotence_key=idempotence_key
        )
        self.commits += 1

    def stats(self):
        return dict(super().stats(), invocations=self.invocations,
                    commits=self.commits)
