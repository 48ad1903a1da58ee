"""Integrators as in-store transactional functions (Apiary-style).

The paper's push-down optimization moves integrator logic into the data
store to erase per-access round trips; Apiary goes further and makes the
pushed-down function *transactional*.  This module composes the two:
a :class:`TxnFunctionIntegrator` registers its reconcile step as a UDF on
the backing store and drives it from a watch, but every invocation runs
through ``op_fcall_txn`` -- reads record their versions, writes buffer,
and the whole read-modify-write commits as ONE atomic batch (or re-runs
on conflict).  Each invocation carries an idempotence key derived from
the triggering event (``name:key:revision``), so retries, DLQ replays,
and crash-recovery re-deliveries of the same event are exactly-once.
"""

from functools import partial

from repro.errors import ConfigurationError, StoreError
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
        self._follower = Follower(
            client.env,
            partial(client.watch, self._on_event, key_prefix=key_prefix),
            self._catch_up,
        )
        self.invocations = 0
        self.commits = 0
        self.failures = []  # (key, exception) -- conflicts that stuck, etc.

    @property
    def env(self):
        return self.client.env

    def bind(self, runtime=None):
        """Attach; standalone use (no runtime) binds to the store client."""
        return super().bind(runtime if runtime is not None else self.client)

    # -- Integrator hooks ----------------------------------------------------

    def _on_bind(self):
        self.client.server.functions.register(self.name, self.fn,
                                              cost=self.cost)

    def _on_start(self):
        self._follower.start()

    def _on_stop(self):
        self._follower.stop()

    def _apply_configuration(self, fn=None, cost=None):
        """Swap the pushed-down function at run time (no redeploys)."""
        if fn is not None:
            self.fn = fn
        if cost is not None:
            self.cost = cost
        self.client.server.functions.register(self.name, self.fn,
                                              cost=self.cost)
        return f"function {self.name} swapped"

    # -- the reconcile drive -------------------------------------------------

    def _catch_up(self):
        """Present every key under the prefix as the event its current
        revision raised (or would have, had the stream been up): one
        already handled replays under the same idempotence key."""
        for view in (yield self.client.list(self.key_prefix)):
            self._on_event(WatchEvent(
                MODIFIED, view["key"], view["data"], view["revision"]))

    def _on_event(self, event):
        if event.type == DELETED:
            return
        idem = f"{self.name}:{event.key}:{event.revision}"
        self.env.process(self._invoke(event.key, idem))

    def _invoke(self, key, idempotence_key):
        self.invocations += 1
        try:
            yield self.client.fcall_txn(
                self.name, key, idempotence_key=idempotence_key
            )
            self.commits += 1
        except StoreError as exc:
            self.failures.append((key, exc))

    def status(self):
        base = super().status()
        base.update(
            invocations=self.invocations,
            commits=self.commits,
            failures=len(self.failures),
        )
        return base
