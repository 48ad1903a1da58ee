"""A Kubernetes-apiserver-like Object store.

This is the strongly consistent Object backend used by the paper's
``K-apiserver`` configuration: every write goes through an etcd-like
persistence path (leader append + quorum fsync), which makes writes slow
(milliseconds) but gives linearizability, a monotonically increasing
``resourceVersion``, replayable watch history, and optimistic concurrency.

Semantics reproduced from the real apiserver:

- ``create`` fails if the key exists; ``update`` fails on a stale
  ``resource_version`` (conflict, retry expected -- reconcilers do);
- ``patch`` deep-merges fields without a version precondition;
- every watch event carries the full object and its revision;
- watches may replay from a historical revision (bounded history window);
- ``txn`` applies a batch of writes atomically (all-or-nothing).

The CRUD/transaction semantics live in
:class:`repro.store.objectops.ObjectOpsMixin`, shared with the Redis-like
backend; this class adds the persistence latency model, watch history,
and crash durability: every commit is appended to a write-ahead log (the
etcd raft log stand-in), and a :meth:`~repro.store.base.StoreServer.crash`
/ ``restart`` cycle loses the in-memory object map but rebuilds it --
objects, revisions, and the replayable watch history -- from the WAL.
"""

import copy
from dataclasses import dataclass

from repro.store.base import OpLatency, StoredObject, StoreServer
from repro.store.client import ObjectClient
from repro.store.watch import DELETED, WatchEvent
from repro.store.objectops import ObjectOpsMixin

#: Default per-op server-side latencies (seconds): writes pay an
#: etcd-like quorum+fsync cost, reads are served from the watch cache.
DEFAULT_OPS = {
    "create": OpLatency(base=0.0065, per_byte=4e-9),
    "update": OpLatency(base=0.0065, per_byte=4e-9),
    "patch": OpLatency(base=0.0070, per_byte=4e-9),
    "delete": OpLatency(base=0.0060),
    "get": OpLatency(base=0.0015, per_byte=1e-9),
    "list": OpLatency(base=0.0030, per_byte=1e-9),
    # One persistence round for the whole batch, plus marshalling.
    "txn": OpLatency(base=0.0080, per_byte=4e-9),
    # Cross-shard 2PC participant ops: prepare persists the held batch
    # (quorum write of the lock record), commit/abort persist a small
    # decision marker, status is a cache read.
    "txn_prepare": OpLatency(base=0.0080, per_byte=4e-9),
    "txn_commit": OpLatency(base=0.0065),
    "txn_abort": OpLatency(base=0.0040),
    "txn_status": OpLatency(base=0.0015),
    # Live-reshard migration plane: bulk state transfer between shards.
    "export": OpLatency(base=0.0030, per_byte=1e-9),
    "ingest": OpLatency(base=0.0080, per_byte=4e-9),
}


@dataclass(frozen=True)
class _WalRecord:
    """One durable commit: enough to rebuild the object map on restart."""

    time: float
    event: object  # the committed WatchEvent
    labels: dict


@dataclass(frozen=True)
class _IngestWalMarker:
    """A migration ingest, durable alongside commits.

    Carries the ingested entries (full objects, labels included) and the
    removed keys so a restart rebuilds exactly what the quiet data plane
    installed -- crucially WITHOUT minting watch history: ingests never
    notified anyone, so replay must not either.
    """

    time: float
    entries: tuple = ()
    remove: tuple = ()


@dataclass(frozen=True)
class _TxnWalMarker:
    """A 2PC participant-state transition, durable alongside commits.

    ``prepare`` markers carry the held op batch so a restart can rebuild
    the in-doubt set (and its key locks) exactly; ``commit``/``abort``
    markers resolve an earlier prepare.  Interleaved in the one WAL so
    replay sees transitions in true commit order.
    """

    time: float
    kind: str  # "prepare" | "commit" | "abort"
    txn_id: str
    ops: tuple = ()


class ApiServer(ObjectOpsMixin, StoreServer):
    """The server side: owns objects, history, WAL, and watch fan-out."""

    OPS = dict(DEFAULT_OPS)

    #: Full events kept for :meth:`replay`; a watcher further behind
    #: than this re-lists instead.
    HISTORY_LIMIT = 1024

    def __init__(
        self,
        env,
        network,
        location="apiserver",
        workers=1,
        tracer=None,
        ops=None,
        watch_overhead=0.0012,
        watch_batch_window=0.0,
        zero_copy=True,
        delta_watch=False,
    ):
        super().__init__(env, network, location, workers=workers, tracer=tracer,
                         watch_batch_window=watch_batch_window,
                         zero_copy=zero_copy, delta_watch=delta_watch)
        if ops:
            self.OPS = {**self.OPS, **ops}
        self._objects = {}
        self._history = []  # bounded list of FULL WatchEvents for replay
        self._wal = []  # unbounded durable commit log ("disk")
        self.wal_bytes = 0  # encoded size of what hit the "disk"
        self._pending_replays = []  # (watch, from_revision) queued while down
        self.watch_overhead = watch_overhead

    def _record_commit(self, event):
        labels = {}
        obj = self._objects.get(event.key)
        if obj is not None:
            labels = dict(obj.labels)
        durable = event
        if self.delta_watch and event.delta is not None:
            # Delta-encoded WAL: persist the merge-patch, not the whole
            # object -- the restart path re-materializes by replaying
            # deltas onto the previous durable state.
            durable = WatchEvent(
                event.type, event.key, None, event.revision,
                delta=event.delta, prev_revision=event.prev_revision,
                ctx=event.ctx, committed_at=event.committed_at,
            )
        self.wal_bytes += durable.wire_size()
        self._wal.append(_WalRecord(self.env.now, durable, labels))
        # History must hold FULL events: replay sends them verbatim to
        # watchers with no predecessor state to apply a delta against.
        if event.object is None and event.delta is not None:
            raise AssertionError("commit events must carry the full object")
        self._history.append(event)
        if len(self._history) > self.HISTORY_LIMIT:
            del self._history[: len(self._history) - self.HISTORY_LIMIT]

    def replay(self, watch, from_revision):
        """Deliver historical events (> from_revision) to a new watcher.

        While the server is down, replays queue and run on restart (the
        client keeps reconnecting until the server answers).  A replay
        delivery lost to a link fault breaks the watch stream -- the
        watcher re-watches from its cursor, so nothing is skipped.
        """
        if not self.available:
            self._pending_replays.append((watch, from_revision))
            return
        self._deliver_replay(watch, from_revision)

    def _deliver_replay(self, watch, from_revision):
        replayable = [
            event for event in self._history
            if event.revision > from_revision and watch.matches(event.key)
        ]
        if not replayable:
            return
        if self.watch_batch_window > 0:
            # One catch-up message, mirroring batched live fan-out.
            watch.send(replayable)
            return
        for event in replayable:
            if not watch.send((event,)):
                return

    def set_available(self, available):
        super().set_available(available)
        if self.available:
            # A brown-out ended: watchers that asked for replay while we
            # were down are still waiting.
            self._flush_pending_replays()

    def _flush_pending_replays(self):
        pending, self._pending_replays = self._pending_replays, []
        for watch, from_revision in pending:
            if watch.active:
                self._deliver_replay(watch, from_revision)

    @property
    def wal_length(self):
        return len(self._wal)

    def _persist_ingest(self, entries, remove):
        marker = _IngestWalMarker(
            self.env.now,
            tuple(copy.deepcopy(entry) for entry in entries),
            tuple(remove or ()),
        )
        self.wal_bytes += 32 + sum(
            32 + len(entry["key"]) for entry in marker.entries
        )
        self._wal.append(marker)

    def _persist_txn_marker(self, kind, txn_id, ops=None):
        marker = _TxnWalMarker(
            self.env.now, kind, txn_id,
            tuple(copy.deepcopy(op) for op in ops or ()),
        )
        self.wal_bytes += 48 + sum(
            16 + len(str(op.get("key", ""))) for op in marker.ops
        )
        self._wal.append(marker)

    # -- crash durability ---------------------------------------------------

    def _on_crash(self):
        """Memory is lost; the WAL (and queued replays) survive on disk."""
        self._objects = {}
        self._history = []
        self.revision = 0

    def _on_restart(self):
        """Rebuild objects, revision counter, and watch history from WAL.

        Delta records materialize by merge onto the previous durable
        state of their key (the WAL is written in commit order, so the
        predecessor is always already rebuilt).  The replay history is
        rebuilt as FULL events from the materialized states.
        """
        created_at = {}
        full_events = []
        for record in self._wal:
            if isinstance(record, _TxnWalMarker):
                self._replay_txn_marker(record)
                continue
            if isinstance(record, _IngestWalMarker):
                # Quiet re-ingest: rebuild state, mint no history.
                for entry in record.entries:
                    created_at.setdefault(entry["key"], entry["created_at"])
                    self._objects[entry["key"]] = StoredObject(
                        key=entry["key"],
                        data=self.copies.ingest(entry["data"]),
                        revision=entry["revision"],
                        created_at=entry["created_at"],
                        updated_at=entry["updated_at"],
                        labels=dict(entry.get("labels") or {}),
                    )
                    self.revision = max(self.revision, entry["revision"])
                for key in record.remove:
                    self._objects.pop(key, None)
                    created_at.pop(key, None)
                continue
            event = record.event
            if event.type == DELETED:
                self._objects.pop(event.key, None)
                created_at.pop(event.key, None)
                full_events.append(event)
            else:
                if event.object is None and event.delta is not None:
                    data = self.copies.merge(
                        self._objects[event.key].data, event.delta
                    )
                else:
                    data = self.copies.ingest(event.object)
                created_at.setdefault(event.key, record.time)
                self._objects[event.key] = StoredObject(
                    key=event.key,
                    data=data,
                    revision=event.revision,
                    created_at=created_at[event.key],
                    updated_at=record.time,
                    labels=dict(record.labels),
                )
                full_events.append(
                    WatchEvent(event.type, event.key, data, event.revision,
                               ctx=event.ctx,
                               committed_at=event.committed_at)
                )
            self.revision = max(self.revision, event.revision)
        self._history = full_events[-self.HISTORY_LIMIT:]
        self._flush_pending_replays()

    def _replay_txn_marker(self, marker):
        """Rebuild 2PC participant state from one WAL marker.

        A ``prepare`` with no later decision leaves the transaction
        in-doubt: its ops are re-held and its keys re-locked, so writers
        keep bouncing off until the coordinator's recovery pass decides.
        Decided transactions land in the outcome cache (views are gone
        with the crash -- retried commits after recovery get the state
        but ``views=None``, which is all idempotence needs).
        """
        if marker.kind == "prepare":
            ops = [copy.deepcopy(op) for op in marker.ops]
            self._prepared[marker.txn_id] = ops
            for op in ops:
                self._txn_locks[op["key"]] = marker.txn_id
        else:  # "commit" | "abort"
            ops = self._prepared.pop(marker.txn_id, None)
            if ops is not None:
                self._release_txn_locks(marker.txn_id, ops)
            state = "committed" if marker.kind == "commit" else "aborted"
            self._txn_outcomes[marker.txn_id] = (state, None)


class ApiServerClient(ObjectClient):
    """The Object client, plus watches that replay from a revision."""

    def watch(self, handler, key_prefix="", from_revision=None, on_close=None,
              credits=None, overflow=None):
        watch = super().watch(handler, key_prefix, on_close=on_close,
                              credits=credits, overflow=overflow)
        if from_revision is not None:
            self.server.replay(watch, from_revision)
        return watch
