"""Shared object-store operations for the Object backends.

The apiserver-like and Redis-like backends expose the same logical
object surface (create/get/update/patch/delete/list + transactions);
they differ in latency calibration, watch fan-out, persistence history,
and extras (commands, UDFs).  This mixin holds the shared semantics.

Transactions (paper §5, "run-time primitives such as transactions"):
``op_txn`` applies a list of operations atomically -- every precondition
(existence, resourceVersion) is validated against current state first;
if any fails, *nothing* is applied.  All resulting watch events carry
revisions from one contiguous block, so observers see the transaction's
effects in order.
"""

import copy

from repro.errors import (
    AlreadyExistsError,
    ConflictError,
    NotFoundError,
    StoreError,
)
from repro.obs.context import current_context
from repro.store.base import ADDED, DELETED, MODIFIED, StoredObject, WatchEvent
from repro.store.cow import diff_shared, freeze


class ObjectOpsMixin:
    """CRUD + transactions over ``self._objects`` (key -> StoredObject)."""

    # -- single operations ---------------------------------------------------

    def op_create(self, key, data, labels=None):
        self._check_txn_lock(key)
        if key in self._objects:
            raise AlreadyExistsError(f"object {key!r} already exists")
        revision = self.next_revision()
        obj = StoredObject(
            key=key,
            data=self.copies.ingest(data, self.copy_meter),
            revision=revision,
            created_at=self.env.now,
            updated_at=self.env.now,
            labels=dict(labels or {}),
        )
        self._objects[key] = obj
        self._commit(ADDED, obj)
        return self._view(obj)

    def op_get(self, key):
        obj = self._objects.get(key)
        if obj is None:
            raise NotFoundError(f"object {key!r} not found")
        return self._view(obj)

    def op_get_many(self, keys):
        """The views of the ``keys`` that exist, in request order; an
        absent key is skipped, not an error (one request, like an MGET)."""
        objects = self._objects
        return [self._view(objects[key]) for key in keys if key in objects]

    def op_update(self, key, data, resource_version=None):
        obj = self._require(key, resource_version)
        prev_revision = obj.revision
        old_data = obj.data
        obj.data = self.copies.ingest(data, self.copy_meter)
        obj.revision = self.next_revision()
        obj.updated_at = self.env.now
        # A full update still replicates as a delta: diff the versions.
        delta = diff_shared(old_data, obj.data) if self.delta_watch else None
        self._commit(MODIFIED, obj, delta=delta, prev_revision=prev_revision)
        return self._view(obj)

    def op_patch(self, key, patch, resource_version=None):
        obj = self._require(key, resource_version)
        prev_revision = obj.revision
        obj.data = self.copies.merge(obj.data, patch, self.copy_meter)
        obj.revision = self.next_revision()
        obj.updated_at = self.env.now
        # The patch IS the delta (merge-patch composes with itself).
        delta = freeze(patch) if self.delta_watch else None
        self._commit(MODIFIED, obj, delta=delta, prev_revision=prev_revision)
        return self._view(obj)

    def op_delete(self, key):
        self._check_txn_lock(key)
        obj = self._objects.pop(key, None)
        if obj is None:
            raise NotFoundError(f"object {key!r} not found")
        obj.revision = self.next_revision()
        self._commit(DELETED, obj)
        return None

    def op_list(self, key_prefix=""):
        return [
            self._view(obj)
            for key, obj in sorted(self._objects.items())
            if key.startswith(key_prefix)
        ]

    # -- transactions -----------------------------------------------------------

    def op_txn(self, ops):
        """Apply a list of operations atomically (all-or-nothing).

        Each entry: ``{"action": "create"|"update"|"patch"|"delete",
        "key": ..., "data"/"patch": ..., "resource_version": ...}``.
        Validation happens against the *current* state plus earlier ops
        in the same transaction (e.g. create-then-patch is legal).
        Returns the list of resulting views (None for deletes).
        """
        self._validate_txn(ops)
        return self._apply_txn(ops)

    def _validate_txn(self, ops):
        """Phase 1: validate every op against state as the earlier ops leave it.

        Raises the first precondition failure with enough detail to
        debug the abort (expected vs actual resourceVersion, and whether
        the conflicting revision came from the live store or from an
        earlier op in the same transaction).  Applies nothing.
        """
        if not isinstance(ops, list) or not ops:
            raise StoreError("transaction needs a non-empty op list")
        # Keys the ops touch: ("txn", op index) once an earlier op wrote
        # one, None once one deleted it; any other key reads the store.
        overlay = {}
        for index, op in enumerate(ops):
            action = op.get("action")
            key = op.get("key")
            if action not in ("create", "update", "patch", "delete"):
                raise StoreError(f"txn op {index}: unknown action {action!r}")
            if not key:
                raise StoreError(f"txn op {index}: missing key")
            self._check_txn_lock(key)
            live = self._objects.get(key)
            current = overlay.get(key, None if live is None else live.revision)
            if action == "create":
                if current is not None:
                    raise AlreadyExistsError(
                        f"txn op {index}: object {key!r} already exists"
                    )
                overlay[key] = ("txn", index)  # exists from here on
            else:
                if current is None:
                    raise NotFoundError(f"txn op {index}: object {key!r} not found")
                expected = op.get("resource_version")
                if expected is not None and current != expected:
                    if isinstance(current, tuple):
                        actual = (
                            f"already rewritten by op {current[1]} "
                            f"of this transaction"
                        )
                    else:
                        actual = f"is {current}"
                    raise ConflictError(
                        f"txn op {index}: object {key!r} changed "
                        f"(expected revision {expected}, {actual})"
                        + self._ownership_note(key)
                    )
                overlay[key] = None if action == "delete" else ("txn", index)

    def _apply_txn(self, ops):
        """Phase 2: apply a validated op list (cannot fail now)."""
        views = []
        for op in ops:
            action = op["action"]
            if action == "create":
                views.append(self.op_create(op["key"], op.get("data") or {}))
            elif action == "update":
                views.append(self.op_update(op["key"], op.get("data") or {}))
            elif action == "patch":
                views.append(self.op_patch(op["key"], op.get("patch") or {}))
            else:
                views.append(self.op_delete(op["key"]))
        return views

    # -- migration data plane (see repro.store.reshard) ------------------------

    def op_export(self, ranges=None):
        """Full-fidelity snapshot of objects whose keys hash into ``ranges``.

        Unlike ``op_list`` views, entries carry labels and exact
        timestamps so an ingest on the destination reconstructs the
        object bit-for-bit.  ``ranges=None`` exports everything.
        """
        from repro.store.ring import key_in_ranges

        entries = []
        for key, obj in sorted(self._objects.items()):
            if ranges is not None and not key_in_ranges(key, ranges):
                continue
            entries.append({
                "key": key,
                "data": self.copies.snapshot(obj.data, self.copy_meter),
                "revision": obj.revision,
                "created_at": obj.created_at,
                "updated_at": obj.updated_at,
                "labels": dict(obj.labels),
            })
        return {"entries": entries, "revision": self.revision}

    def op_ingest(self, entries, revision_floor=0, remove=None,
                  authoritative=False):
        """Quietly install migrated objects: no watch events, no new
        revisions.

        The reshard engine's catch-up watch already carries the *events*
        for moved keys; ingest only installs the *state*, keeping source
        revisions so observers see one consistent revision order across
        the handoff.  An entry older than what is already present is
        dropped (the catch-up watch won the race) unless
        ``authoritative`` -- the final reconcile pass -- where
        equal-revision entries also apply (restoring labels the watch
        protocol does not carry).  ``revision_floor`` (plus every ingested
        revision) floors this store's revision counter so post-migration
        commits stay monotonic across the whole keyspace.
        """
        applied = []
        floor = revision_floor
        for entry in entries:
            floor = max(floor, entry["revision"])
            existing = self._objects.get(entry["key"])
            if existing is not None:
                if authoritative:
                    if existing.revision > entry["revision"]:
                        continue
                elif existing.revision >= entry["revision"]:
                    continue
            self._objects[entry["key"]] = StoredObject(
                key=entry["key"],
                data=self.copies.ingest(entry["data"], self.copy_meter),
                revision=entry["revision"],
                created_at=entry["created_at"],
                updated_at=entry["updated_at"],
                labels=dict(entry.get("labels") or {}),
            )
            applied.append(entry)
        removed = 0
        for key in remove or ():
            if self._objects.pop(key, None) is not None:
                removed += 1
        self.revision = max(self.revision, floor)
        # Durability records what actually landed, so a WAL replay makes
        # the same keep/drop decisions the live ingest did.
        self._persist_ingest(applied, remove)
        return {"applied": len(applied), "removed": removed,
                "revision": self.revision}

    def _persist_ingest(self, entries, remove):
        """Hook: durable backends write ingested state to their WAL."""

    # -- two-phase-commit participant surface (see repro.txn) -----------------

    def op_txn_prepare(self, txn_id, ops):
        """Phase 1 of cross-shard 2PC: validate, lock, and hold ``ops``.

        A prepared transaction's keys are locked -- concurrent writers
        (including other transactions) fail with a retryable
        :class:`~repro.errors.ConflictError` until the coordinator
        decides.  Idempotent: re-preparing a known ``txn_id`` reports its
        current state instead of re-validating, so a coordinator retry
        after a lost reply never double-locks.
        """
        outcome = self._txn_outcomes.get(txn_id)
        if outcome is not None:
            return {"txn": txn_id, "state": outcome[0]}
        if txn_id in self._prepared:
            return {"txn": txn_id, "state": "prepared"}
        self._validate_txn(ops)
        held = [copy.deepcopy(op) for op in ops]
        self._prepared[txn_id] = held
        for op in held:
            self._txn_locks[op["key"]] = txn_id
        self._persist_txn_marker("prepare", txn_id, ops=held)
        return {"txn": txn_id, "state": "prepared"}

    def op_txn_commit(self, txn_id):
        """Phase 2 of cross-shard 2PC: apply a prepared transaction.

        Exactly-once per participant: the first commit applies and
        records the outcome (with its views); retried commits -- lost
        replies, coordinator recovery replays -- return the recorded
        outcome without re-applying.  A ``txn_id`` this store has never
        prepared (e.g. state lost to a crash on a non-durable backend)
        reports ``"unknown"`` rather than failing forever.
        """
        outcome = self._txn_outcomes.get(txn_id)
        if outcome is not None:
            return {"txn": txn_id, "state": outcome[0], "views": outcome[1]}
        ops = self._prepared.pop(txn_id, None)
        if ops is None:
            return {"txn": txn_id, "state": "unknown", "views": None}
        self._release_txn_locks(txn_id, ops)
        views = self._apply_txn(ops)
        self._txn_outcomes[txn_id] = ("committed", views)
        self._persist_txn_marker("commit", txn_id)
        return {"txn": txn_id, "state": "committed", "views": views}

    def op_txn_abort(self, txn_id):
        """Coordinator decision "abort": drop the prepared ops and locks.

        Idempotent; aborting an unknown or already-decided transaction is
        a no-op reporting the recorded (or ``"unknown"``) state.
        """
        outcome = self._txn_outcomes.get(txn_id)
        if outcome is not None:
            return {"txn": txn_id, "state": outcome[0]}
        ops = self._prepared.pop(txn_id, None)
        if ops is None:
            return {"txn": txn_id, "state": "unknown"}
        self._release_txn_locks(txn_id, ops)
        self._txn_outcomes[txn_id] = ("aborted", None)
        self._persist_txn_marker("abort", txn_id)
        return {"txn": txn_id, "state": "aborted"}

    def _release_txn_locks(self, txn_id, ops):
        for op in ops:
            if self._txn_locks.get(op["key"]) == txn_id:
                del self._txn_locks[op["key"]]

    # -- shared internals ----------------------------------------------------------

    def _check_txn_lock(self, key):
        """Writers must wait out an in-doubt transaction holding ``key``.

        Retryable :class:`~repro.errors.ConflictError`: reconcilers and
        retry policies back off and re-offer, and the lock clears as soon
        as the coordinator (or its recovery pass) decides.
        """
        holder = self._txn_locks.get(key)
        if holder is not None:
            raise ConflictError(
                f"object {key!r} is locked by in-doubt transaction "
                f"{holder!r}; retry after the coordinator decides"
            )

    def _require(self, key, resource_version):
        self._check_txn_lock(key)
        obj = self._objects.get(key)
        if obj is None:
            raise NotFoundError(f"object {key!r} not found")
        if resource_version is not None and resource_version != obj.revision:
            raise ConflictError(
                f"object {key!r} changed: expected revision "
                f"{resource_version}, is {obj.revision}"
                + self._ownership_note(key)
            )
        return obj

    def _view(self, obj):
        return {
            "key": obj.key,
            "data": self.copies.snapshot(obj.data, self.copy_meter),
            "revision": obj.revision,
            "created_at": obj.created_at,
            "updated_at": obj.updated_at,
        }

    def _commit(self, event_type, obj, delta=None, prev_revision=None):
        # Causal stamping: when the committing request carries a trace
        # context, mint a zero-duration "write" span under it and make
        # THAT the event's context -- downstream consumers (integrators,
        # reconcilers) parent off the write, so the DAG reads
        # request -> write -> exchange -> write -> reconcile -> ...
        ctx = current_context()
        if ctx is not None and ctx.sink is not None:
            ctx = ctx.sink.point(
                "write", service=self.location, parent=ctx, key=obj.key,
                store=obj.key.split("/", 1)[0], type=event_type,
                revision=obj.revision,
            )
        event = WatchEvent(
            event_type, obj.key,
            self.copies.snapshot(obj.data, self.copy_meter), obj.revision,
            delta=delta, prev_revision=prev_revision,
            ctx=ctx, committed_at=self.env.now,
        )
        self._record_commit(event)
        if self.watch_overhead <= 0:
            self.notify(event)
        else:
            timer = self.env.timeout(self.watch_overhead)
            timer.callbacks.append(lambda _evt: self.notify(event))

    def _record_commit(self, event):
        """Hook: the apiserver keeps a replayable history."""
