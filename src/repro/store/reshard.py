"""Online shard split/merge for :class:`~repro.store.sharded.ShardedStore`.

The migration protocol, per ring-membership change (one member at a
time; a multi-step reshard is a sequence of these):

1. **Install** (grow only): the new shard server joins the fault and
   routing surfaces -- live merged watches grow a branch for it -- but
   the ring still routes nothing to it.
2. **Catch-up watch**: for every moved range, a migration watch on the
   source shard starts buffering its commits (the same delta-watch
   plane apps use, so the copy rides the existing gap-detect/resync
   machinery), and a pump applies them to the destination through the
   *quiet* data plane (``op_ingest``: no watch events, source revisions
   preserved, stale entries dropped by revision compare).
3. **Snapshot**: ``op_export`` streams the moved ranges' full-fidelity
   state (labels, timestamps) to the destination; the pump keeps
   applying whatever commits land during and after the copy.
4. **Seal**: once the source's in-doubt transactions drain, the moved
   ranges are sealed -- writes there now fail fast with
   :class:`~repro.errors.ShardMovedError` and the sharded client backs
   off and re-routes.  Reads stay open (the sealed state is frozen).
5. **Drain**: one ``cutover_drain`` window lets in-flight commits and
   their watch deliveries land; the pump applies the stragglers.
6. **Reconcile**: one authoritative export/ingest pass per moved range
   set -- the documented "one GET resync per moved range" -- restores
   label/timestamp fidelity and removes keys deleted during catch-up.
7. **Flip**: the ring commits the membership change (version bump).
   Clients re-resolve ownership on their next op; fenced writers
   un-wedge onto the new owner.  Seals clear, the source's moved keys
   are purged quietly, and (shrink) the old shard retires out of the
   routing/watch surfaces.

Watch streams never close for a reshard: events for a moved key arrive
on the old owner's branch up to the seal and on the new owner's branch
from the flip, with the per-key revision order globally monotonic
(ingest floors the destination's revision counter at the source's).
"""

from repro.errors import ConfigurationError, StoreError
from repro.store.ring import key_in_ranges
from repro.store.client import ObjectClient

#: How often the catch-up pump drains its buffer onto the destination.
PUMP_INTERVAL = 0.005

#: How long to wait for a source shard's in-doubt 2PC participants to
#: drain before sealing anyway (coordinator recovery owns stragglers).
IN_DOUBT_TIMEOUT = 5.0


class _MigrationJob:
    """Moves one set of ring ranges from one source shard to one dest."""

    def __init__(self, engine, src, dest, ranges):
        self.engine = engine
        self.env = engine.env
        self.src = src
        self.dest = dest
        self.ranges = list(ranges)
        location = f"resharder@{engine.store.name}"
        self.src_client = ObjectClient(src, location)
        self.dest_client = ObjectClient(dest, location)
        self.moved_keys = set()
        self._buffer = []
        self._stop = False
        # Catch-up starts BEFORE the snapshot export: anything the
        # export misses is in the buffer, anything both carry is
        # deduplicated by revision on ingest.
        self.watch = self.src_client.watch(self._buffer.append)
        self.pump_proc = self.env.process(self._pump())
        self.copy_proc = self.env.process(self._copy())

    def _copy(self):
        export = yield self.src_client.request("export", ranges=self.ranges)
        yield self.dest_client.request(
            "ingest", entries=export["entries"],
            revision_floor=export["revision"],
        )

    def _pump(self):
        from repro.store.base import DELETED

        while True:
            if self._buffer:
                events, self._buffer = self._buffer, []
                entries, removes = [], []
                for event in events:
                    if not key_in_ranges(event.key, self.ranges):
                        continue
                    if event.type == DELETED:
                        removes.append(event.key)
                        continue
                    entries.append({
                        "key": event.key,
                        "data": event.object,
                        "revision": event.revision,
                        # Approximate timestamps; the authoritative
                        # reconcile pass restores the source's exactly.
                        "created_at": event.committed_at,
                        "updated_at": event.committed_at,
                        "labels": {},
                    })
                if entries or removes:
                    yield self.dest_client.request(
                        "ingest", entries=entries, remove=removes,
                    )
                continue
            if self._stop:
                return
            yield self.env.timeout(PUMP_INTERVAL)

    def finish(self):
        """Drain the pump, then run the authoritative reconcile pass."""
        self._stop = True
        yield self.pump_proc
        self.watch.cancel()
        src_export = yield self.src_client.request(
            "export", ranges=self.ranges
        )
        dest_export = yield self.dest_client.request(
            "export", ranges=self.ranges
        )
        src_keys = {entry["key"] for entry in src_export["entries"]}
        stale = [entry["key"] for entry in dest_export["entries"]
                 if entry["key"] not in src_keys]
        yield self.dest_client.request(
            "ingest", entries=src_export["entries"], remove=stale,
            revision_floor=src_export["revision"], authoritative=True,
        )
        self.moved_keys = src_keys


class Resharder:
    """Drives live topology changes for one :class:`ShardedStore`."""

    def __init__(self, store):
        self.store = store
        self.env = store.env
        self.active = False
        self._stats = {
            "reshards": 0, "transitions": 0, "keys_moved": 0,
            "ranges_moved": 0, "resyncs": 0, "last_duration": 0.0,
        }

    def stats(self):
        return dict(self._stats)

    def reshard(self, shard_count):
        return self.env.process(self._reshard(shard_count))

    def _reshard(self, shard_count):
        topology = self.store.topology
        if not (topology.min_shards <= shard_count
                <= topology.effective_max_shards):
            raise ConfigurationError(
                f"shard count {shard_count} outside topology bounds "
                f"[{topology.min_shards}, {topology.effective_max_shards}]"
            )
        if self.active:
            raise StoreError(
                f"store {self.store.name!r} is already resharding"
            )
        self.active = True
        started = self.env.now
        try:
            while self.store.shard_count < shard_count:
                yield self.env.process(self._grow_one())
            while self.store.shard_count > shard_count:
                yield self.env.process(self._shrink_one())
        finally:
            self.active = False
        self._stats["reshards"] += 1
        self._stats["last_duration"] = self.env.now - started
        return self.store.ring.version

    # -- single-member transitions ------------------------------------------

    def _grow_one(self):
        store, ring = self.store, self.store.ring
        member, shard = store._install_shard()
        moved = ring.preview_add(member)
        by_src = {}
        for lo, hi, src in moved:
            by_src.setdefault(src, []).append((lo, hi))
        jobs = [
            _MigrationJob(self, store.servers[src], shard, ranges)
            for src, ranges in by_src.items()
        ]
        yield from self._cutover(jobs, seal={
            src: ranges for src, ranges in by_src.items()
        })
        ring.add(member)
        for job in jobs:
            job.src.clear_sealed_ranges()
            # Quiet purge: the old owner forgets the moved keys (no
            # watch events -- observers follow the new owner's stream).
            if job.moved_keys:
                yield job.src_client.request(
                    "ingest", entries=[], remove=sorted(job.moved_keys),
                )
        self._account(moved, jobs)

    def _shrink_one(self):
        store, ring = self.store, self.store.ring
        victim_member = next(reversed(store.servers))  # newest retires first
        victim = store.servers[victim_member]
        moved = ring.preview_remove(victim_member)
        by_dest = {}
        for lo, hi, dest in moved:
            by_dest.setdefault(dest, []).append((lo, hi))
        jobs = [
            _MigrationJob(self, victim, store.servers[dest], ranges)
            for dest, ranges in by_dest.items()
        ]
        all_ranges = [(lo, hi) for lo, hi, _dest in moved]
        yield from self._cutover(jobs, seal={victim_member: all_ranges})
        ring.remove(victim_member)
        victim.clear_sealed_ranges()
        store._uninstall_shard(victim_member)
        self._account(moved, jobs)

    def _cutover(self, jobs, seal):
        """Copy -> drain in-doubt -> seal -> drain -> reconcile."""
        store = self.store
        if jobs:
            yield self.env.all_of([job.copy_proc for job in jobs])
        for member in seal:
            yield self.env.process(
                self._drain_in_doubt(store.servers[member])
            )
        pending = store.ring.version + 1
        for member, ranges in seal.items():
            store.servers[member].seal_ranges(ranges, ring_version=pending)
        yield self.env.timeout(store.topology.cutover_drain)
        for job in jobs:
            yield self.env.process(job.finish())

    def _drain_in_doubt(self, shard):
        """Wait (bounded) for prepared-but-undecided 2PC state to clear.

        Sealing under an in-doubt transaction would let its later commit
        mutate a moved range behind the migration's back; stragglers
        past the timeout belong to coordinator recovery, which re-groups
        against the live ring anyway.
        """
        waited = 0.0
        while shard.in_doubt_txns and waited < IN_DOUBT_TIMEOUT:
            yield self.env.timeout(0.01)
            waited += 0.01

    # -- accounting ----------------------------------------------------------

    def _account(self, moved, jobs):
        self._stats["transitions"] += 1
        self._stats["ranges_moved"] += len(moved)
        self._stats["keys_moved"] += sum(len(j.moved_keys) for j in jobs)
        self._stats["resyncs"] += len(jobs)
