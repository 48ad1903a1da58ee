"""A Zed-lake-like Log store.

The Log Data Exchange keeps state as structured / semi-structured records
in append-only *pools* and exposes data ingestion (``load``) plus analytics
(``query``) APIs.  Queries are :mod:`repro.query` pipelines executed
server-side.

Records are plain dicts; the lake stamps each with ``_seq`` (a pool-unique,
monotonically increasing sequence number) and ``_ts`` (ingest time).
Watchers subscribe per pool and receive each loaded batch.
"""

from repro.errors import AlreadyExistsError, NotFoundError, StoreError
from repro.obs.context import current_context
from repro.store.base import OpLatency, StoreClient, StoreServer, WatchEvent
from repro.query.core import compile_ops

#: Event type for log-batch delivery (pools are append-only: no MODIFIED).
APPENDED = "APPENDED"

DEFAULT_OPS = {
    "create_pool": OpLatency(base=0.0010),
    "load": OpLatency(base=0.0008, per_byte=2e-9),
    "query": OpLatency(base=0.0010),
    "stats": OpLatency(base=0.0003),
    "pools": OpLatency(base=0.0003),
}


class _Pool:
    """One append-only pool.  ``records[i]["_seq"] == i`` always: rows are
    only ever appended, from seq 0.  Retention that trims the head would
    have to carry a base offset to keep range scans a slice.
    """

    __slots__ = ("name", "records", "next_seq", "created_at")

    def __init__(self, name, created_at):
        self.name = name
        self.records = []
        self.next_seq = 0
        self.created_at = created_at


class LogLake(StoreServer):
    """The server side of the Log store."""

    OPS = dict(DEFAULT_OPS)

    #: Credit-paused watch buffers queue batches contiguously: every
    #: APPENDED event carries distinct records, so newest-wins coalescing
    #: would silently lose data.
    WATCH_COALESCE = "append"

    #: Server-side scan cost per record touched by a query.
    scan_cost_per_record = 2e-7

    def __init__(self, env, network, location="loglake", tracer=None,
                 watch_overhead=0.0003, zero_copy=True):
        super().__init__(env, network, location, tracer=tracer,
                         zero_copy=zero_copy)
        self._pools = {}
        self.watch_overhead = watch_overhead

    # -- operations -----------------------------------------------------------

    def op_create_pool(self, pool):
        if pool in self._pools:
            raise AlreadyExistsError(f"pool {pool!r} already exists")
        self._pools[pool] = _Pool(pool, self.env.now)
        return {"pool": pool}

    def op_load(self, pool, records):
        """Append a batch of records; returns the assigned seq range."""
        target = self._pool(pool)
        if not isinstance(records, list):
            raise StoreError("load expects a list of records")
        first_seq = target.next_seq
        stamped = []
        for record in records:
            if not isinstance(record, dict):
                raise StoreError(f"records must be dicts, got {type(record).__name__}")
            # One row shared by the pool, watch events, and every later
            # scan; the stamp fields ride the ingest copy.
            stamped.append(self.copies.ingest(
                record, self.copy_meter,
                stamp={"_seq": target.next_seq, "_ts": self.env.now},
            ))
            target.next_seq += 1
        target.records.extend(stamped)
        if self.tracer is not None:
            self.tracer.record(
                "store", "load", location=self.location, pool=pool,
                count=len(stamped),
            )
        if stamped:
            ctx = current_context()
            if ctx is not None and ctx.sink is not None:
                ctx = ctx.sink.point(
                    "load", service=self.location, parent=ctx, pool=pool,
                    store=pool, count=len(stamped),
                )
            event = WatchEvent(
                APPENDED, pool, {"records": stamped, "first_seq": first_seq},
                revision=target.next_seq,
                ctx=ctx, committed_at=self.env.now,
            )
            if self.watch_overhead <= 0:
                self.notify(event)
            else:
                timer = self.env.timeout(self.watch_overhead)
                timer.callbacks.append(lambda _evt: self.notify(event))
        return {"pool": pool, "first_seq": first_seq, "count": len(stamped)}

    def op_query(self, pool, ops=(), since_seq=None, until_seq=None,
                 include_watermark=False):
        """Run a ZQL pipeline over the pool (optionally a seq range).

        ``since_seq`` is inclusive, ``until_seq`` exclusive; each is an
        integer or ``None`` (anything else is a :class:`StoreError`).  A
        bound below 0 or beyond the watermark clamps, and an inverted
        range is empty -- what comparing every row's ``_seq`` would
        answer.  Implemented as a sub-process: scan time is proportional
        to the number of records scanned.

        ``include_watermark=True`` is the federation scan hook: the
        answer becomes ``{"records": [...], "watermark": next_seq}`` so
        a federated read (or a materialized view's catch-up) can stamp
        the exact sequence point its snapshot covers and resume from it
        without re-scanning.
        """
        target = self._pool(pool)
        watermark = target.next_seq
        for bound in (since_seq, until_seq):
            if bound is not None and not isinstance(bound, int):
                raise StoreError(
                    "since_seq/until_seq must be integers or None, "
                    f"got {bound!r}"
                )
        # A pool is append-only from seq 0, so ``_seq`` is the row index
        # and a seq range is a slice: O(result), however large the pool.
        # Bounds clamp at 0 (a negative index would count from the end);
        # the slice itself clamps at the watermark.
        first = 0 if since_seq is None else max(since_seq, 0)
        last = watermark if until_seq is None else max(until_seq, 0)
        scanned = target.records[first:last]
        pipeline = compile_ops(list(ops))

        def run(env):
            delay = len(scanned) * self.scan_cost_per_record
            if delay > 0:
                yield env.timeout(delay)
            # ZQL stages copy-before-mutate, so rows flow through the
            # pipeline as the copy policy hands them out.
            records = pipeline([
                self.copies.snapshot(row, self.copy_meter, "scan")
                for row in scanned
            ])
            if include_watermark:
                return {"records": records, "watermark": watermark}
            return records

        return run(self.env)

    def op_stats(self, pool):
        target = self._pool(pool)
        return {
            "pool": pool,
            "records": len(target.records),
            "next_seq": target.next_seq,
            "created_at": target.created_at,
        }

    def op_pools(self):
        return sorted(self._pools)

    # -- internals ------------------------------------------------------------

    def _pool(self, name):
        pool = self._pools.get(name)
        if pool is None:
            raise NotFoundError(f"pool {name!r} not found")
        return pool


class LogLakeClient(StoreClient):
    """Typed convenience client for the Log store."""

    def create_pool(self, pool):
        return self.request("create_pool", pool=pool)

    def load(self, pool, records):
        return self.request("load", pool=pool, records=records)

    def query(self, pool, ops=(), since_seq=None, until_seq=None,
              include_watermark=False):
        return self.request(
            "query", pool=pool, ops=list(ops),
            since_seq=since_seq, until_seq=until_seq,
            include_watermark=include_watermark,
        )

    def stats(self, pool):
        return self.request("stats", pool=pool)

    def pools(self):
        return self.request("pools")

    def watch_pool(self, pool, handler):
        """Subscribe to batches appended to ``pool``."""
        return self.watch(handler, key_prefix=pool)
