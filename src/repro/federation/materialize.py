"""Incrementally maintained materialized state for composed views.

One :class:`MaterializedView` keeps a local, continuously-updated copy
of every source of a :class:`~repro.federation.views.ComposedView`, fed
from the sources' watch streams through the view's service principal --
so each row arrives already masked exactly as a federated read through
the same principal would see it.

Maintenance reuses the delta-watch resilience machinery end to end:

- **Object sources** apply ADDED/MODIFIED/DELETED events guarded by
  revision (stale deliveries racing a rebuild are dropped); catching
  up is a one-LIST rebuild.
- **Log sources** keep the raw stamped records and a ``next_seq``
  cursor.  A batch whose ``first_seq`` jumps past the cursor is a
  detected gap (a dropped watch message): the view re-queries
  ``since_seq=cursor`` with the :mod:`~repro.store.loglake` watermark
  hook and resumes from the exact sequence point, buffering deliveries
  that race the catch-up.

Each source is held through a :class:`~repro.store.follow.Follower`: a
broken stream is reopened, then caught up until the store answers.

**Staleness estimate.**  Each applied event contributes an apply-lag
sample (``now - committed_at``, the same quantity the obs plane's
``watch_lag_seconds`` tracks).  :meth:`staleness` reports the worst
recent sample across sources but never less than a pipeline
``floor`` -- a materialized copy is never *perfectly* fresh,
even when every observed sample is zero -- and ``inf`` while any
source is resyncing, which is what forces the planner back to
federated reads until the view has provably caught up.
"""

from collections import deque
from functools import partial

from repro.query.core import compile_ops
from repro.store.follow import Follower, FollowerGroup


class _SourceState:
    __slots__ = (
        "source", "kind", "handle", "table", "revisions", "rows", "cursor",
        "seeded", "pending", "lag", "follower", "applied", "resyncs",
    )

    def __init__(self, source, kind, handle):
        self.source = source
        self.kind = kind  # "object" | "log"
        self.handle = handle
        self.table = {}  # object: key -> {**data, "_key": key}
        self.revisions = {}  # object: key -> last applied revision
        self.rows = []  # log: raw stamped records
        self.cursor = 0  # log: next _seq this copy expects
        self.seeded = False  # until the initial seed lands
        self.pending = []  # deliveries racing a catch-up
        self.lag = deque()  # (observed_at, lag): times rise, lags fall
        self.follower = None
        self.applied = 0
        self.resyncs = 0

    @property
    def resyncing(self):
        """Not answerable from: never seeded, or catching up after a
        stream break or a detected gap."""
        return not self.seeded or self.follower.catching_up


def _push_lag(samples, at, lag):
    """Append a lag sample, dropping the older ones it is no less than."""
    while samples and samples[-1][1] <= lag:
        samples.pop()
    samples.append((at, lag))


def _lookup(table, keys):
    """Copies of ``table``'s rows under ``keys``, each once."""
    rows = {}
    for key in keys:
        try:
            if key in table and key not in rows:
                rows[key] = dict(table[key])
        except TypeError:  # unhashable: the join raises too, or never asks
            pass
    return list(rows.values())


class MaterializedView:
    """The maintained local answer substrate for one composed view."""

    #: Sliding window (seconds) of apply-lag samples considered live.
    lag_window = 1.0
    #: Staleness reported when the window is quiet: the typical
    #: watch-pipeline latency an in-flight event would arrive with.
    floor = 0.002

    def __init__(self, env, view, handles, kinds, *, registry=None):
        self.env = env
        self.view = view
        self.registry = registry
        self._sources = {
            src.alias: _SourceState(src, kinds[src.alias], handles[src.alias])
            for src in view.sources
        }
        for state in self._sources.values():
            deliver = (self._on_object_event if state.kind == "object"
                       else self._on_log_batch)
            state.follower = Follower(
                env, partial(state.handle.watch, partial(deliver, state)),
                partial(self._catch_up, state))
        self.followers = FollowerGroup(
            state.follower for state in self._sources.values())

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Open the streams and seed every source; returns the seed process."""
        if self.followers.started:
            raise RuntimeError(f"view {self.view.name!r} already maintained")
        self.followers.start()
        return self.env.process(self._seed_all())

    def stop(self):
        self.followers.stop()

    def _seed_all(self):
        """The sources' first catch-ups, one after another."""
        for follower in self.followers.members:
            yield follower.resync()

    # -- object maintenance ------------------------------------------------

    def _on_object_event(self, state, event):
        if state.resyncing:
            # A rebuild (one LIST) is in flight and will overwrite the
            # table wholesale; buffer and drain behind the revision guard.
            state.pending.append(event)
        else:
            self._apply_object(state, event)

    def _apply_object(self, state, event):
        last = state.revisions.get(event.key)
        if last is not None and event.revision < last:
            return  # stale delivery racing a rebuild
        state.revisions[event.key] = event.revision
        if event.type == "DELETED":
            state.table.pop(event.key, None)
        else:
            state.table[event.key] = {**event.object, "_key": event.key}
        self._applied(state, event.committed_at, event.ctx, 1)

    # -- log maintenance ---------------------------------------------------

    def _on_log_batch(self, state, event):
        if state.resyncing:
            state.pending.append(event)
            return
        payload = event.object
        if payload["first_seq"] > state.cursor:
            # Gap: a watch message was dropped between cursor and this
            # batch.  Re-query from the cursor; the catch-up's watermark
            # covers this batch too, so it is not applied directly.
            state.follower.resync()
            state.pending.append(event)
            return
        self._apply_log_records(state, payload["records"], event)

    def _apply_log_records(self, state, records, event):
        fresh = [r for r in records if r["_seq"] >= state.cursor]
        if not fresh:
            return
        state.rows.extend(fresh)
        state.cursor = fresh[-1]["_seq"] + 1
        self._applied(state, event.committed_at, event.ctx, len(fresh))

    # -- catch-up (the seed, a stream break, a detected gap) ---------------

    def _catch_up(self, state):
        if state.kind == "object":
            views = yield state.handle.list()
            table, revisions = {}, dict(state.revisions)
            for view in views:
                key, revision = view["key"], view["revision"]
                if revisions.get(key, -1) > revision:
                    continue  # a watch event already moved past the LIST
                table[key] = {**view["data"], "_key": key}
                revisions[key] = revision
            state.table, state.revisions = table, revisions
        else:
            answer = yield state.handle.query(
                ops=(), since_seq=state.cursor, include_watermark=True,
            )
            synthetic_now = self.env.now
            fresh = [r for r in answer["records"] if r["_seq"] >= state.cursor]
            state.rows.extend(fresh)
            state.cursor = max(state.cursor, answer["watermark"])
            if fresh:
                state.applied += len(fresh)
                _push_lag(state.lag, synthetic_now, self.floor)
        if state.seeded:
            state.resyncs += 1
            self._count("view_resyncs_total", source=state.source.alias)
        state.seeded = True
        # Drain deliveries that raced the catch-up (already-covered seqs
        # and revisions fall out of the cursor and revision guards).
        pending, state.pending = state.pending, []
        for event in pending:
            if state.kind == "log":
                self._apply_log_records(state, event.object["records"], event)
            else:
                self._apply_object(state, event)

    # -- bookkeeping -------------------------------------------------------

    def _applied(self, state, committed_at, ctx, count):
        state.applied += count
        now = self.env.now
        if committed_at is not None:
            _push_lag(state.lag, now, now - committed_at)
            while state.lag and state.lag[0][0] < now - self.lag_window:
                state.lag.popleft()
        self._count("view_apply_events_total", source=state.source.alias,
                    amount=count)
        if self.registry is not None and committed_at is not None:
            self.registry.histogram(
                "view_apply_lag_seconds", view=self.view.name,
                source=state.source.alias,
            ).observe(now - committed_at)
        if ctx is not None and ctx.sink is not None:
            ctx.sink.point(
                "view_apply", service=f"view:{self.view.name}", parent=ctx,
                view=self.view.name, source=state.source.alias,
            )

    def _count(self, name, source, amount=1):
        if self.registry is not None:
            self.registry.counter(
                name, view=self.view.name, source=source
            ).inc(amount)

    # -- read side ---------------------------------------------------------

    def staleness(self, now=None):
        """Worst-case seconds this view's answer may lag the sources: the
        worst lag sample since ``now - lag_window`` -- the first one there,
        as samples keep rising times and falling lags -- at least ``floor``."""
        now = self.env.now if now is None else now
        horizon = now - self.lag_window
        worst = self.floor
        for state in self._sources.values():
            if state.resyncing:
                return float("inf")
            for at, lag in state.lag:
                if at >= horizon:
                    worst = max(worst, lag)
                    break
        return worst

    def tables(self, keys=None):
        """``(alias -> rows, alias -> rows the full join is fed)``: each
        source's rows sorted by ``_key`` and through its ``ops`` -- or,
        for a page (``keys``), an op-free Object source that is the root
        or joins on ``match == "_key"`` looks up copies of the rows under
        ``keys`` (root) or the root rows' ``on`` values, scanning none."""
        root = self.view.root
        out, fed = {}, {}
        for alias, state in self._sources.items():
            src = state.source
            if (keys is not None and state.kind == "object" and not src.ops
                    and (src is root or src.match == "_key")):
                out[alias] = _lookup(state.table, keys if src is root else (
                    row.get(src.on) for row in out[root.alias]))
                fed[alias] = len(state.table)
            else:
                # Deterministic _key order: both strategies must feed the
                # join identically-ordered rows or answer identity breaks
                # on order-sensitive ops (sort ties, head/tail).
                rows = (sorted((dict(r) for r in state.table.values()),
                               key=lambda r: r["_key"])
                        if state.kind == "object" else list(state.rows))
                out[alias] = compile_ops(src.ops)(rows)
                fed[alias] = len(out[alias])
        return out, fed

    def status(self):
        return {
            alias: {
                "kind": state.kind,
                "applied": state.applied,
                "resyncs": state.resyncs,
                "resyncing": state.resyncing,
                "rows": (len(state.table) if state.kind == "object"
                         else len(state.rows)),
            }
            for alias, state in self._sources.items()
        }
