"""Incrementally maintained materialized state for composed views.

One :class:`MaterializedView` keeps a local, continuously-updated copy
of every source of a :class:`~repro.federation.views.ComposedView`, fed
from the sources' watch streams through the view's service principal --
so each row arrives already masked exactly as a federated read through
the same principal would see it.

Each source is one :class:`~repro.store.follow.Mirror`, the client read
cache's copy: a broken stream is reopened, then caught up until the
store answers, and deliveries racing the catch-up drain after it.

- **Object sources** apply ADDED/MODIFIED/DELETED events guarded by
  revision, deletions included; catching up is a one-LIST rebuild.  Rows
  are built from the views at read time, ``{**data, "_key": key}``.
- **Log sources** (:class:`_LogTail`) keep the raw stamped records and
  a ``next_seq`` cursor.  A batch whose ``first_seq`` jumps past the
  cursor is a detected gap (a dropped watch message): the view
  re-queries ``since_seq=cursor`` with the :mod:`~repro.store.loglake`
  watermark hook and resumes from the exact sequence point.

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
from repro.store.follow import FollowerGroup, Mirror


class _SourceState:
    __slots__ = ("source", "kind", "mirror", "lag", "applied")

    def __init__(self, source, kind):
        self.source = source
        self.kind = kind  # "object" | "log"
        self.mirror = None  # a Mirror (object) or a _LogTail (log)
        self.lag = deque()  # (observed_at, lag): times rise, lags fall
        self.applied = 0


class _LogTail(Mirror):
    """A Log source's copy: ``views`` maps each ``_seq`` to its record, in
    order, from the stream and from ``since_seq=cursor`` re-queries; a
    batch past ``cursor`` (a gap) is buffered behind that re-query."""

    cursor = 0

    def _open(self, on_close):
        return self.handle.watch(self._deliver, on_close=on_close)

    def _deliver(self, event):
        if not self.resyncing and event.object["first_seq"] > self.cursor:
            self.follower.resync()  # makes the batch a buffered one
        super()._deliver(event)

    def _rebuild(self):
        answer = yield self.handle.query(
            ops=(), since_seq=self.cursor, include_watermark=True,
        )
        recovered = self._append(answer["records"])
        self.cursor = max(self.cursor, answer["watermark"])
        return recovered

    def _apply(self, event):
        count = self._append(event.object["records"])
        if count:
            self.on_apply(event.committed_at, event.ctx, count)

    def _append(self, records):
        """Take the records from the cursor on; returns how many."""
        fresh = [r for r in records if r["_seq"] >= self.cursor]
        self.views.update((r["_seq"], r) for r in fresh)
        if fresh:
            self.cursor = fresh[-1]["_seq"] + 1
        return len(fresh)


def _push_lag(samples, at, lag):
    """Append a lag sample, dropping the older ones it is no less than."""
    while samples and samples[-1][1] <= lag:
        samples.pop()
    samples.append((at, lag))


def _lookup(views, keys):
    """The rows of ``views`` under ``keys``, each once."""
    rows = {}
    for key in keys:
        try:
            if key in views and key not in rows:
                rows[key] = {**views[key]["data"], "_key": key}
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
        self._sources = {}
        for src in view.sources:
            state = _SourceState(src, kinds[src.alias])
            tail = Mirror if state.kind == "object" else _LogTail
            state.mirror = tail(env, handles[src.alias], "",
                                partial(self._applied, state),
                                partial(self._rebuilt, state))
            self._sources[src.alias] = state
        self.followers = FollowerGroup(
            state.mirror.follower for state in self._sources.values())

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Open the streams and seed every source; returns the seed process."""
        if self.followers.started:
            raise RuntimeError(f"view {self.view.name!r} already maintained")
        self.followers.start()
        return self.env.process(self._seed_all())

    def _seed_all(self):
        """The sources' first catch-ups, one after another."""
        for follower in self.followers.members:
            yield follower.resync()

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

    def _rebuilt(self, state, recovered):
        """A source's catch-up landed: the records it recovered stand in
        with the pipeline floor as their lag sample."""
        if recovered:
            state.applied += recovered
            _push_lag(state.lag, self.env.now, self.floor)
        if state.mirror.seeded:
            self._count("view_resyncs_total", source=state.source.alias)

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
            if state.mirror.resyncing:
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
                views = state.mirror.views
                out[alias] = _lookup(views, keys if src is root else (
                    row.get(src.on) for row in out[root.alias]))
                fed[alias] = len(views)
            else:
                # Deterministic _key order: both strategies must feed the
                # join identically-ordered rows or answer identity breaks
                # on order-sensitive ops (sort ties, head/tail).
                mirror = state.mirror
                rows = ([{**mirror.views[key]["data"], "_key": key}
                         for key in sorted(mirror.views)]
                        if state.kind == "object"
                        else list(mirror.views.values()))
                out[alias] = compile_ops(src.ops)(rows)
                fed[alias] = len(out[alias])
        return out, fed

    def status(self):
        return {
            alias: {
                "kind": state.kind,
                "applied": state.applied,
                "resyncs": state.mirror.resyncs,
                "resyncing": state.mirror.resyncing,
                "rows": len(state.mirror.views),
            }
            for alias, state in self._sources.items()
        }
