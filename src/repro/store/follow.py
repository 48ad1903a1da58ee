"""Following a store: open -> break -> reopen -> catch up, written once.

Every consumer that "responds to state updates from the data store"
(paper §3.2) -- reconcilers, Cast, Sync, Rollup, in-store functions,
materialized views, the client read cache -- holds a watch stream, and
any stream can break (failover, crash, partition, a delta gap, a
credit-forced slow-consumer resync).  What happens then is the same
for all of them and lives here; what "caught up" means stays with each
consumer.  One that only holds the store's keyed state locally takes a
:class:`Mirror`.
"""

from repro.errors import ConflictError, UnavailableError


#: Attempts a consumer gives a store that keeps failing before it gives
#: up on it: over 90 s of :func:`capped_exponential`.
RIDE_OUT = 100

#: Failures that waiting may cure: a store down, a write raced.
TRANSIENT = (UnavailableError, ConflictError)


def capped_exponential(attempt):
    """5 ms doubling to a 1 s cap; no randomness, so no seeded stream of
    draws anywhere is perturbed by a consumer riding an outage."""
    return min(1.0, 0.005 * (2 ** min(attempt, 8)))


class Follower:
    """One consumer's hold on one store stream, across breaks.

    ``open_stream(on_close=...)`` is the consumer's own watch call, as a
    rule ``partial(handle.watch, handler)``, and returns the stream
    (anything with ``cancel()``): deliveries go straight to the
    consumer's handler, the follower is never on the per-event path.
    ``catch_up()`` is a generator that brings the consumer level with
    the store's current state (re-list and mark dirty, query from the
    cursor, rebuild the table ...), or a plain call that queues that
    work with the consumer's :class:`~repro.store.workqueue.WorkQueue`.
    When the stream breaks the follower

    1. **reopens first** -- the new stream is registered before anything
       is listed, so nothing committed after the list can be missed;
    2. **then catches up**, until the store answers: transient failures
       are ridden out, sleeping ``backoff(attempt)`` between attempts and
       telling ``on_transient()`` of each (the Reconciler passes its
       seeded jitter and its counter; everyone else takes the defaults);
    3. **one catch-up at a time** -- a break that lands while one runs
       makes it run exactly once more when it finishes.
    """

    def __init__(self, env, open_stream, catch_up, backoff=None,
                 on_transient=None):
        self.env = env
        self._open_stream = open_stream
        self._catch_up = catch_up
        self._backoff = backoff or capped_exponential
        self._on_transient = on_transient
        self.started = False
        self.stream = None
        self.breaks = 0  # stream breaks seen while started
        self._process = None  # the catch-up loop, while one runs
        self._again = False  # a request arrived while it ran

    @property
    def catching_up(self):
        """True from a catch-up's request until the store has answered."""
        return self._process is not None

    def start(self):
        if not self.started:
            self.started = True
            self.reopen()

    def stop(self):
        """Cancel the stream; a running catch-up ends at its next attempt,
        and a break reported after this is ignored."""
        self.started = False
        if self.stream is not None:
            self.stream.cancel()
            self.stream = None

    def reopen(self):
        """Swap in a fresh stream, cancelling the old one; no catch-up."""
        if self.stream is not None:
            self.stream.cancel()
        self.stream = self._open_stream(on_close=self._on_close)

    def resync(self):
        """Request one catch-up; returns the process running it.  One
        requested while another runs is served by a single further run."""
        if self._process is None:
            self._process = self.env.process(self._run())
        else:
            self._again = True
        return self._process

    def _on_close(self):
        if self.started:
            self.breaks += 1
            self.reopen()
            self.resync()

    def _run(self):
        try:
            while True:
                self._again = False
                # A store down for all of these is given up on until the
                # next break or request.
                for attempt in range(RIDE_OUT):
                    if not self.started:
                        return
                    try:
                        work = self._catch_up()
                        if work is not None:
                            yield from work
                        break
                    except TRANSIENT:
                        if self._on_transient is not None:
                            self._on_transient()
                        yield self.env.timeout(self._backoff(attempt))
                if not self._again:
                    return
        finally:
            self._process = None


class FollowerGroup:
    """One consumer's followers, started, stopped and caught up as one;
    :meth:`swap` stops each one dropped and, while the group is started,
    starts each new one (one kept keeps its stream) and returns them."""

    def __init__(self, members):
        self.members = list(members)
        self.started = False

    def start(self):
        self.started = True
        for follower in self.members:
            follower.start()

    def stop(self):
        self.started = False
        for follower in self.members:
            follower.stop()

    def resync(self):
        for follower in self.members:
            follower.resync()

    def swap(self, members):
        for follower in self.members:
            if follower not in members:
                follower.stop()
        fresh = [f for f in members if self.started and f not in self.members]
        self.members = list(members)
        for follower in fresh:
            follower.start()
        return fresh


class Mirror:
    """A store's keyed state under ``prefix``, held locally: ``views`` maps
    each key to the store's view, fed by the watch stream of ``handle`` (a
    store client or an exchange handle) and rebuilt by one LIST after each
    break through ``follower``, which the owner starts.  Per-key
    ``revisions`` keep deletions too and guard every write, so a LIST that
    raced a deletion cannot bring the key back; deliveries racing a rebuild
    are buffered and drained behind the guard.  Hooks, None or called:
    ``on_apply(committed_at, ctx, count)`` per delivery applied, and
    ``on_rebuild(recovered)`` per rebuild, before the drain (``seeded`` is
    False on the first; ``recovered``: records a Log tail appended).
    """

    def __init__(self, env, handle, prefix, on_apply, on_rebuild):
        self.env = env
        self.handle = handle
        self.prefix = prefix
        self.on_apply = on_apply
        self.on_rebuild = on_rebuild
        self.views = {}
        self.revisions = {}
        self.seeded = False  # until the first rebuild lands
        self.resyncs = 0  # rebuilds after the first
        self._pending = []  # deliveries racing a rebuild
        self.follower = Follower(env, self._open, self._catch_up)

    @property
    def resyncing(self):
        """Not answerable from: never seeded, or catching up after a
        stream break or a detected gap."""
        return not self.seeded or self.follower.catching_up

    def _open(self, on_close):
        return self.handle.watch(self._deliver, self.prefix,
                                 on_close=on_close)

    def _deliver(self, event):
        if self.resyncing:
            self._pending.append(event)
        else:
            self._apply(event)

    def _catch_up(self):
        recovered = yield from self._rebuild()
        if self.on_rebuild is not None:
            self.on_rebuild(recovered)
        if self.seeded:
            self.resyncs += 1
        self.seeded = True
        pending, self._pending = self._pending, []
        for event in pending:
            self._apply(event)

    def _rebuild(self):
        views = yield self.handle.list(self.prefix)
        self.views = {}
        for view in views:
            key, revision = view["key"], view["revision"]
            # Dropped when a delivery, a deletion too, moved past it.
            if self.revisions.get(key, -1) <= revision:
                self.views[key] = view
                self.revisions[key] = revision

    def _apply(self, event):
        key = event.key
        last = self.revisions.get(key)
        if last is not None and event.revision < last:
            return  # stale delivery racing a rebuild
        self.revisions[key] = event.revision
        if event.type == "DELETED":
            self.views.pop(key, None)
        else:
            held = self.views.get(key)
            self.views[key] = {
                "key": key,
                "data": event.object,
                "revision": event.revision,
                "created_at": held["created_at"] if held else None,
                "updated_at": self.env.now,
            }
        if self.on_apply is not None:
            self.on_apply(event.committed_at, event.ctx, 1)
