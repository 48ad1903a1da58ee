"""Watch streams: the event, and both ends of one subscription.

This module owns what is *per stream*: the :class:`WatchEvent` wire
format and its size, and :class:`Watch`, which is at once the server's
sender for one subscriber (credit window, paused buffer, batch window,
delta encoder) and that subscriber's receiver (delta materialisation,
handler dispatch).  The halves talk only over the simulated links; they
share one object so the window and the revision chain are touched by
one class.  The per-commit fan-out loop and the aggregate
counters stay on :class:`~repro.store.base.StoreServer`.
"""

from dataclasses import dataclass, field

from repro.store.cow import estimate_size, merge_shared

#: Watch event types (mirroring the Kubernetes watch protocol).
ADDED = "ADDED"
MODIFIED = "MODIFIED"
DELETED = "DELETED"

#: Per-event wire framing overhead (type + revision fields), bytes.
EVENT_OVERHEAD = 24


@dataclass
class WatchEvent:
    """One change notification delivered to a watcher.

    ``delta``/``prev_revision`` carry the delta-encoding of a MODIFIED
    commit: a JSON-merge-patch that turns the object at
    ``prev_revision`` into the object at ``revision``.  On the wire a
    delta-encoded event has ``object=None``; the client-side
    :class:`Watch` materializes the full object before handlers see it.

    ``ctx`` is the causal :class:`~repro.obs.context.TraceContext` of
    the commit that produced this event (None for untraced writes);
    ``committed_at`` is the commit's virtual time, from which watchers
    derive delivery lag.  Both are trace
    metadata -- a handful of header bytes in a real system -- and are
    deliberately excluded from :meth:`wire_size` so enabling tracing
    never perturbs the simulated latency model.
    A plain record, immutable by convention once built.
    """

    type: str  # ADDED | MODIFIED | DELETED
    key: str
    object: dict
    revision: int
    delta: dict = None
    prev_revision: int = None
    ctx: object = None
    committed_at: float = None
    _wire_size: int = field(default=None, init=False, repr=False,
                            compare=False)

    def wire_size(self):
        """Bytes this event occupies in one watch message.

        Measured once per event: an event is immutable once committed,
        and fan-out hands the same one to every watcher.
        """
        if self._wire_size is None:
            # The object, else the delta it ships as, else a tombstone.
            body = self.object if self.object is not None else self.delta
            self._wire_size = len(self.key) + EVENT_OVERHEAD + (
                0 if body is None else estimate_size(body))
        return self._wire_size


class Watch:
    """A client's registration for change notifications on one server.

    Built registered on ``server``, delivering to the client at
    ``location``.  ``cancel()`` stops delivery: a message already on the
    link when the watch is cancelled, closed or broken is dropped on
    arrival.  Events are delivered over the server->client FIFO link, so
    a watcher sees changes in commit order.  When the server fails over,
    the watch is closed server-side and the client's ``on_close``
    callback (if any) fires.  A stream fails one way, by breaking
    (:meth:`break_connection`), and what follows -- reopen, then catch
    up, the way Kubernetes informers re-list -- is not this stream's
    job: consumers hold theirs through a
    :class:`~repro.store.follow.Follower`.

    A server with watch batching enabled delivers *lists* of events in
    one network message; :meth:`deliver` unpacks them and invokes
    ``handler`` once per event, in order, so batching is invisible to
    consumers (a level-triggered one wakes its worker once regardless:
    only the first kick of a delivery finds it waiting).

    Against a ``delta_watch`` server, :meth:`deliver` additionally
    **materializes** delta-encoded events: it keeps the last (revision,
    object) per key, applies merge-patch deltas by path copy, and hands
    handlers ordinary full-object events.  A delta whose
    ``prev_revision`` does not chain onto the held state is a **gap**:
    the stream breaks there, and nothing past it is handled.

    **Credit-based flow control** (``credits`` set): the stream carries
    a credit window, HTTP/2 style.  The server spends one credit per
    event sent and pauses fan-out when the window is empty; the client
    grants credits back after each delivery is dispatched.  While
    paused, events coalesce server-side per key (Object stores: newest
    wins -- safe, because the delta encoder re-anchors with a full
    snapshot whenever the revision chain breaks) or queue contiguously
    (Log stores, where every event carries distinct records).  A paused
    buffer that outgrows ``max_paused`` breaks the stream, so the
    watcher does one explicit resync -- *bounded memory, then recover*.
    Lost credit grants (faulted links) are not retransmitted; the stream
    simply stays paused until the full buffer breaks it, so a lossy link
    degrades, never leaks.
    """

    #: Per-stream monotonic counters, declared once: plain ints from 0;
    #: a :class:`~repro.store.sharded.MergedWatch` reads each as the sum
    #: over its per-shard branches.
    COUNTERS = (
        "delivered",
        "credit_pauses", "paused_coalesced", "forced_resyncs",
        "gaps_detected",
    )

    def __init__(self, location, server, handler, key_prefix="", on_close=None,
                 credits=None):
        self._server = server
        self.location = location
        self.handler = handler
        self.key_prefix = key_prefix
        self.on_close = on_close
        self.active = True
        for name in self.COUNTERS:
            setattr(self, name, 0)
        # -- credit window -------------------------------------------------
        self.credits = int(credits) if credits else None
        #: Coalesced-entry bound on the paused buffer before the stream
        #: breaks (four credit windows of slack).
        self.max_paused = 4 * self.credits if self.credits else None
        self._credits_remaining = self.credits
        #: Server-side paused buffer, oldest first.  The server class
        #: picks the slot an event takes: "newest" keys it by event key
        #: (a later commit replaces the earlier one in place), "append"
        #: gives every event a slot of its own.
        self._coalesce = server.WATCH_COALESCE
        self._paused = {}
        self._appended = 0
        self.peak_paused = 0
        self._batch = None  # events held until the server's batch window closes
        # Server-side delta-encoder state: last revision sent per key
        # (valid because the stream is reliable-until-broken FIFO).
        self._sent_revisions = {}
        # Client-side materializer state: key -> (revision, object).
        self._state = {}
        server.register_watch(self)

    # -- sender (runs at the server) -----------------------------------------

    def send(self, events):
        """Send ``events`` subject to the credit window.

        Events the window cannot afford go to the paused buffer
        (coalesced per the server's ``WATCH_COALESCE``); they flow once
        the client grants credits back.  Returns False if the stream
        broke.
        """
        if self.credits is None:
            return self._transmit(events)
        sendable = []
        for event in events:
            # A non-empty paused buffer forces buffering even with
            # credits in hand: FIFO order is part of the protocol.
            if self._paused or len(sendable) >= self._credits_remaining:
                self._buffer_paused(event)
                if not self.active:  # a full buffer broke the stream
                    return False
            else:
                sendable.append(event)
        if not sendable:
            return self.active
        return self._transmit(sendable)

    def send_batched(self, event):
        """Hold ``event`` until the server's batch window closes, then
        send everything held as one message, in commit order."""
        if self._batch is not None:
            self._batch.append(event)
            return
        self._batch = [event]
        timer = self._server.env.timeout(self._server.watch_batch_window)
        timer.callbacks.append(self._flush_batch)

    def _flush_batch(self, _evt):
        events, self._batch = self._batch, None
        if self.active:
            self.send(events)

    def grant(self, count):
        """Arrival of ``count`` credits at the server; drain what paused."""
        if not self.active:
            return
        self._server.watch_credit_grants += 1
        self._credits_remaining = min(self.credits, self._credits_remaining + count)
        while self.active and self._credits_remaining > 0:
            batch = self._take_paused(self._credits_remaining)
            if not batch or not self._transmit(batch):
                return

    def _transmit(self, events):
        """One network message carrying ``events``; False if it broke."""
        server = self._server
        encoded = [self._encode(event) for event in events]
        wire_bytes = sum(event.wire_size() for event in encoded)
        if self.credits is not None:
            # Spent at send time, not delivery: a lost message never
            # grants back, so losses shrink the effective window until
            # the full paused buffer breaks the stream.
            self._credits_remaining -= len(encoded)
        if server.take_watch_drop():
            # Lost AFTER encoding, so the sent-revision chain advances
            # past what the client holds: a delta gap, caught at the
            # key's next delta.
            return False
        link = server.network.link(server.location, self.location)
        if link.send(self.deliver, tuple(encoded), size=wire_bytes) is None:
            self.break_connection(server.watch_keepalive)
            return False
        server.watch_messages_sent += 1
        server.watch_events_sent += len(encoded)
        server.watch_wire_bytes += wire_bytes
        self.delivered += len(encoded)
        return True

    def _encode(self, event):
        """Wire encoding of ``event`` for this watcher.

        In delta mode, a MODIFIED commit whose predecessor revision is
        the last one sent on this stream ships as a merge-patch delta
        (``object=None``); anything else -- first sight of a key, a
        commit with no delta, or a chain break -- ships the full
        snapshot, re-anchoring the stream.  DELETED ships a tombstone.
        Valid because the stream is reliable-until-broken FIFO.
        """
        server = self._server
        if not server.delta_watch:
            return event
        key = event.key
        if event.type == DELETED:
            self._sent_revisions.pop(key, None)
            return WatchEvent(DELETED, key, None, event.revision,
                              ctx=event.ctx, committed_at=event.committed_at)
        last_sent = self._sent_revisions.get(key)
        self._sent_revisions[key] = event.revision
        if (
            event.delta is not None
            and event.prev_revision is not None
            and last_sent == event.prev_revision
        ):
            server.watch_deltas_sent += 1
            return WatchEvent(
                event.type, key, None, event.revision,
                delta=event.delta, prev_revision=event.prev_revision,
                ctx=event.ctx, committed_at=event.committed_at,
            )
        server.watch_fulls_sent += 1
        return WatchEvent(event.type, key, event.object, event.revision,
                          ctx=event.ctx, committed_at=event.committed_at)

    # -- paused buffer (server side) ----------------------------------------

    def _buffer_paused(self, event):
        """Coalesce one event into the paused buffer; a new entry that
        finds it full breaks the stream instead."""
        if not self._paused:
            self.credit_pauses += 1
            self._server.watch_pauses += 1
        if self._coalesce == "newest":
            slot = event.key
        else:  # append: log records are all distinct; never coalesce
            slot = self._appended = self._appended + 1
        if slot in self._paused:
            # Newest wins in place: the entry keeps its FIFO slot,
            # its payload becomes the latest commit.
            self._paused[slot] = event
            self.paused_coalesced += 1
            self._server.watch_paused_coalesced += 1
            return
        if len(self._paused) >= self.max_paused:
            # The consumer is too slow for bounded buffering: break the
            # stream, the watcher re-watches and resyncs -- one explicit
            # recovery instead of unbounded memory.
            self._force_resync()
            return
        self._paused[slot] = event
        self.peak_paused = max(self.peak_paused, len(self._paused))

    def _force_resync(self):
        self.forced_resyncs += 1
        self._server.watch_forced_resyncs += 1
        self._paused = {}
        self.break_connection(self._server.watch_keepalive)

    def _take_paused(self, count):
        """Dequeue up to ``count`` buffered events, oldest first."""
        slots = list(self._paused)[:count]
        return [self._paused.pop(slot) for slot in slots]

    # -- receiver (runs at the client) ----------------------------------------

    def deliver(self, events):
        """Client-side arrival of one network message (1+ events)."""
        if not self.active:
            # Sent before the cancel/close/break, arrived after it: after
            # a break this would be a stale event behind the resync.
            return
        tracer = self._server.tracer
        plane = tracer.plane if tracer is not None else None
        if plane is not None:
            now = self._server.env.now
            lag = plane.registry.histogram(
                "watch_lag_seconds", store=self._server.location)
            for event in events:
                if event.committed_at is not None:
                    # The commit's trace context rides the event; keeping
                    # it as an exemplar links a freshness-SLO violation
                    # straight to the causal DAG of the stale write.
                    ctx = event.ctx
                    lag.observe(
                        now - event.committed_at,
                        exemplar=ctx.trace_id if ctx is not None else None,
                    )
        ready = []
        for event in events:
            materialized = self._materialize(event)
            if materialized is None:  # a gap broke the stream
                break
            ready.append(materialized)
        for event in ready:
            self.handler(event)
        # Credits flow back only after the handler work is dispatched:
        # a consumer that falls behind simply grants later, and the
        # server's window -- not a queue -- absorbs the difference.
        if self.credits is not None and self.active:
            self._grant_credits(len(events))

    def _grant_credits(self, count):
        """Return ``count`` credits to the server over the reverse link.

        A grant lost to a faulted link is NOT retransmitted: the stream
        stays paused until the full paused buffer breaks it.
        """
        server = self._server
        link = server.network.link(self.location, server.location)
        link.send(self.grant, count)

    # -- delta materialization (no-op for snapshot streams) -----------------

    def _materialize(self, event):
        """The full-object event for ``event``; None on a gap, which
        breaks the stream."""
        if not self._server.delta_watch:
            return event
        key = event.key
        if event.type == DELETED:
            last = self._state.pop(key, None)
            if event.object is None and last is not None:
                # Tombstone on the wire; hand the handler the last-known
                # object, matching snapshot-stream semantics.
                return WatchEvent(DELETED, key, last[1], event.revision,
                                  ctx=event.ctx,
                                  committed_at=event.committed_at)
            return event
        if event.object is None and event.delta is not None:
            base = self._state.get(key)
            if base is None or base[0] != event.prev_revision:
                self.gaps_detected += 1
                self.break_connection(0.0)
                return None
            merged = merge_shared(base[1], event.delta)
            self._state[key] = (event.revision, merged)
            return WatchEvent(event.type, key, merged, event.revision,
                              ctx=event.ctx, committed_at=event.committed_at)
        self._state[key] = (event.revision, event.object)
        return event

    def matches(self, key):
        return self.active and key.startswith(self.key_prefix)

    def cancel(self):
        self.active = False
        self._server.unregister_watch(self)

    def close(self):
        """Server-initiated termination (failover): notify the client.

        The notification travels over the server->client link; when that
        link is faulted (partition/drop window) the client instead
        detects the dead connection via its own keepalive timer.
        """
        if not self.active:
            return
        link = self._server.network.link(self._server.location, self.location)
        self.cancel()
        if self.on_close is not None:
            if link.send(lambda _msg: self.on_close(), None) is None:
                self._detect_break(self._server.watch_keepalive)

    def break_connection(self, detect_after=0.0):
        """The delivery stream broke (partition, crash, a delta gap, a
        full paused buffer).

        The server cannot reach the client, so ``on_close`` fires from the
        client's *own* keepalive timer after ``detect_after`` seconds of
        virtual time -- no network delivery involved.  To the watcher it
        is the same break as a failover.
        """
        if not self.active:
            return
        self.cancel()
        self._detect_break(detect_after)

    def _detect_break(self, detect_after):
        if self.on_close is None:
            return
        timer = self._server.env.timeout(detect_after)
        timer.callbacks.append(lambda _evt: self.on_close())
