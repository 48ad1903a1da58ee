"""The cross-shard transaction coordinator: deterministic 2PC.

A :class:`ShardedStore` has no global commit order -- each shard is its
own server with its own revision counter -- so a batch whose keys span
shards needs a protocol, not a lie.  :class:`TxnCoordinator` offers one
atomic model, as Apiary does for in-store transactional functions:

**Two-phase commit** (``mode="2pc"``): every participant shard validates
and *prepares* the sub-batch it owns (locking the keys and -- on the
durable backend -- persisting a WAL marker), then the coordinator appends
a commit decision to its own durable log and drives each participant's
commit.  The decision append is the commit point: a coordinator killed
before it recovers by presumed abort; killed after, by re-driving the
(idempotent) participant commits.  Atomic, but in-doubt participants
block conflicting writers until a decision lands -- the classic 2PC
availability trade.

**Exactly-once**: callers tag a transaction with an ``idempotence_key``.
The first submission owns the key; duplicates -- client retries after a
lost reply, DLQ replays, crash-recovery re-submissions -- either wait for
the in-flight original or return its recorded outcome without touching
any shard.  A key whose transaction *aborted* (zero effects) is released,
so a retry can run fresh.

Determinism: shard groups are visited in sorted order, txn ids come from
a counter, retry jitter comes from a seeded RNG, and phase-targeted kills
(:meth:`arm_phase_kill`, used by ``FaultPlan.kill_during_txn``) trigger
at protocol points rather than at wall-clock times -- the same seed
replays the same interleaving, including the chaos.
"""

import random

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ShardMovedError,
    StoreError,
    UnavailableError,
)
from repro.obs.context import current_context
from repro.simnet import Interrupt
from repro.store.client import ObjectClient

#: How long a duplicate submission polls an in-flight original before
#: giving up retryably (virtual seconds).
_WAIT_TIMEOUT = 5.0
_WAIT_TICK = 0.002

#: Phases a chaos plan can target with an armed kill.
PHASES = ("prepare", "commit", "abort")


class _Killed(Exception):
    """Internal: an armed phase kill fired inside this coordination."""


class TxnCoordinator:
    """Cross-shard transactions over one :class:`ShardedStore`.

    The coordinator is a killable *process* (register it with a
    :class:`~repro.faults.FaultInjector` to chaos-test it): ``kill()``
    loses every in-flight coordination but keeps the decision log and
    idempotence table (its "disk"); ``restart()`` runs recovery, which
    re-drives decided commits and presumed-aborts undecided prepares --
    draining every participant's in-doubt set.  Spans go to the caller's
    trace, or to :attr:`tracer` when one is set.
    """

    #: Tries per participant call before an outage surfaces (see
    #: :meth:`_call`).
    MAX_ATTEMPTS = 200

    def __init__(self, store):
        self.store = store
        self.env = store.env
        self.location = f"{store.name}-txncoord"
        self.tracer = None
        self._rng = random.Random(0)
        # Per-shard clients, minted on demand: the shard set is live
        # (resharding adds and retires members), so clients key off the
        # shard server, not a positional index.
        self._clients = {}
        # -- durable state (the coordinator's "disk"): survives kill() --
        self._log = {}  # txn_id -> record dict
        self._order = []  # txn ids in admission order
        self._idem = {}  # idempotence_key -> txn_id
        self._seq = 0
        # -- volatile state: lost on kill() --
        self._inflight = {}  # txn_id -> simnet process
        self.alive = True
        self._phase_kill = None  # (phase, restart_after) or None
        # -- counters (scraped by the obs plane) --
        self.prepared_total = 0
        self.committed_total = 0
        self.aborted_total = 0
        self.idempotent_replays = 0
        self.unknown_participants = 0
        self.kill_count = 0
        self.recoveries = 0

    # -- public surface ------------------------------------------------------

    def txn(self, ops, mode="2pc", idempotence_key=None):
        """Run ``ops`` atomically across shards; returns a simnet process.

        The caller's ambient trace context is captured synchronously, so
        the transaction's span tree chains onto the request that issued
        it.  Raises through the process event:
        :class:`~repro.errors.UnavailableError` (retryable -- coordinator
        down or killed mid-flight; retry with the same
        ``idempotence_key`` for exactly-once), or the participant's
        validation error on abort.
        """
        if mode != "2pc":
            raise ConfigurationError(f"unknown txn mode {mode!r} (use '2pc')")
        parent = current_context()
        return self.env.process(self._submit(ops, idempotence_key, parent))

    def txn_stats(self):
        return {
            "prepared": self.prepared_total,
            "committed": self.committed_total,
            "aborted": self.aborted_total,
            "idempotent_replays": self.idempotent_replays,
            "unknown_participants": self.unknown_participants,
            "recoveries": self.recoveries,
            "in_flight": len(self._inflight),
        }

    def outcome(self, txn_id):
        record = self._log.get(txn_id)
        return record["state"] if record else None

    # -- process fault surface (repro.faults) --------------------------------

    def kill(self):
        """Crash the coordinator: in-flight coordinations die mid-phase.

        Callers see a retryable :class:`~repro.errors.UnavailableError`;
        participants are left prepared (in-doubt) until :meth:`restart`
        runs recovery.  The decision log and
        idempotence table survive -- they are the protocol's disk.
        """
        if not self.alive:
            return
        self.alive = False
        self.kill_count += 1
        self._phase_kill = None
        inflight, self._inflight = self._inflight, {}
        for proc in inflight.values():
            if proc.is_alive and proc is not self.env.active_process:
                self._orphan_target(proc)
                proc.interrupt("txn coordinator killed")

    def restart(self):
        """Recover after :meth:`kill`: resolve every undecided record."""
        if self.alive:
            return
        self.alive = True
        self.env.process(self._recover())

    def arm_phase_kill(self, phase, restart_after=None):
        """Kill the coordinator when the NEXT coordination enters ``phase``.

        Deterministic chaos: instead of racing a timer against the
        protocol, the kill lands exactly at the phase boundary --
        ``"commit"`` means "immediately after the durable commit
        decision, before any participant commit lands", the classic
        in-doubt window.  With ``restart_after`` the coordinator
        schedules its own restart; a :class:`~repro.faults.FaultInjector`
        passes None and restarts it at the fault window's end instead.
        """
        if phase not in PHASES:
            raise ConfigurationError(
                f"unknown txn phase {phase!r} (use one of {PHASES})"
            )
        self._phase_kill = (phase, restart_after)

    def disarm_phase_kill(self):
        self._phase_kill = None

    def _maybe_phase_kill(self, phase):
        armed = self._phase_kill
        if armed is None or armed[0] != phase or not self.alive:
            return
        self._phase_kill = None
        restart_after = armed[1]
        # Kill every OTHER in-flight coordination; this one dies by
        # raising (interrupting the currently-running process from
        # inside itself is not a thing).
        self.alive = False
        self.kill_count += 1
        inflight, self._inflight = self._inflight, {}
        for proc in inflight.values():
            # Every OTHER coordination gets interrupted at its current
            # yield; we (the active process) die by raising below.
            if proc.is_alive and proc is not self.env.active_process:
                self._orphan_target(proc)
                proc.interrupt("txn coordinator killed")
        if restart_after is not None:
            timer = self.env.timeout(restart_after)
            timer.callbacks.append(lambda _evt: self.restart())
        raise _Killed(phase)

    @staticmethod
    def _orphan_target(proc):
        """Abandon whatever participant call ``proc`` is waiting on.

        The interrupted coordination will never collect the reply; if
        the abandoned request later fails (a conflict, an outage...),
        that answer must evaporate with its asker, not
        crash the event loop as an unhandled failure.
        """
        target = proc.target
        if target is not None:
            target._defused = True

    # -- submission / idempotence --------------------------------------------

    def _submit(self, ops, idempotence_key, parent):
        if not self.alive:
            raise UnavailableError("txn coordinator is down")
        if idempotence_key is not None:
            known = self._idem.get(idempotence_key)
            if known is not None:
                result = yield from self._await_duplicate(known)
                if result is not _RETRY_FRESH:
                    return result
                # Prior owner aborted with zero effects: run fresh.
        txn_id = self._next_txn_id()
        record = {
            "id": txn_id,
            "ops": [dict(op) for op in ops],
            "state": "preparing",
            "views": None,
            "error": None,
            "idempotence_key": idempotence_key,
        }
        self._log[txn_id] = record
        self._order.append(txn_id)
        if idempotence_key is not None:
            self._idem[idempotence_key] = txn_id
        result = yield from self._coordinate(txn_id, record, parent)
        return result

    def _await_duplicate(self, txn_id):
        """Second submission under a taken idempotence key.

        Waits out an in-flight original, then maps the terminal state:
        committed -> its recorded views (exactly-once: nothing re-runs);
        aborted -> ``_RETRY_FRESH`` (zero effects happened, the key is
        released and the duplicate may run as a new txn).
        """
        record = self._log[txn_id]
        waited = 0.0
        while record["state"] in ("preparing", "commit", "aborting"):
            if waited >= _WAIT_TIMEOUT:
                raise UnavailableError(
                    f"transaction {txn_id} is still undecided; retry"
                )
            yield self.env.timeout(_WAIT_TICK)
            waited += _WAIT_TICK
        if record["state"] == "committed":
            self.idempotent_replays += 1
            return record["views"]
        return _RETRY_FRESH

    def _next_txn_id(self):
        self._seq += 1
        return f"txn-{self._seq:06d}"

    # -- the coordination process --------------------------------------------

    def _coordinate(self, txn_id, record, parent):
        self._inflight[txn_id] = self.env.active_process
        ctx = self._start_span("txn", parent, txn=txn_id, mode="2pc")
        try:
            views = yield from self._run_2pc(txn_id, record, ctx)
        except Interrupt:
            self._end_span(ctx, outcome="killed")
            raise UnavailableError(
                f"txn coordinator killed while coordinating {txn_id}; "
                "retry with the same idempotence key"
            ) from None
        except _Killed as killed:
            self._end_span(ctx, outcome=f"killed-at-{killed.args[0]}")
            raise UnavailableError(
                f"txn coordinator killed at {killed.args[0]} of {txn_id}; "
                "retry with the same idempotence key"
            ) from None
        except StoreError as exc:
            record["error"] = exc
            self._end_span(ctx, outcome=type(exc).__name__)
            raise
        finally:
            self._inflight.pop(txn_id, None)
        self._end_span(ctx, outcome="ok")
        return views

    def _groups(self, ops):
        """Deterministic shard grouping: sorted ring member -> sub-batch.

        Groups key off stable ring member ids (the live ring's ownership
        at call time), not positional indices -- a reshard between
        grouping and recovery still resolves the same participants.
        """
        ring = self.store.ring
        groups = {}
        for op in ops:
            member = ring.owner_of(str(op.get("key") or ""))
            groups.setdefault(member, []).append(op)
        return [(member, groups[member]) for member in sorted(groups)]

    def _client_for_shard(self, member, sub=None):
        """Client for ring ``member``; falls back to the current owner
        of the sub-batch's first key when the member has retired (its
        prepared state, if any, answers ``"unknown"`` harmlessly).
        """
        shard = self.store.servers.get(member)
        if shard is None:
            key = str(sub[0].get("key") or "") if sub else ""
            shard = self.store.shard_for(key)
        client = self._clients.get(shard)
        if client is None:
            client = self._clients[shard] = ObjectClient(shard, self.location)
        return client

    # -- 2PC -----------------------------------------------------------------

    #: Prepare rounds a 2PC retries when the ring flips under it before
    #: surfacing a retryable error.  Two covers one full reshard step.
    RING_REGROUP_ATTEMPTS = 8

    def _run_2pc(self, txn_id, record, ctx):
        # Ring-version fencing: the shard grouping is only valid at the
        # ring version it was computed against.  A prepare that lands on
        # a sealed range (ShardMovedError) means the batch raced a
        # reshard cutover -- undo this round's prepares under the
        # round-scoped wire id, re-group against the live ring, and try
        # again with a fresh wire id (participants have already recorded
        # a terminal "aborted" outcome for the old one).
        for regroup in range(self.RING_REGROUP_ATTEMPTS):
            record["wire_id"] = txn_id if regroup == 0 else (
                f"{txn_id}.r{regroup}"
            )
            record["ring_version"] = self.store.ring.version
            groups = self._groups(record["ops"])
            record["groups"] = groups  # durable: recovery re-targets these
            # Phase 1: prepare every participant, in shard order.
            self._maybe_phase_kill("prepare")
            span = self._start_span("txn-prepare", ctx, txn=txn_id,
                                    participants=len(groups),
                                    ring_version=record["ring_version"])
            try:
                for member, sub in groups:
                    yield from self._call(
                        lambda: self._client_for_shard(member, sub)
                        .txn_prepare(record["wire_id"], sub)
                    )
            except ShardMovedError:
                self._end_span(span, outcome="ring-moved")
                yield from self._drive_aborts(txn_id, record, groups, ctx,
                                              terminal=False)
                # Growing backoff: later rounds must outlast a full
                # cutover seal window (drain + reconcile), not just the
                # instant of the flip.
                yield self.env.timeout(0.01 * (regroup + 1))
                continue
            except (UnavailableError, DeadlineExceededError):
                # Could not reach a participant at all: presumed abort.
                self._end_span(span, outcome="unreachable")
                yield from self._drive_aborts(txn_id, record, groups, ctx)
                raise
            except StoreError as exc:
                # Validation failed on some shard: abort the others.
                self._end_span(span, outcome=type(exc).__name__)
                yield from self._drive_aborts(txn_id, record, groups, ctx)
                raise
            self._end_span(span, outcome="ok")
            self.prepared_total += len(groups)
            # The commit point: one durable append to the decision log.
            record["state"] = "commit"
            if ctx is not None:
                ctx.sink.annotate(ctx, "decision", decision="commit")
            self._maybe_phase_kill("commit")
            # Phase 2: drive every participant commit (idempotent;
            # retried through unavailability until it lands).
            views = yield from self._drive_commits(txn_id, record, groups,
                                                   ctx)
            return views
        # The ring kept moving for longer than any single reshard step
        # can take: give up retryably with nothing applied.
        yield from self._drive_aborts(txn_id, record,
                                      self._groups(record["ops"]), ctx)
        raise UnavailableError(
            f"txn {txn_id}: ring membership kept changing during prepare "
            f"({self.RING_REGROUP_ATTEMPTS} rounds); retry"
        )

    def _drive_commits(self, txn_id, record, groups, ctx):
        span = self._start_span("txn-commit", ctx, txn=txn_id)
        wire_id = record.get("wire_id") or txn_id
        views = []
        for member, sub in groups:
            reply = yield from self._call(
                lambda: self._client_for_shard(member, sub)
                .txn_commit(wire_id)
            )
            if reply["state"] == "unknown":
                # The participant lost its prepared state (non-durable
                # backend crash): its keyspace is gone wholesale, so
                # atomicity is vacuously preserved.  Count it -- chaos
                # runs assert this only happens to memkv shards.
                self.unknown_participants += 1
            if reply.get("views"):
                views.extend(reply["views"])
        record["state"] = "committed"
        record["views"] = views
        self.committed_total += 1
        self._end_span(span, outcome="ok")
        return views

    def _drive_aborts(self, txn_id, record, groups, ctx, terminal=True):
        """Abort ``groups``; ``terminal=False`` is the ring-regroup
        path, which clears this round's prepares without recording a
        transaction-level abort (a fresh round follows)."""
        record["state"] = "aborting"
        self._maybe_phase_kill("abort")
        span = self._start_span("txn-abort", ctx, txn=txn_id)
        wire_id = record.get("wire_id") or txn_id
        for member, sub in groups:
            yield from self._call(
                lambda: self._client_for_shard(member, sub)
                .txn_abort(wire_id)
            )
        if terminal:
            record["state"] = "aborted"
            self.aborted_total += 1
            self._release_idem(record)
        else:
            record["state"] = "preparing"
        self._end_span(span, outcome="ok")

    # -- recovery ------------------------------------------------------------

    def _recover(self):
        """Resolve every non-terminal record after a restart.

        Decided transactions re-drive their participant commits
        (idempotent); undecided ones are presumed abort.  When this
        drains, no participant holds an in-doubt prepare from this
        coordinator.
        """
        self.recoveries += 1
        ctx = self._start_span("txn-recovery", None,
                               coordinator=self.location)
        resolved = 0
        for txn_id in list(self._order):
            record = self._log[txn_id]
            state = record["state"]
            if state in ("committed", "aborted"):
                continue
            resolved += 1
            groups = record.get("groups") or self._groups(record["ops"])
            try:
                if state == "commit":
                    # Decision was durable: finish the commit.
                    yield from self._drive_commits(txn_id, record, groups,
                                                   ctx)
                else:
                    # No decision: presumed abort.
                    yield from self._drive_aborts(txn_id, record, groups,
                                                  ctx)
            except (Interrupt, _Killed):
                # Killed again mid-recovery: the next restart resumes.
                self._end_span(ctx, outcome="killed", resolved=resolved)
                return
            except StoreError:
                # A participant stayed unreachable past the retry
                # budget; the record stays non-terminal for the next
                # recovery pass.
                continue
        self._end_span(ctx, outcome="ok", resolved=resolved)

    # -- plumbing ------------------------------------------------------------

    def _call(self, factory):
        """Drive one participant call, retrying through unavailability.

        Bounded (:attr:`MAX_ATTEMPTS`) capped exponential backoff with
        seeded jitter -- deterministic for a given coordinator seed.
        Store-level errors (validation, conflicts) propagate
        immediately: they are answers, not outages.
        """
        attempts = 0
        while True:
            attempts += 1
            if not self.alive:
                raise UnavailableError("txn coordinator is down")
            try:
                result = yield factory()
                return result
            except (UnavailableError, DeadlineExceededError):
                if attempts >= self.MAX_ATTEMPTS:
                    raise
                delay = min(0.2, 0.004 * (2 ** min(attempts, 6)))
                yield self.env.timeout(delay * (0.5 + self._rng.random()))

    def _release_idem(self, record):
        """An aborted txn had zero effects: free its idempotence key."""
        key = record.get("idempotence_key")
        if key is not None and self._idem.get(key) == record["id"]:
            del self._idem[key]

    def _start_span(self, name, parent, **attrs):
        sink = self.tracer
        if parent is not None and parent.sink is not None:
            sink = parent.sink
        if sink is None:
            return None
        return sink.start_span(name, self.location, parent=parent, **attrs)

    def _end_span(self, ctx, **attrs):
        if ctx is not None:
            ctx.sink.end_span(ctx, **attrs)


#: Sentinel: the duplicate may run as a fresh transaction.
_RETRY_FRESH = object()
