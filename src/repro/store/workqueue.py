"""Working off dirty keys: mark -> dispatch -> pass -> retry, written once.

A :class:`~repro.store.follow.Follower` keeps a consumer's stream; this
is the work its deliveries start, keyed by what it is about: an object
key, a correlation id, a claimed seq range, a rule, an idempotence key.
"""

from functools import partial

from repro.errors import OverloadedError, ReproError
from repro.flow.policy import BLOCK, SHED_OLDEST
from repro.store.follow import TRANSIENT


class WorkQueue:
    """One consumer's dirty keys, worked off level-triggered.

    ``run(key, payload)`` returns the pass over ``key``, a generator run
    as its own process: ``capacity`` at once (None: no limit), one per
    key.  A mark on an idle queue schedules one dispatch event, so the
    marks of one instant coalesce; a pending key keeps its place and
    takes the latest payload (a causal parent, the records delivered).
    A pass handed None -- a :meth:`requeue` of an idle key, a replayed
    dead letter -- rebuilds what it needs from the key and the store.
    A failed pass is retried ``backoff(n)`` after its n-th failure in a
    row and dead-lettered at failure ``max_requeues + 1`` (``TRANSIENT``)
    or ``poison_requeues + 1`` (any other ``ReproError``).  With
    ``max_queue`` keys pending, ``overflow`` picks the key shed.
    """

    def __init__(self, env, run, dead_letters, capacity, backoff,
                 max_requeues, poison_requeues, max_queue, overflow):
        self.env = env
        self.dead_letters = dead_letters
        self.pending = {}  # key -> latest payload, in line order
        self.started = False
        self.peak = 0
        self.shed = 0
        self._run = run
        self._capacity = float("inf") if capacity is None else capacity
        self._backoff = backoff
        self._max_requeues = max_requeues
        self._poison_requeues = poison_requeues
        self._max_queue = max_queue
        self._overflow = overflow
        self._running = {}  # key -> the payload its pass started with
        self._failures = {}  # key -> failed passes in a row
        self._dispatch = None  # the scheduled dispatch event, if any

    def add(self, key, payload):
        """Mark ``key`` dirty; ``payload`` replaces any it has pending."""
        self._mark(key, payload, True)

    def requeue(self, key):
        """Mark ``key`` dirty, keeping any pending payload (else None)."""
        self._mark(key, None, False)

    def start(self):
        self.started = True
        self._kick()

    def stop(self):
        """Start no more passes; running ones finish, keys stay pending."""
        self.started = False

    def clear(self):
        """Forget pending keys, payloads and failures, as a crash does."""
        self.pending.clear()
        self._failures.clear()

    def __contains__(self, key):
        """Pending, in a pass, or waiting on a retry."""
        return (key in self.pending or key in self._running
                or key in self._failures)

    def stats(self):
        return {"pending": len(self.pending), "in_flight": len(self._running),
                "peak": self.peak, "shed": self.shed}

    def _mark(self, key, payload, latest):
        if key in self.pending:
            if latest:
                self.pending[key] = payload
            return
        if (self._max_queue is not None and self._overflow != BLOCK
                and len(self.pending) >= self._max_queue):
            shed = (next(iter(self.pending))
                    if self._overflow == SHED_OLDEST else key)
            self.pending.pop(shed, None)
            self.shed += 1
            self.dead_letters.push(shed, OverloadedError(
                f"work queue full ({self._max_queue}); {shed!r} shed"),
                0, self.env.now)
            if shed == key:
                return
        self.pending[key] = payload
        self.peak = max(self.peak, len(self.pending))
        if key not in self._running:
            self._kick()

    def _kick(self):
        if (self.started and self._dispatch is None
                and len(self._running) < self._capacity):
            self._dispatch = self.env.event()
            self._dispatch.callbacks.append(self._spawn)
            self._dispatch.succeed()

    def _spawn(self, dispatch=None):
        if dispatch is not None:
            self._dispatch = None
        while self.started and len(self._running) < self._capacity:
            key = next((k for k in self.pending if k not in self._running),
                       None)
            if key is None:
                return
            payload = self._running[key] = self.pending.pop(key)
            process = self.env.process(self._run(key, payload))
            process.callbacks.append(partial(self._done, key))

    def _done(self, key, process):
        payload = self._running.pop(key)
        count = self._failures.pop(key, 0) + 1
        error = process.value
        if not process.ok and isinstance(error, ReproError):
            process._defused = True  # handled here, as AllOf does
            if count > (self._max_requeues if isinstance(error, TRANSIENT)
                        else self._poison_requeues):
                self.dead_letters.push(key, error, count, self.env.now)
            else:
                self._failures[key] = count
                self.env.timeout(self._backoff(count)).callbacks.append(
                    partial(self._retry, key, payload, count))
        self._spawn()

    def _retry(self, key, payload, count, _event):
        if self._failures.get(key) == count:  # not cleared, not run since
            self._mark(key, payload, False)
