"""Blocking synchronization primitives for simulation processes.

- :class:`Store` -- a FIFO queue; ``get()`` blocks the calling process
  until an item is available.  A bounded store applies its typed
  *overflow policy* when full: ``block`` (``put()`` waits, the classic
  behaviour), ``shed_oldest`` / ``shed_newest`` (drop an item, count the
  shed, notify ``on_shed``), or ``reject`` (the put event fails with a
  retryable :class:`~repro.errors.OverloadedError`).
- :class:`Resource` -- a counting semaphore with FIFO granting; used to
  model bounded server concurrency (e.g. a store's worker pool).
"""

from collections import deque

from repro.errors import OverloadedError
from repro.flow.policy import BLOCK, REJECT, SHED_OLDEST, check_overflow
from repro.simnet.events import Event


class Store:
    """FIFO queue of items shared between processes.

    ``put`` and ``get`` both return events; processes ``yield`` them::

        def producer(env, store):
            yield store.put("item")

        def consumer(env, store):
            item = yield store.get()

    With a finite ``capacity`` and a non-blocking ``overflow`` policy the
    queue degrades gracefully under overload instead of stalling its
    producers: sheds are counted (``shed``), handed to ``on_shed(item)``
    (e.g. a dead-letter queue), and ``reject`` surfaces a retryable
    :class:`~repro.errors.OverloadedError` through the put event.
    ``peak_depth`` records the deepest the queue ever got.
    """

    def __init__(self, env, capacity=float("inf"), overflow=BLOCK,
                 on_shed=None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.overflow = check_overflow(overflow)
        self.on_shed = on_shed
        self.items = deque()
        self._getters = deque()
        self._putters = deque()
        self.shed = 0
        self.rejected = 0
        self.peak_depth = 0

    def __len__(self):
        return len(self.items)

    @property
    def full(self):
        return len(self.items) >= self.capacity

    def put(self, item):
        """Event that fires once ``item`` has been enqueued (or shed).

        Under a non-blocking overflow policy the event resolves
        immediately even when the queue is full: ``shed_oldest`` evicts
        the head to make room, ``shed_newest`` drops ``item`` itself,
        and ``reject`` fails the event with
        :class:`~repro.errors.OverloadedError`.
        """
        event = Event(self.env)
        if self.overflow != BLOCK and self.full and not self._getters:
            if self.overflow == REJECT:
                self.rejected += 1
                event.fail(OverloadedError(
                    f"queue is full ({len(self.items)}/{self.capacity})"
                ))
                return event
            if self.overflow == SHED_OLDEST:
                self._shed(self.items.popleft())
                self.items.append(item)
            else:  # SHED_NEWEST: the incoming item is the casualty
                self._shed(item)
            event.succeed()
            return event
        self._putters.append((event, item))
        self._dispatch()
        return event

    def get(self):
        """Event that fires with the next item once one is available."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _shed(self, item):
        self.shed += 1
        if self.on_shed is not None:
            self.on_shed(item)

    def _dispatch(self):
        """Admit waiting putters while there is room, then serve waiting
        getters; go round again only while a getter freed room for a
        putter that was still waiting."""
        items, putters, getters = self.items, self._putters, self._getters
        capacity = self.capacity
        while True:
            while putters and len(items) < capacity:
                put_event, item = putters.popleft()
                items.append(item)
                if len(items) > self.peak_depth:
                    self.peak_depth = len(items)
                put_event.succeed()
            if not (getters and items):
                return
            while getters and items:
                getters.popleft().succeed(items.popleft())
            if not putters:
                return


class Resource:
    """Counting semaphore with FIFO grant order.

    Usage::

        def worker(env, resource):
            yield resource.acquire()
            try:
                yield env.timeout(1.0)
            finally:
                resource.release()
    """

    def __init__(self, env, capacity=1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters = deque()
        self.peak_queued = 0

    @property
    def in_use(self):
        """Number of currently held slots."""
        return self._in_use

    @property
    def queued(self):
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def acquire(self):
        """Event that fires once a slot has been granted."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
            self.peak_queued = max(self.peak_queued, len(self._waiters))
        return event

    def try_acquire(self):
        """Take a free slot now, with no event; False when none is free
        (``acquire`` then queues FIFO)."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self):
        """Release one held slot, waking the next waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
