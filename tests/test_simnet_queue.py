"""Unit tests for Store (FIFO queue) and Resource (semaphore)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.policy import OVERFLOW_POLICIES
from repro.simnet import Environment, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)

        def proc(env):
            yield store.put("x")
            item = yield store.get()
            return item

        p = env.process(proc(env))
        assert env.run(until=p) == "x"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(3.0)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(3.0, "late")]

    def test_fifo_ordering(self, env):
        store = Store(env)
        order = []

        def producer(env):
            for i in range(5):
                yield store.put(i)

        def consumer(env):
            for _ in range(5):
                item = yield store.get()
                order.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_bounded_capacity_blocks_putter(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("a")
            log.append(("put-a", env.now))
            yield store.put("b")
            log.append(("put-b", env.now))

        def consumer(env):
            yield env.timeout(5.0)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert log == [("put-a", 0.0), ("put-b", 5.0)]

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_len_reflects_items(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        env.run()
        assert len(store) == 2


class TestResource:
    def test_capacity_limits_concurrency(self, env):
        resource = Resource(env, capacity=2)
        active = []
        peak = []

        def worker(env, name):
            yield resource.acquire()
            active.append(name)
            peak.append(len(active))
            yield env.timeout(1.0)
            active.remove(name)
            resource.release()

        for i in range(5):
            env.process(worker(env, i))
        env.run()
        assert max(peak) == 2

    def test_fifo_grant_order(self, env):
        resource = Resource(env, capacity=1)
        grants = []

        def worker(env, name, start_delay):
            yield env.timeout(start_delay)
            yield resource.acquire()
            grants.append(name)
            yield env.timeout(10.0)
            resource.release()

        env.process(worker(env, "first", 0.0))
        env.process(worker(env, "second", 1.0))
        env.process(worker(env, "third", 2.0))
        env.run()
        assert grants == ["first", "second", "third"]

    def test_try_acquire_takes_only_a_free_slot_and_schedules_nothing(
            self, env):
        resource = Resource(env, capacity=1)
        assert resource.try_acquire()
        assert env.peek() == float("inf")  # no event to pop
        assert not resource.try_acquire()
        waiter = resource.acquire()  # a full pool queues FIFO, as before
        resource.release()  # hands the slot to the waiter ...
        assert not resource.try_acquire()  # ... so it is still not free
        env.run()
        assert waiter.processed and resource.in_use == 1

    def test_release_without_acquire_raises(self, env):
        resource = Resource(env)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_counters(self, env):
        resource = Resource(env, capacity=1)

        def holder(env):
            yield resource.acquire()
            yield env.timeout(5.0)
            resource.release()

        def waiter(env):
            yield env.timeout(1.0)
            yield resource.acquire()
            resource.release()

        env.process(holder(env))
        env.process(waiter(env))
        env.run(until=2.0)
        assert resource.in_use == 1
        assert resource.queued == 1
        env.run()
        assert resource.in_use == 0


class TestStoreOverflow:
    """Bounded queues with typed overflow policies (repro.flow)."""

    def drain(self, env, store):
        items = []

        def consumer(env):
            while True:
                items.append((yield store.get()))

        env.process(consumer(env))
        return items

    def fill(self, env, store, values):
        for value in values:
            env.run(until=store.put(value))

    def test_shed_oldest_evicts_head(self, env):
        dead = []
        store = Store(env, capacity=2, overflow="shed_oldest",
                      on_shed=dead.append)
        self.fill(env, store, ["a", "b", "c", "d"])
        assert list(store.items) == ["c", "d"]
        assert store.shed == 2 and dead == ["a", "b"]

    def test_shed_newest_drops_incoming(self, env):
        dead = []
        store = Store(env, capacity=2, overflow="shed_newest",
                      on_shed=dead.append)
        self.fill(env, store, ["a", "b", "c", "d"])
        assert list(store.items) == ["a", "b"]
        assert store.shed == 2 and dead == ["c", "d"]

    def test_reject_fails_put_with_retryable_error(self, env):
        from repro.errors import OverloadedError, UnavailableError

        store = Store(env, capacity=1, overflow="reject")
        env.run(until=store.put("a"))
        with pytest.raises(OverloadedError) as excinfo:
            env.run(until=store.put("b"))
        assert isinstance(excinfo.value, UnavailableError)  # retryable
        assert store.rejected == 1
        assert list(store.items) == ["a"]

    def test_waiting_getter_absorbs_would_be_shed(self, env):
        store = Store(env, capacity=1, overflow="shed_newest")
        items = self.drain(env, store)
        env.run()
        self.fill(env, store, ["a", "b"])
        env.run()
        assert items == ["a", "b"] and store.shed == 0

    def test_peak_depth_recorded(self, env):
        store = Store(env, capacity=8)
        self.fill(env, store, list(range(5)))
        env.run(until=store.get())
        assert store.peak_depth == 5

    def test_unknown_policy_rejected(self, env):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="overflow"):
            Store(env, capacity=1, overflow="fifo")

    def test_block_policy_still_blocks(self, env):
        store = Store(env, capacity=1, overflow="block")
        env.run(until=store.put("a"))
        put = store.put("b")
        env.run()
        assert not put.triggered  # the classic behaviour: wait for room
        assert store.shed == 0 and store.rejected == 0


class _ReferenceStore(Store):
    """``Store`` with the dispatch loop as it stood before the hand-off
    diet: re-scan both sides until a whole pass makes no progress."""

    def _dispatch(self):
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                put_event, item = self._putters.popleft()
                self.items.append(item)
                self.peak_depth = max(self.peak_depth, len(self.items))
                put_event.succeed()
                progressed = True
            while self._getters and self.items:
                get_event = self._getters.popleft()
                get_event.succeed(self.items.popleft())
                progressed = True


def _drive(store_cls, capacity, overflow, ops):
    """Run a put/get schedule; the order events were granted in (they
    fire in the order they were succeeded or failed) and the counters."""
    env = Environment()
    shed = []
    store = store_cls(env, capacity=capacity, overflow=overflow,
                      on_shed=shed.append)
    grants = []

    def watch(event, label):
        def fired(evt):
            if not evt.ok:
                evt._defused = True
            grants.append((env.now, label, evt.ok,
                           type(evt.value).__name__ if not evt.ok
                           else evt.value))
        event.callbacks.append(fired)

    for index, op in enumerate(ops):
        if op == "put":
            watch(store.put(index), f"put-{index}")
        elif op == "get":
            watch(store.get(), f"get-{index}")
        else:  # let what was granted fire, and move the clock on
            env.run(until=env.now + 1.0)
    env.run()
    return {
        "grants": grants, "items": list(store.items), "shed": shed,
        "shed_count": store.shed, "rejected": store.rejected,
        "peak_depth": store.peak_depth,
        "waiting": (len(store._putters), len(store._getters)),
    }


class TestDispatchAgainstTheOldLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.sampled_from([1, 2, 3, float("inf")]),
        overflow=st.sampled_from(OVERFLOW_POLICIES),
        ops=st.lists(st.sampled_from(["put", "put", "get", "get", "run"]),
                     max_size=40),
    )
    def test_same_grants_and_counters(self, capacity, overflow, ops):
        actual = _drive(Store, capacity, overflow, ops)
        assert actual == _drive(_ReferenceStore, capacity, overflow, ops)
        # Every get that was granted received the items in FIFO order.
        got = [value for _now, label, ok, value in actual["grants"]
               if label.startswith("get-")]
        assert got == sorted(got)
        assert actual["peak_depth"] <= capacity

    def test_freed_room_admits_the_waiting_putter_in_one_dispatch(self, env):
        store = Store(env, capacity=1)
        first, second = store.put("a"), store.put("b")
        assert first.triggered and not second.triggered
        getter_a, getter_b = store.get(), store.get()
        # One get made room, the waiting putter moved in, the second
        # getter took its item: both sides drained without a second call.
        assert second.triggered
        assert (getter_a.value, getter_b.value) == ("a", "b")
        assert len(store) == 0 and store.peak_depth == 1
