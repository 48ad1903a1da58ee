"""The kernel's firing order is pinned, and its two seams are honoured.

One seeded scenario drives every kind of event the kernel makes:
timeouts at equal timestamps, process spawn/finish, yields on
already-processed events (the ``redo`` path), ``interrupt``,
``all_of``/``any_of`` (fail-fast included), bounded and unbounded
``Store`` under all four overflow policies, ``Resource`` contention,
and ``Link.send``/``transfer`` on a FIFO link with a drop rule and a
latency spike installed and later healed.  Two logs come out of a run:

- the *label* log, ``(now, label)`` appended by the scenario's own
  processes and callbacks at each firing they see;
- the *heap* log, ``(time, priority, sequence, event type)`` of every
  entry as ``step`` pops it -- the kernel's order key in full, so a
  renumbered or reordered event shows even where no label watches it.

Their sha256 digests were computed on the commit *before* the kernel's
hot path was rewritten (PR 14); the rewritten kernel must reproduce them
on ``Environment`` and on ``RealtimeEnvironment(factor=0)``.

The same scenario checks the seam contract: a subclass overriding
``schedule`` and ``step`` sees every event exactly once in each, under
``run()``, ``run(until=t)`` and ``run(until=event)``.
"""

import hashlib
import random

import pytest

from repro.errors import OverloadedError, UnavailableError
from repro.flow.policy import BLOCK, REJECT, SHED_NEWEST, SHED_OLDEST
from repro.realtime import RealtimeEnvironment
from repro.simnet import (
    Environment,
    Interrupt,
    Network,
    Resource,
    SimulationError,
    Store,
    UniformLatency,
)
from repro.simnet.events import NORMAL

#: Computed on the parent commit (1662a87), before ``src/`` was touched.
LABEL_DIGEST = (
    "ab9d55fee9013bb5074b847976b7deca48908b3d2bcb987d08076c7a10c1c36e")
HEAP_DIGEST = (
    "41486ec43875b10907473a3b62f7cd2fa9d18c025bbf9d855bf3f5801ef35b61")


def _digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()


class _Seams:
    """Counts at both override points, then delegates (a mixin)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scheduled = []
        self.stepped = []
        self.heap_log = []

    def schedule(self, event, delay=0.0, priority=NORMAL):
        self.scheduled.append(event)
        super().schedule(event, delay, priority)

    def step(self):
        if self._queue:  # an empty queue is the kernel's error to raise
            when, priority, sequence, event = self._queue[0]
            self.stepped.append(event)
            self.heap_log.append(
                (when, priority, sequence, type(event).__name__))
        super().step()


class SeamEnvironment(_Seams, Environment):
    pass


class SeamRealtimeEnvironment(_Seams, RealtimeEnvironment):
    pass


def build(env, seed=14):
    """Start the scenario on ``env``; returns ``(log, finished)``.

    ``finished`` is the process that ends last (run ``until`` it or to an
    empty queue: nothing is scheduled after it).
    """
    rng = random.Random(seed)
    log = []

    def mark(label):
        log.append((env.now, label))

    def on(event, label):
        event.callbacks.append(lambda _evt: mark(label))
        return event

    # -- timeouts at equal timestamps, bare and yielded --------------------
    for index in range(4):
        on(env.timeout(1.0, value=index), f"bare-timeout-{index}")
    on(env.timeout(0.0), "bare-zero")

    def sleeper(name, delays):
        for delay in delays:
            value = yield env.timeout(delay, value=name)
            mark(f"{name}-woke-{value}")
        return name

    sleepers = [
        env.process(sleeper(f"sleeper-{i}", [1.0, 0.0, 0.5, 0.5]))
        for i in range(3)
    ]

    # -- spawn / finish, and yields on already-processed events ------------
    def child(name, delay):
        mark(f"{name}-start")
        yield env.timeout(delay)
        mark(f"{name}-end")
        return f"{name}-result"

    def failing_child(name, delay):
        yield env.timeout(delay)
        mark(f"{name}-raise")
        raise ValueError(name)

    def parent():
        first = env.process(child("child-a", 0.25))
        second = env.process(child("child-b", 0.25))
        old = env.timeout(0.1, value="old")
        mark((yield second))
        mark((yield first))  # already processed: redo
        mark((yield old))  # a long-fired timeout: redo
        mark((yield sleepers[0]))
        bad = env.process(failing_child("child-bad", 0.125))
        try:
            yield bad
        except ValueError as exc:
            mark(f"caught-{exc}")
        try:
            yield bad  # processed *and* failed: a defused redo
        except ValueError as exc:
            mark(f"caught-again-{exc}")
        grandchildren = [
            env.process(child(f"grandchild-{i}", rng.choice([0.0, 0.5, 0.5])))
            for i in range(4)
        ]
        for proc in grandchildren:
            mark((yield proc))
        return "parent-done"

    parent_proc = on(env.process(parent()), "parent-fired")

    # -- interrupt ---------------------------------------------------------
    def victim():
        try:
            yield env.timeout(50.0)
            mark("victim-slept-through")
        except Interrupt as interrupt:
            mark(f"victim-interrupted-{interrupt.cause}")
        # The abandoned 50 s timeout still fires later and must not
        # resume this process a second time.
        yield env.timeout(1.0)
        mark("victim-done")

    def attacker(target):
        yield env.timeout(1.0)
        target.interrupt("first")
        mark("attacker-interrupted")
        yield env.timeout(5.0)
        try:
            target.interrupt("too-late")
        except SimulationError as exc:
            mark(f"attacker-refused-{exc}")

    victim_proc = env.process(victim())
    env.process(attacker(victim_proc))

    # -- conditions --------------------------------------------------------
    def conditions():
        slow, fast = env.timeout(2.0, "slow"), env.timeout(1.0, "fast")
        got = yield env.any_of([slow, fast])
        mark(f"any-{sorted(got.values())}")
        got = yield env.all_of([slow, fast, env.timeout(1.0, "same")])
        mark(f"all-{sorted(got.values())}")
        got = yield env.all_of([slow, fast])  # both already processed
        mark(f"all-processed-{sorted(got.values())}")
        got = yield env.any_of([])
        mark(f"any-empty-{got}")
        doomed = env.process(failing_child("cond-bad", 0.5))
        try:
            yield env.all_of([env.timeout(3.0), doomed, env.timeout(0.25)])
        except ValueError as exc:
            mark(f"all-failed-fast-{exc}")
        try:
            yield env.any_of([doomed, env.timeout(9.0)])  # processed failure
        except ValueError as exc:
            mark(f"any-failed-{exc}")
        survivor = env.process(failing_child("cond-bad-2", 1.0))
        got = yield env.any_of([env.timeout(0.5, "quick"), survivor])
        mark(f"any-before-failure-{sorted(got.values())}")
        try:
            yield survivor
        except ValueError as exc:
            mark(f"survivor-{exc}")

    env.process(conditions())

    # -- stores: unbounded, and bounded under each overflow policy ---------
    def producer(name, store, count, gap):
        for index in range(count):
            try:
                yield store.put(f"{name}-{index}")
                mark(f"{name}-put-{index}-depth-{len(store)}")
            except OverloadedError:
                mark(f"{name}-rejected-{index}")
            if gap:
                yield env.timeout(gap)

    def consumer(name, store, count, gap):
        for _ in range(count):
            item = yield store.get()
            mark(f"{name}-got-{item}")
            if gap:
                yield env.timeout(gap)

    unbounded = Store(env)
    env.process(consumer("u-early", unbounded, 3, 0.0))  # getters wait first
    env.process(producer("u", unbounded, 8, 0.25))
    env.process(consumer("u-late", unbounded, 5, 0.5))

    blocking = Store(env, capacity=2, overflow=BLOCK)
    env.process(producer("b1", blocking, 5, 0.0))
    env.process(producer("b2", blocking, 5, 0.0))
    env.process(consumer("b", blocking, 10, 0.25))

    shed = []
    stores = {"unbounded": unbounded, "block": blocking}
    for policy in (SHED_OLDEST, SHED_NEWEST, REJECT):
        store = Store(env, capacity=2, overflow=policy, on_shed=shed.append)
        stores[policy] = store
        env.process(producer(policy, store, 6, 0.125))
        env.process(consumer(f"{policy}-c", store, 2, 1.0))

    # -- resource contention -----------------------------------------------
    resource = Resource(env, capacity=2)

    def worker(name, hold):
        yield env.timeout(0.5)
        yield resource.acquire()
        mark(f"{name}-acquired-queued-{resource.queued}")
        yield env.timeout(hold)
        resource.release()
        mark(f"{name}-released")

    for index in range(5):
        env.process(worker(f"worker-{index}", rng.choice([0.25, 0.5])))

    # -- network: FIFO links, fault rules installed and healed -------------
    network = Network(env, default_latency=UniformLatency(0.01, 0.2, seed=seed))
    network.set_latency("a", "c", UniformLatency(0.0, 0.05, seed=seed + 1),
                        symmetric=False)

    def sender(src, dst, count, gap):
        link = network.link(src, dst)
        for index in range(count):
            arrival = link.send(
                lambda msg: mark(f"{src}->{dst}-recv-{msg}"), index, size=10)
            mark(f"{src}->{dst}-sent-{index}-{arrival}")
            yield env.timeout(gap)

    def caller(src, dst, count, gap):
        for index in range(count):
            try:
                value = yield network.transfer(src, dst, index, size=20)
                mark(f"{src}->{dst}-rtt-{value}")
            except UnavailableError:
                mark(f"{src}->{dst}-unreachable-{index}")
            yield env.timeout(gap)

    def chaos():
        yield env.timeout(0.5)
        network.set_drop_rate("a", "b", 0.5, seed=seed)
        network.set_extra_latency("a", "*", 0.3, symmetric=False)
        mark("faults-installed")
        yield env.timeout(1.0)
        network.partition("a", "c")
        mark("partitioned")
        yield env.timeout(0.5)
        network.heal("a", "c")
        network.clear_drop_rate("a", "b")
        mark("partly-healed")
        yield env.timeout(0.5)
        network.heal_all()
        mark("healed")

    env.process(sender("a", "b", 30, 0.1))
    env.process(sender("b", "a", 30, 0.1))
    env.process(caller("a", "c", 20, 0.05))
    env.process(caller("c", "a", 20, 0.05))
    env.process(chaos())

    # -- the end -----------------------------------------------------------
    def finale():
        yield env.timeout(100.0)
        yield parent_proc  # long processed: one last redo
        for name, store in stores.items():
            mark(f"store-{name}-left-{list(store.items)}-shed-{store.shed}"
                 f"-rejected-{store.rejected}-peak-{store.peak_depth}")
        mark(f"shed-{shed}")
        mark(f"resource-peak-{resource.peak_queued}")
        mark(f"network-lost-{network.messages_lost}-bytes-{network.bytes_sent}")
        for pair in (("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")):
            link = network.link(*pair)
            mark(f"link-{link.name}-{link.delivered}-{link.dropped}")

    return log, env.process(finale())


@pytest.fixture(params=[SeamEnvironment, SeamRealtimeEnvironment],
                ids=["sim", "realtime"])
def env(request):
    if request.param is SeamRealtimeEnvironment:
        env = SeamRealtimeEnvironment(factor=0.0)
        yield env
        env.close()
    else:
        yield SeamEnvironment()


def _assert_each_event_once(env):
    assert not env._queue
    assert len(env.stepped) == len(env.scheduled)
    assert len({id(e) for e in env.scheduled}) == len(env.scheduled)
    assert {id(e) for e in env.stepped} == {id(e) for e in env.scheduled}


class TestFiringOrder:
    def test_labels_and_heap_order_match_the_parent_commit(self, env):
        log, _finished = build(env)
        env.run()
        assert (len(log), len(env.heap_log)) == (285, 440)
        assert _digest(log) == LABEL_DIGEST
        assert _digest(env.heap_log) == HEAP_DIGEST

    def test_scenario_reaches_every_path(self, env):
        log, _finished = build(env)
        env.run()
        labels = [label for _now, label in log]
        text = "\n".join(labels)
        for needle in (
            "victim-interrupted-first", "attacker-refused-",
            "caught-again-child-bad", "all-failed-fast-cond-bad",
            "any-failed-cond-bad", "any-empty-{}", "reject-rejected-",
            "-unreachable-", "-None", "store-shed_oldest-",
            "worker-4-released",
        ):
            assert needle in text, needle
        assert "victim-slept-through" not in text
        # Equal timestamps fire in creation order.
        bare = [label for label in labels
                if label.startswith("bare-timeout-")]
        assert bare == [f"bare-timeout-{i}" for i in range(4)]
        times = [now for now, _label in log]
        assert times == sorted(times)


class TestSeamContract:
    def test_run_to_empty(self, env):
        build(env)
        env.run()
        _assert_each_event_once(env)

    def test_run_until_time_then_drain(self, env):
        build(env)
        env.run(until=1.75)
        assert env.now == 1.75
        assert 0 < len(env.stepped) < len(env.scheduled)
        assert all(entry[0] <= 1.75 for entry in env.heap_log)
        env.run()
        _assert_each_event_once(env)
        assert _digest(env.heap_log) == HEAP_DIGEST

    def test_run_until_event(self, env):
        log, finished = build(env)
        assert env.run(until=finished) is None
        assert env.stepped[-1] is finished
        _assert_each_event_once(env)
        assert _digest(log) == LABEL_DIGEST


class TestGuardsThroughTheSeams:
    """Every check the kernel made before still fires, same type and text."""

    def test_negative_timeout(self, env):
        with pytest.raises(SimulationError, match=r"^negative delay -1$"):
            env.timeout(-1)
        assert not env._queue

    def test_negative_schedule_delay(self, env):
        with pytest.raises(SimulationError, match=r"^negative delay -1$"):
            env.schedule(env.event(), delay=-1)
        assert not env._queue

    def test_double_trigger(self, env):
        event = env.event().succeed(1)
        with pytest.raises(SimulationError, match="already triggered"):
            event.succeed(2)
        with pytest.raises(SimulationError, match="already triggered"):
            event.fail(ValueError("late"))
        with pytest.raises(SimulationError, match="already triggered"):
            env.timeout(1.0).succeed()
        assert len(env.scheduled) == 2

    def test_fail_needs_an_exception(self, env):
        with pytest.raises(TypeError, match=r"fail\(\) needs an exception, got 'x'"):
            env.event().fail("x")

    def test_non_generator_process(self, env):
        with pytest.raises(TypeError, match="process needs a generator, got 3"):
            env.process(3)
        assert not env.scheduled

    def test_non_event_yield(self, env):
        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError,
                           match="process yielded a non-event: 42"):
            env.run()

    def test_unhandled_failure_raises_out_of_step(self, env):
        env.event().fail(KeyError("lost"))
        with pytest.raises(KeyError, match="lost"):
            env.step()

    def test_defused_failure_is_silent(self, env):
        event = env.event()
        event._defused = True
        event.fail(KeyError("handled"))
        env.step()
        assert event.processed and not event.ok
        assert not env._queue

    def test_step_on_an_empty_queue(self, env):
        with pytest.raises(SimulationError, match="no scheduled events"):
            env.step()
