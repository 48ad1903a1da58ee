"""Unit tests for the realtime kernel primitives.

The realtime environment keeps the sim's scheduling discipline but
executes it against the wall clock; these tests drive the same kernel
surface the sim tests drive (timeouts, conditions, interrupts, queues)
at small time factors, plus the realtime-only surface: pacing,
external sources, and the asyncio bridge.
"""

import time
from itertools import count

import pytest

from repro.realtime import (
    Interrupt,
    RealtimeDriftError,
    RealtimeEnvironment,
    Resource,
    SimulationError,
    Store,
)
from tests.test_simnet_order import SeamRealtimeEnvironment

#: Real seconds per schedule second for paced tests: fast, but long
#: enough that ordering cannot be won by accident.
FACTOR = 0.01


@pytest.fixture
def renv():
    env = RealtimeEnvironment(factor=FACTOR)
    yield env
    env.close()


class TestKernelSemantics:
    def test_timeout_ordering(self, renv):
        fired = []
        for delay in (0.3, 0.1, 0.2):
            def waiter(delay=delay):
                yield renv.timeout(delay)
                fired.append(delay)
            renv.process(waiter())
        renv.run()
        assert fired == [0.1, 0.2, 0.3]
        assert renv.now == 0.3

    def test_same_time_events_keep_creation_order(self, renv):
        fired = []
        for name in "abc":
            def waiter(name=name):
                yield renv.timeout(0.1)
                fired.append(name)
            renv.process(waiter())
        renv.run()
        assert fired == ["a", "b", "c"]

    def test_any_of_returns_first(self, renv):
        def race():
            slow = renv.timeout(0.5, value="slow")
            fast = renv.timeout(0.1, value="fast")
            result = yield renv.any_of([fast, slow])
            return list(result.values())

        assert renv.run(until=renv.process(race())) == ["fast"]

    def test_all_of_collects_everything(self, renv):
        def gather():
            first = renv.timeout(0.1, value=1)
            second = renv.timeout(0.2, value=2)
            result = yield renv.all_of([first, second])
            return sorted(result.values())

        assert renv.run(until=renv.process(gather())) == [1, 2]

    def test_interrupt_cuts_a_sleep_short(self, renv):
        log = []

        def sleeper():
            try:
                yield renv.timeout(10.0)
                log.append("overslept")
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, renv.now))

        def alarm(target):
            yield renv.timeout(0.2)
            target.interrupt("wake")

        sleeper_proc = renv.process(sleeper())
        renv.process(alarm(sleeper_proc))
        # Run to the sleeper, not to an empty queue: the stale 10s timer
        # stays in the heap and must not cost 10 schedule seconds.
        renv.run(until=sleeper_proc)
        assert log == [("interrupted", "wake", pytest.approx(0.2))]

    def test_store_blocks_getter_until_put(self, renv):
        store = Store(renv)
        got = []

        def consumer():
            item = yield store.get()
            got.append((item, renv.now))

        def producer():
            yield renv.timeout(0.2)
            yield store.put("item")

        renv.process(consumer())
        renv.process(producer())
        renv.run()
        assert got == [("item", pytest.approx(0.2))]

    def test_resource_serializes_holders(self, renv):
        resource = Resource(renv, capacity=1)
        order = []

        def holder(name):
            yield resource.acquire()
            try:
                order.append((name, renv.now))
                yield renv.timeout(0.1)
            finally:
                resource.release()

        renv.process(holder("first"))
        renv.process(holder("second"))
        renv.run()
        assert order == [("first", pytest.approx(0.0)),
                         ("second", pytest.approx(0.1))]

    def test_failed_event_raises_out_of_run(self, renv):
        def boom():
            yield renv.timeout(0.01)
            raise ValueError("kernel must surface this")

        renv.process(boom())
        with pytest.raises(ValueError, match="kernel must surface this"):
            renv.run()

    def test_run_until_event_with_empty_queue_raises(self, renv):
        with pytest.raises(SimulationError, match="queue empty"):
            renv.run(until=renv.event())


class TestWallClockPacing:
    def test_schedule_time_costs_real_time(self):
        env = RealtimeEnvironment(factor=0.05)
        env.process(_sleep(env, 1.0))
        started = time.monotonic()
        env.run()
        elapsed = time.monotonic() - started
        assert elapsed >= 0.045, f"1 schedule-s at factor=0.05 took {elapsed}s"
        env.close()

    def test_factor_zero_runs_flat_out(self):
        env = RealtimeEnvironment(factor=0.0)

        def chain():
            for _ in range(50):
                yield env.timeout(10.0)

        started = time.monotonic()
        env.run(until=env.process(chain()))
        assert time.monotonic() - started < 1.0
        assert env.now == 500.0
        env.close()

    def test_finite_horizon_is_paced_not_jumped(self):
        env = RealtimeEnvironment(factor=0.05)
        started = time.monotonic()
        env.run(until=2.0)  # empty queue: still 2 schedule-s of wall pacing
        assert time.monotonic() - started >= 0.09
        assert env.now == 2.0
        env.close()

    def test_overdue_events_fire_without_error_by_default(self):
        env = RealtimeEnvironment(factor=0.0)
        env.process(_sleep(env, 1000.0))
        env.run()  # 1000 schedule-s, zero wall: lateness is not an error
        assert env.now == 1000.0
        env.close()

    def test_unpaced_strict_run_outlasts_max_drift(self):
        # At factor=0 every event's wall deadline is the run's anchor, so
        # "lateness" used to read as the length of the run and a strict
        # kernel died after max_drift seconds of merely running.
        env = RealtimeEnvironment(factor=0.0, strict=True, max_drift=0.05)

        def busy():
            for _ in range(5):
                yield env.timeout(1.0)
                time.sleep(0.03)

        started = time.monotonic()
        env.run(until=env.process(busy()))
        assert time.monotonic() - started > 0.05  # ran past max_drift
        assert env.now == 5.0
        assert env.max_lateness == 0.0
        env.close()

    def test_unpaced_horizon_and_external_sources_still_work(self):
        env = RealtimeEnvironment(factor=0.0, strict=True, max_drift=0.0)
        env.process(_sleep(env, 3.0))
        env.run(until=10.0)
        assert env.now == 10.0
        evt = env.event()
        env.register_external_source("test-socket")
        env.loop.call_later(0.02, lambda: evt.succeed("late but fine"))
        assert env.run(until=evt) == "late but fine"
        env.unregister_external_source("test-socket")
        assert env.max_lateness == 0.0
        env.close()

    def test_paced_strict_run_still_trips_on_drift(self):
        env = RealtimeEnvironment(factor=0.05, strict=True, max_drift=0.02)

        def stall():
            yield env.timeout(0.1)
            time.sleep(0.08)  # the next event is due 5 ms from now
            yield env.timeout(0.1)

        env.process(stall())
        with pytest.raises(RealtimeDriftError, match=r"fired 0\.\d+s late"):
            env.run()
        assert env.max_lateness > 0.02
        env.close()

    def test_paced_strict_run_on_schedule_completes(self):
        env = RealtimeEnvironment(factor=0.05, strict=True, max_drift=0.5)
        env.process(_sleep(env, 1.0))
        env.run()
        assert env.now == 1.0
        assert 0.0 <= env.max_lateness < 0.5
        env.close()

    def test_wall_now_advances_while_schedule_paces(self):
        env = RealtimeEnvironment(factor=0.05)
        env.process(_sleep(env, 1.0))
        env.run()
        assert env.wall_now >= 0.045
        assert env.trace_clock() == pytest.approx(env.wall_now, abs=0.05)
        env.close()

    def test_negative_factor_rejected(self):
        with pytest.raises(SimulationError, match="negative time factor"):
            RealtimeEnvironment(factor=-1.0)


class TestExternalSources:
    def test_injected_event_wakes_an_idle_kernel(self, renv):
        evt = renv.event()
        renv.register_external_source("test-socket")
        renv.loop.call_later(0.03, lambda: evt.succeed("hello"))
        assert renv.run(until=evt) == "hello"
        renv.unregister_external_source("test-socket")

    def test_unregister_lets_run_finish(self, renv):
        renv.register_external_source("test-socket")
        renv.loop.call_later(
            0.03, lambda: renv.unregister_external_source("test-socket")
        )
        started = time.monotonic()
        renv.run()  # would idle forever while the source stayed registered
        assert time.monotonic() - started < 2.0

    def test_future_of_bridges_kernel_to_coroutines(self, renv):
        def work():
            yield renv.timeout(0.1)
            return "done"

        future = renv.future_of(renv.process(work()))
        renv.run()
        assert renv.loop.run_until_complete(future) == "done"

    def test_future_of_carries_failures(self, renv):
        future = renv.future_of(renv.process(_failing(renv)))
        renv.run()  # the bridge defuses the failure: run() stays clean
        with pytest.raises(ValueError, match="bridged"):
            renv.loop.run_until_complete(future)

    def test_closed_environment_refuses_to_run(self):
        env = RealtimeEnvironment(factor=FACTOR)
        env.close()
        with pytest.raises(SimulationError, match="closed"):
            env.run()


def _spin(env, rounds=None):
    """Reschedule with zero delay: every event is due the moment it lands."""
    for _ in count() if rounds is None else range(rounds):
        yield env.timeout(0)


class TestBursts:
    """The kernel fires every event already due in one loop turn and
    awaits only between bursts; these pin what ends a burst."""

    def test_a_busy_kernel_still_turns_the_loop(self):
        env = RealtimeEnvironment(factor=0.0)
        env.register_external_source("test-socket")
        env.process(_spin(env))  # never idle, never done
        stop, hops, started = env.event(), [], time.monotonic()

        def hop():  # each hop needs the kernel to yield once more
            hops.append(time.monotonic() - started)
            if len(hops) < 5:
                env.loop.call_soon(hop)
            else:
                stop.succeed()

        env.loop.call_soon(hop)
        env.run(until=stop)
        assert hops[-1] < 0.05, "a registered source waits <= tolerance per turn"
        assert env.turns >= 4
        env.close()

    @pytest.mark.parametrize("listening", [True, False])
    def test_a_resolved_future_resumes_before_the_next_event(self, listening):
        env = SeamRealtimeEnvironment(factor=0.0)  # logs what ``step`` pops
        if listening:
            env.register_external_source("test-socket")
        env.process(_spin(env, rounds=1000))  # would fill the slice
        bridged, seen = env.timeout(0, value="reply"), []
        bridged.callbacks.append(lambda _evt: seen.append(len(env.stepped)))

        async def connection():
            seen.append((await env.future_of(bridged), len(env.stepped)))

        task = env.loop.create_task(connection())
        env.run(until=50.0)
        assert task.done()
        assert seen == [seen[0], ("reply", seen[0])]  # 0 events in between
        assert len(env.stepped) > seen[0]  # and the kernel went on afterwards
        env.close()

    def test_idle_sockets_cost_a_turn_per_slice_not_per_event(self):
        env = SeamRealtimeEnvironment(factor=0.0)
        env.register_external_source("test-socket")
        env.run(until=env.process(_spin(env, rounds=10_000)))
        assert len(env.stepped) >= 10_000
        assert env.turns / len(env.stepped) <= 0.1
        env.close()

    def test_a_burst_does_not_fire_paced_events_early(self):
        env = RealtimeEnvironment(factor=1.0)
        env.register_external_source("test-socket")
        fired = []

        def work():
            yield from _spin(env, rounds=100)
            started = time.monotonic()
            yield env.timeout(0.05)
            fired.append(time.monotonic() - started)

        env.run(until=env.process(work()))
        assert fired[0] >= 0.045
        assert 0.0 <= env.max_lateness < 0.5
        env.close()

    def test_drift_is_still_judged_per_event_inside_a_burst(self):
        env = RealtimeEnvironment(factor=0.05, strict=True, max_drift=0.02)
        env.register_external_source("test-socket")

        def stall():
            yield from _spin(env, rounds=10)
            time.sleep(0.08)  # the next event is due 5 ms from now
            yield env.timeout(0.1)

        env.process(stall())
        with pytest.raises(RealtimeDriftError, match=r"fired 0\.\d+s late"):
            env.run()
        assert env.max_lateness > 0.02
        env.close()

    def test_run_until_event_stops_mid_burst(self):
        env = RealtimeEnvironment(factor=0.0)  # t=1, 2, 3 are all due at once
        first, target, later = (env.timeout(t, value=t) for t in (1, 2, 3))
        assert env.run(until=target) == 2
        assert env.now == 2.0
        assert first.processed and not later.processed
        env.close()


def _failing(env):
    yield env.timeout(0.01)
    raise ValueError("bridged failure")


def _sleep(env, delay):
    yield env.timeout(delay)
