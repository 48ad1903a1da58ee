"""Unit tests for generator-based simulation processes."""

import gc
import traceback

import pytest

from repro.simnet import Environment, Interrupt, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestProcess:
    def test_timeout_sequence(self, env):
        log = []

        def proc(env):
            log.append(env.now)
            yield env.timeout(1.0)
            log.append(env.now)
            yield env.timeout(2.5)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [0.0, 1.0, 3.5]

    def test_return_value_propagates(self, env):
        def child(env):
            yield env.timeout(1.0)
            return "result"

        def parent(env):
            value = yield env.process(child(env))
            return value + "!"

        p = env.process(parent(env))
        assert env.run(until=p) == "result!"

    def test_exception_in_child_raises_in_parent(self, env):
        def child(env):
            yield env.timeout(1.0)
            raise RuntimeError("child failed")

        def parent(env):
            try:
                yield env.process(child(env))
            except RuntimeError as exc:
                return f"caught: {exc}"

        p = env.process(parent(env))
        assert env.run(until=p) == "caught: child failed"

    def test_unhandled_process_exception_surfaces(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise KeyError("oops")

        env.process(proc(env))
        with pytest.raises(KeyError):
            env.run()

    def test_unhandled_failure_traceback_names_the_failing_line(self, env):
        def child(env):
            yield env.timeout(1.0)
            raise KeyError("oops")  # the failing line

        def parent(env):
            yield env.process(child(env))

        env.process(parent(env))
        with pytest.raises(KeyError) as info:
            env.run()
        frames = [(entry.name, entry.line)
                  for entry in traceback.extract_tb(info.value.__traceback__)]
        assert ("child", 'raise KeyError("oops")  # the failing line') in frames
        assert "parent" in [name for name, _line in frames]

    def test_a_failed_process_is_no_reference_cycle(self, env):
        def proc(env):
            yield env.timeout(1.0)
            raise KeyError("oops")

        failed = env.process(proc(env))
        failed._defused = True
        env.run()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            del failed
            gc.collect()
            kept = [o for o in gc.garbage if isinstance(o, KeyError)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert kept == []

    def test_a_waiter_that_caught_a_failure_runs_on(self, env):
        # A second waiter fails with the exception the first one caught;
        # the first one's frame is in its traceback and still running.
        log = []

        def child(env):
            yield env.timeout(1.0)
            raise KeyError("oops")

        def catcher(env, failing):
            try:
                yield failing
            except KeyError:
                log.append("caught")
            yield env.timeout(5.0)
            log.append("ran on")

        def failer(env, failing):
            yield env.timeout(2.0)
            yield failing

        failing = env.process(child(env))
        env.process(catcher(env, failing))
        env.process(failer(env, failing))._defused = True
        env.run()
        assert log == ["caught", "ran on"]

    def test_yield_non_event_is_error(self, env):
        def proc(env):
            yield 42

        env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yield_already_processed_event(self, env):
        evt = env.event()
        evt.succeed("early")
        env.run()  # process the event before the process waits on it

        def proc(env):
            value = yield evt
            return value

        p = env.process(proc(env))
        assert env.run(until=p) == "early"

    def test_many_processes_interleave_deterministically(self, env):
        log = []

        def proc(env, name, period):
            while env.now < 3:
                yield env.timeout(period)
                log.append((env.now, name))

        env.process(proc(env, "fast", 1.0))
        env.process(proc(env, "slow", 1.5))
        env.run(until=4.0)
        assert log == [
            (1.0, "fast"),
            (1.5, "slow"),
            (2.0, "fast"),
            (3.0, "slow"),
            (3.0, "fast"),
        ]


class TestInterrupt:
    def test_interrupt_wakes_sleeping_process(self, env):
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as intr:
                log.append((env.now, intr.cause))

        def waker(env, target):
            yield env.timeout(2.0)
            target.interrupt(cause="wake up")

        target = env.process(sleeper(env))
        env.process(waker(env, target))
        env.run()
        assert log == [(2.0, "wake up")]

    def test_original_target_does_not_resume_twice(self, env):
        resumed = []

        def sleeper(env):
            try:
                yield env.timeout(5.0)
            except Interrupt:
                pass
            yield env.timeout(10.0)
            resumed.append(env.now)

        def waker(env, target):
            yield env.timeout(1.0)
            target.interrupt()

        target = env.process(sleeper(env))
        env.process(waker(env, target))
        env.run()
        # Interrupted at t=1, then sleeps 10 more: resumes at 11, not 5.
        assert resumed == [11.0]

    def test_cannot_interrupt_finished_process(self, env):
        def quick(env):
            yield env.timeout(0.1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()
