"""Unit tests for the simnet event loop and event primitives."""

import pytest

from repro.simnet import AllOf, AnyOf, Environment, SimulationError, Timeout


@pytest.fixture
def env():
    return Environment()


class TestEnvironment:
    def test_clock_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_clock_starts_at_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_advances_clock_to_until(self, env):
        env.run(until=3.5)
        assert env.now == 3.5

    def test_run_backwards_rejected(self, env):
        env.run(until=2.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_step_with_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(2.0)
        env.timeout(1.0)
        assert env.peek() == 1.0

    def test_events_fire_in_time_order(self, env):
        fired = []
        for delay in (3.0, 1.0, 2.0):
            t = env.timeout(delay, value=delay)
            t.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_same_time_events_fire_in_schedule_order(self, env):
        fired = []
        for tag in "abc":
            t = env.timeout(1.0, value=tag)
            t.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == ["a", "b", "c"]

    def test_run_until_event_returns_value(self, env):
        evt = env.timeout(2.0, value="done")
        assert env.run(until=evt) == "done"
        assert env.now == 2.0

    def test_run_until_never_firing_event_raises(self, env):
        evt = env.event()
        with pytest.raises(SimulationError):
            env.run(until=evt)

    def test_run_until_does_not_process_later_events(self, env):
        fired = []
        late = env.timeout(5.0)
        late.callbacks.append(lambda e: fired.append("late"))
        env.run(until=2.0)
        assert fired == []
        env.run()
        assert fired == ["late"]


class TestEvent:
    def test_succeed_sets_value(self, env):
        evt = env.event()
        evt.succeed(42)
        assert evt.triggered and evt.ok and evt.value == 42

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(AttributeError):
            env.event().value

    def test_double_succeed_raises(self, env):
        evt = env.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_propagates_from_run(self, env):
        evt = env.event()
        evt.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(SimulationError):
            Timeout(env, -1.0)


class TestConditions:
    def test_all_of_waits_for_every_event(self, env):
        t1 = env.timeout(1.0, "a")
        t2 = env.timeout(2.0, "b")
        cond = AllOf(env, [t1, t2])
        env.run(until=1.5)
        assert not cond.triggered
        env.run()
        assert cond.triggered
        assert set(cond.value.values()) == {"a", "b"}

    def test_any_of_fires_on_first(self, env):
        t1 = env.timeout(1.0, "a")
        t2 = env.timeout(2.0, "b")
        cond = AnyOf(env, [t1, t2])
        result = env.run(until=cond)
        assert env.now == 1.0
        assert list(result.values()) == ["a"]

    def test_all_of_empty_fires_immediately(self, env):
        cond = AllOf(env, [])
        env.run()
        assert cond.triggered and cond.value == {}

    def test_all_of_fails_fast(self, env):
        bad = env.event()
        slow = env.timeout(10.0)
        cond = AllOf(env, [bad, slow])
        err = ValueError("nope")
        bad.fail(err)
        with pytest.raises(ValueError):
            env.run(until=cond)

    def test_cross_environment_events_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AllOf(env, [other.timeout(1.0)])
