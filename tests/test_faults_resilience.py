"""Resilience layer: retry, circuit breaking, DLQs, graceful degradation."""

import pytest

from repro import config
from repro.core import Knactor, KnactorRuntime, Reconciler, StoreBinding
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    NotFoundError,
    ReproError,
    RPCStatusError,
    UnavailableError,
)
from repro.exchange import ObjectDE
from repro.faults import CircuitBreaker, RetryPolicy, default_retryable
from repro.pubsub import Broker, PubSubClient
from repro.rpc import RPCChannel, RPCServer
from repro.store import ApiServer
from repro.store.base import OpLatency
from repro.store.client import ObjectClient


def _attempts(policy, env, factory, breaker=None):
    """``factory``'s attempts under ``policy``, spawned as one process."""
    return env.process(policy.run(env, factory, breaker, None))


class _Flaky:
    """An attempt factory failing ``failures`` times, then succeeding:
    each call is a fresh generator, one attempt."""

    def __init__(self, env, failures, exc=None, latency=0.0):
        self.env = env
        self.remaining = failures
        self.exc = exc if exc is not None else UnavailableError("down")
        self.latency = latency
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.latency:
            yield self.env.timeout(self.latency)
        else:
            yield self.env.timeout(0)
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc
        return "ok"


class TestRetryPolicy:
    def test_retries_transient_failures_then_succeeds(self, env):
        policy = RetryPolicy(max_attempts=5, base_backoff=0.01, seed=0)
        flaky = _Flaky(env, failures=3)
        assert env.run(until=_attempts(policy, env, flaky)) == "ok"
        assert flaky.calls == 4
        assert policy.stats()["retries"] == 3

    def test_gives_up_after_max_attempts(self, env):
        policy = RetryPolicy(max_attempts=2, base_backoff=0.001)
        with pytest.raises(UnavailableError):
            env.run(until=_attempts(policy, env, _Flaky(env, failures=10)))
        assert policy.giveups == 1

    def test_non_retryable_errors_surface_immediately(self, env):
        policy = RetryPolicy(max_attempts=5)
        flaky = _Flaky(env, failures=3, exc=NotFoundError("gone"))
        with pytest.raises(NotFoundError):
            env.run(until=_attempts(policy, env, flaky))
        assert flaky.calls == 1
        assert not default_retryable(NotFoundError("gone"))
        assert default_retryable(UnavailableError("x"))
        assert default_retryable(RPCStatusError("UNAVAILABLE", "x"))

    def test_backoff_is_jittered_and_seed_deterministic(self, env):
        delays = [
            RetryPolicy(jitter=0.5, seed=4).backoff_delay(n)
            for n in (1, 2, 3)
        ]
        again = [
            RetryPolicy(jitter=0.5, seed=4).backoff_delay(n)
            for n in (1, 2, 3)
        ]
        assert delays == again
        unjittered = [0.01, 0.02, 0.04]
        assert delays != unjittered
        for delay, base in zip(delays, unjittered):
            assert 0.5 * base <= delay <= 1.5 * base

    def test_attempt_timeout_abandons_slow_attempt(self, env):
        policy = RetryPolicy(
            max_attempts=3, base_backoff=0.001, attempt_timeout=0.05
        )
        calls = []

        def factory():
            calls.append(env.now)

            yield env.timeout(0.2 if len(calls) == 1 else 0.001)
            return "late" if len(calls) == 1 else "fast"

        assert env.run(until=_attempts(policy, env, factory)) == "fast"
        assert policy.timeouts == 1

    def test_attempt_timeout_exhaustion_raises_deadline_error(self, env):
        policy = RetryPolicy(
            max_attempts=2, base_backoff=0.001, attempt_timeout=0.01
        )

        def factory():
            yield env.timeout(1.0)

        with pytest.raises(DeadlineExceededError):
            env.run(until=_attempts(policy, env, factory))
        env.run()  # abandoned attempts must not crash the loop later

    def test_overall_deadline_bounds_total_time(self, env):
        policy = RetryPolicy(
            max_attempts=100, base_backoff=0.05, jitter=0.0, deadline=0.1
        )
        with pytest.raises(DeadlineExceededError):
            env.run(until=_attempts(policy, env, _Flaky(env, failures=1000)))
        assert env.now < 0.2

    def test_shared_retry_budget_caps_retries(self, env):
        policy = RetryPolicy(max_attempts=10, base_backoff=0.001, budget=2)
        with pytest.raises(UnavailableError):
            env.run(until=_attempts(policy, env, _Flaky(env, failures=50)))
        assert policy.retries == 2  # budget spent; later ops get no retries
        with pytest.raises(UnavailableError):
            env.run(until=_attempts(policy, env, _Flaky(env, failures=1)))
        assert policy.retries == 2


class TestCircuitBreaker:
    def test_opens_after_threshold_and_fast_fails(self, env):
        breaker = CircuitBreaker(env, failure_threshold=2, reset_timeout=0.5)
        policy = RetryPolicy(max_attempts=1)
        for _ in range(2):
            with pytest.raises(UnavailableError):
                env.run(until=_attempts(
                    policy, env, _Flaky(env, failures=9), breaker=breaker))
        assert breaker.state == "open"
        target = _Flaky(env, failures=0)
        with pytest.raises(CircuitOpenError):
            env.run(until=_attempts(policy, env, target, breaker=breaker))
        assert target.calls == 0  # fast-fail: the network was never touched
        assert breaker.stats()["rejected"] == 1

    def test_half_open_probe_closes_on_success(self, env):
        breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout=0.1)
        policy = RetryPolicy(max_attempts=1)
        with pytest.raises(UnavailableError):
            env.run(until=_attempts(
                policy, env, _Flaky(env, failures=1), breaker=breaker))
        assert breaker.state == "open"
        env.run(until=env.timeout(0.2))
        assert env.run(until=_attempts(
            policy, env, _Flaky(env, failures=0), breaker=breaker)) == "ok"
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self, env):
        breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout=0.1)
        policy = RetryPolicy(max_attempts=1)
        for _ in range(2):
            with pytest.raises(UnavailableError):
                env.run(until=_attempts(
                    policy, env, _Flaky(env, failures=5), breaker=breaker))
            env.run(until=env.timeout(0.2))
        assert breaker.opened_count == 2

    def test_application_errors_do_not_trip_the_breaker(self, env):
        breaker = CircuitBreaker(env, failure_threshold=1)
        policy = RetryPolicy(max_attempts=1)
        with pytest.raises(NotFoundError):
            env.run(until=_attempts(
                policy, env, _Flaky(env, failures=3, exc=NotFoundError("x")),
                breaker=breaker))
        assert breaker.state == "closed"  # the dependency answered


class TestWiredClients:
    def test_store_client_rides_through_unavailable_window(
            self, env, zero_net, call):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        policy = RetryPolicy(max_attempts=6, base_backoff=0.02, seed=2)
        client = ObjectClient(server, "c", retry_policy=policy)
        server.set_available(False)

        def heal(env):
            yield env.timeout(0.05)
            server.set_available(True)

        env.process(heal(env))
        result = env.run(until=client.create("k", {"v": 1}))
        assert result["revision"] == 1
        assert policy.retries >= 1
        assert call(client.get("k"))["data"] == {"v": 1}

    def test_rpc_channel_retries_downed_server(self, env, net, call):
        server = RPCServer(env, net, "shipping")
        server.register("Svc", "Echo", lambda req: {"echo": req["v"]})
        plain = RPCChannel(env, server, "checkout")
        server.set_available(False)
        with pytest.raises(RPCStatusError) as err:
            call(plain.call("Svc", "Echo", {"v": 1}))
        assert err.value.code == "UNAVAILABLE"
        assert server.rejected_while_down == 1

        retrying = RPCChannel(
            env, server, "checkout",
            retry_policy=RetryPolicy(max_attempts=6, base_backoff=0.02),
        )

        def heal(env):
            yield env.timeout(0.05)
            server.set_available(True)

        env.process(heal(env))
        assert call(retrying.call("Svc", "Echo", {"v": 2})) == {"echo": 2}

    def test_rpc_channel_with_breaker_fast_fails(self, env, net, call):
        server = RPCServer(env, net, "shipping")
        server.register("Svc", "Echo", lambda req: req)
        breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout=9.0)
        channel = RPCChannel(env, server, "checkout", circuit_breaker=breaker)
        server.set_available(False)
        with pytest.raises(RPCStatusError):
            call(channel.call("Svc", "Echo", {}))
        served_before = server.calls_served
        rejected_before = server.rejected_while_down
        with pytest.raises(CircuitOpenError):
            call(channel.call("Svc", "Echo", {}))
        assert server.calls_served == served_before
        assert server.rejected_while_down == rejected_before

    def test_pubsub_publish_retries_through_partition(self, env, net, call):
        broker = Broker(env, net)
        received = []
        broker.subscribe("t", lambda t, m: received.append(m), "sub")
        client = PubSubClient(
            broker, "pub",
            retry_policy=RetryPolicy(max_attempts=8, base_backoff=0.02),
        )
        net.partition("pub", broker.location)

        def heal(env):
            yield env.timeout(0.05)
            net.heal("pub", broker.location)

        env.process(heal(env))
        call(client.publish("t", b"m"))
        env.run()
        assert received == [b"m"]

    def test_broker_counts_dropped_subscriber_deliveries(self, env, net, call):
        broker = Broker(env, net)
        broker.subscribe("t", lambda t, m: None, "sub")
        net.set_drop_rate(broker.location, "sub", rate=1.0)
        call(broker.publish("t", b"m", "pub"))
        env.run()
        assert broker.dropped == 1  # QoS 0: lost fan-out is counted, not retried


SCHEMA = """\
schema: App/v1/A/Obj
value: number
"""


class _Poison(ReproError):
    """A permanent, non-retryable reconcile failure."""


class _PoisonedReconciler(Reconciler):
    def __init__(self, max_requeues):
        super().__init__("poisoned")
        self.max_requeues = max_requeues
        self.healthy_seen = []

    def reconcile(self, ctx, key, obj):
        if obj is None:
            return
        if key.startswith("poison"):
            raise _Poison(f"cannot digest {key}")
        self.healthy_seen.append(key)
        if False:
            yield  # pragma: no cover - make this a generator


class TestReconcilerDegradation:
    def _runtime(self, env, zero_net, max_requeues):
        runtime = KnactorRuntime(env, network=zero_net)
        de = ObjectDE(env, ApiServer(env, zero_net, watch_overhead=0.0))
        runtime.add_exchange("object", de)
        reconciler = _PoisonedReconciler(max_requeues)
        runtime.add_knactor(
            Knactor("a", [StoreBinding("default", "object", SCHEMA)],
                    reconciler=reconciler)
        )
        runtime.start()
        return runtime, reconciler

    def test_poison_object_dead_letters_without_stalling_others(
            self, env, zero_net):
        runtime, reconciler = self._runtime(env, zero_net, max_requeues=2)
        owner = runtime.handle_of("a")
        env.run(until=owner.create("poison/1", {"value": 0}))
        env.run(until=owner.create("healthy/1", {"value": 1}))
        env.run(until=owner.create("healthy/2", {"value": 2}))
        env.run()
        assert reconciler.dead_letters.keys() == ["poison/1"]
        [letter] = list(reconciler.dead_letters)
        assert "cannot digest" in letter.error
        assert letter.attempts == 3  # initial + 2 requeues
        assert letter.source == "poisoned"
        assert sorted(reconciler.healthy_seen) == ["healthy/1", "healthy/2"]
        assert reconciler.health() == "degraded"
        assert "poison/1" not in reconciler.queue.pending

    def test_dead_letter_replay_after_fix(self, env, zero_net):
        runtime, reconciler = self._runtime(env, zero_net, max_requeues=0)
        owner = runtime.handle_of("a")
        env.run(until=owner.create("poison/1", {"value": 0}))
        env.run()
        assert reconciler.dead_letters.keys() == ["poison/1"]
        # Operator fixes the bug, replays the letter.
        reconciler.reconcile = lambda ctx, key, obj: None
        for letter in reconciler.dead_letters.clear():
            reconciler.requeue(letter.key)
        env.run()
        assert reconciler.health() == "ready"

    def test_telemetry_surfaces_resilience_counters(self, env, zero_net):
        runtime, reconciler = self._runtime(env, zero_net, max_requeues=0)
        owner = runtime.handle_of("a")
        env.run(until=owner.create("poison/1", {"value": 0}))
        env.run()
        breaker = CircuitBreaker(env, name="b")
        snapshot = runtime.stats()
        assert snapshot["knactors"]["a"]["dead_letters"] == 1
        assert snapshot["knactors"]["a"]["dead_letter_keys"] == ["poison/1"]
        assert snapshot["knactors"]["a"]["health"] == "degraded"
        [exchange] = snapshot["exchanges"].values()
        assert exchange["backend"]["location"] == "apiserver"
        assert exchange["backend"]["available"] is True
        assert breaker.stats()["state"] == "closed"

    def test_backoff_defaults_come_from_config(self):
        assert Reconciler.max_retries == config.RECONCILER_MAX_RETRIES
        assert Reconciler.backoff == config.RECONCILER_BACKOFF
        assert Reconciler.backoff_jitter == config.RECONCILER_BACKOFF_JITTER
        assert Reconciler.max_requeues == config.RECONCILER_MAX_REQUEUES

    def test_conflict_backoff_is_jittered_and_deterministic(self):
        first, second, no_jitter = (Reconciler("r") for _ in range(3))
        for rec in (first, second, no_jitter):
            rec.backoff, rec.backoff_jitter = 0.01, 0.5
        no_jitter.backoff_jitter = 0.0
        delays = [first._backoff_delay(n) for n in range(1, 5)]
        assert delays == [second._backoff_delay(n) for n in range(1, 5)]
        for n, delay in enumerate(delays, start=1):
            base = 0.01 * 2 ** n
            assert 0.5 * base <= delay <= 1.5 * base
        assert len(set(delays)) == len(delays)  # jitter actually varies
        assert no_jitter._backoff_delay(1) == pytest.approx(0.02)


SCHEMA_X = """\
schema: App/v1/X/Obj
value: number
"""

SCHEMA_Y = """\
schema: App/v1/Y/Obj
value: number
"""


class TestTransactionAtomicityUnderCrash:
    def test_store_crash_mid_commit_aborts_atomically(self, env, zero_net):
        """Satellite: a cross-store txn interrupted by a crash applies
        nothing -- neither store ever shows partial state."""
        backend = ApiServer(
            env, zero_net, watch_overhead=0.0,
            ops={"txn": OpLatency(0.05)},
        )
        de = ObjectDE(env, backend)
        de.host_store("store-x", SCHEMA_X, owner="owner")
        de.host_store("store-y", SCHEMA_Y, owner="owner")
        txn = de.transaction("owner")
        txn.create("store-x", "k", {"value": 1})
        txn.create("store-y", "k", {"value": 2})
        commit = txn.commit()
        env.run(until=env.timeout(0.01))  # commit is now in flight
        backend.crash()
        with pytest.raises(UnavailableError):
            env.run(until=commit)
        backend.restart()
        env.run()
        for handle in (de.handle("store-x", principal="owner"),
                       de.handle("store-y", principal="owner")):
            with pytest.raises(NotFoundError):
                env.run(until=handle.get("k"))

    def test_retried_transaction_commits_after_restart(self, env, zero_net):
        backend = ApiServer(
            env, zero_net, watch_overhead=0.0,
            ops={"txn": OpLatency(0.05)},
        )
        policy = RetryPolicy(max_attempts=6, base_backoff=0.03, seed=5)
        de = ObjectDE(env, backend, retry_policy=policy)
        de.host_store("store-x", SCHEMA_X, owner="owner")
        de.host_store("store-y", SCHEMA_Y, owner="owner")
        txn = de.transaction("owner")
        txn.create("store-x", "k", {"value": 1})
        txn.create("store-y", "k", {"value": 2})
        commit = txn.commit()
        env.run(until=env.timeout(0.01))
        backend.crash()

        def recover(env):
            yield env.timeout(0.02)
            backend.restart()

        env.process(recover(env))
        views = env.run(until=commit)  # the retry wrapper rode through
        assert len(views) == 2
        assert policy.retries >= 1
        x = env.run(until=de.handle("store-x", principal="owner").get("k"))
        y = env.run(until=de.handle("store-y", principal="owner").get("k"))
        assert (x["data"], y["data"]) == ({"value": 1}, {"value": 2})
