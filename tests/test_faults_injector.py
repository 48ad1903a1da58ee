"""Fault injection: link faults, store crashes, WAL recovery, injector."""

import pytest

from repro.core import Knactor, KnactorRuntime, Reconciler, StoreBinding
from repro.errors import ConfigurationError, UnavailableError
from repro.exchange import ObjectDE
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.simnet import Environment, FixedLatency, Network
from repro.store import ApiServer, MemKV, MemKVClient
from repro.store.base import OpLatency
from repro.store.client import ObjectClient


class TestNetworkFaultRules:
    def test_partition_loses_both_directions(self, env, net):
        net.partition("a", "b")
        assert net.fault_verdict("a", "b")[0] is True
        assert net.fault_verdict("b", "a")[0] is True
        assert net.is_partitioned("a", "b")
        net.heal("a", "b")
        assert net.fault_verdict("a", "b") == (False, 0.0)

    def test_wildcard_partition_matches_any_peer(self, env, net):
        net.partition("a", "*")
        assert net.fault_verdict("a", "x")[0] is True
        assert net.fault_verdict("y", "a")[0] is True
        assert net.fault_verdict("x", "y")[0] is False

    def test_drop_rate_is_seeded_and_partial(self, env, net):
        net.set_drop_rate("a", "b", rate=0.5, seed=99)
        verdicts = [net.fault_verdict("a", "b")[0] for _ in range(200)]
        assert 0 < sum(verdicts) < 200  # some lost, some delivered
        net.clear_drop_rate("a", "b")
        fresh = Network(env, default_latency=FixedLatency(0.0))
        fresh.set_drop_rate("a", "b", rate=0.5, seed=99)
        again = [fresh.fault_verdict("a", "b")[0] for _ in range(200)]
        assert verdicts == again  # same seed, same losses

    def test_latency_spike_adds_delay(self, env, net):
        net.set_extra_latency("a", "b", 0.05)
        lost, extra = net.fault_verdict("a", "b")
        assert not lost
        assert extra == pytest.approx(0.05)
        net.clear_extra_latency("a", "b")
        assert net.fault_verdict("a", "b") == (False, 0.0)

    def test_heal_all_clears_every_rule(self, env, net):
        net.partition("a", "b")
        net.set_drop_rate("c", "d", rate=1.0)
        net.set_extra_latency("e", "f", 0.1)
        net.heal_all()
        for pair in (("a", "b"), ("c", "d"), ("e", "f")):
            assert net.fault_verdict(*pair) == (False, 0.0)

    def test_partitioned_transfer_raises_retryable(self, env, net, call):
        net.partition("client", "server")

        def attempt(env):
            yield net.transfer("client", "server", "ping")

        with pytest.raises(UnavailableError) as err:
            call(attempt(env))
        assert err.value.retryable


class TestApiServerCrashRecovery:
    def test_wal_replay_restores_objects_and_revisions(self, env, zero_net, call):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ObjectClient(server, "c")
        call(client.create("k1", {"v": 1}, labels={"tier": "gold"}))
        call(client.update("k1", {"v": 2}))
        call(client.create("k2", {"v": 3}))
        call(client.delete("k2"))
        before = call(client.get("k1"))
        revision_before = server.revision

        server.crash()
        env.run()
        assert not server.available
        assert server._objects == {}
        server.restart()
        env.run()

        after = call(client.get("k1"))
        assert after["data"] == before["data"]
        assert after["revision"] == before["revision"]
        assert server._objects["k1"].labels == {"tier": "gold"}
        assert server.revision == revision_before
        with pytest.raises(Exception):
            call(client.get("k2"))  # deleted before the crash; stays deleted
        assert server.crash_count == 1
        assert server.wal_length >= 4

    def test_ops_fail_retryably_while_down(self, env, zero_net, call):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ObjectClient(server, "c")
        server.crash()
        env.run()
        with pytest.raises(UnavailableError) as err:
            call(client.get("anything"))
        assert err.value.retryable

    def test_crash_preserves_created_at_across_restart(self, env, zero_net, call):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ObjectClient(server, "c")
        call(client.create("k", {"v": 0}))
        created = server._objects["k"].created_at
        env.run(until=env.timeout(1.0))
        call(client.update("k", {"v": 1}))
        server.crash()
        server.restart()
        env.run()
        assert server._objects["k"].created_at == created


class TestMemKVCrash:
    def test_state_is_lost_but_revisions_stay_monotonic(self, env, zero_net, call):
        server = MemKV(env, zero_net, watch_overhead=0.0)
        client = MemKVClient(server, "c")
        old = call(client.create("k", {"v": 1}))
        server.crash()
        server.restart()
        env.run()
        with pytest.raises(Exception):
            call(client.get("k"))  # no WAL: the object is gone
        new = call(client.create("k", {"v": 2}))
        assert new["revision"] > old["revision"]


class TestInFlightAbort:
    def _slow_server(self, env, net):
        return ApiServer(
            env, net, watch_overhead=0.0,
            ops={"create": OpLatency(0.05), "get": OpLatency(0.05)},
        )

    def test_crash_aborts_executing_op_with_retryable_error(
            self, env, zero_net, call):
        server = self._slow_server(env, zero_net)
        client = ObjectClient(server, "c")
        op = client.create("k", {"v": 1})
        env.run(until=env.timeout(0.01))  # op is now mid-execution
        server.crash()
        with pytest.raises(UnavailableError) as err:
            env.run(until=op)
        assert err.value.retryable
        assert server.aborted_ops == 1
        server.restart()
        env.run()
        with pytest.raises(Exception):
            call(client.get("k"))  # abort landed pre-commit

    def test_fail_over_aborts_in_flight_and_retry_succeeds(
            self, env, zero_net, call):
        """Satellite: fail_over() -> UnavailableError -> RetryPolicy wins."""
        server = self._slow_server(env, zero_net)
        policy = RetryPolicy(max_attempts=5, base_backoff=0.02, seed=1)
        client = ObjectClient(server, "c", retry_policy=policy)
        watcher = ObjectClient(server, "w")
        watcher.watch(lambda e: None)
        op = client.create("k", {"v": 1})
        env.run(until=env.timeout(0.01))
        assert server.fail_over() > 0  # still reports dropped watches
        result = env.run(until=op)  # the wrapped op retried through it
        assert result["revision"] >= 1
        assert server.aborted_ops == 1
        assert policy.retries >= 1
        assert call(client.get("k"))["data"] == {"v": 1}


class TestTransientUnavailability:
    def test_window_fails_ops_but_keeps_state_and_watches(
            self, env, zero_net, call):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ObjectClient(server, "c")
        call(client.create("k", {"v": 1}))
        seen = []
        client.watch(seen.append)
        server.set_available(False)
        with pytest.raises(UnavailableError):
            call(client.get("k"))
        server.set_available(True)
        assert call(client.get("k"))["data"] == {"v": 1}  # state survived
        call(client.update("k", {"v": 2}))
        env.run()
        assert [e.type for e in seen] == ["MODIFIED"]  # watch survived


SCHEMA = """\
schema: App/v1/A/Obj
counter: number
"""


class _Counter(Reconciler):
    def reconcile(self, ctx, key, obj):
        if obj is None or obj.get("counter", 0) >= 3:
            return
        yield ctx.store.patch(key, {"counter": obj.get("counter", 0) + 1})


class TestFaultInjector:
    def _plan(self):
        return (
            FaultPlan()
            .partition("a", "b", at=0.1, duration=0.2)
            .drop_window("a", "c", rate=0.5, at=0.15, duration=0.1, seed=3)
            .latency_spike("b", "c", extra=0.02, at=0.2, duration=0.1)
        )

    def test_same_plan_yields_identical_trace(self):
        traces = []
        for _ in range(2):
            env = Environment()
            net = Network(env, default_latency=FixedLatency(0.0))
            injector = FaultInjector(env, net).schedule(self._plan())
            env.run()
            traces.append(injector.trace())
        assert traces[0] == traces[1]
        assert len(traces[0]) == 6  # begin+end per action

    def test_active_faults_and_revert(self):
        env = Environment()
        net = Network(env, default_latency=FixedLatency(0.0))
        injector = FaultInjector(env, net).schedule(self._plan())
        env.run(until=0.16)
        assert ("partition", ("a", "b")) in injector.active_faults()
        assert net.is_partitioned("a", "b")
        env.run()
        assert injector.active_faults() == []
        assert net.fault_verdict("a", "b") == (False, 0.0)

    def test_overlapping_windows_are_refcounted(self):
        env = Environment()
        net = Network(env, default_latency=FixedLatency(0.0))
        plan = (FaultPlan()
                .partition("a", "b", at=0.0, duration=0.2)
                .partition("a", "b", at=0.1, duration=0.3))
        FaultInjector(env, net).schedule(plan)
        env.run(until=0.25)  # first window over, second still live
        assert net.is_partitioned("a", "b")
        env.run()
        assert not net.is_partitioned("a", "b")

    def test_unavailable_end_does_not_resurrect_crashed_store(
            self, env, zero_net):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        plan = (FaultPlan()
                .crash_store(server.location, at=0.0, duration=0.3)
                .unavailable_window(server.location, at=0.1, duration=0.1))
        FaultInjector(env, zero_net, stores=[server]).schedule(plan)
        env.run(until=0.25)  # brown-out ended; crash window still open
        assert not server.available
        env.run()
        assert server.available

    def test_unknown_targets_are_configuration_errors(self, env, zero_net):
        injector = FaultInjector(env, zero_net)
        plan = FaultPlan().crash_store("nowhere", at=0.0, duration=0.1)
        injector.schedule(plan)
        with pytest.raises(ConfigurationError):
            env.run()
        with pytest.raises(ConfigurationError):
            injector.register_process("p", object())  # no kill()/restart()

    def test_kill_and_restart_reconciler_recovers(self, env, zero_net):
        runtime = KnactorRuntime(env, network=zero_net)
        de = ObjectDE(env, ApiServer(env, zero_net, watch_overhead=0.0))
        runtime.add_exchange("object", de)
        reconciler = _Counter()
        runtime.add_knactor(
            Knactor("a", [StoreBinding("default", "object", SCHEMA)],
                    reconciler=reconciler)
        )
        runtime.start()
        owner = runtime.handle_of("a")
        plan = FaultPlan().kill_process("a-reconciler", at=0.01, duration=0.1)
        FaultInjector(
            env, zero_net, processes={"a-reconciler": reconciler}
        ).schedule(plan)
        env.run(until=owner.create("x", {"counter": 0}))
        env.run(until=0.05)
        assert reconciler.health() == "stopped"
        env.run()
        assert reconciler.health() == "ready"
        assert reconciler.kill_count == 1
        final = env.run(until=owner.get("x"))["data"]
        assert final["counter"] == 3  # resync after restart finished the job

    def test_random_plan_is_deterministic_and_covers_classes(self):
        plan1 = FaultPlan.random(
            7, horizon=2.0, endpoints=("a", "b", "c"),
            stores=("s",), processes=("p",), n_faults=8,
        )
        plan2 = FaultPlan.random(
            7, horizon=2.0, endpoints=("a", "b", "c"),
            stores=("s",), processes=("p",), n_faults=8,
        )
        assert plan1.describe() == plan2.describe()
        for kind in ("partition", "drop", "latency_spike", "crash",
                     "unavailable", "kill"):
            assert plan1.count(kind) >= 1
