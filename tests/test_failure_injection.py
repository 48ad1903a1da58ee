"""Failure-injection tests: the system under contention and faults."""

import pytest

from repro.core import Knactor, KnactorRuntime, Reconciler, StoreBinding
from repro.core.dxg import DXGExecutor, parse_dxg
from repro.errors import ConflictError, RPCStatusError
from repro.exchange import ObjectDE
from repro.simnet import Environment, Network, UniformLatency
from repro.store import ApiServer
from repro.store.client import ObjectClient

SCHEMA_A = """\
schema: App/v1/A/Obj
counter: number
note: string # +kr: external
"""


class TestConcurrentWriters:
    def test_cas_loop_never_loses_increments(self, env, zero_net, call):
        """N concurrent CAS writers: the final counter equals the total."""
        client = ObjectClient(
            ApiServer(env, zero_net, watch_overhead=0.0), "writers"
        )
        call(client.create("k", {"counter": 0}))

        def writer(env, increments):
            for _ in range(increments):
                while True:
                    view = yield client.get("k")
                    try:
                        yield client.update(
                            "k",
                            {"counter": view["data"]["counter"] + 1},
                            resource_version=view["revision"],
                        )
                        break
                    except ConflictError:
                        yield env.timeout(0.001)

        workers = [env.process(writer(env, 10)) for _ in range(4)]
        env.run(until=env.all_of(workers))
        assert call(client.get("k"))["data"]["counter"] == 40

    def test_reconciler_and_integrator_write_disjoint_fields(self, env, zero_net):
        """Merge-patch semantics: concurrent writers to different fields
        never clobber each other."""
        runtime = KnactorRuntime(env, network=zero_net)
        de = ObjectDE(env, ApiServer(env, zero_net, watch_overhead=0.0))
        runtime.add_exchange("object", de)

        class CounterReconciler(Reconciler):
            def reconcile(self, ctx, key, obj):
                if obj is None or obj.get("counter", 0) >= 5:
                    return
                yield ctx.store.patch(key, {"counter": obj.get("counter", 0) + 1})

        runtime.add_knactor(
            Knactor("a", [StoreBinding("default", "object", SCHEMA_A)],
                    reconciler=CounterReconciler())
        )
        de.grant("annotator", "knactor-a", role="integrator")
        annotator = de.handle("knactor-a", principal="annotator")
        runtime.start()
        owner = runtime.handle_of("a")
        env.run(until=owner.create("x", {"counter": 0}))

        def annotate(env):
            for i in range(5):
                yield env.timeout(0.003)
                yield annotator.patch("x", {"note": f"n{i}"})

        env.run(until=env.process(annotate(env)))
        env.run()
        final = env.run(until=owner.get("x"))["data"]
        assert final["counter"] == 5
        assert final["note"] == "n4"


class TestSlowAndLossyConditions:
    def test_exchange_correct_under_jittery_network(self):
        """High-variance latency must not corrupt exchange results."""
        env = Environment()
        net = Network(env, default_latency=UniformLatency(0.0, 0.02, seed=3))
        de = ObjectDE(env, ApiServer(env, net, watch_overhead=0.005))
        de.host_store("knactor-a", SCHEMA_A, owner="a")
        de.host_store(
            "knactor-b",
            "schema: App/v1/B/Obj\ncopy: number # +kr: external\n",
            owner="b",
        )
        de.grant("cast", "knactor-a", role="integrator")
        de.grant("cast", "knactor-b", role="integrator")
        executor = DXGExecutor(
            env,
            parse_dxg(
                "Input:\n  A: App/v1/A/knactor-a\n  B: App/v1/B/knactor-b\n"
                "DXG:\n  B:\n    copy: A.counter * 10\n"
            ),
            handles={"A": de.handle("knactor-a", principal="cast"),
                     "B": de.handle("knactor-b", principal="cast")},
        )
        owner = de.handle("knactor-a", principal="a")
        env.run(until=owner.create("x", {"counter": 7}))
        env.run(until=executor.exchange("x"))
        reader = de.handle("knactor-b", principal="b")
        assert env.run(until=reader.get("x"))["data"]["copy"] == 70

    def test_reconciler_retry_exhaustion_requeues(self, env, zero_net):
        """A permanently conflicting reconcile must not wedge the loop."""
        runtime = KnactorRuntime(env, network=zero_net)
        de = ObjectDE(env, ApiServer(env, zero_net, watch_overhead=0.0))
        runtime.add_exchange("object", de)

        class AlwaysConflicts(Reconciler):
            max_retries = 2
            backoff = 0.001

            def __init__(self):
                super().__init__("conflicting")
                self.attempts = 0
                self.other_keys_seen = []

            def reconcile(self, ctx, key, obj):
                if key == "poison":
                    self.attempts += 1
                    raise ConflictError("synthetic contention")
                self.other_keys_seen.append(key)

        rec = AlwaysConflicts()
        runtime.add_knactor(
            Knactor("a", [StoreBinding("default", "object", SCHEMA_A)],
                    reconciler=rec)
        )
        runtime.start()
        owner = runtime.handle_of("a")
        env.run(until=owner.create("poison", {"counter": 0}))
        env.run(until=owner.create("healthy", {"counter": 0}))
        env.run(until=env.now + 5.0)
        # The poison key exhausted its retries but the healthy key was
        # still processed: no head-of-line wedge.
        assert rec.attempts >= 3
        assert "healthy" in rec.other_keys_seen


class TestRPCFailureModes:
    def test_payment_failure_fails_order_without_shipping(self):
        """The RPC app's orchestration fails atomically-ish by hand --
        the failure-handling code Knactor's integrator doesn't need."""
        from repro.apps.retail.rpc_app import RetailRpcApp
        from repro.apps.retail.workload import OrderWorkload

        app = RetailRpcApp.build()
        _key, data = OrderWorkload(seed=7).next_order()
        data["cardToken"] = ""  # payment will reject
        shipped_before = app.impls["shipping"]._counter
        with pytest.raises(RPCStatusError):
            app.env.run(until=app.place_order(data))
        assert app.impls["shipping"]._counter == shipped_before

    def test_deadline_prevents_unbounded_waiting(self, env, net):
        from repro.rpc import RPCChannel, RPCServer

        server = RPCServer(env, net, "slow-svc")

        def handler(request):
            yield env.timeout(60.0)
            return {}

        server.register("S", "M", handler)
        channel = RPCChannel(env, server, "client", default_deadline=0.2)
        with pytest.raises(RPCStatusError) as excinfo:
            env.run(until=channel.call("S", "M", {}))
        assert excinfo.value.code == "DEADLINE_EXCEEDED"
        assert env.now < 1.0
