"""Store failover: watches drop; reconcilers and integrators resync."""

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_REDIS
from repro.store import ApiServer
from repro.store.client import ObjectClient
from tests.test_property_faults import Informer


class TestWatchFailover:
    def test_fail_over_drops_watches(self, env, zero_net, call):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ObjectClient(server, "c")
        events = []
        client.watch(events.append)
        call(client.create("k1", {}))
        env.run()
        assert server.fail_over() == 1
        call(client.create("k2", {}))
        env.run()
        assert [e.key for e in events] == ["k1"]  # nothing after the drop

    def test_on_close_fires_after_failover(self, env, zero_net, call):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ObjectClient(server, "c")
        closed = []
        client.watch(lambda e: None, on_close=lambda: closed.append(env.now))
        server.fail_over()
        env.run()
        assert len(closed) == 1

    def test_cancelled_watch_does_not_fire_on_close(self, env, zero_net):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ObjectClient(server, "c")
        closed = []
        watch = client.watch(lambda e: None, on_close=lambda: closed.append(1))
        watch.cancel()
        server.fail_over()
        env.run()
        assert closed == []

    def test_rewatch_with_replay_recovers_missed_events(self, env, zero_net, call):
        """The full informer recovery, level-triggered: on a break the
        Follower reopens and re-lists, so a commit the stream never
        carried still reaches the consumer.  There is no replay."""
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ObjectClient(server, "c")
        informer = Informer(env, client)
        call(client.create("k1", {}))
        env.run()
        server.fail_over()
        call(client.create("k2", {}))
        env.run()
        # A silent break: these commits happen while the watcher is
        # disconnected and has not noticed yet...
        server.sever_watches(detect_after=0.05)
        call(client.create("k3", {}))
        call(client.update("k1", {"v": 1}))
        env.run()
        # ...so the stream never carried them, and the re-list did.
        assert informer.follower.breaks == 2
        assert [key for key, _ in informer.streamed] == ["k1", "k2"]
        assert informer.state == {
            key: (obj.revision, obj.data)
            for key, obj in server._objects.items()}
        assert sorted(informer.state) == ["k1", "k2", "k3"]
        assert informer.backwards == []
        assert len(informer.streamed) == len(set(informer.streamed))


class TestSyncFailover:
    def test_sync_catches_up_after_log_failover(self, env, zero_net):
        from repro.apps.smarthome import SmartHomeKnactorApp, MotionTrace

        app = SmartHomeKnactorApp.build(trace=MotionTrace(seed=11))
        app.run(until=30.0)
        seen_before = len(app.house.motion_log)
        # The log backend fails over: every Sync subscription drops.
        dropped = app.log_de.backend.fail_over()
        assert dropped > 0
        app.run(until=130.0)
        # Motion kept sensing through the outage; the Sync re-subscribed
        # and caught up from its cursor -- the House missed nothing.
        assert len(app.house.motion_log) > seen_before
        reference = SmartHomeKnactorApp.build(trace=MotionTrace(seed=11))
        reference.run(until=130.0)
        assert len(app.house.motion_log) == len(reference.house.motion_log)


class TestAppRecovery:
    def test_retail_app_survives_backend_failover(self):
        """Orders placed during the watch outage still fulfil: every
        component re-watches and resyncs."""
        app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False)
        workload = OrderWorkload(seed=7)

        # One order completes normally.
        key1, data1 = workload.next_order()
        app.env.run(until=app.place_order(key1, data1))
        app.run_until_quiet(max_seconds=30.0)
        assert app.env.run(until=app.order(key1))["data"]["status"] == "fulfilled"

        # Failover drops every watch in the system.
        dropped = app.de.backend.fail_over()
        assert dropped > 0

        # An order placed right after the failover...
        key2, data2 = workload.next_order()
        app.env.run(until=app.place_order(key2, data2))
        app.run_until_quiet(max_seconds=60.0)
        # ...is still fulfilled end-to-end.
        order = app.env.run(until=app.order(key2))["data"]
        assert order["status"] == "fulfilled"
        assert order["trackingID"].startswith("trk-")

    def test_reconciler_resyncs_pending_work_after_failover(self, env, zero_net):
        """An object created DURING the outage is picked up by re-list."""
        from repro.core import Knactor, KnactorRuntime, Reconciler, StoreBinding
        from repro.exchange import ObjectDE

        runtime = KnactorRuntime(env, network=zero_net)
        backend = ApiServer(env, zero_net, watch_overhead=0.0)
        de = ObjectDE(env, backend)
        runtime.add_exchange("object", de)

        class MarkSeen(Reconciler):
            def __init__(self):
                super().__init__("seen")
                self.keys = set()

            def reconcile(self, ctx, key, obj):
                if obj is not None:
                    self.keys.add(key)

        rec = MarkSeen()
        runtime.add_knactor(Knactor("svc", [StoreBinding(
            "default", "object", "schema: A/v1/S/T\nv: number\n")],
            reconciler=rec))
        runtime.start()
        env.run(until=env.now + 0.1)

        # Kill watches, then write while nobody is watching.
        backend.fail_over()
        owner_client = ObjectClient(backend, "svc")
        env.run(until=owner_client.create("knactor-svc/orphan", {"v": 1}))
        env.run(until=env.now + 1.0)
        # The re-established watch + re-list found the orphan.
        assert "orphan" in rec.keys


class TestFollowersMissNothing:
    """Every consumer follows its store through ``store.follow.Follower``:
    reopen, then catch up until the store answers.  Each case below lost
    work (or ended the run) when that protocol was hand-written per
    consumer."""

    def test_rollup_survives_log_failover(self, env):
        from tests.test_core_rollup import build

        runtime, rollup = build(env)
        meter = runtime.handle_of("meter", "log")
        env.run(until=meter.load([{"kwh": 1.0, "room": "den"}]))
        env.run()
        assert runtime.exchange("log").backend.fail_over() > 0
        env.run(until=meter.load([{"kwh": 2.0, "room": "hall"}]))
        env.run()
        dashboard = runtime.handle_of("dashboard")
        data = env.run(until=dashboard.get("main"))["data"]
        assert data["totalKwh"] == 3.0
        assert data["samples"] == 2

    def test_sync_rides_out_a_log_backend_that_stays_down(self, env, zero_net,
                                                          call):
        from tests.test_core_sync import build_runtime

        runtime, de, sync = build_runtime(env, zero_net)
        motion = runtime.handle_of("motion", "log")
        call(motion.load([{"triggered": True, "device": "d1"}]))
        env.run()
        de.backend.crash()
        env.run(until=env.now + 5.0)  # still down when the keepalive fires
        de.backend.restart()
        call(motion.load([{"triggered": True, "device": "d2"}]))
        env.run()
        assert sync.stats()["flows"][0]["records_moved"] == 2

    def test_materialized_view_rides_out_a_crashed_source(self, env, zero_net,
                                                          call):
        from repro.exchange import ObjectDE
        from repro.federation import ComposedView, ViewSource
        from tests.test_federation import ORDER_SCHEMA

        backend = ApiServer(env, zero_net, watch_overhead=0.0)
        de = ObjectDE(env, backend)
        de.host_store("orders", ORDER_SCHEMA, owner="checkout")
        view = de.register_view(
            ComposedView("orders-view",
                         sources=(ViewSource(alias="order", store="orders"),)),
            materialize=True,
        )
        orders = de.handle("orders", principal="checkout")
        call(orders.create("o1", {"status": "placed", "total": 1.0}))
        env.run(until=env.now + 0.1)
        assert view.materialized.staleness() < float("inf")
        backend.crash()
        env.run(until=env.now + 5.0)
        assert view.materialized.staleness() == float("inf")
        backend.restart()
        call(orders.create("o2", {"status": "placed", "total": 2.0}))
        env.run(until=env.now + 2.0)
        assert view.materialized.staleness() < float("inf")
        assert view.materialized.status()["order"]["rows"] == 2

    def test_txn_function_invokes_keys_committed_while_severed(
            self, env, zero_net, call):
        from repro.store import MemKV, MemKVClient
        from repro.txn import TxnFunctionIntegrator

        server = MemKV(env, zero_net, watch_overhead=0.0)
        client = MemKVClient(server, "app")

        def reconcile(ctx, key):
            order = ctx.get(key)["data"]
            if order.get("receipted"):
                return None
            ctx.create(f"receipts/{key}", {"total": order["cost"]})
            ctx.patch(key, {"receipted": True})
            return key

        integrator = TxnFunctionIntegrator(
            "receipter", client, reconcile, key_prefix="orders/")
        integrator.bind(None)
        integrator.start()
        call(client.create("orders/o1", {"cost": 42}))
        env.run(until=env.now + 0.5)
        server.sever_watches()
        other = MemKVClient(server, "other")
        call(other.create("orders/o2", {"cost": 7}))
        env.run(until=env.now + 2.0)
        assert call(client.get("receipts/orders/o2"))["data"] == {"total": 7}
        assert call(client.get("orders/o2"))["data"]["receipted"] is True
        # Exactly once: the catch-up re-presented o1 at the revision its
        # event had carried, which the store answered from its replay
        # table instead of applying again.
        assert call(client.get("receipts/orders/o1"))["data"] == {"total": 42}
        assert server.fcall_replays == 1
        assert len(integrator.dead_letters) == 0

    def test_cast_finds_an_order_placed_across_a_backend_crash(self):
        from repro.core.optimizer import K_APISERVER

        app = RetailKnactorApp.build(profile=K_APISERVER, with_notify=False)
        workload = OrderWorkload(seed=7)
        key1, data1 = workload.next_order()
        app.env.run(until=app.place_order(key1, data1))
        app.run_until_quiet(max_seconds=30.0)
        assert app.env.run(until=app.order(key1))["data"]["status"] == "fulfilled"

        app.de.backend.crash()
        app.de.backend.restart()
        key2, data2 = workload.next_order()
        app.env.run(until=app.place_order(key2, data2))
        app.run_until_quiet(max_seconds=60.0)
        order = app.env.run(until=app.order(key2))["data"]
        assert order["status"] == "fulfilled"
        assert order["trackingID"].startswith("trk-")
