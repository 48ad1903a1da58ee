"""Store failover: watches drop; reconcilers and integrators resync."""

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_REDIS
from repro.store import ApiServer, ApiServerClient


class TestWatchFailover:
    def test_fail_over_drops_watches(self, env, zero_net, call):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ApiServerClient(server, "c")
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
        client = ApiServerClient(server, "c")
        closed = []
        client.watch(lambda e: None, on_close=lambda: closed.append(env.now))
        server.fail_over()
        env.run()
        assert len(closed) == 1

    def test_cancelled_watch_does_not_fire_on_close(self, env, zero_net):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ApiServerClient(server, "c")
        closed = []
        watch = client.watch(lambda e: None, on_close=lambda: closed.append(1))
        watch.cancel()
        server.fail_over()
        env.run()
        assert closed == []

    def test_rewatch_with_replay_recovers_missed_events(self, env, zero_net, call):
        """The full informer recovery: remember the last seen revision,
        re-watch from it after failover, miss nothing."""
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ApiServerClient(server, "c")
        seen = []
        last_revision = [0]

        def handler(event):
            seen.append(event.key)
            last_revision[0] = event.revision

        def reconnect():
            client.watch(handler, from_revision=last_revision[0],
                         on_close=reconnect)

        client.watch(handler, on_close=reconnect)
        call(client.create("k1", {}))
        env.run()
        server.fail_over()
        # These commits happen while the watcher is disconnected...
        call(client.create("k2", {}))
        call(client.create("k3", {}))
        env.run()
        # ...but replay-from-revision delivers them on reconnect.
        assert seen == ["k1", "k2", "k3"]


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
        owner_client = ApiServerClient(backend, "svc")
        env.run(until=owner_client.create("knactor-svc/orphan", {"v": 1}))
        env.run(until=env.now + 1.0)
        # The re-established watch + re-list found the orphan.
        assert "orphan" in rec.keys
