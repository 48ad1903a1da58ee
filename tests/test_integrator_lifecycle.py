"""One follower lifecycle: rejected reconfigurations, kills and restarts.

Every integrator builds a new generation -- its followers and the state
they feed -- before anything live changes, so a reconfiguration that is
rejected leaves the generation, the bindings and the running streams as
they were.  ``kill()``/``restart()`` are written once for every
integrator and reconciler: a kill loses the work queue, and the restart
catches every stream up.  Sync also queues again each claimed range the
kill lost, and moves no range twice.  A follower a reconfiguration starts
on a running Sync or Rollup catches up once, so a batch whose event was
on the old stream when it was cancelled is not lost with it.
"""

import pytest

from repro.core import Flow, Pipeline
from repro.core.rollup import Rollup, RollupRule
from repro.errors import ConfigurationError, DXGAnalysisError
from repro.faults import FaultInjector, FaultPlan
from repro.store import MemKV, MemKVClient
from repro.txn import TxnFunctionIntegrator
from tests.test_core_cast import DXG as CAST_DXG
from tests.test_core_cast import build_runtime as build_cast
from tests.test_core_cast import place_order
from tests.test_core_rollup import build as build_rollup
from tests.test_core_sync import build_runtime as build_sync

MOTION, HOUSE = "knactor-motion-log", "knactor-house-log"
TRIGGERED = Pipeline().filter("triggered == True").rename(
    "triggered", "motion").cut("motion", "device")


def devices(runtime, call):
    return [r["device"] for r in call(runtime.handle_of("house", "log").query())]


def live(integrator):
    """What a rejected reconfiguration must leave as it was."""
    return (integrator.generation, list(integrator.followers.members),
            [f.started for f in integrator.followers.members],
            [f.stream for f in integrator.followers.members])


def kill_at(env, network, name, process, at, duration):
    injector = FaultInjector(env, network, processes={name: process})
    injector.schedule(FaultPlan().kill_process(name, at=at,
                                               duration=duration))


class TestRejectedReconfiguration:
    def test_sync_keeps_its_flow_running(self, env, zero_net, call):
        runtime, _de, sync = build_sync(env, zero_net)
        motion = runtime.handle_of("motion", "log")
        call(motion.load([{"triggered": True, "device": "a"}]))
        env.run()
        before, bound = live(sync), sync._bound
        with pytest.raises(ConfigurationError, match="same store"):
            sync.reconfigure([
                Flow(source=MOTION, target=HOUSE, pipeline=TRIGGERED),
                Flow(source=MOTION, target=MOTION),
            ])
        assert live(sync) == before and sync._bound is bound
        assert sync.reconfigurations == []
        call(motion.load([{"triggered": True, "device": "b"}]))
        env.run()
        assert devices(runtime, call) == ["a", "b"]

    def test_rollup_keeps_its_rule_running(self, env):
        runtime, rollup = build_rollup(env)
        before, bound = live(rollup), rollup._bound
        with pytest.raises(ConfigurationError, match="no aggregations"):
            rollup.reconfigure([
                RollupRule(source="knactor-meter-log",
                           target="knactor-dashboard", target_key="main",
                           aggs={"totalKwh": "sum(kwh)"}),
                RollupRule(source="knactor-meter-log",
                           target="knactor-dashboard", target_key="other",
                           aggs={}),
            ])
        assert live(rollup) == before and rollup._bound is bound
        meter = runtime.handle_of("meter", "log")
        env.run(until=meter.load([{"kwh": 2.0, "room": "den"}]))
        env.run()
        dashboard = runtime.handle_of("dashboard")
        data = env.run(until=dashboard.get("main"))["data"]
        assert data == {"totalKwh": 2.0, "samples": 1}

    def test_cast_keeps_its_dxg_and_amends_it_later(self, env, zero_net,
                                                   call):
        runtime, _de, cast = build_cast(env, zero_net)
        before, executor = live(cast), cast.executor
        bad = CAST_DXG + "    nonexistentField: C.order.address\n"
        with pytest.raises(DXGAnalysisError, match="nonexistentField"):
            cast.reconfigure(spec=bad)
        assert live(cast) == before and cast.executor is executor
        assert "nonexistentField" not in cast._body["S"]
        assert cast.set_assignment("S", "method", "'ground'") == 1
        checkout = place_order(runtime, call, cost=5000)
        env.run()
        order = call(checkout.get("order/o1"))["data"]
        assert order["trackingID"] == "trk-o1"
        shipment = call(runtime.handle_of("shipping").get("o1"))["data"]
        assert shipment["method"] == "ground"  # the amendment, not "air"


class TestKeptFlow:
    @pytest.mark.parametrize("at_source", [True, False])
    def test_a_reconfiguration_that_keeps_a_flow_keeps_its_cursor(
            self, env, zero_net, call, at_source):
        runtime, _de, sync = build_sync(env, zero_net, at_source=at_source)
        motion = runtime.handle_of("motion", "log")
        call(motion.load([{"triggered": True, "device": "a"}]))
        env.run()
        sync.reconfigure([Flow(source=MOTION, target=HOUSE,
                               pipeline=TRIGGERED, at_source=at_source)])
        call(motion.load([{"triggered": True, "device": "c"}]))
        env.run()
        assert devices(runtime, call) == ["a", "c"]  # not a, a, c
        [bound] = sync._bound.values()
        assert (bound.next_seq, bound.batches, bound.records_moved) == (
            2, 2, 2)
        assert not bound.unmoved

    @pytest.mark.parametrize("at_source", [True, False])
    def test_a_move_in_flight_across_the_reconfiguration_settles_once(
            self, env, net, call, at_source):
        # Each hop takes 0.25 ms: the move is still under way when the
        # new generation takes over, and a later kill/restart catch-up
        # finds no range left to move again.
        runtime, _de, sync = build_sync(env, net, at_source=at_source)
        motion = runtime.handle_of("motion", "log")
        call(motion.load([{"triggered": True, "device": "a"}]))
        env.run(until=env.now + 0.0004)
        [old] = sync._bound.values()
        assert old.unmoved  # claimed, not yet moved
        sync.reconfigure([Flow(source=MOTION, target=HOUSE,
                               pipeline=TRIGGERED, at_source=at_source)])
        env.run()
        [bound] = sync._bound.values()
        assert bound is not old and not bound.unmoved
        assert bound.records_moved == 1
        sync.kill()
        sync.restart()
        env.run()
        assert devices(runtime, call) == ["a"]


class TestInFlightAcrossASwap:
    # Each hop takes 0.25 ms (Rollup's 0.5 ms): the load's watch event is
    # on the old stream's link when the new generation takes over, and is
    # dropped with that stream.  The follower the swap started catches up
    # once, so the batch is moved, and only once.
    @pytest.mark.parametrize("delay", [0.0011, 0.0012, 0.0013])
    @pytest.mark.parametrize("at_source", [True, False])
    def test_sync_moves_a_batch_on_the_old_stream(self, env, net, call,
                                                  at_source, delay):
        runtime, _de, sync = build_sync(env, net, at_source=at_source)
        runtime.handle_of("motion", "log").load(
            [{"triggered": True, "device": "a"}])
        env.run(until=env.now + delay)
        sync.reconfigure([Flow(source=MOTION, target=HOUSE,
                               pipeline=TRIGGERED, at_source=at_source)])
        env.run()
        assert devices(runtime, call) == ["a"]
        [bound] = sync._bound.values()
        assert bound.records_moved == 1 and not bound.unmoved

    @pytest.mark.parametrize("delay", [0.0015, 0.0017])
    def test_rollup_rolls_a_batch_on_the_old_stream(self, env, delay):
        runtime, rollup = build_rollup(env)
        runtime.handle_of("meter", "log").load([{"kwh": 2.0, "room": "den"}])
        env.run(until=env.now + delay)
        rollup.reconfigure([RollupRule(
            source="knactor-meter-log", target="knactor-dashboard",
            target_key="main",
            aggs={"totalKwh": "sum(kwh)", "samples": "count()"})])
        env.run()
        dashboard = runtime.handle_of("dashboard")
        data = env.run(until=dashboard.get("main"))["data"]
        assert data == {"totalKwh": 2.0, "samples": 1}


class TestRegistration:
    def test_an_integrator_that_fails_to_bind_is_not_registered(self, env):
        runtime, _rollup = build_rollup(env)
        runtime.exchange("log").grant("r", "knactor-meter-log", role="reader")
        runtime.exchange("object").grant("r", "knactor-dashboard",
                                         role="integrator")
        bad = Rollup("r", rules=[RollupRule(
            source="knactor-meter-log", target="knactor-dashboard",
            target_key="main", aggs={})])
        with pytest.raises(ConfigurationError, match="no aggregations"):
            runtime.add_integrator(bad)
        assert "r" not in runtime.integrators
        good = Rollup("r", rules=[RollupRule(
            source="knactor-meter-log", target="knactor-dashboard",
            target_key="main", aggs={"samples": "count()"})])
        assert runtime.add_integrator(good) is good
        assert runtime.integrators["r"] is good and good.started


class TestSyncKill:
    # The second batch's move meets a brown-out at once; the kill lands
    # at 0 (the move in flight), 0.02 s (it waits on its second retry)
    # or 0.05 s (on its third).  The store comes back at 0.3 s.
    @pytest.mark.parametrize("kill", [0.0, 0.02, 0.05])
    @pytest.mark.parametrize("at_source", [True, False])
    def test_a_kill_loses_no_record_and_moves_none_twice(
            self, env, zero_net, call, kill, at_source):
        runtime, de, sync = build_sync(env, zero_net, at_source=at_source)
        motion = runtime.handle_of("motion", "log")
        call(motion.load([{"triggered": True, "device": "a"}]))
        env.run()
        call(motion.load([{"triggered": True, "device": "b"},
                          {"triggered": True, "device": "c"}]))
        de.backend.set_available(False)
        start = env.now
        kill_at(env, runtime.network, "home-sync", sync, kill, 0.04)
        [bound] = sync._bound.values()
        if kill:
            env.run(until=start + kill - 0.001)
            stats = sync.queue.stats()
            # Claimed, not moved, neither pending nor in a pass: the
            # range waits on a retry the kill is about to forget.
            assert len(bound.unmoved) == 1
            assert stats["pending"] == stats["in_flight"] == 0
        env.run(until=start + 0.3)
        de.backend.set_available(True)
        env.run()
        assert sync.stats()["kills"] == 1 and sync.started
        assert devices(runtime, call) == ["a", "b", "c"]
        assert bound.records_moved == 3 and not bound.unmoved
        assert len(sync.dead_letters) == 0

    @pytest.mark.parametrize("down", [0.0001, 0.0003, 0.0006])
    def test_a_move_in_flight_across_a_kill_moves_once(self, env, net, call,
                                                      down):
        # Each hop takes 0.25 ms, so the restart finds the move still
        # querying the source or loading the target.
        runtime, _de, sync = build_sync(env, net)
        motion = runtime.handle_of("motion", "log")
        call(motion.load([{"triggered": True, "device": "a"}]))
        kill_at(env, runtime.network, "home-sync", sync, 0.0, down)
        env.run()
        assert devices(runtime, call) == ["a"]
        [bound] = sync._bound.values()
        assert bound.records_moved == 1 and sync.stats()["kills"] == 1

    def test_a_killed_sync_moves_what_was_loaded_while_it_was_down(
            self, env, zero_net, call):
        runtime, _de, sync = build_sync(env, zero_net)
        motion = runtime.handle_of("motion", "log")
        kill_at(env, runtime.network, "home-sync", sync, 0.01, 0.5)
        env.run(until=0.1)
        assert not sync.started
        call(motion.load([{"triggered": True, "device": "a"}]))
        env.run()
        assert devices(runtime, call) == ["a"]


class TestKillConverges:
    @pytest.mark.parametrize("kill", [0.0, 0.02])
    def test_rollup(self, env, kill):
        runtime, rollup = build_rollup(env)
        meter = runtime.handle_of("meter", "log")
        env.run(until=meter.load([{"kwh": 1.0, "room": "den"}]))
        env.run()
        env.run(until=meter.load([{"kwh": 2.5, "room": "hall"}]))
        lake = runtime.exchange("log").backend
        lake.set_available(False)
        start = env.now
        kill_at(env, runtime.network, "rollup", rollup, kill, 0.04)
        env.run(until=start + 0.3)
        lake.set_available(True)
        env.run()
        dashboard = runtime.handle_of("dashboard")
        data = env.run(until=dashboard.get("main"))["data"]
        assert data == {"totalKwh": 3.5, "samples": 2}
        assert rollup.stats()["kills"] == 1
        assert len(rollup.dead_letters) == 0

    @pytest.mark.parametrize("brownout", [True, False])
    @pytest.mark.parametrize("kill", [0.0, 0.0003, 0.02])
    def test_txn_function_commits_once_per_idempotence_key(
            self, env, net, call, kill, brownout):
        server = MemKV(env, net, watch_overhead=0.0)
        client = MemKVClient(server, "app")

        def tally(ctx, key):
            # Not idempotent by itself: one more each time it commits.
            count = ctx.get("tally")["data"]["n"]
            ctx.patch("tally", {"n": count + 1})

        integrator = TxnFunctionIntegrator("tally", client, tally,
                                           key_prefix="orders/")
        integrator.bind(None)
        integrator.start()
        call(client.create("tally", {"n": 0}))
        call(client.create("orders/o1", {"cost": 1}))
        env.run()
        call(client.create("orders/o2", {"cost": 2}))
        if brownout:
            server.set_available(False)
        start = env.now
        kill_at(env, net, "tally", integrator, kill, 0.04)
        env.run(until=start + 0.3)
        server.set_available(True)
        env.run()
        # The restart re-presented keys already committed: each was
        # answered from the store's replay table, not run again.
        assert call(client.get("tally"))["data"]["n"] == 2
        assert server.fcall_replays >= 1
        assert integrator.stats()["kills"] == 1
        assert len(integrator.dead_letters) == 0
