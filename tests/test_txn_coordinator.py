"""Cross-shard transactional plane: 2PC, exactly-once, recovery."""

import pytest

from repro.errors import (
    AlreadyExistsError,
    ConfigurationError,
    ConflictError,
    CrossShardTxnError,
    NotFoundError,
    UnavailableError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.obs import ObsPlane
from repro.store import (
    ApiServer,
    MemKV,
    MemKVClient,
    ShardedStore,
    ShardedStoreClient,
    ShardRing,
)
from repro.store.client import ObjectClient
from repro.txn import TxnFunctionIntegrator


def make_store(env, net, n=2, backend=ApiServer, **kwargs):
    shards = [
        backend(env, net, location=f"shard-{i}", watch_overhead=0.0, **kwargs)
        for i in range(n)
    ]
    return ShardedStore(shards, name="txnstore")


def keys_on_shards(n, count_per_shard=2, tag="k"):
    """Deterministic keys guaranteed to cover every one of ``n`` shards."""
    found = {i: [] for i in range(n)}
    i = 0
    while any(len(v) < count_per_shard for v in found.values()):
        key = f"{tag}-{i}"
        idx = ShardRing.for_count(n).owner_index(key)
        if len(found[idx]) < count_per_shard:
            found[idx].append(key)
        i += 1
    return found


def cross_shard_ops(n, tag="k"):
    per_shard = keys_on_shards(n, count_per_shard=1, tag=tag)
    return [
        {"action": "create", "key": per_shard[i][0], "data": {"shard": i}}
        for i in range(n)
    ]


class TestCrossShardRouting:
    def test_cross_shard_without_mode_raises_typed_error(self, env, net, call):
        store = make_store(env, net)
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        with pytest.raises(CrossShardTxnError) as excinfo:
            call(client.txn(ops))
        err = excinfo.value
        assert "cross-shard" in str(err)
        assert set(err.shard_map) == {op["key"] for op in ops}
        assert len(set(err.shard_map.values())) == 2

    def test_single_shard_txn_still_fast_path(self, env, net, call):
        store = make_store(env, net)
        client = ShardedStoreClient(store, "caller")
        keys = keys_on_shards(2)[0]  # both on shard 0
        views = call(client.txn([
            {"action": "create", "key": keys[0], "data": {"v": 1}},
            {"action": "create", "key": keys[1], "data": {"v": 2}},
        ]))
        assert len(views) == 2
        assert store._coordinator is None  # coordinator never involved

    def test_unknown_mode_rejected(self, env, net):
        store = make_store(env, net)
        client = ShardedStoreClient(store, "caller")
        with pytest.raises(ConfigurationError):
            client.txn(cross_shard_ops(2), mode="3pc")

    def test_saga_mode_is_gone(self, env, net):
        # 2PC is the one atomic model; the saga mode was removed.
        store = make_store(env, net)
        client = ShardedStoreClient(store, "caller")
        with pytest.raises(ConfigurationError, match=r"use '2pc'\)"):
            client.txn(cross_shard_ops(2), mode="saga")
        with pytest.raises(ConfigurationError):
            store.coordinator.arm_phase_kill("compensate")


class Test2PC:
    def test_commit_applies_on_every_shard(self, env, net, call):
        store = make_store(env, net)
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        views = call(client.txn(ops, mode="2pc"))
        assert len(views) == 2
        for op in ops:
            assert call(client.get(op["key"]))["data"] == op["data"]
        assert store.in_doubt_txns == 0
        assert store.coordinator.committed_total == 1

    def test_validation_failure_applies_nothing_anywhere(self, env, net, call):
        store = make_store(env, net)
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        call(client.create(ops[1]["key"], {"pre": True}))  # collides
        with pytest.raises(AlreadyExistsError):
            call(client.txn(ops, mode="2pc"))
        with pytest.raises(NotFoundError):
            call(client.get(ops[0]["key"]))  # first shard rolled back
        assert store.in_doubt_txns == 0
        assert store.coordinator.aborted_total == 1

    def test_conflict_message_names_expected_and_actual(self, env, net, call):
        store = make_store(env, net)
        client = ShardedStoreClient(store, "caller")
        key = keys_on_shards(2)[0][0]
        created = call(client.create(key, {"v": 1}))
        call(client.update(key, {"v": 2}))
        current = call(client.get(key))["revision"]
        with pytest.raises(ConflictError) as excinfo:
            call(client.txn([
                {"action": "update", "key": key, "data": {"v": 3},
                 "resource_version": created["revision"]},
            ]))
        message = str(excinfo.value)
        assert f"expected revision {created['revision']}" in message
        assert f"is {current}" in message

    def test_conflict_message_for_key_rewritten_in_txn(self, env, net, call):
        store = make_store(env, net)
        client = ShardedStoreClient(store, "caller")
        key = keys_on_shards(2)[0][0]
        with pytest.raises(ConflictError) as excinfo:
            call(client.txn([
                {"action": "create", "key": key, "data": {"v": 1}},
                {"action": "update", "key": key, "data": {"v": 2},
                 "resource_version": 999},
            ]))
        assert "rewritten by op 0" in str(excinfo.value)

    def test_in_doubt_lock_blocks_writers_until_decision(self, env, net, call):
        store = make_store(env, net)
        coord = store.coordinator
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        # Arm a commit-point kill so the txn stops right after the
        # decision, leaving both participants prepared (in-doubt).
        coord.arm_phase_kill("commit", restart_after=1.0)
        with pytest.raises(UnavailableError):
            call(client.txn(ops, mode="2pc"))
        assert store.in_doubt_txns == 2
        # A concurrent writer bounces off the lock, retryably.
        with pytest.raises(ConflictError) as excinfo:
            call(client.create(ops[0]["key"], {"other": True}))
        assert "in-doubt" in str(excinfo.value)
        # Recovery (scheduled restart) re-drives the decided commit.
        env.run(until=env.timeout(2.0))
        assert store.in_doubt_txns == 0
        assert call(client.get(ops[0]["key"]))["data"] == ops[0]["data"]

    def test_prepare_kill_presumed_abort(self, env, net, call):
        store = make_store(env, net)
        coord = store.coordinator
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        coord.arm_phase_kill("prepare", restart_after=0.5)
        with pytest.raises(UnavailableError):
            call(client.txn(ops, mode="2pc"))
        env.run(until=env.timeout(1.0))
        # Presumed abort: nothing applied, nothing in doubt.
        assert store.in_doubt_txns == 0
        for op in ops:
            with pytest.raises(NotFoundError):
                call(client.get(op["key"]))
        assert coord.outcome("txn-000001") == "aborted"


class TestExactlyOnce:
    def test_idempotent_replay_returns_cached_views(self, env, net, call):
        store = make_store(env, net)
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        views = call(client.txn(ops, mode="2pc", idempotence_key="order-1"))
        replay = call(client.txn(ops, mode="2pc", idempotence_key="order-1"))
        # Creates would raise AlreadyExistsError if re-applied: the
        # replay returning cleanly proves nothing double-applied.
        assert [v["key"] for v in replay] == [v["key"] for v in views]
        assert store.coordinator.idempotent_replays == 1
        assert store.coordinator.committed_total == 1

    def test_retry_after_commit_point_kill_is_exactly_once(self, env, net,
                                                           call):
        store = make_store(env, net)
        coord = store.coordinator
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        coord.arm_phase_kill("commit", restart_after=0.2)

        def driver(env):
            attempts = 0
            while True:
                attempts += 1
                try:
                    views = yield client.txn(ops, mode="2pc",
                                             idempotence_key="order-9")
                    return attempts, views
                except UnavailableError:
                    yield env.timeout(0.3)

        attempts, views = call(driver(env))
        assert attempts == 2  # first died at the commit point
        assert len(views) == 2 or views == []  # recovered commit: views
        # may have been recorded by recovery (no caller to hand them to)
        for op in ops:
            assert call(client.get(op["key"]))["data"] == op["data"]
        assert coord.committed_total == 1
        assert coord.idempotent_replays == 1

    def test_aborted_key_is_released_for_fresh_retry(self, env, net, call):
        store = make_store(env, net)
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        blocker = call(client.create(ops[0]["key"], {"pre": True}))
        with pytest.raises(AlreadyExistsError):
            call(client.txn(ops, mode="2pc", idempotence_key="retry-me"))
        call(client.delete(ops[0]["key"]))
        del blocker
        views = call(client.txn(ops, mode="2pc", idempotence_key="retry-me"))
        assert len(views) == 2


class TestParticipantDurability:
    def test_in_doubt_survives_participant_crash(self, env, net, call):
        store = make_store(env, net)
        coord = store.coordinator
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        coord.arm_phase_kill("commit", restart_after=3.0)
        with pytest.raises(UnavailableError):
            call(client.txn(ops, mode="2pc"))
        assert store.in_doubt_txns == 2
        # Crash + restart one prepared participant: the WAL marker
        # rebuilds the in-doubt hold and its key locks.
        shard = store.shards[0]
        shard.crash()
        assert shard.in_doubt_txns == 0  # memory gone...
        shard.restart()
        assert shard.in_doubt_txns == 1  # ...WAL brought it back
        with pytest.raises(ConflictError):
            call(client.create(cross_shard_ops(2)[0]["key"], {"x": 1}))
        # Coordinator recovery then commits through.
        env.run(until=env.timeout(4.0))
        assert store.in_doubt_txns == 0
        for op in ops:
            assert call(client.get(op["key"]))["data"] == op["data"]

    def test_decided_marker_survives_crash(self, env, net, call):
        store = make_store(env, net)
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        call(client.txn(ops, mode="2pc"))
        shard = store.shards[0]
        shard.crash()
        shard.restart()
        assert shard.in_doubt_txns == 0
        # Re-driving the commit after the crash stays idempotent.
        reply = call(ObjectClient(store.shards[0], "x")
                     .txn_commit("txn-000001"))
        assert reply["state"] == "committed"


class TestKillDuringTxnPlan:
    def test_plan_sugar_validates_phase(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().kill_during_txn("coord", "fsync", at=0.1, duration=0.2)
        # "compensate" went with the saga mode.
        with pytest.raises(ConfigurationError):
            FaultPlan().kill_during_txn("coord", "compensate", at=0.1,
                                        duration=0.2)

    def test_injector_arms_and_fires_phase_kill(self, env, net, call):
        store = make_store(env, net)
        coord = store.coordinator
        client = ShardedStoreClient(store, "caller")
        plan = FaultPlan().kill_during_txn("coord", "commit",
                                           at=0.05, duration=0.3)
        injector = FaultInjector(env, net, processes={"coord": coord})
        injector.schedule(plan)
        ops = cross_shard_ops(2)

        def driver(env):
            yield env.timeout(0.1)  # inside the armed window
            while True:
                try:
                    views = yield client.txn(ops, mode="2pc",
                                             idempotence_key="k1")
                    return views
                except UnavailableError:
                    yield env.timeout(0.1)

        call(env.process(driver(env)))
        assert coord.kill_count == 1
        assert coord.recoveries == 1
        assert store.in_doubt_txns == 0
        for op in ops:
            assert call(client.get(op["key"]))["data"] == op["data"]
        kills = [e for e in injector.events if e[2] == "kill"]
        assert len(kills) == 2  # begin + end logged deterministically

    def test_unfired_arm_is_withdrawn_at_window_end(self, env, net, call):
        store = make_store(env, net)
        coord = store.coordinator
        client = ShardedStoreClient(store, "caller")
        plan = FaultPlan().kill_during_txn("coord", "commit",
                                           at=0.05, duration=0.1)
        FaultInjector(env, net, processes={"coord": coord}).schedule(plan)
        env.run(until=env.timeout(0.5))
        # No txn ran during the window: coordinator alive, not armed.
        assert coord.alive
        assert coord._phase_kill is None
        views = call(client.txn(cross_shard_ops(2), mode="2pc"))
        assert len(views) == 2
        assert coord.kill_count == 0


class TestTransactionalFunctions:
    def make_kv(self, env, zero_net):
        server = MemKV(env, zero_net, watch_overhead=0.0)
        return server, MemKVClient(server, "app")

    def test_fcall_txn_read_modify_write_is_atomic(self, env, zero_net, call):
        server, client = self.make_kv(env, zero_net)
        call(client.create("acct/a", {"balance": 100}))
        call(client.create("acct/b", {"balance": 0}))

        def transfer(ctx, amount):
            a = ctx.get("acct/a")["data"]["balance"]
            b = ctx.get("acct/b")["data"]["balance"]
            ctx.update("acct/a", {"balance": a - amount})
            ctx.update("acct/b", {"balance": b + amount})
            return {"moved": amount}

        server.functions.register("transfer", transfer)
        result = call(client.fcall_txn("transfer", 30))
        assert result == {"moved": 30}
        assert call(client.get("acct/a"))["data"]["balance"] == 70
        assert call(client.get("acct/b"))["data"]["balance"] == 30

    def test_fcall_txn_idempotence_key_dedupes(self, env, zero_net, call):
        server, client = self.make_kv(env, zero_net)
        call(client.create("counter", {"n": 0}))

        def bump(ctx):
            n = ctx.get("counter")["data"]["n"]
            ctx.update("counter", {"n": n + 1})
            return n + 1

        server.functions.register("bump", bump)
        first = call(client.fcall_txn("bump", idempotence_key="evt-1"))
        replay = call(client.fcall_txn("bump", idempotence_key="evt-1"))
        assert first == replay == 1
        assert call(client.get("counter"))["data"]["n"] == 1
        assert server.fcall_replays == 1
        # A different key applies again.
        assert call(client.fcall_txn("bump", idempotence_key="evt-2")) == 2

    def test_fcall_txn_buffered_reads_see_own_writes(self, env, zero_net,
                                                     call):
        server, client = self.make_kv(env, zero_net)

        def chain(ctx):
            ctx.create("x", {"v": 1})
            seen = ctx.get("x")["data"]["v"]  # read-your-writes
            ctx.patch("x", {"w": seen + 1})
            return ctx.exists("x")

        server.functions.register("chain", chain)
        assert call(client.fcall_txn("chain")) is True
        assert call(client.get("x"))["data"] == {"v": 1, "w": 2}

    def test_integrator_as_transactional_function(self, env, zero_net, call):
        server, client = self.make_kv(env, zero_net)

        def reconcile(ctx, key):
            order = ctx.get(key)["data"]
            if order.get("receipted"):
                return None
            ctx.create(f"receipts/{key}", {"total": order["cost"]})
            ctx.patch(key, {"receipted": True})
            return key

        integrator = TxnFunctionIntegrator(
            "receipter", client, reconcile, key_prefix="orders/"
        )
        integrator.bind(None)
        integrator.start()
        call(client.create("orders/o1", {"cost": 42}))
        env.run(until=env.timeout(0.5))
        assert call(client.get("receipts/orders/o1"))["data"] == {"total": 42}
        assert call(client.get("orders/o1"))["data"]["receipted"] is True
        # Level-triggered convergence: the patch event re-invoked the
        # function, which saw receipted=True and wrote nothing.
        assert integrator.invocations >= 2
        assert len(integrator.dead_letters) == 0


class TestObsIntegration:
    def test_spans_and_counters_for_recovery(self, env, net, call):
        store = make_store(env, net)
        coord = store.coordinator
        plane = ObsPlane(env)
        coord.tracer = plane.causal
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        coord.arm_phase_kill("commit", restart_after=0.2)
        with pytest.raises(UnavailableError):
            call(client.txn(ops, mode="2pc"))
        assert store.in_doubt_txns == 2
        env.run(until=env.timeout(1.0))
        assert store.in_doubt_txns == 0  # drained by recovery
        names = {span.name for span in plane.causal.spans.values()}
        assert {"txn", "txn-prepare", "txn-commit", "txn-recovery"} <= names
        stats = store.txn_stats()
        assert stats["committed"] == 1
        assert stats["recoveries"] == 1

    def test_abort_and_compensate_spans(self, env, net, call):
        store = make_store(env, net)
        coord = store.coordinator
        plane = ObsPlane(env)
        coord.tracer = plane.causal
        client = ShardedStoreClient(store, "caller")
        ops = cross_shard_ops(2)
        call(client.create(ops[1]["key"], {"pre": True}))
        with pytest.raises(AlreadyExistsError):
            call(client.txn(ops, mode="2pc", idempotence_key="s1"))
        names = {span.name for span in plane.causal.spans.values()}
        assert "txn-abort" in names
        assert store.txn_stats()["aborted"] == 1
        assert store.in_doubt_txns == 0
