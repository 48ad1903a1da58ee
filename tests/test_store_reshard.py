"""Live elastic resharding: migration, fencing, ownership errors, durability."""

import pytest

from repro.errors import (
    ConfigurationError,
    ConflictError,
    CrossShardTxnError,
    ShardMovedError,
    StoreError,
)
from repro.simnet import Environment, Network
from repro.store import (
    ApiServer,
    MemKV,
    ShardedStore,
    ShardedStoreClient,
    Topology,
)
from repro.store.memkv import MemKVClient


def make_store(env, net, shards=1, backend=MemKV, seed=0, max_shards=4,
               **kwargs):
    def factory(i):
        return backend(env, net, location=f"shard-{i}", **kwargs)

    topology = Topology(shards=shards, seed=seed, min_shards=1,
                        max_shards=max_shards)
    return ShardedStore(topology=topology, shard_factory=factory, name="kv")


def drive(env, gen):
    """Run a driver generator to completion; re-raise what it raised."""
    box = {}

    def wrapper():
        try:
            box["result"] = yield from gen
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    env.process(wrapper())
    env.run(until=env.now + 60.0)
    if "error" in box:
        raise box["error"]
    assert "result" in box or gen.gi_frame is None, "driver did not finish"
    return box.get("result")


class TestLiveResharding:
    def test_grow_keeps_state_and_watch_order(self):
        env = Environment()
        net = Network(env)
        store = make_store(env, net, shards=1)
        client = ShardedStoreClient(store, "app")
        events, closes = [], []
        watch = client.watch(events.append, key_prefix="k/",
                             on_close=lambda reason: closes.append(reason))

        def driver():
            for i in range(30):
                yield client.create(f"k/{i}", {"v": i})
            proc = store.reshard(3)
            for i in range(30):
                yield client.update(f"k/{i}", {"v": i + 100})
                yield env.timeout(0.002)
            yield proc
            for i in range(30):
                obj = yield client.get(f"k/{i}")
                assert obj["data"]["v"] == i + 100
            return True

        assert drive(env, driver())
        env.run(until=env.now + 1.0)
        assert store.shard_count == 3
        assert closes == []
        by_key = {}
        for event in events:
            by_key.setdefault(event.key, []).append(event.revision)
        for key, revisions in by_key.items():
            assert revisions == sorted(revisions), key
        assert len(events) == 60
        assert len(watch.watches) == 3

    def test_shrink_keeps_state(self):
        env = Environment()
        net = Network(env)
        store = make_store(env, net, shards=3)
        client = ShardedStoreClient(store, "app")

        def driver():
            for i in range(30):
                yield client.create(f"k/{i}", {"v": i})
            proc = store.reshard(1)
            for i in range(30):
                yield client.update(f"k/{i}", {"v": i + 1})
                yield env.timeout(0.002)
            yield proc
            for i in range(30):
                obj = yield client.get(f"k/{i}")
                assert obj["data"]["v"] == i + 1
            return True

        assert drive(env, driver())
        assert store.shard_count == 1
        assert store.retired_shards  # kept for monotonic counters

    def test_writes_fence_and_reroute_during_cutover(self):
        env = Environment()
        net = Network(env)
        store = make_store(env, net, shards=1)
        client = ShardedStoreClient(store, "app")

        def driver():
            for i in range(40):
                yield client.create(f"k/{i}", {"v": i})
            proc = store.reshard(4)
            for i in range(40):
                yield client.update(f"k/{i}", {"v": i + 1})
                yield env.timeout(0.001)
            yield proc
            return True

        assert drive(env, driver())
        assert store.fence_rejections > 0
        assert store.stats()["ring"]["reroutes"] > 0
        assert store.reshard_stats["keys_moved"] > 0

    def test_bounds_and_reentry_guard(self):
        env = Environment()
        net = Network(env)
        store = make_store(env, net, shards=2, max_shards=4)

        def over():
            yield store.reshard(9)

        with pytest.raises(ConfigurationError):
            drive(env, over())

        def reenter():
            first = store.reshard(3)
            yield env.timeout(0.001)  # let the first transition engage
            try:
                yield store.reshard(4)
            except StoreError as exc:
                assert "already resharding" in str(exc)
            else:
                raise AssertionError("re-entrant reshard was allowed")
            yield first
            return True

        assert drive(env, reenter())

    def test_grow_without_factory_is_refused(self):
        env = Environment()
        net = Network(env)
        shards = [MemKV(env, net, location=f"s{i}") for i in range(2)]
        store = ShardedStore(shards, name="kv")  # no factory

        def driver():
            yield store.reshard(3)

        with pytest.raises(ConfigurationError):
            drive(env, driver())


class TestOwnershipFencing:
    def test_stray_write_names_the_new_owner(self):
        env = Environment()
        net = Network(env)
        store = make_store(env, net, shards=3)
        client = ShardedStoreClient(store, "app")
        wrong = next(s for s in store.shards if s is not store.shard_for("a"))
        rogue = MemKVClient(wrong, "rogue")

        def driver():
            yield client.create("a", {"v": 1})
            try:
                yield rogue.update("a", {"v": 2})
            except ShardMovedError as exc:
                assert exc.owner == store.owner_location("a")
                assert exc.ring_version == store.ring.version
                assert not exc.retryable  # re-route, don't blind-retry
                return True
            raise AssertionError("stray write was accepted")

        assert drive(env, driver())
        assert store.fence_rejections == 1

    def test_cross_shard_txn_error_reports_ring_ownership(self):
        env = Environment()
        net = Network(env)
        store = make_store(env, net, shards=3)
        client = ShardedStoreClient(store, "app")
        ring = store.ring
        other = next(f"k-{i}" for i in range(200)
                     if ring.owner_of(f"k-{i}") != ring.owner_of("a"))

        def driver():
            yield client.create("a", {"v": 1})
            yield client.create(other, {"v": 1})
            try:
                yield client.txn([
                    {"action": "update", "key": "a", "data": {}},
                    {"action": "update", "key": other, "data": {}},
                ])
            except CrossShardTxnError as exc:
                message = str(exc)
                assert f"ring v{ring.version}" in message
                assert store.owner_location("a") in message
                assert exc.shard_map["a"] == store.owner_location("a")
                assert exc.ring_version == ring.version
                return True
            raise AssertionError("cross-shard txn was accepted without mode")

        assert drive(env, driver())

    def test_conflict_message_carries_ownership_note(self):
        env = Environment()
        net = Network(env)
        store = make_store(env, net, shards=2)
        client = ShardedStoreClient(store, "app")

        def driver():
            yield client.create("a", {"v": 1})
            try:
                yield client.update("a", {"v": 2}, resource_version=999)
            except ConflictError as exc:
                note = f"[key 'a' -> shard {store.owner_location('a')!r}"
                assert note in str(exc)
                return True
            raise AssertionError("stale update was accepted")

        assert drive(env, driver())


class TestTxnDuringReshard:
    def test_2pc_commits_across_a_live_reshard(self):
        env = Environment()
        net = Network(env)
        store = make_store(env, net, shards=2)
        client = ShardedStoreClient(store, "app")
        coordinator = store.coordinator

        def driver():
            for i in range(20):
                yield client.create(f"a/{i}", {"v": i})
                yield client.create(f"b/{i}", {"v": i})
            proc = store.reshard(4)
            committed = 0
            for i in range(20):
                ops = [
                    {"action": "update", "key": f"a/{i}", "data": {"v": -i}},
                    {"action": "update", "key": f"b/{i}", "data": {"v": -i}},
                ]
                yield coordinator.txn(ops, mode="2pc")
                committed += 1
                yield env.timeout(0.003)
            yield proc
            for i in range(20):
                obj = yield client.get(f"a/{i}")
                assert obj["data"]["v"] == -i
            return committed

        assert drive(env, driver()) == 20
        assert store.in_doubt_txns == 0


class TestIngestDurability:
    def test_migrated_state_survives_dest_crash(self):
        env = Environment()
        net = Network(env)
        store = make_store(env, net, shards=1, backend=ApiServer)
        client = ShardedStoreClient(store, "app")

        def driver():
            for i in range(20):
                yield client.create(f"k/{i}", {"v": i}, labels={"tier": "a"})
            yield store.reshard(2)
            dest = store.shards[1]
            moved = [f"k/{i}" for i in range(20)
                     if store.shard_for(f"k/{i}") is dest]
            assert moved, "nothing landed on the new shard"
            dest.crash()
            yield env.timeout(0.01)
            dest.restart()
            yield env.timeout(0.01)
            for key in moved:
                obj = yield client.get(key)
                assert obj["data"]["v"] == int(key.split("/")[1])
                # Label fidelity comes from the authoritative reconcile
                # pass and must survive the WAL ingest-marker replay.
                assert dest._objects[key].labels == {"tier": "a"}
            return True

        assert drive(env, driver())
