"""Unit tests for retention policies and the garbage collector."""

import pytest

from repro.errors import ConfigurationError, NotFoundError
from repro.store import ApiServer, RefCountRetention, TTLRetention
from repro.store.client import ObjectClient
from repro.store.retention import GarbageCollector


@pytest.fixture
def server(env, zero_net):
    return ApiServer(env, zero_net, watch_overhead=0.0)


@pytest.fixture
def client(server):
    return ObjectClient(server, location="gc-test")


class TestRefCountRetention:
    def test_object_with_no_readers_is_retained(self):
        policy = RefCountRetention()
        assert not policy.is_collectable("orders/o1", 0.0, 100.0)

    def test_collectable_after_all_readers_done(self):
        policy = RefCountRetention()
        policy.register_reader("orders/", "integrator")
        policy.register_reader("orders/", "reconciler")
        policy.mark_done("orders/o1", "integrator")
        assert not policy.is_collectable("orders/o1", 0.0, 1.0)
        policy.mark_done("orders/o1", "reconciler")
        assert policy.is_collectable("orders/o1", 0.0, 1.0)

    def test_pending_for_lists_remaining_readers(self):
        policy = RefCountRetention()
        policy.register_reader("orders/", "a")
        policy.register_reader("orders/", "b")
        policy.mark_done("orders/o1", "a")
        assert policy.pending_for("orders/o1") == {"b"}

    def test_mark_done_by_non_reader_rejected(self):
        policy = RefCountRetention()
        policy.register_reader("orders/", "a")
        with pytest.raises(NotFoundError):
            policy.mark_done("orders/o1", "stranger")

    def test_overlapping_prefixes_union_readers(self):
        policy = RefCountRetention()
        policy.register_reader("", "auditor")
        policy.register_reader("orders/", "integrator")
        assert policy.readers_for("orders/o1") == {"auditor", "integrator"}

    def test_unregister_reader(self):
        policy = RefCountRetention()
        policy.register_reader("orders/", "a")
        policy.unregister_reader("orders/", "a")
        assert policy.readers_for("orders/o1") == set()

    def test_empty_entity_rejected(self):
        with pytest.raises(ConfigurationError):
            RefCountRetention().register_reader("x", "")


class TestTTLRetention:
    def test_collectable_after_ttl(self):
        policy = TTLRetention(ttl=10.0)
        assert not policy.is_collectable("k", updated_at=0.0, now=5.0)
        assert policy.is_collectable("k", updated_at=0.0, now=10.0)

    def test_invalid_ttl(self):
        with pytest.raises(ConfigurationError):
            TTLRetention(ttl=0)


class TestGarbageCollector:
    def test_never_collects_with_pending_reader(self, env, client, call):
        policy = RefCountRetention()
        policy.register_reader("orders/", "integrator")
        gc = GarbageCollector(env, client, policy, interval=1.0)
        call(client.create("orders/o1", {"v": 1}))
        gc.start()
        env.run(until=10.0)
        assert call(client.get("orders/o1"))["data"] == {"v": 1}
        assert gc.collected == []

    def test_collects_once_marked_done(self, env, client, call):
        policy = RefCountRetention()
        policy.register_reader("orders/", "integrator")
        gc = GarbageCollector(env, client, policy, interval=1.0)
        call(client.create("orders/o1", {"v": 1}))
        policy.mark_done("orders/o1", "integrator")
        gc.start()
        env.run(until=2.0)
        with pytest.raises(NotFoundError):
            call(client.get("orders/o1"))
        assert [key for _t, key in gc.collected] == ["orders/o1"]

    def test_ttl_sweep(self, env, client, call):
        gc = GarbageCollector(env, client, TTLRetention(ttl=5.0), interval=1.0)
        call(client.create("k", {"v": 1}))
        gc.start()
        env.run(until=3.0)
        assert call(client.get("k"))  # still young
        env.run(until=7.0)
        with pytest.raises(NotFoundError):
            call(client.get("k"))

    def test_prefix_scoped_sweep(self, env, client, call):
        gc = GarbageCollector(
            env, client, TTLRetention(ttl=1.0), interval=1.0, key_prefix="tmp/"
        )
        call(client.create("tmp/x", {}))
        call(client.create("keep/y", {}))
        gc.start()
        env.run(until=5.0)
        with pytest.raises(NotFoundError):
            call(client.get("tmp/x"))
        assert call(client.get("keep/y"))

    def test_stop_halts_collection(self, env, client, call):
        gc = GarbageCollector(env, client, TTLRetention(ttl=1.0), interval=1.0)
        call(client.create("k", {}))
        gc.start()
        gc.stop()
        env.run(until=10.0)
        assert call(client.get("k"))

    def test_start_is_idempotent(self, env, client):
        gc = GarbageCollector(env, client, TTLRetention(ttl=1.0))
        assert gc.start() is gc.start()

    def test_invalid_interval(self, env, client):
        with pytest.raises(ConfigurationError):
            GarbageCollector(env, client, TTLRetention(ttl=1.0), interval=0)
