"""Unit tests for the Redis-like in-memory store and UDF push-down."""

import pytest

from repro.errors import ConflictError, NotFoundError, StoreError
from repro.store import ApiServer, MemKV, MemKVClient
from repro.store.client import ObjectClient


@pytest.fixture
def server(env, zero_net):
    return MemKV(env, zero_net, watch_overhead=0.0)


@pytest.fixture
def client(server):
    return MemKVClient(server, location="tester")


class TestObjectSurfaceParity:
    """MemKV must be a drop-in Object backend for the Data Exchange."""

    def test_crud_roundtrip(self, client, call):
        call(client.create("k", {"v": 1}))
        assert call(client.get("k"))["data"] == {"v": 1}
        call(client.update("k", {"v": 2}))
        call(client.patch("k", {"extra": True}))
        assert call(client.get("k"))["data"] == {"v": 2, "extra": True}
        call(client.delete("k"))
        with pytest.raises(NotFoundError):
            call(client.get("k"))

    def test_optimistic_concurrency_emulated(self, client, call):
        created = call(client.create("k", {"v": 1}))
        call(client.update("k", {"v": 2}))
        with pytest.raises(ConflictError):
            call(client.update("k", {"v": 3}, resource_version=created["revision"]))

    def test_watch_delivery(self, env, client, call):
        events = []
        client.watch(events.append, key_prefix="orders/")
        call(client.create("orders/o1", {"v": 1}))
        env.run()
        assert len(events) == 1 and events[0].object == {"v": 1}

    def test_list_prefix(self, client, call):
        call(client.create("a/1", {}))
        call(client.create("b/1", {}))
        assert [o["key"] for o in call(client.list("a/"))] == ["a/1"]


class TestCommands:
    def test_set_get(self, client, call):
        assert call(client.command("SET", "greeting", "hello")) == "OK"
        assert call(client.command("GET", "greeting")) == "hello"

    def test_get_missing_is_none(self, client, call):
        assert call(client.command("GET", "nope")) is None

    def test_incr(self, client, call):
        assert call(client.command("INCR", "counter")) == 1
        assert call(client.command("INCR", "counter")) == 2

    def test_del_and_exists(self, client, call):
        call(client.command("SET", "a", 1))
        call(client.command("SET", "b", 2))
        assert call(client.command("EXISTS", "a", "b", "c")) == 2
        assert call(client.command("DEL", "a", "c")) == 1
        assert call(client.command("EXISTS", "a")) == 0

    def test_keys_prefix(self, client, call):
        call(client.command("SET", "user:1", "x"))
        call(client.command("SET", "user:2", "y"))
        call(client.command("SET", "other", "z"))
        assert call(client.command("KEYS", "user:")) == ["user:1", "user:2"]

    def test_unknown_command_rejected(self, client, call):
        with pytest.raises(StoreError):
            call(client.command("FLUSHALL"))


class TestUDF:
    def test_fcall_runs_server_side(self, server, client, call):
        def double(ctx, key):
            # UDFs read frozen views; thaw for a local working copy.
            data = ctx.get(key)["data"].thaw()
            data["v"] *= 2
            ctx.update(key, data)
            return data["v"]

        server.functions.register("double", double)
        call(client.create("k", {"v": 21}))
        assert call(client.fcall("double", "k")) == 42
        assert call(client.get("k"))["data"]["v"] == 42

    def test_fcall_unknown_function(self, client, call):
        with pytest.raises(NotFoundError):
            call(client.fcall("nope"))

    def test_udf_writes_trigger_watches(self, env, server, client, call):
        def touch(ctx, key):
            ctx.create(key, {"made": "by-udf"})

        server.functions.register("touch", touch)
        events = []
        client.watch(events.append)
        call(client.fcall("touch", "new-key"))
        env.run()
        assert [e.key for e in events] == ["new-key"]

    def test_udf_access_counted_and_charged(self, env, server, client, call):
        def busy(ctx):
            for i in range(100):
                ctx.create(f"k{i}", {"i": i})

        server.functions.register("busy", busy, cost=0.0)
        start = env.now
        call(client.fcall("busy"))
        elapsed = env.now - start
        # 100 local accesses at local_access_cost each, plus fcall base.
        assert elapsed >= 100 * server.local_access_cost

    def test_udf_registry_management(self, server):
        server.functions.register("f", lambda ctx: None)
        assert "f" in server.functions and server.functions.names() == ["f"]
        server.functions.unregister("f")
        assert "f" not in server.functions


class TestPerformance:
    def test_memkv_write_much_faster_than_apiserver(self, env, zero_net):
        api = ApiServer(env, zero_net, location="api", watch_overhead=0.0)
        kv = MemKV(env, zero_net, location="kv", watch_overhead=0.0)
        api_client = ObjectClient(api, location="t")
        kv_client = MemKVClient(kv, location="t")

        start = env.now
        env.run(until=api_client.create("k", {"v": 1}))
        api_cost = env.now - start

        start = env.now
        env.run(until=kv_client.create("k", {"v": 1}))
        kv_cost = env.now - start

        assert api_cost > 5 * kv_cost
