"""One batched keyed read per store: ``get_many`` from the store op up.

The store answers the views of the keys that exist, in request order,
and skips an absent key (a miss is an absent row, not an error).  The
client always reads the server; the sharded router sends one request
per owning shard, in parallel, and merges the rows back into request
order; the exchange handle admits it under the ``get`` verb and masks
every view.  Its two callers -- a view's federated keyed fetch and a
keyed store query -- make one request per Object source.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.storefront import attach_storefront, order_details
from repro.apps.retail.workload import OrderWorkload
from repro.errors import AccessDeniedError
from repro.exchange import ObjectDE
from repro.federation import ComposedView, ViewSource
from repro.simnet import Environment, FixedLatency, Network
from repro.store import (
    ApiServer,
    MemKV,
    OpLatency,
    ShardedStore,
    ShardedStoreClient,
    Topology,
)
from repro.store.client import ObjectClient

SECRET_SCHEMA = """\
schema: App/v1/A/Account
name: string
token: string # +kr: secret
"""

PLAIN_SCHEMA = """\
schema: App/v1/B/Note
text: string
"""


def sharded(env, net, shards):
    topology = Topology(shards=shards, min_shards=1, max_shards=4)
    return ShardedStore(
        topology=topology, name="kv",
        shard_factory=lambda i: MemKV(env, net, location=f"shard-{i}",
                                      watch_overhead=0.0))


class TestStoreOp:
    @pytest.mark.parametrize("backend", [ApiServer, MemKV])
    def test_request_order_kept_and_absent_keys_skipped(self, env, zero_net,
                                                        call, backend):
        server = backend(env, zero_net, watch_overhead=0.0)
        for key in ("a", "b", "c"):
            server.op_create(key=key, data={"v": key})
        views = call(ObjectClient(server, "caller").get_many(
            ["c", "missing", "a", "b"]))
        assert [view["key"] for view in views] == ["c", "a", "b"]
        assert [view["data"]["v"] for view in views] == ["c", "a", "b"]
        assert server.op_counts == {"get_many": 1}

    def test_each_view_is_what_get_returns(self, env, zero_net, call):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        server.op_create(key="k", data={"v": 1})
        client = ObjectClient(server, "caller")
        assert call(client.get_many(["k"])) == [call(client.get("k"))]

    def test_an_empty_key_list_makes_no_request(self, env, zero_net, call):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        assert call(ObjectClient(server, "caller").get_many([])) == []
        assert server.op_counts == {}

    def test_one_get_charge_on_the_request_bytes(self, env, net, call):
        server = ApiServer(env, net, watch_overhead=0.0)
        keys = [f"k/{i}" for i in range(8)]
        for key in keys:
            server.op_create(key=key, data={"v": 1})
        client = ObjectClient(server, "caller")
        started = env.now
        call(client.get_many(keys))
        batched = env.now - started
        started = env.now
        call(client.get(keys[0]))
        single = env.now - started
        # Eight keys cost one get base plus their bytes, not eight bases.
        assert batched < single + server.OPS["get"].base

    @pytest.mark.parametrize("backend", [ApiServer, MemKV])
    def test_an_override_of_get_prices_it_too(self, env, zero_net, call,
                                              backend):
        server = backend(env, zero_net, watch_overhead=0.0,
                         ops={"get": OpLatency(base=0.25)})
        server.op_create(key="k", data={"v": 1})
        started = env.now
        call(ObjectClient(server, "caller").get_many(["k"]))
        assert env.now - started == pytest.approx(0.25)

    def test_the_read_cache_serves_get_only(self, env, zero_net, call):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        server.op_create(key="k", data={"v": 1})
        client = ObjectClient(server, "caller")
        client.enable_read_cache()
        env.run(until=env.now + 0.1)  # the mirror warms
        before = dict(server.op_counts)
        assert [v["key"] for v in call(client.get_many(["k"]))] == ["k"]
        assert server.op_counts["get_many"] == before.get("get_many", 0) + 1
        assert client.cache_hits == 0


class TestHandle:
    @pytest.fixture
    def de(self, env, zero_net):
        de = ObjectDE(env, ApiServer(env, zero_net, watch_overhead=0.0))
        de.host_store("accounts", SECRET_SCHEMA, owner="owner")
        for name in ("a", "b"):
            de.backend.op_create(key=f"accounts/{name}",
                                 data={"name": name, "token": f"t-{name}"})
        return de

    def test_viewer_masks_apply_to_each_view(self, de, call):
        de.grant("viewer", "accounts", role="reader")
        handle = de.handle("accounts", principal="viewer")
        views = call(handle.get_many(["b", "gone", "a"]))
        assert [view["key"] for view in views] == ["b", "a"]
        for view in views:
            assert "token" not in view["data"]
            assert view == call(handle.get(view["key"]))

    def test_the_owner_reads_secrets(self, de, call):
        handle = de.handle("accounts", principal="owner")
        views = call(handle.get_many(["a"]))
        assert views[0]["data"]["token"] == "t-a"

    def test_a_principal_without_get_is_denied(self, de):
        de.grant("lister", "accounts", verbs={"list"})
        handle = de.handle("accounts", principal="lister")
        with pytest.raises(AccessDeniedError) as batched:
            handle.get_many(["a"])
        with pytest.raises(AccessDeniedError) as single:
            handle.get("a")
        assert str(batched.value) == str(single.value)
        assert de.backend.op_counts == {}

    def test_an_empty_key_list_makes_no_request(self, de, call):
        handle = de.handle("accounts", principal="owner")
        assert call(handle.get_many([])) == []
        assert de.backend.op_counts == {}


class TestRouter:
    def test_one_request_per_owning_shard(self, env, zero_net, call):
        store = sharded(env, zero_net, 4)
        client = ShardedStoreClient(store, "caller")
        keys = [f"k/{i}" for i in range(12)]
        for key in keys:
            call(client.create(key, {"v": key}))
        owners = {store.shard_for(key) for key in keys[:5]}
        before = {shard: shard.op_counts.get("get_many", 0)
                  for shard in store.shards}
        views = call(client.get_many(list(reversed(keys[:5]))))
        assert [v["key"] for v in views] == list(reversed(keys[:5]))
        for shard in store.shards:
            sent = shard.op_counts.get("get_many", 0) - before[shard]
            assert sent == (1 if shard in owners else 0), shard.location

    @pytest.mark.parametrize("shards", [1, 2])
    def test_an_empty_key_list_makes_no_request(self, env, zero_net, call,
                                                shards):
        store = sharded(env, zero_net, shards)
        assert call(ShardedStoreClient(store, "caller").get_many([])) == []
        assert store.op_counts == {}

    @settings(max_examples=30, deadline=None)
    @given(
        shards=st.sampled_from([1, 2, 4]),
        present=st.sets(st.integers(0, 23), max_size=24),
        asked=st.lists(st.integers(0, 31), max_size=16),
    )
    def test_equals_per_key_gets(self, shards, present, asked):
        env = Environment()
        store = sharded(env, Network(env, default_latency=FixedLatency(0.0)),
                        shards)
        client = ShardedStoreClient(store, "caller")
        for n in sorted(present):
            store.shard_for(f"k/{n}").op_create(key=f"k/{n}", data={"n": n})
        keys = [f"k/{n}" for n in asked]
        views = env.run(until=client.get_many(keys))
        expected = [env.run(until=client.get(key))
                    for key in keys if int(key[2:]) in present]
        assert views == expected

    @pytest.mark.parametrize("start,target", [(1, 4), (4, 2), (2, 1)])
    def test_equals_per_key_gets_across_a_reshard(self, start, target):
        env = Environment()
        store = sharded(env, Network(env, default_latency=FixedLatency(0.0)),
                        start)
        client = ShardedStoreClient(store, "caller")
        keys = [f"k/{i}" for i in range(40)]
        for key in keys[:30]:
            store.shard_for(key).op_create(key=key, data={"v": key})
        wanted = keys[::3] + keys[1::3]
        present = [key for key in wanted if key in keys[:30]]
        rounds = []

        def one_round():
            views = yield client.get_many(wanted)
            gets = []
            for key in present:
                gets.append((yield client.get(key)))
            rounds.append((views, gets))

        def driver():
            reshard = store.reshard(target)
            while not reshard.processed:
                yield from one_round()
                yield env.timeout(0.001)
            yield from one_round()  # on the new ring

        env.run(until=env.process(driver()))
        assert store.shard_count == target
        assert len(rounds) > 3  # some rounds ran mid-migration
        for views, gets in rounds:
            assert [v["key"] for v in views] == present
            assert [(v["data"], v["revision"]) for v in views] == [
                (g["data"], g["revision"]) for g in gets]


# -- the callers: a federated keyed page and a keyed store query ------------


def order_burst(app, count):
    for key, data in OrderWorkload(seed=5).orders(count):
        app.env.run(until=app.place_order(key, data))
    app.run_until_quiet(max_seconds=120.0)
    return list(app.orders_placed)


def test_a_federated_page_on_two_shards_equals_the_materialized_page():
    app = RetailKnactorApp.build(topology=Topology(shards=2), seed=3,
                                 with_notify=False)
    attach_storefront(app)
    keys = order_burst(app, 8)
    owners = {app.de.backend.shard_for(f"knactor-checkout/{key}")
              for key in keys}
    assert len(owners) == 2  # the page spans both shards
    federated = app.env.run(until=order_details(app, keys, freshness=0))
    materialized = app.env.run(
        until=order_details(app, keys, consistency="any"))
    assert federated.strategy == "federated"
    assert materialized.strategy == "materialized"
    assert [r["_key"] for r in federated.records] == sorted(keys)
    assert federated.records == materialized.records


VIEW = ComposedView(
    name="page",
    sources=tuple(ViewSource(alias=f"s{n}", store=f"store-{n}")
                  for n in range(3)),
    freshness=0.0,
)


@pytest.fixture
def three_sources(env, net):
    de = ObjectDE(env, ApiServer(env, net, watch_overhead=0.0))
    for n in range(3):
        de.host_store(f"store-{n}", PLAIN_SCHEMA, owner="owner")
    view = de.register_view(VIEW, materialize=False)
    de.grant("reader", "page", role="viewer")
    de.grant("reader", "store-0", role="reader")
    env.run(until=env.now + 0.01)
    return de, view


def test_a_federated_page_over_absent_keys_makes_no_cyclic_garbage(
        env, call, three_sources):
    de, _view = three_sources
    call(de.handle("store-0", principal="owner").create("k0", {"text": "x"}))
    keys = [f"k{i}" for i in range(8)]
    before = dict(de.backend.op_counts)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = call(de.query("page", principal="reader", keys=keys))
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert [r["_key"] for r in result.records] == ["k0"]
    assert garbage == 0
    after = de.backend.op_counts
    # One request per Object source, none per key.
    assert after.get("get_many", 0) - before.get("get_many", 0) == 3
    assert after.get("get", 0) == before.get("get", 0)


def test_a_keyed_store_query_is_one_request(env, call, three_sources):
    de, _view = three_sources
    handle = de.handle("store-0", principal="owner")
    for key in ("b", "a"):
        call(handle.create(key, {"text": key}))
    before = dict(de.backend.op_counts)
    result = call(de.query("store-0", principal="reader",
                           keys=["b", "zz", "a", "b"]))
    assert [r["_key"] for r in result.records] == ["b", "a"]
    after = de.backend.op_counts
    assert after["get_many"] - before.get("get_many", 0) == 1
    assert after.get("get", 0) == before.get("get", 0)
