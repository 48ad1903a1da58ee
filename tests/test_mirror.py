"""One :class:`~repro.store.follow.Mirror` per watched store.

The client read cache is one: a hit comes only from a caught-up mirror,
and per-key revisions keep deletions too, so a key deleted while the
mirror seeds or rebuilds stays deleted, however late the LIST that still
showed it lands.  While a broken stream is being rebuilt, ``get`` reads
the server.  Every source of a materialized view is one too (a Log
source a ``_LogTail``), and the view's bookkeeping -- apply counts,
resync counts, lag samples, ``view_*`` metrics -- reads as it did when
the view kept its own tables.
"""

import pytest

from repro.errors import NotFoundError
from repro.exchange import LogDE, ObjectDE
from repro.obs.registry import Registry
from repro.simnet import FixedLatency, Network
from repro.store import LogLake, MemKV, ShardedStore, ShardedStoreClient
from tests.test_federation import (
    EVENTS_SCHEMA, ORDER_SCHEMA, SHIPMENT_SCHEMA, VIEW)

KEYS = [f"k/{i}" for i in range(8)]


@pytest.fixture
def store(env, net):
    """Two shards holding ``KEYS``, and a writer router to them."""
    store = ShardedStore([
        MemKV(env, net, location=f"shard-{i}", watch_overhead=0.0)
        for i in range(2)
    ])
    store.writer = ShardedStoreClient(store, "writer")
    env.run(until=env.all_of([store.writer.create(key, {"v": 1})
                              for key in KEYS]))
    return store


def owned_by(store, shard):
    return [key for key in KEYS if store.shard_for(key) is store.shards[shard]]


def test_a_key_deleted_while_the_mirror_seeds_is_not_served(
        env, net, call, store):
    # Shard 0's replies take 50 ms, so the seeding LIST lands after
    # shard 1 has answered it, and after the key's deletion.
    net.set_latency("shard-0", "reader", FixedLatency(0.050),
                    symmetric=False)
    reader = ShardedStoreClient(store, "reader")
    reader.enable_read_cache("k/")
    env.run(until=env.now + 0.005)
    gone, kept = owned_by(store, 1)[0], owned_by(store, 1)[1]
    call(store.writer.delete(gone))
    # The LIST is still out: the server answers.
    assert call(reader.get(kept))["data"] == {"v": 1}
    assert reader.cache_hits == 0
    env.run()
    with pytest.raises(NotFoundError):
        call(reader.get(gone))
    assert call(reader.get(kept))["data"] == {"v": 1}
    assert (reader.cache_hits, reader.cache_misses) == (1, 2)
    assert sorted(reader.mirror.views) == sorted(set(KEYS) - {gone})


def test_a_broken_stream_reads_the_server_until_the_relist_lands(
        env, net, call, store):
    net.set_latency("reader", "shard-0", FixedLatency(0.010))
    net.set_latency("reader", "shard-1", FixedLatency(0.010))
    reader = ShardedStoreClient(store, "reader")
    reader.enable_read_cache("k/")
    env.run()
    [changed, gone] = owned_by(store, 0)[:2]
    assert call(reader.get(changed))["data"] == {"v": 1}
    assert (reader.cache_hits, reader.cache_misses) == (1, 0)

    for shard in store.shards:
        shard.sever_watches(detect_after=0.001)
    call(store.writer.delete(gone))
    call(store.writer.patch(changed, {"v": 2}))
    env.run(until=env.now + 0.001)  # the break is seen; the re-list is out
    assert reader.mirror.resyncing
    assert call(reader.get(changed))["data"] == {"v": 2}
    with pytest.raises(NotFoundError):
        call(reader.get(gone))
    assert (reader.cache_hits, reader.cache_misses) == (1, 2)

    env.run()
    assert not reader.mirror.resyncing and reader.mirror.resyncs == 1
    assert call(reader.get(changed))["data"] == {"v": 2}
    with pytest.raises(NotFoundError):
        call(reader.get(gone))
    assert (reader.cache_hits, reader.cache_misses) == (2, 3)


def test_a_views_sources_keep_their_bookkeeping_across_breaks_and_gaps(
        env, call):
    # The Object streams break and are rebuilt by LIST while an order is
    # patched and another deleted; a lost Log batch is a gap, recovered
    # by one since_seq query.  The figures are the ones the view gave
    # when it kept its own tables.
    net = Network(env, default_latency=FixedLatency(0.0005))
    object_de = ObjectDE(env, MemKV(env, net, watch_overhead=0.0,
                                    delta_watch=True))
    object_de.host_store("orders", ORDER_SCHEMA, owner="checkout")
    object_de.host_store("shipments", SHIPMENT_SCHEMA, owner="shipping")
    log_de = LogDE(env, LogLake(env, net, watch_overhead=0.0))
    log_de.host_store("events", EVENTS_SCHEMA, owner="audit")
    registry = Registry(env)
    view = object_de.register_view(VIEW, exchanges={"log": log_de},
                                   registry=registry)
    orders = object_de.handle("orders", principal="checkout")
    events = log_de.handle("events", principal="audit")
    for n in (1, 2, 3):
        call(orders.create(f"o{n}", {"status": "placed", "total": 10.0 * n,
                                     "cardToken": "t"}))
    call(object_de.handle("shipments", principal="shipping").create(
        "o1", {"carrier": "dhl", "eta": 2}))
    call(events.load([{"kind": "placed", "order": "o1"}]))
    env.run(until=env.now + 0.01)
    object_de.backend.sever_watches(detect_after=0.002)
    call(orders.patch("o2", {"status": "charged"}))
    call(orders.delete("o3"))
    env.run(until=env.now + 0.01)
    log_de.backend.drop_next_watch_message()
    call(events.load([{"kind": "lost", "order": "o2"}]))
    call(events.load([{"kind": "charged", "order": "o2"}]))
    call(orders.patch("o1", {"status": "shipped"}))
    env.run(until=env.now + 0.01)

    materialized = view.materialized
    assert materialized.status() == {
        "order": {"kind": "object", "applied": 5, "resyncs": 1,
                  "resyncing": False, "rows": 2},
        "shipment": {"kind": "object", "applied": 1, "resyncs": 1,
                     "resyncing": False, "rows": 1},
        "events": {"kind": "log", "applied": 3, "resyncs": 1,
                   "resyncing": False, "rows": 3},
    }
    metrics = registry.snapshot()["metrics"]
    labels = "source={},view=order-view".format
    for name, want in (("view_apply_events_total", (5, 1, 1)),
                       ("view_resyncs_total", (1, 1, 1))):
        assert [metrics[name]["series"][labels(alias)]
                for alias in ("order", "shipment", "events")] == list(want)
    # The stream's applies are timed; the gap's two recovered records
    # are not, and stand in with the floor as one sample.
    assert [metrics["view_apply_lag_seconds"]["series"][labels(alias)]
            ["count"] for alias in ("order", "shipment", "events")] == [
                5, 1, 1]
    lags = {alias: [lag for _at, lag in state.lag]
            for alias, state in materialized._sources.items()}
    assert lags["events"] == [materialized.floor]
    assert len(lags["order"]) == 2 and len(lags["shipment"]) == 1
    rows = {row["_key"]: row for row in materialized.tables()[0]["order"]}
    assert {key: row["status"] for key, row in rows.items()} == {
        "o1": "shipped", "o2": "charged"}
    assert [r["kind"] for r in materialized.tables()[0]["events"]] == [
        "placed", "lost", "charged"]
