"""A delta gap breaks a watch stream, and the follower is the one recovery.

On a ``delta_watch`` store, a watch message lost after it was encoded
(``drop_next_watch_message``) shows at the key's next delta: it does not
chain onto the revision the receiver holds.  The stream breaks there.
Every consumer holds its stream through a
:class:`~repro.store.follow.Follower`, which reopens it and catches up.
So at quiescence each consumer below equals the store, after exactly
one break: the read cache, a materialized view's Object source, a
reconciler and retail's Cast.
"""

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core import Knactor, KnactorRuntime, StoreBinding
from repro.core.dxg.executor import DXGExecutor
from repro.exchange import LogDE, ObjectDE
from repro.obs.registry import Registry
from repro.store import (
    ApiServer, LogLake, MemKV, ShardedStore, ShardedStoreClient)
from tests.test_core_reconciler import TASK_SCHEMA, MarkDone
from tests.test_federation import (
    EVENTS_SCHEMA, ORDER_SCHEMA, SHIPMENT_SCHEMA, VIEW)


def held(views):
    """``{key: (data, revision)}`` of a list of store views."""
    return {view["key"]: (view["data"], view["revision"]) for view in views}


def test_read_cache(env, net, call):
    # A router's read cache rides one merged stream over both shards: a
    # gap on either branch breaks the whole stream, once.
    store = ShardedStore([
        MemKV(env, net, location=f"shard-{i}", watch_overhead=0.0,
              delta_watch=True)
        for i in range(2)
    ])
    writer = ShardedStoreClient(store, "writer")
    reader = ShardedStoreClient(store, "reader")
    reader.enable_read_cache("k/")
    for index in range(6):
        call(writer.create(f"k/{index}", {"v": 0, "keep": index}))
    env.run()
    store.shard_for("k/0").drop_next_watch_message()
    call(writer.patch("k/0", {"v": 1}))  # lost
    call(writer.patch("k/0", {"v": 2}))  # does not chain: the gap
    env.run()
    assert reader.mirror.follower.breaks == 1
    assert held(reader.mirror.views.values()) == held(
        call(writer.list("k/")))
    assert reader.mirror.views["k/0"]["data"] == {"v": 2, "keep": 0}


def test_materialized_view_object_source(env, net, call):
    object_de = ObjectDE(env, MemKV(env, net, watch_overhead=0.0,
                                    delta_watch=True))
    object_de.host_store("orders", ORDER_SCHEMA, owner="checkout")
    object_de.host_store("shipments", SHIPMENT_SCHEMA, owner="shipping")
    log_de = LogDE(env, LogLake(env, net, watch_overhead=0.0))
    log_de.host_store("events", EVENTS_SCHEMA, owner="audit")
    view = object_de.register_view(VIEW, exchanges={"log": log_de},
                                   registry=Registry(env))
    object_de.grant("page", "order-view", role="viewer")
    orders = object_de.handle("orders", principal="checkout")
    for n in (1, 2):
        call(orders.create(f"o{n}", {"status": "placed", "total": 10.0 * n}))
    env.run()
    object_de.backend.drop_next_watch_message()
    call(orders.patch("o1", {"status": "charged"}))  # lost
    call(orders.patch("o1", {"status": "shipped"}))  # the gap
    env.run()
    [order_source, *_] = view.materialized.followers.members
    assert order_source.breaks == 1
    page = object_de.view("order-view", principal="page")
    federated = call(page.query(freshness=0))
    materialized = call(page.query(consistency="any",
                                   strategy="materialized"))
    assert materialized.strategy == "materialized"
    assert materialized.records == federated.records
    assert {r["_key"]: r["status"] for r in materialized.records} == {
        "o1": "shipped", "o2": "placed"}


def test_reconciler(env, zero_net, call):
    runtime = KnactorRuntime(env, network=zero_net)
    runtime.add_exchange("object", ObjectDE(
        env, ApiServer(env, zero_net, watch_overhead=0.0, delta_watch=True)))
    reconciler = MarkDone()
    runtime.add_knactor(Knactor(
        name="tasks", stores=[StoreBinding("default", "object", TASK_SCHEMA)],
        reconciler=reconciler))
    runtime.start()
    handle = runtime.handle_of("tasks")
    call(handle.create("t1", {"title": "a", "done": True}))
    env.run()
    runtime.exchange("object").backend.drop_next_watch_message()
    call(handle.patch("t1", {"title": "b"}))  # lost
    call(handle.patch("t1", {"title": "c"}))  # the gap
    env.run()
    [follower] = reconciler.followers.members
    assert follower.breaks == 1
    # The catch-up marked the key dirty: the last pass saw the store.
    assert reconciler.seen[-1][2] == call(handle.get("t1"))["data"]
    assert reconciler.seen[-1][2]["title"] == "c"


def test_retail_cast():
    app = RetailKnactorApp.build(seed=7, delta_watch=True)
    env = app.env

    def call(proc):
        return env.run(until=proc)

    key, data = OrderWorkload(seed=7).next_order()
    env.run(until=app.place_order(key, data))
    app.run_until_quiet(max_seconds=60.0)
    cid = key.split("/", 1)[1]
    # The owner's stream opened first; reopened, it is sent to last, so
    # the loss lands on the Cast's stream of the order store.
    checkout = app.runtime.knactor("checkout").reconciler
    checkout.followers.members[0].reopen()
    app.de.backend.drop_next_watch_message()
    orders = app.runtime.handle_of("checkout")
    call(orders.patch(key, {"address": "1 Lost Lane"}))  # lost
    call(orders.patch(key, {"address": "2 Found Road"}))  # the gap
    app.run_until_quiet(max_seconds=60.0)

    cast = app.cast
    breaks = {follower.stream.key_prefix: follower.breaks
              for follower in cast.followers.members}
    assert breaks == {"knactor-checkout/": 1, "knactor-shipping/": 0,
                      "knactor-payment/": 0}
    for alias, handle in cast.executor.handles.items():
        for view in call(handle.list()):
            kind, view_cid = DXGExecutor.split_key(view["key"])
            assert cast.executor.cache[(alias, kind, view_cid)] == view["data"]
    assert call(app.shipment(cid))["data"]["addr"] == "2 Found Road"
