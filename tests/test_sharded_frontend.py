"""A sharded store is a router, not a second store.

``ShardedStore`` owns the ring, the member -> shard map, resharding, the
2PC coordinator and the merged watches.  Everything else it answers
comes from three name lists :class:`StoreServer` declares -- counters,
fan-out verbs and shard settings -- and it keeps nothing per router.
"""

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.storefront import (
    STOREFRONT_VIEW_NAME,
    attach_storefront,
    order_details,
)
from repro.errors import StoreError
from repro.flow import INTEGRATOR, VIEW
from repro.simnet import Environment, Network
from repro.store import MemKV, ShardedStore, ShardedStoreClient, Topology
from repro.store.base import StoreServer


def make_store(n=2, **shard_kwargs):
    env = Environment()
    network = Network(env)
    return ShardedStore(
        topology=Topology(shards=n, min_shards=1, max_shards=4),
        shard_factory=lambda i: MemKV(env, network, location=f"shard-{i}",
                                      **shard_kwargs),
        name="kv",
    )


def footprint(store):
    """How many entries each container the store holds has."""
    return {name: len(value) for name, value in vars(store).items()
            if isinstance(value, (list, dict, set, tuple))}


class TestDeclaredRules:
    def test_the_frontend_defines_only_what_is_sharded(self):
        own = {n for n in vars(ShardedStore) if not n.startswith("__")}
        assert len(own) <= 20, sorted(own)
        declared = (StoreServer.COUNTERS + StoreServer.FAN_OUT
                    + StoreServer.SHARD_SETTINGS)
        assert not own & set(declared)

    def test_a_setting_is_shard_zeros(self):
        store = make_store(watch_batch_window=0.002, delta_watch=True)
        first = store.shards[0]
        assert store.copy_meter is first.copy_meter
        assert store.copies is first.copies
        assert store.watch_batch_window == 0.002
        assert store.delta_watch and store.zero_copy
        assert store.admission is None

    def test_a_verb_runs_on_every_live_shard_and_sums(self):
        store = make_store(n=3)
        router = ShardedStoreClient(store, "app")
        router.watch(lambda event: None)
        router.watch(lambda event: None, key_prefix="a/")
        store.env.run()
        assert store.sever_watches(detect_after=0.01) == 2 * 3
        store.crash()
        assert not any(shard.available for shard in store.shards)
        assert store.crash_count == 3
        store.restart()
        assert store.available

    def test_shards_that_disagree_on_a_setting_are_refused(self):
        env = Environment()
        network = Network(env)
        with pytest.raises(StoreError, match="agree on zero_copy"):
            ShardedStore([MemKV(env, network, location="a"),
                          MemKV(env, network, location="b", zero_copy=False)])
        with pytest.raises(StoreError, match="homogeneous"):
            ShardedStore([MemKV(env, network, location="a"),
                          StoreServer(env, network, location="b")])

    def test_a_shard_that_disagrees_cannot_join_by_reshard(self):
        env = Environment()
        network = Network(env)
        store = ShardedStore(
            topology=Topology(shards=1, max_shards=2),
            shard_factory=lambda i: MemKV(env, network, location=f"s{i}",
                                          watch_batch_window=0.01 * i),
        )
        failed = store.reshard(2)
        with pytest.raises(StoreError, match="agree on watch_batch_window"):
            env.run(until=failed)
        assert store.shard_count == 1


class TestPriorityClassesSurviveAReshard:
    def test_a_shard_added_later_inherits_the_front_door(self):
        app = RetailKnactorApp.build(
            seed=7, flow=True, topology=Topology(shards=2, max_shards=4))
        attach_storefront(app)
        store = app.de.backend
        app.env.run(until=store.reshard(3))
        added = store.shards[-1]
        assert added.location == "object-backend-2"
        admission = added.admission
        assert admission is not store.shards[0].admission
        assert admission.class_of(f"view:{STOREFRONT_VIEW_NAME}") == VIEW
        assert admission.class_of("retail-cast") == INTEGRATOR


class TestNoPerRouterState:
    def test_handles_and_queries_leave_nothing_on_the_store(self):
        app = RetailKnactorApp.build(seed=7, topology=Topology(shards=2))
        attach_storefront(app)
        store = app.de.backend
        before = footprint(store)
        for _ in range(50):
            app.de.handle("knactor-checkout", principal="bench")
            app.env.run(until=order_details(app, keys=["o00001"]))
        assert footprint(store) == before

    def test_reroutes_are_counted_on_the_store(self):
        store = make_store(n=1)
        env = store.env
        routers = [ShardedStoreClient(store, f"app-{i}") for i in range(2)]

        def traffic():
            for i in range(20):
                yield routers[i % 2].create(f"k/{i}", {"v": i})
            proc = store.reshard(3)
            for i in range(20):
                yield routers[i % 2].update(f"k/{i}", {"v": -i})
                yield env.timeout(0.001)
            yield proc

        env.run(until=env.process(traffic()))
        ring = store.stats()["ring"]
        assert ring["reroutes"] == store.reroutes > 0
        assert ring["fence_rejections"] > 0
