"""The sharded client is an :class:`ObjectClient` that routes.

One router holds one principal, one set of watch defaults and one
read-cache mirror over its merged stream; what is
sharded is only where each attempt goes.  Each test here pins a defect
of the per-shard-client design it replaced.
"""

import pytest

from repro.errors import ConfigurationError
from repro.obs.causal import CausalTracer
from repro.obs.context import use
from repro.simnet import Environment, Network
from repro.store import MemKV, ShardedStore, ShardedStoreClient, Topology
from repro.store.client import ObjectClient
from repro.txn import TxnFunctionIntegrator


@pytest.fixture
def store():
    """Two MemKV shards minted by a factory, so a reshard can grow."""
    env = Environment()
    network = Network(env)
    return ShardedStore(
        topology=Topology(shards=2, min_shards=1, max_shards=4),
        shard_factory=lambda i: MemKV(env, network, location=f"shard-{i}"),
        name="kv",
    )


def settle(env, event=None):
    env.run(until=event)
    env.run()


class TestMergedWatchCancel:
    def test_a_cancelled_stream_stays_cancelled_across_a_reshard(self, store):
        env = store.env
        router = ShardedStoreClient(store, "app")
        seen = []
        merged = router.watch(seen.append)
        merged.cancel()
        settle(env, store.reshard(3))
        for i in range(59):
            env.run(until=router.create(f"k/{i}", {"v": i}))
        env.run()
        assert seen == []
        assert not merged.active
        assert merged.watches and not any(w.active for w in merged.watches)


class TestTraceContext:
    def test_a_routed_write_carries_the_callers_context(self, store):
        env = store.env
        tracer = CausalTracer(env)
        root = tracer.start_span("root", "test")
        contexts = {}

        def record(event):
            contexts[event.key] = event.ctx

        plain = ObjectClient(store.shards[0], "app")
        router = ShardedStoreClient(store, "app")
        plain.watch(record, key_prefix="plain/")
        router.watch(record, key_prefix="routed/")
        with use(root):
            done = [plain.create("plain/a", {}), router.create("routed/a", {})]
        settle(env, env.all_of(done))
        for key in ("plain/a", "routed/a"):
            ctx = contexts[key]
            assert ctx is not None, key
            assert (ctx.trace_id, ctx.parent_span_id) == (
                root.trace_id, root.span_id), key


class TestNoFunctionSurface:
    def test_a_txn_function_on_a_router_is_a_configuration_error(
            self, store):
        router = ShardedStoreClient(store, "app")
        with pytest.raises(ConfigurationError, match="server-side functions"):
            TxnFunctionIntegrator("fn", router, lambda ctx, key: None)


class TestReadCache:
    def test_every_cached_key_hits_after_a_reshard(self, store):
        env = store.env
        router = ShardedStoreClient(store, "reader")
        writer = ShardedStoreClient(store, "writer")
        keys = [f"k/{i:02d}" for i in range(60)]
        settle(env, env.all_of([writer.create(k, {"v": 1}) for k in keys]))
        router.enable_read_cache("k/")
        settle(env)
        settle(env, store.reshard(3))
        assert len(store.shards) == 3
        moved = [k for k in keys if store.shard_for(k) is store.shards[2]]
        assert moved, "the new shard took some keys"
        for key in keys:
            assert env.run(until=router.get(key))["data"] == {"v": 1}
        assert (router.cache_hits, router.cache_misses) == (60, 0)
