"""ShardFleet: the cluster plane driving live ring resharding."""

import pytest

from repro.cluster import Cluster, ShardFleet
from repro.cluster.objects import Image
from repro.errors import ConfigurationError
from repro.simnet import Environment, Network
from repro.store import MemKV, ShardedStore, ShardedStoreClient, Topology
from repro.store.ring import AutoscalePolicy


def make_fleet(env, net, shards=1, metric=None, **topology_kwargs):
    topology_kwargs.setdefault("min_shards", 1)
    topology_kwargs.setdefault("max_shards", 4)
    topology_kwargs.setdefault(
        "autoscale",
        AutoscalePolicy(target_queue_depth=2.0, interval=0.2, cooldown=0.5),
    )
    topology = Topology(shards=shards, **topology_kwargs)
    store = ShardedStore(
        topology=topology,
        shard_factory=lambda i: MemKV(env, net, location=f"fleet-{i}"),
        name="fleetkv",
    )
    cluster = Cluster(env)
    return cluster, store, ShardFleet(cluster, store, metric=metric)


class TestConstruction:
    def test_fleet_requires_topology_and_factory(self):
        env = Environment()
        net = Network(env)
        shards = [MemKV(env, net, location=f"s{i}") for i in range(2)]
        store = ShardedStore(shards, name="kv")  # list form: no topology
        with pytest.raises(ConfigurationError):
            ShardFleet(Cluster(env), store)

    def test_bounds_come_from_the_topology(self):
        env = Environment()
        net = Network(env)
        _cluster, _store, fleet = make_fleet(env, net, shards=2)
        assert fleet.autoscaler.min_replicas == 1
        assert fleet.autoscaler.max_replicas == 4
        assert fleet.autoscaler.interval == 0.2
        assert fleet.deployment_name == "fleetkv-shards"


class TestLoadSignal:
    def test_load_adds_aimd_penalty_to_queue_depth(self):
        env = Environment()
        net = Network(env)
        _cluster, store, fleet = make_fleet(env, net, shards=2)
        assert fleet.load() == 0.0

        class _SqueezedAdmission:
            def stats(self):
                return {"classes": {"batch": {"scale": 0.25}}}

        store.shards[0].admission = _SqueezedAdmission()
        # (1 - 0.25) * target_queue_depth: a throttled class weighs in
        # even while sheds keep the visible queues short.
        assert fleet.load() == pytest.approx(0.75 * 2.0)


class TestElasticity:
    def test_scripted_load_scales_up_then_back_down(self):
        env = Environment()
        net = Network(env)
        signal = {"load": 0.0}
        cluster, store, fleet = make_fleet(
            env, net, shards=1, metric=lambda: signal["load"]
        )
        client = ShardedStoreClient(store, "app")

        def seed():
            for i in range(12):
                yield client.create(f"k/{i}", {"v": i})

        env.process(seed())
        env.run(until=4.0)  # initial pod pulled + started, data in place
        fleet.start()

        signal["load"] = 10.0  # HPA: ceil(10 / 2) = 5, clamped to max 4
        env.run(until=40.0)
        assert store.shard_count == 4
        assert len(cluster.deployment("fleetkv-shards").ready_pods) == 4

        signal["load"] = 0.0
        env.run(until=80.0)
        assert store.shard_count == 1

        assert fleet.reshards_driven >= 2
        assert len(fleet.autoscaler.events) >= 2
        assert store.reshard_stats["keys_moved"] > 0

        def verify():
            for i in range(12):
                obj = yield client.get(f"k/{i}")
                assert obj["data"]["v"] == i
            return True

        done = {}

        def runner():
            done["ok"] = yield from verify()

        env.process(runner())
        env.run(until=env.now + 5.0)
        assert done.get("ok")
        fleet.stop()

    def test_write_burst_drives_a_reshard(self):
        """Sixteen serial writers over disjoint key slices outrun one
        shard's service rate for 6 s, so worker-queue depth sits above
        the autoscale target: the autoscaler grows the pod fleet, the
        fleet reshards the ring under the load, and every key reads back
        its last acked value."""
        env = Environment()
        net = Network(env)
        _cluster, store, fleet = make_fleet(env, net, shards=1, seed=0)
        client = ShardedStoreClient(store, "bench")
        env.run(until=4.0)  # let the initial shard pod come up
        fleet.start()
        all_keys = [f"k/{i}" for i in range(200)]
        written = {}
        stop_at = env.now + 6.0

        def writer(slot):
            keys = all_keys[slot::16]
            value = slot
            while env.now < stop_at:
                for key in keys:
                    if env.now >= stop_at:
                        return
                    if key in written:
                        yield client.update(key, {"v": value})
                    else:
                        yield client.create(key, {"v": value})
                    written[key] = value  # post-ack: verified below
                    value += 16
                    yield env.timeout(0.002)

        for slot in range(16):
            env.process(writer(slot))
        env.run(until=stop_at + 20.0)
        fleet.stop()

        read = {}

        def verify():
            for key in sorted(written):
                obj = yield client.get(key)
                read[key] = obj["data"]["v"]

        env.process(verify())
        env.run(until=env.now + 10.0)
        events = fleet.autoscaler.events
        assert len(events) >= 1
        assert fleet.reshards_driven >= 1
        assert max(event.to_replicas for event in events) > 1
        assert read == written

    def test_sync_waits_out_an_active_reshard(self):
        env = Environment()
        net = Network(env)
        signal = {"load": 10.0}
        _cluster, store, fleet = make_fleet(
            env, net, shards=1, metric=lambda: signal["load"]
        )
        env.run(until=4.0)
        fleet.start()
        env.run(until=40.0)
        # Intermediate ready counts (2, 3) appear while pods start; the
        # one-transition-at-a-time guard must still converge on 4.
        assert store.shard_count == 4
        assert store.ring.version >= 4
        fleet.stop()


class TestRollout:
    def test_rollout_moves_pods_not_the_ring(self):
        env = Environment()
        net = Network(env)
        cluster, store, fleet = make_fleet(env, net, shards=2)
        env.run(until=8.0)  # both initial pods ready
        version_before = store.ring.version
        new_image = Image("fleetkv", "shard-v2", size_mb=64.0)
        fleet.rollout(new_image)
        env.run(until=40.0)
        deployment = cluster.deployment("fleetkv-shards")
        assert deployment.pods_running_image(new_image)
        assert all(p.image.ref == new_image.ref
                   for p in deployment.ready_pods)
        assert store.ring.version == version_before
        assert fleet.image is new_image

    def test_stats_shape(self):
        env = Environment()
        net = Network(env)
        _cluster, _store, fleet = make_fleet(env, net, shards=1)
        env.run(until=4.0)
        stats = fleet.stats()
        assert stats["shards"] == 1
        assert stats["ready_pods"] == 1
        assert stats["reshards_driven"] == 0
        assert stats["scaling_events"] == 0
        assert stats["load"] == 0.0
