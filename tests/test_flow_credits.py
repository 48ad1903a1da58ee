"""Credit-based watch flow control (repro.flow + repro.store.watch).

A watch opened with ``credits=N`` carries an HTTP/2-style window: the
server spends one credit per event sent and pauses fan-out when the
window empties; the client grants credits back after dispatching each
delivery.  While paused, Object stores coalesce newest-wins per key and
Log stores queue contiguously; a paused buffer past ``max_paused``
applies the stream's overflow policy (``reject`` = break + resync).
"""

import pytest

from repro.simnet import FixedLatency
from repro.store import ApiServer, LogLake, LogLakeClient
from repro.store.client import ObjectClient
from repro.store.sharded import ShardedStore, ShardedStoreClient

SLOW = FixedLatency(0.05)  # watcher link; grant round trip = 100 ms


@pytest.fixture
def server(env, net):
    return ApiServer(env, net, location="store", watch_overhead=0.0)


@pytest.fixture
def owner(env, server):
    return ObjectClient(server, location="store")


def slow_watcher(env, net, server, **watch_kwargs):
    """A watcher whose credit grants ride a WAN-grade link."""
    net.set_latency(server.location, "watcher", SLOW)
    client = ObjectClient(server, location="watcher")
    seen = []
    watch = client.watch(lambda e: seen.append(e), **watch_kwargs)
    return watch, seen


class TestCreditAccounting:
    def test_window_spends_then_refills_on_grant(self, env, net, server,
                                                 owner, call):
        watch, seen = slow_watcher(env, net, server, credits=2)
        assert watch.credits == 2 and watch._credits_remaining == 2
        call(owner.create("k1", {"v": 1}))
        env.run()
        assert [e.key for e in seen] == ["k1"]
        # The grant made the round trip: the window is whole again.
        assert watch._credits_remaining == 2
        assert server.watch_credit_grants >= 1

    def test_no_credits_means_no_accounting(self, env, net, server, owner,
                                            call):
        watch, seen = slow_watcher(env, net, server)
        assert watch.credits is None and watch._credits_remaining is None
        for index in range(8):
            call(owner.create(f"k{index}", {"v": index}))
        env.run()
        assert len(seen) == 8
        assert watch.credit_pauses == 0 and server.watch_pauses == 0

    def test_exhausted_window_pauses_and_resumes(self, env, net, server,
                                                 owner, call):
        watch, seen = slow_watcher(env, net, server, credits=1)
        for index in range(3):  # commits ~1 ms apart, grants 100 ms away
            call(owner.create(f"k{index}", {"v": index}))
        assert watch.credit_pauses >= 1
        assert server.watch_pauses >= 1
        env.run()  # grants drain the paused buffer, in FIFO order
        assert [e.key for e in seen] == ["k0", "k1", "k2"]
        assert watch._paused == {}


class TestPausedCoalescing:
    def test_newest_wins_per_key_while_paused(self, env, net, server, owner,
                                              call):
        watch, seen = slow_watcher(env, net, server, credits=1)
        call(owner.create("hot", {"v": 0}))
        for value in (1, 2, 3):  # all land while the stream is paused
            call(owner.patch("hot", {"v": value}))
        assert watch.paused_coalesced >= 1
        env.run()
        # The watcher saw the create and the LATEST paused payload; the
        # intermediate patches coalesced away server-side.
        assert len(seen) < 4
        assert seen[-1].object["v"] == 3
        assert server.watch_paused_coalesced >= 1

    def test_coalescing_preserves_fifo_slot_across_keys(self, env, net,
                                                        server, owner, call):
        watch, seen = slow_watcher(env, net, server, credits=1)
        call(owner.create("a", {"v": 0}))
        call(owner.create("b", {"v": 0}))
        call(owner.patch("a", {"v": 9}))  # replaces in place, keeps slot
        env.run()
        keys = [e.key for e in seen]
        assert keys[0] == "a"
        # "a"'s coalesced update is delivered before "b" would be
        # re-ordered -- the entry kept its FIFO position.
        assert keys.index("a", 1) < len(keys)

    def test_log_streams_queue_contiguously(self, env, net):
        lake = LogLake(env, net, location="lake", watch_overhead=0.0)
        lake.op_create_pool(pool="readings")
        net.set_latency("lake", "watcher", SLOW)
        client = LogLakeClient(lake, location="watcher")
        batches = []
        watch = client.watch(lambda e: batches.append(e), key_prefix="readings",
                             credits=1)
        assert watch._coalesce == "append"
        loader = LogLakeClient(lake, location="lake")
        env.run(until=loader.load("readings", [{"kwh": 1}]))
        env.run(until=loader.load("readings", [{"kwh": 2}]))
        env.run(until=loader.load("readings", [{"kwh": 3}]))
        env.run()
        # Every append survives the pause: log records never coalesce.
        assert len(batches) == 3
        assert watch.paused_coalesced == 0


class TestPausedOverflow:
    def test_reject_breaks_stream_into_resync(self, env, net, server, owner,
                                              call):
        closed = []
        net.set_latency(server.location, "watcher", SLOW)
        client = ObjectClient(server, location="watcher")
        seen = []
        watch = client.watch(lambda e: seen.append(e), credits=1,
                             overflow="reject",
                             on_close=lambda: closed.append(True))
        assert watch.max_paused == 4  # 4x the credit window by default
        for index in range(8):  # 1 sent + 4 buffered + the 6th overflows
            call(owner.create(f"k{index}", {"v": index}))
        env.run()
        assert watch.forced_resyncs == 1
        assert server.watch_forced_resyncs == 1
        assert not watch.active
        assert closed == [True]
        assert watch._paused == {}  # bounded memory: buffer dropped

    def test_shed_oldest_keeps_stream_alive(self, env, net, server, owner,
                                            call):
        watch, seen = slow_watcher(env, net, server, credits=1,
                                   overflow="shed_oldest")
        for index in range(10):
            call(owner.create(f"k{index}", {"v": index}))
        assert watch.paused_shed > 0
        assert server.watch_shed_events > 0
        env.run()
        assert watch.active
        keys = [e.key for e in seen]
        assert "k9" in keys          # newest survived
        assert "k1" not in keys      # an oldest buffered entry was shed
        assert watch.peak_paused <= watch.max_paused

    def test_shed_newest_drops_incoming(self, env, net, server, owner, call):
        watch, seen = slow_watcher(env, net, server, credits=1,
                                   overflow="shed_newest")
        for index in range(10):
            call(owner.create(f"k{index}", {"v": index}))
        assert watch.paused_shed > 0
        env.run()
        assert watch.active
        keys = [e.key for e in seen]
        assert "k1" in keys          # oldest buffered entry survived
        assert "k9" not in keys      # the late arrival was dropped

    def test_block_restores_unbounded_buffering(self, env, net, server,
                                                owner, call):
        watch, seen = slow_watcher(env, net, server, credits=1,
                                   overflow="block")
        for index in range(12):
            call(owner.create(f"k{index}", {"v": index}))
        assert watch.peak_paused > watch.max_paused
        env.run()
        assert len(seen) == 12 and watch.paused_shed == 0


class TestShardedCreditFlow:
    def test_merged_watch_aggregates_flow_counters(self, env, net, call):
        shards = ShardedStore(
            [ApiServer(env, net, location=f"shard-{i}", watch_overhead=0.0)
             for i in range(2)],
            name="store",
        )
        for shard in shards.shards:
            net.set_latency(shard.location, "watcher", SLOW)
        client = ShardedStoreClient(shards, location="watcher")
        seen = []
        merged = client.watch(lambda e: seen.append(e), credits=1,
                              overflow="shed_oldest")
        writer = ShardedStoreClient(shards, location="writer")
        for index in range(12):
            call(writer.create(f"k{index}", {"v": index}))
        env.run()
        assert len(seen) > 0
        assert merged.credit_pauses >= 1
        assert merged.peak_paused >= 1
        assert shards.watch_credit_grants >= 1
