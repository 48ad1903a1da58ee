"""Tests for the delta-encoded watch/replication protocol.

The server ships revision-chained JSON-merge-patch deltas once a watcher
has seen a key's full object; the client-side Watch materializes full
events, detects chain gaps (a lost message), resyncs the key with one
GET, and only breaks the stream when the store won't answer.  Handlers
must never observe the encoding.
"""

import pytest

from repro.store import (
    ADDED,
    DELETED,
    MODIFIED,
    ApiServer,
    FrozenViewError,
    MemKV,
    MemKVClient,
    is_frozen,
)
from repro.store.client import ObjectClient


@pytest.fixture
def server(env, zero_net):
    return MemKV(env, zero_net, watch_overhead=0.0, delta_watch=True)


@pytest.fixture
def client(server):
    return MemKVClient(server, location="tester")


class TestDeltaEncoding:
    def test_first_event_is_full_then_deltas(self, env, server, client, call):
        events = []
        client.watch(events.append)
        call(client.create("k", {"a": 1, "blob": "x" * 200}))
        call(client.patch("k", {"a": 2}))
        call(client.patch("k", {"a": 3}))
        env.run()
        assert server.watch_fulls_sent == 1
        assert server.watch_deltas_sent == 2

    def test_handlers_see_full_objects(self, env, server, client, call):
        events = []
        client.watch(events.append)
        call(client.create("k", {"a": 1, "b": {"c": 1}}))
        call(client.patch("k", {"b": {"c": 2}}))
        env.run()
        assert [e.type for e in events] == [ADDED, MODIFIED]
        assert events[1].object == {"a": 1, "b": {"c": 2}}
        # Materialized events are full-object: no wire encoding leaks.
        assert all(e.object is not None for e in events)

    def test_update_ships_as_diff(self, env, server, client, call):
        events = []
        client.watch(events.append)
        call(client.create("k", {"a": 1, "blob": "x" * 500}))
        call(client.update("k", {"a": 2, "blob": "x" * 500}))
        env.run()
        assert server.watch_deltas_sent == 1  # diff, not a full snapshot
        assert events[1].object == {"a": 2, "blob": "x" * 500}

    def test_delete_is_tombstone_with_last_object(self, env, server, client, call):
        events = []
        client.watch(events.append)
        call(client.create("k", {"a": 1}))
        call(client.delete("k"))
        env.run()
        assert events[-1].type == DELETED
        assert events[-1].object == {"a": 1}  # synthesized from held state

    def test_wire_bytes_smaller_than_snapshot_mode(self, env, zero_net, call):
        def run_mode(env, net, delta):
            server = MemKV(env, net, location=f"s-{delta}",
                           watch_overhead=0.0, delta_watch=delta)
            client = MemKVClient(server, location="w")
            client.watch(lambda e: None)
            call(client.create("k", {"n": 0, "blob": "x" * 400}))
            for i in range(20):
                call(client.patch("k", {"n": i}))
            env.run()
            return server.watch_wire_bytes

        full = run_mode(env, zero_net, delta=False)
        delta = run_mode(env, zero_net, delta=True)
        assert delta < full / 2

    def test_per_watch_streams_are_independent(self, env, server, call):
        # A watcher arriving later gets a full re-anchor even though
        # earlier watchers are on the delta chain.
        early_client = MemKVClient(server, location="early")
        late_client = MemKVClient(server, location="late")
        early, late = [], []
        early_client.watch(early.append)
        call(early_client.create("k", {"v": 0}))
        call(early_client.patch("k", {"v": 1}))
        env.run()
        late_client.watch(late.append)
        call(early_client.patch("k", {"v": 2}))
        env.run()
        assert early[-1].object == {"v": 2}
        assert late[-1].object == {"v": 2}  # full anchor, then correct


class TestBatchingComposition:
    def test_one_message_carries_n_deltas(self, env, zero_net, call):
        server = MemKV(env, zero_net, watch_overhead=0.0,
                       delta_watch=True, watch_batch_window=0.01)
        client = MemKVClient(server, location="w")
        events = []
        client.watch(events.append)
        call(client.create("k", {"v": 0}))
        env.run()
        for i in range(1, 4):
            call(client.patch("k", {"v": i}))
        env.run()
        assert server.watch_messages_sent == 2  # create + one batch
        assert server.watch_deltas_sent == 3
        # The handler saw the batch's events as materialized full
        # objects, one call each, in commit order.
        assert [e.object["v"] for e in events[1:]] == [1, 2, 3]


class TestGapResync:
    def test_dropped_message_triggers_key_resync(self, env, server, client, call):
        events = []
        watch = client.watch(events.append)
        call(client.create("k", {"v": 0, "keep": "me"}))
        env.run()
        server.drop_next_watch_message()
        call(client.patch("k", {"v": 1}))  # lost after encoding
        call(client.patch("k", {"v": 2}))  # delta chained past the hole
        env.run()
        assert watch.gaps_detected == 1
        assert watch.key_resyncs == 1
        assert watch.active  # resync healed the stream; no break
        assert events[-1].object == {"v": 2, "keep": "me"}

    def test_resync_preserves_final_state_convergence(self, env, server,
                                                      client, call):
        state = {}

        def absorb(event):
            if event.type == DELETED:
                state.pop(event.key, None)
            else:
                state[event.key] = event.object

        client.watch(absorb)
        call(client.create("a", {"v": 0}))
        call(client.create("b", {"v": 0}))
        env.run()
        server.drop_next_watch_message()
        call(client.patch("a", {"v": 1}))
        call(client.patch("b", {"v": 1}))
        call(client.patch("a", {"v": 2}))
        env.run()
        assert state["a"] == {"v": 2}
        assert state["b"] == {"v": 1}

    def test_gap_resolving_to_deletion(self, env, server, client, call):
        events = []
        watch = client.watch(events.append)
        call(client.create("k", {"v": 0}))
        env.run()
        server.drop_next_watch_message()
        call(client.patch("k", {"v": 1}))  # lost
        call(client.delete("k"))
        env.run()
        # DELETED tombstones materialize from held state, so no gap
        # machinery is needed -- the watcher converges on "gone".
        assert events[-1].type == DELETED
        assert watch.active

    def test_exhausted_resync_breaks_stream(self, env, server, client, call):
        closed = []
        watch = client.watch(lambda e: None,
                             on_close=lambda: closed.append(True))
        watch.resync_attempts = 0  # the store will never answer in time
        call(client.create("k", {"v": 0}))
        env.run()
        server.drop_next_watch_message()
        call(client.patch("k", {"v": 1}))
        call(client.patch("k", {"v": 2}))  # gap detected here
        env.run()
        assert closed == [True]  # classic break -> full re-watch path
        assert not watch.active

    def test_resync_rides_through_unavailability_window(self, env, zero_net,
                                                        call):
        # Fan-out is delayed (watch_overhead), so the gap is DETECTED
        # inside the unavailability window: the resync must retry with
        # backoff until the store answers, then heal the stream.
        server = MemKV(env, zero_net, watch_overhead=0.01, delta_watch=True)
        client = MemKVClient(server, location="tester")
        events = []
        watch = client.watch(events.append)
        call(client.create("k", {"v": 0}))
        env.run()
        server.drop_next_watch_message()
        call(client.patch("k", {"v": 1}))
        call(client.patch("k", {"v": 2}))
        server.set_available(False)  # down before the delayed fan-out
        recover = env.timeout(0.2)
        recover.callbacks.append(lambda _evt: server.set_available(True))
        env.run(until=env.now + 10.0)
        assert watch.gaps_detected == 1
        assert watch.active
        assert events[-1].object == {"v": 2}


class TestDeltaWal:
    @pytest.fixture
    def server(self, env, zero_net):
        return ApiServer(env, zero_net, watch_overhead=0.0, delta_watch=True)

    @pytest.fixture
    def client(self, server):
        return ObjectClient(server, location="tester")

    def test_wal_stores_deltas(self, env, server, client, call):
        call(client.create("k", {"v": 0, "blob": "x" * 500}))
        for i in range(10):
            call(client.patch("k", {"v": i}))
        env.run()
        # 1 full record + 10 delta records; far smaller than 11 fulls.
        full_size = server._wal[0].event.wire_size()
        assert server.wal_bytes < full_size * 3

    def test_restart_materializes_deltas(self, env, zero_net, call):
        # The deep-copy store is the reference: both copy policies
        # replay the same WAL deltas to the same state.
        for zero_copy in (True, False):
            server = ApiServer(env, zero_net, location=f"api-{zero_copy}",
                               watch_overhead=0.0, delta_watch=True,
                               zero_copy=zero_copy)
            client = ObjectClient(server, location="tester")
            call(client.create("k", {"a": {"x": 1}, "b": 1}))
            call(client.patch("k", {"a": {"x": 2}}))
            call(client.patch("k", {"b": None, "c": 3}))
            env.run()
            before = call(client.get("k"))["data"]
            server.crash()
            server.restart()
            after = call(client.get("k"))["data"]
            assert after == before == {"a": {"x": 2}, "c": 3}
            assert is_frozen(server._objects["k"].data) == zero_copy


class TestInformerFrozenReads:
    def test_cached_read_is_frozen(self, env, zero_net, call):
        server = MemKV(env, zero_net, watch_overhead=0.0)
        client = MemKVClient(server, location="w")
        client.enable_read_cache()
        call(client.create("k", {"nested": {"v": 1}}))
        env.run()  # let the informer absorb the event
        view = call(client.get("k"))
        assert client.cache_hits == 1
        with pytest.raises(FrozenViewError):
            view["data"]["nested"]["v"] = 999
        with pytest.raises(FrozenViewError):
            view["extra"] = True
        assert call(client.get("k"))["data"] == {"nested": {"v": 1}}

    def test_cached_read_shares_no_copy(self, env, zero_net, call):
        server = MemKV(env, zero_net, watch_overhead=0.0)
        client = MemKVClient(server, location="w")
        client.enable_read_cache()
        call(client.create("k", {"v": 1}))
        env.run()
        shared_before = server.copy_meter.shared_views
        call(client.get("k"))
        assert server.copy_meter.shared_views == shared_before + 1

    def test_classic_mode_cache_still_copies(self, env, zero_net, call):
        server = MemKV(env, zero_net, watch_overhead=0.0, zero_copy=False)
        client = MemKVClient(server, location="w")
        client.enable_read_cache()
        call(client.create("k", {"nested": {"v": 1}}))
        env.run()
        view = call(client.get("k"))
        assert client.cache_hits == 1
        view["data"]["nested"]["v"] = 999  # plain mutable copy
        assert call(client.get("k"))["data"]["nested"]["v"] == 1
