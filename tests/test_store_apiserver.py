"""Unit tests for the apiserver-like Object store."""

import copy

import pytest

from repro.errors import (
    AlreadyExistsError,
    ConflictError,
    NotFoundError,
    StoreError,
)
from repro.simnet import FixedLatency
from repro.simnet.network import Network
from repro.store import (
    ADDED,
    DELETED,
    MODIFIED,
    ApiServer,
    ApiServerClient,
    FrozenViewError,
)
from repro.store.cow import merge_patch


@pytest.fixture
def server(env, zero_net):
    return ApiServer(env, zero_net, watch_overhead=0.0)


@pytest.fixture
def client(server):
    return ApiServerClient(server, location="tester")


class TestCRUD:
    def test_create_and_get(self, client, call):
        created = call(client.create("orders/o1", {"cost": 10}))
        assert created["data"] == {"cost": 10}
        assert created["revision"] == 1
        fetched = call(client.get("orders/o1"))
        assert fetched["data"] == {"cost": 10}

    def test_create_duplicate_rejected(self, client, call):
        call(client.create("k", {}))
        with pytest.raises(AlreadyExistsError):
            call(client.create("k", {}))

    def test_get_missing_raises(self, client, call):
        with pytest.raises(NotFoundError):
            call(client.get("nope"))

    def test_update_replaces_data(self, client, call):
        call(client.create("k", {"a": 1, "b": 2}))
        updated = call(client.update("k", {"a": 9}))
        assert updated["data"] == {"a": 9}
        assert updated["revision"] == 2

    def test_update_missing_raises(self, client, call):
        with pytest.raises(NotFoundError):
            call(client.update("nope", {}))

    def test_delete(self, client, call):
        call(client.create("k", {}))
        call(client.delete("k"))
        with pytest.raises(NotFoundError):
            call(client.get("k"))

    def test_delete_missing_raises(self, client, call):
        with pytest.raises(NotFoundError):
            call(client.delete("nope"))

    def test_list_with_prefix(self, client, call):
        call(client.create("orders/o1", {}))
        call(client.create("orders/o2", {}))
        call(client.create("ships/s1", {}))
        orders = call(client.list("orders/"))
        assert [o["key"] for o in orders] == ["orders/o1", "orders/o2"]

    def test_unknown_op_surfaces_store_error(self, client, call):
        with pytest.raises(StoreError):
            call(client.request("frobnicate"))


class TestOptimisticConcurrency:
    def test_stale_update_conflicts(self, client, call):
        created = call(client.create("k", {"v": 1}))
        call(client.update("k", {"v": 2}))
        with pytest.raises(ConflictError):
            call(client.update("k", {"v": 3}, resource_version=created["revision"]))

    def test_fresh_update_succeeds(self, client, call):
        created = call(client.create("k", {"v": 1}))
        updated = call(
            client.update("k", {"v": 2}, resource_version=created["revision"])
        )
        assert updated["data"] == {"v": 2}

    def test_revisions_strictly_increase(self, client, call):
        revisions = [call(client.create(f"k{i}", {}))["revision"] for i in range(3)]
        revisions.append(call(client.update("k0", {"x": 1}))["revision"])
        assert revisions == sorted(revisions)
        assert len(set(revisions)) == len(revisions)

    def test_patch_with_stale_version_conflicts(self, client, call):
        created = call(client.create("k", {"v": 1}))
        call(client.patch("k", {"v": 2}))
        with pytest.raises(ConflictError):
            call(client.patch("k", {"v": 3}, resource_version=created["revision"]))


class TestPatch:
    def test_deep_merge(self, client, call):
        call(client.create("k", {"a": {"x": 1, "y": 2}, "b": 1}))
        patched = call(client.patch("k", {"a": {"y": 9}}))
        assert patched["data"] == {"a": {"x": 1, "y": 9}, "b": 1}

    def test_none_deletes_key(self, client, call):
        call(client.create("k", {"a": 1, "b": 2}))
        patched = call(client.patch("k", {"a": None}))
        assert patched["data"] == {"b": 2}

    def test_merge_patch_pure_function(self):
        original = {"a": {"x": 1}}
        result = merge_patch(original, {"a": {"y": 2}})
        assert result == {"a": {"x": 1, "y": 2}}
        assert original == {"a": {"x": 1}}  # input untouched


class TestIsolation:
    def test_returned_snapshot_is_immutable(self, client, call):
        # Zero-copy reads hand out frozen views: mutation raises instead
        # of silently diverging from (or corrupting) store state.
        call(client.create("k", {"nested": {"v": 1}}))
        view = call(client.get("k"))
        with pytest.raises(FrozenViewError):
            view["data"]["nested"]["v"] = 999
        assert call(client.get("k"))["data"]["nested"]["v"] == 1

    def test_thawed_snapshot_is_a_private_copy(self, client, call):
        call(client.create("k", {"nested": {"v": 1}}))
        mine = call(client.get("k"))["data"].thaw()
        mine["nested"]["v"] = 999
        assert call(client.get("k"))["data"]["nested"]["v"] == 1

    def test_deepcopy_of_view_is_mutable(self, client, call):
        # Legacy copy-then-edit code keeps working: deepcopy of a frozen
        # view is a plain mutable structure.
        call(client.create("k", {"nested": {"v": 1}}))
        mine = copy.deepcopy(call(client.get("k"))["data"])
        mine["nested"]["v"] = 999
        assert call(client.get("k"))["data"]["nested"]["v"] == 1

    def test_classic_mode_still_copies(self, env, call):
        network = Network(env)
        server = ApiServer(env, network, zero_copy=False)
        client = ApiServerClient(server, server.location)
        call(client.create("k", {"nested": {"v": 1}}))
        view = call(client.get("k"))
        view["data"]["nested"]["v"] = 999
        assert call(client.get("k"))["data"]["nested"]["v"] == 1

    def test_created_data_is_copied_in(self, client, call):
        payload = {"v": 1}
        call(client.create("k", payload))
        payload["v"] = 999
        assert call(client.get("k"))["data"]["v"] == 1


class TestWatch:
    def test_watch_sees_all_event_types(self, env, client, call):
        events = []
        client.watch(events.append)
        call(client.create("k", {"v": 1}))
        call(client.update("k", {"v": 2}))
        call(client.delete("k"))
        env.run()
        assert [e.type for e in events] == [ADDED, MODIFIED, DELETED]

    def test_watch_prefix_filters(self, env, client, call):
        events = []
        client.watch(events.append, key_prefix="orders/")
        call(client.create("orders/o1", {}))
        call(client.create("ships/s1", {}))
        env.run()
        assert [e.key for e in events] == ["orders/o1"]

    def test_watch_events_carry_object_and_revision(self, env, client, call):
        events = []
        client.watch(events.append)
        created = call(client.create("k", {"v": 1}))
        env.run()
        assert events[0].object == {"v": 1}
        assert events[0].revision == created["revision"]

    def test_each_commit_observed_exactly_once_in_order(self, env, client, call):
        events = []
        client.watch(events.append)
        for i in range(10):
            call(client.create(f"k{i}", {"i": i}))
        env.run()
        assert [e.object["i"] for e in events] == list(range(10))

    def test_cancelled_watch_stops_delivery(self, env, client, call):
        events = []
        watch = client.watch(events.append)
        call(client.create("k1", {}))
        env.run()
        watch.cancel()
        call(client.create("k2", {}))
        env.run()
        assert [e.key for e in events] == ["k1"]

    @pytest.mark.parametrize("stop", [
        lambda server, watch: watch.cancel(),
        lambda server, watch: server.fail_over(),
        lambda server, watch: server.sever_watches(),
    ], ids=["client-cancel", "server-close", "break-connection"])
    def test_message_on_the_link_when_the_watch_stops_is_dropped(
            self, env, net, call, stop):
        """A stopped watch delivers nothing further -- not even what was
        already sent: after a break that would be a stale event landing
        behind the watcher's resync."""
        server = ApiServer(env, net, location="store", watch_overhead=0.0)
        net.set_latency("store", "watcher", FixedLatency(0.010))
        events = []
        watch = ApiServerClient(server, location="watcher").watch(
            events.append, credits=4)
        call(ApiServerClient(server, location="store").create("k", {}))
        assert watch.delivered == 1 and events == []  # sent, not arrived
        stop(server, watch)
        env.run()
        assert events == []
        assert server.watch_credit_grants == 0  # and nothing granted back

    def test_replay_from_revision(self, env, client, call):
        call(client.create("k1", {"i": 1}))
        second = call(client.create("k2", {"i": 2}))
        env.run()
        events = []
        client.watch(events.append, from_revision=second["revision"] - 1)
        env.run()
        assert [e.key for e in events] == ["k2"]

    def test_multiple_watchers_all_notified(self, env, client, call):
        a, b = [], []
        client.watch(a.append)
        client.watch(b.append)
        call(client.create("k", {}))
        env.run()
        assert len(a) == 1 and len(b) == 1


class TestLatency:
    def test_writes_cost_more_than_reads(self, env, zero_net):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ApiServerClient(server, location="tester")
        start = env.now
        env.run(until=client.create("k", {"v": 1}))
        write_cost = env.now - start
        start = env.now
        env.run(until=client.get("k"))
        read_cost = env.now - start
        assert write_cost > read_cost > 0

    def test_network_hops_add_latency(self, env, net):
        server = ApiServer(env, net, watch_overhead=0.0)
        remote = ApiServerClient(server, location="far-away")
        local = ApiServerClient(server, location=server.location)
        start = env.now
        env.run(until=remote.create("k1", {"v": 1}))
        remote_cost = env.now - start
        start = env.now
        env.run(until=local.create("k2", {"v": 1}))
        local_cost = env.now - start
        assert remote_cost == pytest.approx(local_cost + 2 * 0.00025)

    def test_payload_size_increases_cost(self, env, zero_net):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ApiServerClient(server, location="t")
        start = env.now
        env.run(until=client.create("small", {"v": "x"}))
        small = env.now - start
        start = env.now
        env.run(until=client.create("big", {"v": "x" * 100000}))
        big = env.now - start
        assert big > small

    def test_op_counts_recorded(self, env, zero_net):
        server = ApiServer(env, zero_net, watch_overhead=0.0)
        client = ApiServerClient(server, location="t")
        env.run(until=client.create("k", {}))
        env.run(until=client.get("k"))
        env.run(until=client.get("k"))
        assert server.op_counts == {"create": 1, "get": 2}
