"""Unit tests for the Zed-lake-like Log store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlreadyExistsError, NotFoundError, StoreError
from repro.simnet import Environment, FixedLatency, Network
from repro.store import FrozenViewError, LogLake, LogLakeClient


@pytest.fixture
def server(env, zero_net):
    return LogLake(env, zero_net, watch_overhead=0.0)


@pytest.fixture
def client(server, call):
    c = LogLakeClient(server, location="tester")
    call(c.create_pool("motion"))
    return c


class TestPools:
    def test_create_and_list_pools(self, client, call):
        call(client.create_pool("energy"))
        assert call(client.pools()) == ["energy", "motion"]

    def test_duplicate_pool_rejected(self, client, call):
        with pytest.raises(AlreadyExistsError):
            call(client.create_pool("motion"))

    def test_missing_pool_raises(self, client, call):
        with pytest.raises(NotFoundError):
            call(client.load("nope", [{"a": 1}]))


class TestLoad:
    def test_records_stamped_with_seq_and_ts(self, env, client, call):
        env.run(until=1.0)
        result = call(client.load("motion", [{"triggered": True}, {"triggered": False}]))
        assert result == {"pool": "motion", "first_seq": 0, "count": 2}
        rows = call(client.query("motion"))
        assert [r["_seq"] for r in rows] == [0, 1]
        assert all(r["_ts"] >= 1.0 for r in rows)

    def test_seq_monotonic_across_batches(self, client, call):
        call(client.load("motion", [{"a": 1}]))
        result = call(client.load("motion", [{"a": 2}, {"a": 3}]))
        assert result["first_seq"] == 1
        rows = call(client.query("motion"))
        assert [r["_seq"] for r in rows] == [0, 1, 2]

    def test_non_dict_record_rejected(self, client, call):
        with pytest.raises(StoreError):
            call(client.load("motion", ["not-a-dict"]))

    def test_load_input_not_aliased(self, client, call):
        batch = [{"v": 1}]
        call(client.load("motion", batch))
        batch[0]["v"] = 999
        assert call(client.query("motion"))[0]["v"] == 1

    def test_stats(self, client, call):
        call(client.load("motion", [{"a": 1}, {"a": 2}]))
        stats = call(client.stats("motion"))
        assert stats["records"] == 2 and stats["next_seq"] == 2


class TestQuery:
    def test_filter_and_rename_pipeline(self, client, call):
        call(
            client.load(
                "motion",
                [
                    {"triggered": True, "device": "d1"},
                    {"triggered": False, "device": "d2"},
                    {"triggered": True, "device": "d3"},
                ],
            )
        )
        rows = call(
            client.query(
                "motion",
                ops=[
                    {"op": "filter", "expr": "triggered == True"},
                    {"op": "rename", "from": "triggered", "to": "motion"},
                    {"op": "cut", "fields": ["device", "motion"]},
                ],
            )
        )
        assert rows == [
            {"device": "d1", "motion": True},
            {"device": "d3", "motion": True},
        ]

    def test_since_seq_incremental_read(self, client, call):
        call(client.load("motion", [{"a": 1}, {"a": 2}]))
        call(client.load("motion", [{"a": 3}]))
        rows = call(client.query("motion", since_seq=2))
        assert [r["a"] for r in rows] == [3]

    def test_query_does_not_mutate_pool(self, client, call):
        call(client.load("motion", [{"a": 1}]))
        rows = call(client.query("motion", ops=[{"op": "rename", "from": "a", "to": "b"}]))
        assert rows[0]["b"] == 1
        original = call(client.query("motion"))
        assert original[0]["a"] == 1

    def test_query_results_are_frozen_views(self, client, call):
        # Scan results alias the pool's frozen rows (zero-copy): local
        # mutation raises instead of corrupting the pool.
        call(client.load("motion", [{"nested": {"v": 1}}]))
        rows = call(client.query("motion"))
        with pytest.raises(FrozenViewError):
            rows[0]["nested"]["v"] = 999
        mine = rows[0].thaw()
        mine["nested"]["v"] = 999
        assert call(client.query("motion"))[0]["nested"]["v"] == 1

    def test_scan_cost_scales_with_pool_size(self, env, server, client, call):
        call(client.load("motion", [{"i": i} for i in range(1000)]))
        start = env.now
        call(client.query("motion"))
        big_cost = env.now - start
        start = env.now
        call(client.query("motion", since_seq=999))
        small_cost = env.now - start
        assert big_cost > small_cost


def seq_comparison_scan(records, since_seq, until_seq):
    """The reference: compare every row's ``_seq``, O(pool).

    This is what ``op_query`` did before range scans became slices; it
    stays here so the slice is checked against the definition.
    """
    return [
        r
        for r in records
        if (since_seq is None or r["_seq"] >= since_seq)
        and (until_seq is None or r["_seq"] < until_seq)
    ]


_bounds = st.one_of(st.none(), st.integers(min_value=-4, max_value=24))


class TestSeqRange:
    @settings(max_examples=120, deadline=None)
    @given(
        batches=st.lists(st.integers(min_value=0, max_value=5), max_size=5),
        since_seq=_bounds,
        until_seq=_bounds,
        zero_copy=st.booleans(),
        include_watermark=st.booleans(),
    )
    def test_range_scan_matches_seq_comparison(
        self, batches, since_seq, until_seq, zero_copy, include_watermark
    ):
        # None, negative, past-the-watermark and inverted bounds all
        # have to answer what comparing every row would.
        env = Environment()
        net = Network(env, default_latency=FixedLatency(0.0))
        server = LogLake(env, net, watch_overhead=0.0, zero_copy=zero_copy)
        client = LogLakeClient(server, location="tester")

        def call(proc):
            return env.run(until=proc)

        call(client.create_pool("empty"))
        call(client.create_pool("motion"))
        for number, size in enumerate(batches):
            call(client.load(
                "motion", [{"batch": number, "i": i} for i in range(size)]
            ))
        pool = server._pools["motion"].records
        assert [row["_seq"] for row in pool] == list(range(sum(batches)))
        expected = seq_comparison_scan(pool, since_seq, until_seq)

        start = env.now
        call(client.query("empty", since_seq=since_seq, until_seq=until_seq,
                          include_watermark=include_watermark))
        no_rows = env.now - start
        start = env.now
        answer = call(client.query(
            "motion", since_seq=since_seq, until_seq=until_seq,
            include_watermark=include_watermark,
        ))
        elapsed = env.now - start

        if include_watermark:
            assert answer["watermark"] == len(pool)
            answer = answer["records"]
        assert answer == expected
        # Sim time is charged per row scanned, exactly as before.
        assert elapsed - no_rows == pytest.approx(
            len(expected) * server.scan_cost_per_record, abs=1e-12
        )

    @pytest.mark.parametrize("bound", [1.5, "3", [1]])
    @pytest.mark.parametrize("name", ["since_seq", "until_seq"])
    def test_non_integer_bound_rejected(self, client, call, name, bound):
        call(client.load("motion", [{"a": 1}, {"a": 2}]))
        with pytest.raises(StoreError, match="must be integers"):
            call(client.query("motion", **{name: bound}))

    def test_range_scan_shares_no_list_with_the_pool(self, client, call):
        call(client.load("motion", [{"a": 1}, {"a": 2}]))
        rows = call(client.query("motion"))
        rows.clear()  # the answer is the caller's list, not the pool's
        assert len(call(client.query("motion"))) == 2


class TestWatch:
    def test_batch_delivery(self, env, client, call):
        batches = []
        client.watch_pool("motion", batches.append)
        call(client.load("motion", [{"a": 1}, {"a": 2}]))
        env.run()
        assert len(batches) == 1
        event = batches[0]
        assert event.key == "motion"
        assert [r["a"] for r in event.object["records"]] == [1, 2]
        assert event.object["first_seq"] == 0

    def test_empty_load_does_not_notify(self, env, client, call):
        batches = []
        client.watch_pool("motion", batches.append)
        call(client.load("motion", []))
        env.run()
        assert batches == []

    def test_pool_isolation(self, env, client, call):
        call(client.create_pool("energy"))
        batches = []
        client.watch_pool("energy", batches.append)
        call(client.load("motion", [{"a": 1}]))
        env.run()
        assert batches == []
