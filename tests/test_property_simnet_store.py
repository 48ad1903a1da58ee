"""Property-based tests: simulation kernel and store invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import Environment, FixedLatency, Link, Network, UniformLatency
from repro.store import ApiServer, ApiServerClient, MemKV, MemKVClient
from repro.store.base import estimate_size
from repro.store.cow import merge_patch


def run_op(env, event):
    return env.run(until=event)


class TestSimnetProperties:
    @given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                           max_size=30))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        env = Environment()
        fired = []
        for delay in delays:
            t = env.timeout(delay)
            t.callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(count=st.integers(min_value=1, max_value=60),
           seed=st.integers(min_value=0, max_value=2**20))
    def test_fifo_link_never_reorders(self, count, seed):
        env = Environment()
        link = Link(env, UniformLatency(0.0, 1.0, seed=seed), fifo=True)
        received = []
        for i in range(count):
            link.send(received.append, i)
        env.run()
        assert received == list(range(count))

    @given(seed=st.integers(min_value=0, max_value=2**20),
           count=st.integers(min_value=1, max_value=30))
    def test_same_seed_same_schedule(self, seed, count):
        def run_once():
            env = Environment()
            link = Link(env, UniformLatency(0, 0.5, seed=seed))
            times = []
            for i in range(count):
                link.send(lambda m: times.append(env.now), i)
            env.run()
            return times

        assert run_once() == run_once()


# Strategy: JSON-ish nested payloads with identifier-safe keys.
_scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        max_size=12,
    ),
)
_keys = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1, max_size=8
)
_payloads = st.recursive(
    _scalars,
    lambda children: st.dictionaries(_keys, children, max_size=4),
    max_leaves=12,
).filter(lambda v: isinstance(v, dict))


class TestStoreProperties:
    @settings(max_examples=40, deadline=None)
    @given(payloads=st.lists(_payloads, min_size=1, max_size=8))
    def test_revisions_strictly_increase(self, payloads):
        env = Environment()
        net = Network(env, default_latency=FixedLatency(0))
        client = ApiServerClient(ApiServer(env, net, watch_overhead=0),
                                 location="t")
        revisions = []
        for i, payload in enumerate(payloads):
            view = run_op(env, client.create(f"k{i}", payload))
            revisions.append(view["revision"])
            view = run_op(env, client.update(f"k{i}", payload))
            revisions.append(view["revision"])
        assert revisions == sorted(revisions)
        assert len(set(revisions)) == len(revisions)

    @settings(max_examples=40, deadline=None)
    @given(payloads=st.lists(_payloads, min_size=1, max_size=8),
           use_memkv=st.booleans())
    def test_watch_completeness(self, payloads, use_memkv):
        """Every commit is observed exactly once, in commit order."""
        env = Environment()
        net = Network(env, default_latency=FixedLatency(0.001))
        backend_cls, client_cls = (
            (MemKV, MemKVClient) if use_memkv else (ApiServer, ApiServerClient)
        )
        server = backend_cls(env, net, watch_overhead=0.0005)
        client = client_cls(server, location="writer")
        watcher = client_cls(server, location="watcher")
        events = []
        watcher.watch(events.append)
        expected = []
        for i, payload in enumerate(payloads):
            view = run_op(env, client.create(f"k{i}", payload))
            expected.append(view["revision"])
        env.run()
        assert [e.revision for e in events] == expected

    @settings(max_examples=60, deadline=None)
    @given(payload=_payloads)
    def test_store_roundtrip_identity(self, payload):
        env = Environment()
        net = Network(env, default_latency=FixedLatency(0))
        client = ApiServerClient(ApiServer(env, net, watch_overhead=0),
                                 location="t")
        run_op(env, client.create("k", payload))
        assert run_op(env, client.get("k"))["data"] == payload

    @given(base=_payloads, patch=_payloads)
    def test_merge_patch_applies_every_patch_leaf(self, base, patch):
        from repro.util.paths import get_path, walk_leaves

        result = merge_patch(base, patch)
        for path, value in walk_leaves(patch):
            if value is None:
                continue  # None deletes
            if isinstance(value, dict) and not value:
                continue  # empty dicts merge to whatever was there
            assert get_path(result, list(path)) == value

    @given(base=_payloads, patch=_payloads)
    def test_merge_patch_is_idempotent(self, base, patch):
        once = merge_patch(base, patch)
        twice = merge_patch(once, patch)
        assert once == twice

    @given(payload=_payloads)
    def test_estimate_size_positive_and_monotone(self, payload):
        size = estimate_size(payload)
        assert size > 0
        grown = dict(payload)
        grown["zzextra"] = "x" * 10
        assert estimate_size(grown) > size
