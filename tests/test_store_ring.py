"""The consistent-hash ring: determinism, locality, and the Topology spec."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.store import AutoscalePolicy, ShardRing, Topology, key_in_ranges
from repro.store.ring import hash_key

KEYS = [f"key/{i}" for i in range(4000)]


class TestDeterminism:
    def test_same_seed_rings_are_bit_identical(self):
        a = ShardRing(seed=5, members=range(3))
        b = ShardRing(seed=5, members=range(3))
        assert a.fingerprint() == b.fingerprint()
        assert all(a.owner_of(k) == b.owner_of(k) for k in KEYS)

    def test_different_seeds_place_differently(self):
        a = ShardRing(seed=0, members=range(3))
        b = ShardRing(seed=1, members=range(3))
        assert a.fingerprint() != b.fingerprint()
        assert any(a.owner_of(k) != b.owner_of(k) for k in KEYS)

    def test_key_hash_is_seed_independent(self):
        # Key placement comes from the key's own digest; the seed only
        # moves the members' vnodes.  (And never Python's randomized
        # ``hash()``: fingerprints must survive interpreter restarts.)
        assert hash_key("order/1") == hash_key("order/1")
        assert hash_key("order/1") != hash_key("order/2")

    def test_grown_ring_matches_fresh_ring(self):
        grown = ShardRing(seed=0, members=range(2))
        grown.add(2)
        assert grown.fingerprint() == ShardRing.for_count(3).fingerprint()

    def test_version_counts_membership_changes(self):
        ring = ShardRing(seed=0, members=range(2))
        assert ring.version == 2
        ring.add(2)
        ring.remove(2)
        assert ring.version == 4


class TestLocality:
    def test_unmoved_keys_keep_their_owner_on_add(self):
        ring = ShardRing(seed=0, members=range(4))
        before = {k: ring.owner_of(k) for k in KEYS}
        moved_ranges = [(lo, hi) for lo, hi, _src in ring.preview_add(4)]
        ring.add(4)
        for key in KEYS:
            if key_in_ranges(key, moved_ranges):
                assert ring.owner_of(key) == 4
            else:
                assert ring.owner_of(key) == before[key]

    def test_unmoved_keys_keep_their_owner_on_remove(self):
        ring = ShardRing(seed=0, members=range(4))
        before = {k: ring.owner_of(k) for k in KEYS}
        ring.remove(3)
        for key in KEYS:
            if before[key] != 3:
                assert ring.owner_of(key) == before[key]

    def test_moved_fraction_is_about_one_over_n(self):
        ring = ShardRing(seed=0, members=range(4))
        before = {k: ring.owner_of(k) for k in KEYS}
        ring.add(4)
        moved = sum(before[k] != ring.owner_of(k) for k in KEYS)
        fraction = moved / len(KEYS)
        # Expectation K/N = 1/5; vnode placement keeps it in the
        # neighborhood (a modulo router would move ~4/5 instead).
        assert 0.10 < fraction < 0.35

    def test_preview_matches_actual_movement(self):
        ring = ShardRing(seed=3, members=range(3))
        before = {k: ring.owner_of(k) for k in KEYS}
        moved_ranges = [(lo, hi) for lo, hi, _src in ring.preview_add(3000)]
        ring.add(3000)
        for key in KEYS:
            assert (before[key] != ring.owner_of(key)) == key_in_ranges(
                key, moved_ranges
            )

    def test_preview_remove_names_the_inheritors(self):
        ring = ShardRing(seed=0, members=range(3))
        before = {k: ring.owner_of(k) for k in KEYS}
        moved = ring.preview_remove(2)
        ring.remove(2)
        for lo, hi, dest in moved:
            assert dest != 2
        for key in KEYS:
            if before[key] == 2:
                assert ring.owner_of(key) != 2


def reference_hash(key):
    """The ring position of ``key``, digested afresh (no memo)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def reference_owner(points, h):
    """The ring lookup as a binary search written out: the oracle."""
    lo, hi = 0, len(points)
    while lo < hi:
        mid = (lo + hi) // 2
        if points[mid][0] < h:
            lo = mid + 1
        else:
            hi = mid
    if lo == len(points):
        lo = 0  # wrapped past the last point
    return points[lo][1]


class TestLookup:
    @settings(max_examples=200, deadline=None)
    @given(key=st.text(max_size=24), members=st.integers(1, 6),
           seed=st.integers(0, 3))
    def test_owner_matches_the_binary_search(self, key, members, seed):
        ring = ShardRing(seed=seed, members=range(members))
        assert hash_key(key) == reference_hash(key)
        assert ring.owner_of(key) == reference_owner(
            ring._points, reference_hash(key))

    def test_every_point_and_its_neighbours(self):
        ring = ShardRing(seed=2, members=range(3))
        points = ring._points
        for h in {0, 1, 2**64 - 1} | {
                p + d for p, _ in points for d in (-1, 0, 1)}:
            assert ring.owner_of_point(h) == reference_owner(points, h)

    def test_a_hash_past_the_last_point_wraps_to_the_first(self):
        ring = ShardRing(seed=0, members=range(4))
        last, first = ring._points[-1][0], ring._points[0]
        assert last < 2**64 - 1
        assert ring.owner_of_point(last + 1) == first[1]
        assert ring.owner_of_point(2**64 - 1) == first[1]

    def test_answers_follow_membership_changes(self):
        ring = ShardRing(seed=7, members=range(2))
        rng = random.Random(3)
        keys = [f"k/{rng.getrandbits(40)}" for _ in range(500)]
        for change in (lambda: ring.add(2), lambda: ring.add(5),
                       lambda: ring.remove(0), lambda: ring.remove(2)):
            before = ring.version
            change()
            assert ring.version == before + 1
            for key in keys:
                assert ring.owner_of(key) == reference_owner(
                    ring._points, reference_hash(key))

    def test_the_hash_memo_stays_bounded(self):
        bound = hash_key.cache_info().maxsize
        assert bound is not None
        for i in range(100_000):
            hash_key(f"distinct/{i}")
        info = hash_key.cache_info()
        assert info.currsize <= bound
        # Evicted keys hash to the same place when asked again.
        assert hash_key("distinct/0") == reference_hash("distinct/0")


class TestRingEdges:
    def test_single_member_owns_everything(self):
        ring = ShardRing(seed=0, members=[7])
        assert all(ring.owner_of(k) == 7 for k in KEYS[:100])

    def test_cannot_remove_last_member(self):
        ring = ShardRing(seed=0, members=[0])
        with pytest.raises(ConfigurationError):
            ring.preview_remove(0)

    def test_duplicate_member_rejected(self):
        ring = ShardRing(seed=0, members=range(2))
        with pytest.raises(ConfigurationError):
            ring.add(1)


class TestTopologySpec:
    def test_defaults(self):
        topology = Topology()
        assert topology.shards == 1
        assert topology.min_shards == 1
        assert topology.effective_max_shards >= topology.shards

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            Topology(shards=0)
        with pytest.raises(ConfigurationError):
            Topology(shards=2, min_shards=3)
        with pytest.raises(ConfigurationError):
            Topology(shards=9, max_shards=4)

    def test_build_ring_uses_seed_and_vnodes(self):
        a = Topology(shards=3, seed=11).build_ring(members=range(3))
        b = Topology(shards=3, seed=11).build_ring(members=range(3))
        assert a.fingerprint() == b.fingerprint()

    def test_autoscale_policy_validated(self):
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(target_queue_depth=0)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(interval=0)
