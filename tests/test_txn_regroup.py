"""The 2PC ring-regroup path: a prepare that lands on a sealed range.

A cross-shard batch whose prepare bounces off a reshard seal
(:class:`~repro.errors.ShardMovedError`) aborts that round under the
round's wire id, backs off, regroups against the live ring and tries a
fresh round; after ``RING_REGROUP_ATTEMPTS`` rounds it gives up
retryably with nothing applied anywhere.
"""

import pytest

from repro.errors import NotFoundError, UnavailableError
from repro.store import MemKV, ShardedStore, ShardedStoreClient
from repro.store.client import ObjectClient
from repro.txn import TxnCoordinator

#: A degenerate ring arc: the whole circle.
WHOLE_RING = [(0, 0)]


class RecordingShard(MemKV):
    """A MemKV shard that records the wire ids it is asked to abort and
    lifts its seal on the abort of a wire id ending in ``unseal_on``."""

    unseal_on = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.aborts = []

    def op_txn_abort(self, txn_id):
        self.aborts.append(txn_id)
        if self.unseal_on and txn_id.endswith(self.unseal_on):
            self.clear_sealed_ranges()
        return super().op_txn_abort(txn_id)


@pytest.fixture
def store(env, net):
    return ShardedStore(
        [RecordingShard(env, net, location=f"shard-{i}") for i in range(2)],
        name="txnstore",
    )


def batch(store):
    """One create per shard: keys chosen by the store's own ring."""
    ops, covered = [], set()
    i = 0
    while len(covered) < 2:
        key = f"k-{i}"
        shard = store.shard_for(key)
        if shard.location not in covered:
            covered.add(shard.location)
            ops.append({"action": "create", "key": key,
                        "data": {"on": shard.location}})
        i += 1
    return ops


def seal_last(store):
    """Seal the whole ring on the participant prepared last, so the
    other holds a prepare each round that the round's abort undoes."""
    shard = store.shards[-1]
    shard.seal_ranges(WHOLE_RING, ring_version=store.ring.version + 1)
    return shard, store.shards[0]


def wire_ids(txn_id, rounds):
    return [txn_id] + [f"{txn_id}.r{n}" for n in range(1, rounds)]


class TestRegroup:
    def test_sealed_rounds_abort_under_their_wire_ids_then_one_commits(
            self, store, call):
        ops = batch(store)
        sealed, other = seal_last(store)
        router = ShardedStoreClient(store, "caller")
        # Rounds 0 and 1 land on the seal; the seal lifts as round 1's
        # abort reaches the sealed shard, so round 2 commits.
        sealed.unseal_on = ".r1"
        views = call(router.txn(ops, mode="2pc"))
        txn_id = other.aborts[0]
        assert len(views) == 2
        assert sealed.fence_rejections == 2
        # Every participant heard both aborts, under the round's id.
        assert sealed.aborts == wire_ids(txn_id, 2)
        assert other.aborts == wire_ids(txn_id, 2)
        # The unsealed participant prepared both rounds and recorded
        # each abort; the commit is the third round's.
        for wire_id in wire_ids(txn_id, 2):
            reply = call(ObjectClient(other, "check").txn_abort(wire_id))
            assert reply["state"] == "aborted"
        for shard in store.shards:
            reply = call(ObjectClient(shard, "check").txn_commit(
                f"{txn_id}.r2"))
            assert reply["state"] == "committed"
        for op in ops:
            assert call(router.get(op["key"]))["data"] == op["data"]
        assert store.in_doubt_txns == 0
        stats = store.txn_stats()
        assert (stats["committed"], stats["aborted"]) == (1, 0)

    def test_a_ring_that_never_settles_gives_up_with_nothing_applied(
            self, store, call):
        ops = batch(store)
        sealed, other = seal_last(store)
        router = ShardedStoreClient(store, "caller")
        with pytest.raises(UnavailableError, match="kept changing"):
            call(router.txn(ops, mode="2pc"))
        rounds = TxnCoordinator.RING_REGROUP_ATTEMPTS
        assert sealed.fence_rejections == rounds
        txn_id = other.aborts[0]
        # One abort per round, then the terminal abort of the last one.
        rounds_ids = wire_ids(txn_id, rounds)
        assert other.aborts == rounds_ids + rounds_ids[-1:]
        for op in ops:
            with pytest.raises(NotFoundError):
                call(router.get(op["key"]))
        assert store.in_doubt_txns == 0
        assert store.txn_stats()["aborted"] == 1

