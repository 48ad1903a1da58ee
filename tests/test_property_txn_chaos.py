"""Property: cross-shard txns are atomic and exactly-once under chaos.

Seeded, deterministic: each seed derives a random workload of cross-shard
op batches AND a random fault schedule (coordinator kills -- both timed
and phase-targeted -- plus coordinator<->shard partitions).  Whatever the
interleaving, two invariants must hold at quiescence:

- **atomicity**: every transaction's keys are either ALL present with
  that transaction's payload, or ALL absent.  Never a partial batch.
- **exactly-once**: each transaction carries an idempotence key and is
  submitted through a retry loop that may re-submit after retryable
  failures; replaying every key again at the end must change nothing
  (creates would blow up with AlreadyExistsError if effects re-applied).

Shards are WAL-backed (ApiServer) so participant crashes cannot excuse a
lost effect, and every in-doubt participant must drain by the end.
"""

import random

import pytest

from repro.errors import (
    ConflictError,
    DeadlineExceededError,
    StoreError,
    UnavailableError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.simnet import Environment, FixedLatency, Network
from repro.store import ApiServer, ShardRing, ShardedStore, ShardedStoreClient
from repro.txn.coordinator import PHASES

N_SHARDS = 3
N_TXNS = 8


def build(seed):
    env = Environment()
    net = Network(env, default_latency=FixedLatency(0.0004))
    shards = [
        ApiServer(env, net, location=f"shard-{i}", watch_overhead=0.0)
        for i in range(N_SHARDS)
    ]
    store = ShardedStore(shards, name=f"chaos-{seed}")
    client = ShardedStoreClient(store, "driver")
    return env, net, store, client


def workload(seed):
    """Deterministic batches, each guaranteed to span >= 2 shards."""
    rng = random.Random(seed * 7919 + 13)
    batches = []
    for t in range(N_TXNS):
        keys, covered = [], set()
        i = 0
        want = rng.randrange(2, 5)
        while len(keys) < want or len(covered) < 2:
            key = f"s{seed}-t{t}-k{i}"
            i += 1
            idx = ShardRing.for_count(N_SHARDS).owner_index(key)
            if len(keys) < want or idx not in covered:
                keys.append(key)
                covered.add(idx)
            if i > 64:  # safety; never hit in practice
                break
        ops = [
            {"action": "create", "key": key, "data": {"txn": t, "seed": seed}}
            for key in keys
        ]
        batches.append((t, ops))
    return batches


def chaos_plan(seed, coordinator_name, endpoints):
    rng = random.Random(seed * 104729 + 7)
    plan = FaultPlan()
    for _ in range(3):
        plan.kill_during_txn(
            coordinator_name, rng.choice(PHASES),
            at=rng.uniform(0.0, 1.2), duration=rng.uniform(0.05, 0.25),
        )
    for _ in range(2):
        plan.kill_process(coordinator_name, at=rng.uniform(0.0, 1.5),
                          duration=rng.uniform(0.05, 0.2))
    for _ in range(2):
        src, dst = rng.sample(list(endpoints), 2)
        plan.partition(src, dst, at=rng.uniform(0.0, 1.5),
                       duration=rng.uniform(0.02, 0.15))
    return plan


def submit_with_retries(env, client, ops, idem_key, outcomes, t):
    """The disciplined caller: retry retryables with the SAME idem key."""
    attempts = 0
    while attempts < 60:
        attempts += 1
        try:
            yield client.txn(ops, mode="2pc", idempotence_key=idem_key)
            outcomes[t] = "committed"
            return
        except (UnavailableError, DeadlineExceededError):
            yield env.timeout(0.05)
        except ConflictError:
            yield env.timeout(0.03)  # in-doubt lock; decided soon
        except StoreError:
            outcomes[t] = "aborted"
            return
    outcomes[t] = "gave-up"


@pytest.mark.parametrize("seed", range(5))
def test_atomic_and_exactly_once_under_chaos(seed):
    env, net, store, client = build(seed)
    coord = store.coordinator
    injector = FaultInjector(env, net, processes={"coord": coord})
    endpoints = [coord.location] + [s.location for s in store.shards]
    injector.schedule(chaos_plan(seed, "coord", endpoints))

    batches = workload(seed)
    outcomes = {}
    rng = random.Random(seed)
    for t, ops in batches:
        start = rng.uniform(0.0, 1.5)
        timer = env.timeout(start)
        timer.callbacks.append(
            lambda _evt, t=t, ops=ops: env.process(
                submit_with_retries(env, client, ops,
                                    f"idem-{seed}-{t}", outcomes, t)
            )
        )
    env.run()
    # Chaos horizon passed and everything quiesced.  If the coordinator
    # died with no restart pending (shouldn't happen: every kill window
    # ends), recovery would be owed -- assert it is not.
    assert coord.alive

    # -- atomicity: all-or-nothing per transaction --------------------------
    for t, ops in batches:
        present = []
        for op in ops:
            shard = store.shard_for(op["key"])
            present.append(op["key"] in shard._objects)
        assert len(set(present)) == 1, (
            f"seed {seed} txn {t} ({outcomes.get(t)}) partially "
            f"applied: {dict(zip([op['key'] for op in ops], present))}"
        )
        if outcomes.get(t) == "committed":
            assert all(present), (
                f"seed {seed} txn {t} reported committed but is absent"
            )

    # -- exactly-once: replaying every key changes nothing ------------------
    applied_before = {
        s.location: sorted(s._objects) for s in store.shards
    }
    for t, ops in batches:
        if outcomes.get(t) != "committed":
            continue
        replay = env.process(submit_with_retries(
            env, client, ops, f"idem-{seed}-{t}", outcomes, t
        ))
        env.run(until=replay)
        assert outcomes[t] == "committed"  # cached, not re-applied
    assert {
        s.location: sorted(s._objects) for s in store.shards
    } == applied_before

    # -- no participant left in doubt ---------------------------------------
    assert store.in_doubt_txns == 0
    assert not coord._inflight


@pytest.mark.parametrize("seed", [0, 3])
def test_same_seed_same_fingerprint(seed):
    """The whole chaotic run is deterministic, injector log included."""

    def run_once():
        env, net, store, client = build(seed)
        coord = store.coordinator
        injector = FaultInjector(env, net, processes={"coord": coord})
        endpoints = [coord.location] + [s.location for s in store.shards]
        injector.schedule(chaos_plan(seed, "coord", endpoints))
        outcomes = {}
        rng = random.Random(seed)
        for t, ops in workload(seed):
            start = rng.uniform(0.0, 1.5)
            timer = env.timeout(start)
            timer.callbacks.append(
                lambda _evt, t=t, ops=ops: env.process(
                    submit_with_retries(env, client, ops,
                                        f"idem-{seed}-{t}", outcomes, t)
                )
            )
        env.run()
        state = {
            s.location: {k: o.revision for k, o in sorted(s._objects.items())}
            for s in store.shards
        }
        return state, dict(outcomes), injector.trace(), coord.txn_stats()

    assert run_once() == run_once()
