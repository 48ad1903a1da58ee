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

That safety must not cost more aborts than it saves: on the same
workloads and fault schedules, an optimistic baseline that splits each
batch into independent per-shard transactions (blind retries, no
coordinator) leaks partial batches and ambiguous outcomes, and the
coordinated abort rate may exceed the baseline's trouble rate by at
most ``ABORT_MARGIN``.
"""

import random

import pytest

from repro.errors import (
    AlreadyExistsError,
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
#: Coordinated aborts may exceed the baseline's visible trouble rate by
#: at most this much: refusing to commit (and rolling back) is the
#: correct answer to chaos the baseline "survives" by leaking partials.
ABORT_MARGIN = 0.25


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


def workload(seed, n_txns=N_TXNS, prefix="s"):
    """Deterministic batches, each guaranteed to span >= 2 shards."""
    rng = random.Random(seed * 7919 + 13)
    batches = []
    for t in range(n_txns):
        keys, covered = [], set()
        i = 0
        want = rng.randrange(2, 5)
        while len(keys) < want or len(covered) < 2:
            key = f"{prefix}{seed}-t{t}-k{i}"
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


def run_chaos(seed, batches):
    """Submit ``batches`` at seeded times under the seed's fault plan and
    run to quiescence; returns the run and each txn's outcome."""
    env, net, store, client = build(seed)
    coord = store.coordinator
    injector = FaultInjector(env, net, processes={"coord": coord})
    endpoints = [coord.location] + [s.location for s in store.shards]
    injector.schedule(chaos_plan(seed, "coord", endpoints))
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
    return env, client, store, injector, outcomes


@pytest.mark.parametrize("seed", range(5))
def test_atomic_and_exactly_once_under_chaos(seed):
    batches = workload(seed)
    env, client, store, _injector, outcomes = run_chaos(seed, batches)
    coord = store.coordinator
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
        _env, _client, store, injector, outcomes = run_chaos(
            seed, workload(seed))
        state = {
            s.location: {k: o.revision for k, o in sorted(s._objects.items())}
            for s in store.shards
        }
        return (state, dict(outcomes), injector.trace(),
                store.coordinator.txn_stats())

    assert run_once() == run_once()


# -- the optimistic baseline -------------------------------------------------


class _StubProcess:
    """Absorbs the chaos plan's coordinator kills: the baseline has no
    coordinator process, so those windows are no-ops (partitions still
    land on the shard links)."""

    alive = True

    def kill(self):
        pass

    def restart(self):
        pass


def submit_optimistic(env, client, ops, outcomes, t):
    """Per-shard slices, blind retries, no idempotence: the anomaly
    window.  A retry whose predecessor's reply was lost hits
    AlreadyExistsError and cannot tell whose write landed."""
    by_shard = {}
    for op in ops:
        by_shard.setdefault(
            ShardRing.for_count(N_SHARDS).owner_index(op["key"]), []
        ).append(op)
    results = []
    for _idx, slice_ops in sorted(by_shard.items()):
        attempts, result = 0, "gave-up"
        while attempts < 60:
            attempts += 1
            try:
                yield client.txn(slice_ops)
                result = "committed"
                break
            except (UnavailableError, DeadlineExceededError):
                yield env.timeout(0.05)
            except AlreadyExistsError:
                result = "ambiguous"  # our earlier try? someone else?
                break
            except StoreError:
                result = "aborted"
                break
        results.append(result)
    if all(r == "committed" for r in results):
        outcomes[t] = "committed"
    elif any(r == "committed" for r in results):
        outcomes[t] = "partial"
    elif any(r == "ambiguous" for r in results):
        outcomes[t] = "ambiguous"
    else:
        outcomes[t] = "aborted"


def run_baseline(seed, batches):
    env, net, store, client = build(seed)
    injector = FaultInjector(env, net,
                             processes={"coord": _StubProcess()})
    endpoints = ["driver"] + [s.location for s in store.shards]
    injector.schedule(chaos_plan(seed, "coord", endpoints))
    outcomes = {}
    rng = random.Random(seed)
    for t, ops in batches:
        timer = env.timeout(rng.uniform(0.0, 1.5))
        timer.callbacks.append(
            lambda _evt, t=t, ops=ops: env.process(
                submit_optimistic(env, client, ops, outcomes, t)
            )
        )
    env.run()
    return outcomes


def test_abort_rate_within_margin_of_the_optimistic_baseline():
    """Two seeds x six txns, each under the coordinated plane and the
    optimistic baseline.  The chaos must be earned -- the schedule kills
    the coordinator mid-protocol and it recovers -- and the safety must
    leave work done: some coordinated txn commits."""
    seeds, n_txns = (0, 1), 6
    aborted = trouble = committed = recoveries = 0
    for seed in seeds:
        batches = workload(seed, n_txns, prefix="b")
        _env, _client, store, _injector, outcomes = run_chaos(seed, batches)
        assert store.coordinator.alive
        recoveries += store.coordinator.txn_stats()["recoveries"]
        aborted += sum(o in ("aborted", "gave-up") for o in outcomes.values())
        committed += sum(o == "committed" for o in outcomes.values())
        baseline = run_baseline(seed, batches)
        trouble += n_txns - sum(o == "committed" for o in baseline.values())
    assert recoveries > 0, (
        "fault schedule never killed the coordinator; chaos is a no-op"
    )
    total = n_txns * len(seeds)
    assert aborted / total <= trouble / total + ABORT_MARGIN, (
        f"coordinated abort rate {aborted / total:.2f} exceeds baseline "
        f"trouble rate {trouble / total:.2f} + margin {ABORT_MARGIN:.2f}"
    )
    assert committed > 0, "chaos aborted every coordinated txn"
