"""Chaos benchmark: the cross-shard transactional plane under fault load.

Each seed derives a workload of cross-shard op batches (every batch spans
at least two shards) and a fault schedule: phase-targeted coordinator
kills (armed at 2PC protocol boundaries), timed coordinator kills,
and coordinator<->shard partitions.  Two configurations run the same
workload:

- **coordinated** -- batches submitted through the transactional plane
  (``mode="2pc"``) with per-txn idempotence keys, retried
  on retryable failures.  Gated invariants: zero lost effects (a txn
  reported committed is fully present), zero duplicated effects
  (replaying every committed batch under its idempotence key changes
  nothing), zero partial batches, every in-doubt participant drained.
- **optimistic baseline** -- the same batches split per shard and
  committed as independent single-shard transactions with blind retries
  and no coordinator.  Under the same chaos this leaks partial batches
  and ambiguous outcomes (a retry after a lost reply cannot tell whether
  its own write landed), which is the anomaly budget the plane erases.

The bench also gates the price of that safety: the coordinated abort
rate must stay within ``ABORT_MARGIN`` of the baseline's trouble rate
(aborted + partial + ambiguous), and two same-seed coordinated runs must
produce bit-identical fingerprints (final shard state + outcomes +
injector log + coordinator counters).

Run directly (``python benchmarks/bench_txn_chaos.py [--smoke]``), via
``knactor bench txn-chaos``, or under pytest
(``pytest benchmarks/bench_txn_chaos.py``).
"""

import argparse
import hashlib
import json
import random
from pathlib import Path

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

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_txn_chaos.json"

N_SHARDS = 3
SEEDS = (0, 1, 2, 3)
SMOKE_SEEDS = (0, 1)
N_TXNS = 10
SMOKE_TXNS = 6
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
    store = ShardedStore(shards, name=f"bench-chaos-{seed}")
    client = ShardedStoreClient(store, "driver")
    return env, net, store, client


def workload(seed, n_txns):
    """Deterministic batches, each guaranteed to span >= 2 shards."""
    rng = random.Random(seed * 7919 + 13)
    batches = []
    for t in range(n_txns):
        keys, covered = [], set()
        i = 0
        want = rng.randrange(2, 5)
        while len(keys) < want or len(covered) < 2:
            key = f"b{seed}-t{t}-k{i}"
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


# -- coordinated configuration ----------------------------------------------


def _submit_coordinated(env, client, ops, idem_key, outcomes, t):
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


def _shard_state(store):
    return {
        s.location: {k: o.revision for k, o in sorted(s._objects.items())}
        for s in store.shards
    }


def run_coordinated(seed, n_txns):
    env, net, store, client = build(seed)
    coord = store.coordinator
    injector = FaultInjector(env, net, processes={"coord": coord})
    endpoints = [coord.location] + [s.location for s in store.shards]
    injector.schedule(chaos_plan(seed, "coord", endpoints))

    batches = workload(seed, n_txns)
    outcomes = {}
    rng = random.Random(seed)
    for t, ops in batches:
        timer = env.timeout(rng.uniform(0.0, 1.5))
        timer.callbacks.append(
            lambda _evt, t=t, ops=ops: env.process(
                _submit_coordinated(env, client, ops,
                                    f"idem-{seed}-{t}", outcomes, t)
            )
        )
    env.run()

    lost = partial = 0
    for t, ops in batches:
        present = [op["key"] in store.shard_for(op["key"])._objects
                   for op in ops]
        if len(set(present)) != 1:
            partial += 1
        if outcomes.get(t) == "committed" and not all(present):
            lost += 1

    # Exactly-once: replay every committed batch under its idempotence
    # key; the cached outcome must answer and the state must not move.
    before = _shard_state(store)
    duplicated = 0
    for t, ops in batches:
        if outcomes.get(t) != "committed":
            continue
        replay = env.process(_submit_coordinated(
            env, client, ops, f"idem-{seed}-{t}", outcomes, t
        ))
        env.run(until=replay)
        if outcomes[t] != "committed":
            duplicated += 1
    state = _shard_state(store)
    if state != before:
        duplicated += 1

    stats = coord.txn_stats()
    counts = {
        "committed": sum(1 for o in outcomes.values() if o == "committed"),
        "aborted": sum(1 for o in outcomes.values() if o == "aborted"),
        "gave_up": sum(1 for o in outcomes.values() if o == "gave-up"),
    }
    fingerprint = hashlib.sha256(json.dumps(
        [state, sorted(outcomes.items()), injector.trace(), stats],
        sort_keys=True,
    ).encode()).hexdigest()
    return {
        "seed": seed,
        "txns": n_txns,
        "outcomes": counts,
        "abort_rate": (counts["aborted"] + counts["gave_up"]) / n_txns,
        "lost_effects": lost,
        "duplicated_effects": duplicated,
        "partial_batches": partial,
        "in_doubt_after": store.in_doubt_txns,
        "coordinator_alive": coord.alive,
        "coordinator_stats": stats,
        "fingerprint": fingerprint,
    }


# -- optimistic baseline -----------------------------------------------------


class _StubProcess:
    """Absorbs the chaos plan's coordinator kills: the baseline has no
    coordinator process, so those windows are no-ops (partitions still
    land on the shard links)."""

    alive = True

    def kill(self):
        pass

    def restart(self):
        pass


def _submit_optimistic(env, client, ops, outcomes, t):
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


def run_baseline(seed, n_txns):
    env, net, store, client = build(seed)
    injector = FaultInjector(env, net,
                             processes={"coord": _StubProcess()})
    endpoints = ["driver"] + [s.location for s in store.shards]
    injector.schedule(chaos_plan(seed, "coord", endpoints))

    batches = workload(seed, n_txns)
    outcomes = {}
    rng = random.Random(seed)
    for t, ops in batches:
        timer = env.timeout(rng.uniform(0.0, 1.5))
        timer.callbacks.append(
            lambda _evt, t=t, ops=ops: env.process(
                _submit_optimistic(env, client, ops, outcomes, t)
            )
        )
    env.run()

    partial = 0
    for t, ops in batches:
        present = [op["key"] in store.shard_for(op["key"])._objects
                   for op in ops]
        if len(set(present)) != 1:
            partial += 1
    counts = {
        "committed": sum(1 for o in outcomes.values() if o == "committed"),
        "aborted": sum(1 for o in outcomes.values() if o == "aborted"),
        "partial": sum(1 for o in outcomes.values() if o == "partial"),
        "ambiguous": sum(1 for o in outcomes.values() if o == "ambiguous"),
        "gave_up": sum(1 for o in outcomes.values() if o == "gave-up"),
    }
    trouble = n_txns - counts["committed"]
    return {
        "seed": seed,
        "txns": n_txns,
        "outcomes": counts,
        "trouble_rate": trouble / n_txns,
        "partial_batches": partial,
    }


# -- the sweep ---------------------------------------------------------------


def run_sweep(smoke=False):
    seeds = SMOKE_SEEDS if smoke else SEEDS
    n_txns = SMOKE_TXNS if smoke else N_TXNS
    coordinated = [run_coordinated(seed, n_txns) for seed in seeds]
    baseline = [run_baseline(seed, n_txns) for seed in seeds]
    repeat = run_coordinated(seeds[0], n_txns)

    total = n_txns * len(seeds)
    aborted = sum(c["outcomes"]["aborted"] + c["outcomes"]["gave_up"]
                  for c in coordinated)
    trouble = sum(b["txns"] - b["outcomes"]["committed"] for b in baseline)
    return {
        "schema": 1,
        "bench": "txn-chaos",
        "seed": seeds[0],
        "smoke": smoke,
        "seeds": list(seeds),
        "txns_per_seed": n_txns,
        "shards": N_SHARDS,
        "coordinated": coordinated,
        "baseline": baseline,
        "lost_effects": sum(c["lost_effects"] for c in coordinated),
        "duplicated_effects": sum(c["duplicated_effects"]
                                  for c in coordinated),
        "partial_batches": sum(c["partial_batches"] for c in coordinated),
        "in_doubt_after": sum(c["in_doubt_after"] for c in coordinated),
        "abort_rate": aborted / total,
        "baseline_trouble_rate": trouble / total,
        "baseline_partial_batches": sum(b["partial_batches"]
                                        for b in baseline),
        "abort_margin": ABORT_MARGIN,
        "deterministic": coordinated[0]["fingerprint"]
        == repeat["fingerprint"],
    }


def write_results(results, path=OUTPUT):
    path = Path(path)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def describe(results):
    lines = ["cross-shard txn plane under chaos "
             f"(seeds {results['seeds']}, "
             f"{results['txns_per_seed']} txns/seed, "
             f"{results['shards']} shards)"]
    lines.append(
        f"{'config':>12} {'committed':>10} {'aborted':>8} {'partial':>8} "
        f"{'lost':>5} {'dup':>4}"
    )
    committed = sum(c["outcomes"]["committed"] for c in results["coordinated"])
    aborted = sum(c["outcomes"]["aborted"] + c["outcomes"]["gave_up"]
                  for c in results["coordinated"])
    lines.append(
        f"{'coordinated':>12} {committed:>10} {aborted:>8} "
        f"{results['partial_batches']:>8} {results['lost_effects']:>5} "
        f"{results['duplicated_effects']:>4}"
    )
    base_committed = sum(b["outcomes"]["committed"]
                         for b in results["baseline"])
    base_aborted = sum(b["outcomes"]["aborted"] + b["outcomes"]["gave_up"]
                       for b in results["baseline"])
    lines.append(
        f"{'optimistic':>12} {base_committed:>10} {base_aborted:>8} "
        f"{results['baseline_partial_batches']:>8} {'-':>5} {'-':>4}"
    )
    lines.append(
        f"abort rate {results['abort_rate']:.2f} vs baseline trouble rate "
        f"{results['baseline_trouble_rate']:.2f} "
        f"(margin {results['abort_margin']:.2f})"
    )
    recoveries = sum(c["coordinator_stats"]["recoveries"]
                     for c in results["coordinated"])
    internal_aborts = sum(c["coordinator_stats"]["aborted"]
                          for c in results["coordinated"])
    lines.append(
        f"chaos absorbed: {recoveries} coordinator recoveries, "
        f"{internal_aborts} internal aborts rolled back and retried"
    )
    lines.append(f"in-doubt after drain: {results['in_doubt_after']}")
    lines.append(f"deterministic across same-seed runs: "
                 f"{results['deterministic']}")
    return "\n".join(lines)


# -- pytest surface ----------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    """Module-scoped smoke sweep; writes the JSON artifact as it goes."""
    results = run_sweep(smoke=True)
    write_results(results)
    return results


def test_no_lost_or_duplicated_effects(sweep, report):
    assert sweep["lost_effects"] == 0, (
        f"{sweep['lost_effects']} committed txns missing effects"
    )
    assert sweep["duplicated_effects"] == 0, (
        f"{sweep['duplicated_effects']} idempotent replays re-applied"
    )
    assert sweep["partial_batches"] == 0, (
        f"{sweep['partial_batches']} coordinated batches partially applied"
    )
    report(describe(sweep))


def test_in_doubt_drains_and_coordinator_survives(sweep):
    assert sweep["in_doubt_after"] == 0
    for case in sweep["coordinated"]:
        assert case["coordinator_alive"]
    # The invariants must have been earned, not vacuous: the schedule
    # has to actually kill the coordinator mid-protocol.
    assert sum(c["coordinator_stats"]["recoveries"]
               for c in sweep["coordinated"]) > 0, (
        "fault schedule never killed the coordinator; chaos is a no-op"
    )


def test_abort_rate_within_margin_of_baseline(sweep):
    assert sweep["abort_rate"] <= (
        sweep["baseline_trouble_rate"] + sweep["abort_margin"]
    ), (
        f"coordinated abort rate {sweep['abort_rate']:.2f} exceeds "
        f"baseline trouble rate {sweep['baseline_trouble_rate']:.2f} "
        f"+ margin {sweep['abort_margin']:.2f}"
    )
    # The safety must be doing work somewhere: either chaos made the
    # baseline misbehave, or both configurations sailed through.
    committed = sum(c["outcomes"]["committed"] for c in sweep["coordinated"])
    assert committed > 0, "chaos aborted every coordinated txn"


def test_same_seed_runs_are_bit_identical(sweep):
    assert sweep["deterministic"], (
        "same-seed chaos runs diverged in state, outcomes, fault log, "
        "or coordinator counters"
    )


def test_artifact_written(sweep):
    data = json.loads(OUTPUT.read_text())
    assert data["bench"] == "txn-chaos"
    assert data["lost_effects"] == 0


# -- CLI surface -------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run cross-shard transactions under a seeded fault "
                    "schedule and gate atomicity + exactly-once."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep (CI): 2 seeds x 6 txns")
    parser.add_argument("--out", default=str(OUTPUT),
                        help="output JSON path")
    args = parser.parse_args(argv)
    results = run_sweep(smoke=args.smoke)
    path = write_results(results, args.out)
    print(describe(results))
    print(f"wrote {path}")
    ok = (
        results["lost_effects"] == 0
        and results["duplicated_effects"] == 0
        and results["partial_batches"] == 0
        and results["in_doubt_after"] == 0
        and results["deterministic"]
        and results["abort_rate"]
        <= results["baseline_trouble_rate"] + ABORT_MARGIN
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
