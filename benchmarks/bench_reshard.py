"""Live elastic resharding under sustained write load.

A seeded Zipf write workload (hot keys, long tail) runs against a
sharded MemKV Object backend while the topology goes **1 -> 4 -> 2**
shards *online* (consistent-hash ring, snapshot + catch-up migration,
sealed-range write fencing, client re-routing).  One merged watch
observes every key throughout.  Gated invariants:

- **zero lost writes** -- every key's final state is the last value the
  writer got acked, and every acked write shows up on the watch stream;
- **zero duplicated writes** -- per-key watch sequences carry each
  acked value exactly once, in write order;
- **zero watch disruption** -- the app watch never closes and never
  takes a forced full refetch (the migration plane's documented one-GET
  resync per moved range happens on the *resharder's* own clients);
- **identity with a static run** -- final state and per-key event-value
  order match the same workload on a never-resharded store;
- **determinism** -- two same-seed elastic runs produce bit-identical
  fingerprints (state + event order + ring fingerprint + counters).

A second scenario runs the store inside a cluster
:class:`~repro.cluster.ShardFleet`: a write burst drives worker-queue
depth, the autoscaler emits scaling events, and the fleet reshards the
ring to follow -- gated on at least one scaling event and a consistent
final state.

Run directly (``python benchmarks/bench_reshard.py [--smoke]``), via
``knactor bench reshard``, or under pytest
(``pytest benchmarks/bench_reshard.py``).
"""

import argparse
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.cluster import Cluster, ShardFleet
from repro.simnet import Environment, Network
from repro.store import (
    AutoscalePolicy,
    MemKV,
    ShardedStore,
    ShardedStoreClient,
    Topology,
)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_reshard.json"

SEEDS = (0, 1, 2)
SMOKE_SEEDS = (0,)
N_WRITES = 600
SMOKE_WRITES = 180
N_KEYS = 200
ZIPF_EXPONENT = 1.1
#: Shard-count trajectory: grow 1 -> 4 mid-run, shrink 4 -> 2 later.
PLAN = (4, 2)


def zipf_keys(seed, n_writes, n_keys=N_KEYS):
    """A seeded Zipf(~1.1) key sequence over ``k/0 .. k/{n_keys-1}``."""
    rng = random.Random(seed)
    population = [f"k/{i}" for i in range(n_keys)]
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(n_keys)]
    return rng.choices(population, weights=weights, k=n_writes)


def _build(env, seed, shards):
    network = Network(env)

    def factory(i):
        return MemKV(env, network, location=f"shard-{i}",
                     delta_watch=True, zero_copy=True)

    topology = Topology(shards=shards, seed=seed, min_shards=1, max_shards=4)
    store = ShardedStore(topology=topology, shard_factory=factory,
                        name="bench-reshard")
    client = ShardedStoreClient(store, "bench")
    return store, client


def run_once(seed, n_writes, elastic=True):
    """One workload run; ``elastic=False`` is the static-N control."""
    env = Environment()
    store, client = _build(env, seed, shards=1 if elastic else PLAN[-1])
    keys = zipf_keys(seed, n_writes)

    observed = {}  # key -> [value, ...] in watch-delivery order
    closes = []

    def on_event(event):
        observed.setdefault(event.key, []).append(event.object["v"])

    watch = client.watch(on_event, key_prefix="k/",
                         on_close=lambda reason: closes.append(reason))

    acked = {}  # key -> [value, ...] in ack order
    created = set()
    marks = ([(n_writes // 3, PLAN[0]), (2 * n_writes // 3, PLAN[1])]
             if elastic else [])

    def writer(env):
        reshard_proc = None
        for index, key in enumerate(keys):
            while marks and index == marks[0][0]:
                if reshard_proc is not None:
                    yield reshard_proc  # one transition at a time
                reshard_proc = store.reshard(marks.pop(0)[1])
            value = index
            if key in created:
                yield client.update(key, {"v": value})
            else:
                yield client.create(key, {"v": value})
                created.add(key)
            acked.setdefault(key, []).append(value)
            yield env.timeout(0.002)
        if reshard_proc is not None:
            yield reshard_proc

    env.process(writer(env))
    env.run(until=120.0)
    env.run(until=env.now + 1.0)  # drain in-flight watch deliveries

    final = {}

    def collect(env):
        for key in sorted(created):
            obj = yield client.get(key)
            final[key] = obj["data"]["v"]

    env.process(collect(env))
    env.run(until=env.now + 5.0)

    reroutes = store.stats()["ring"]["reroutes"]
    forced_resyncs = sum(w.forced_resyncs for w in watch.watches)
    stats = store.reshard_stats
    lost = sum(1 for key, values in acked.items()
               if final.get(key) != values[-1])
    out_of_order = sum(1 for key in acked
                       if observed.get(key, []) != acked[key])
    body = {
        "seed": seed,
        "writes": n_writes,
        "elastic": elastic,
        "final_state": final,
        "observed": {k: observed.get(k, []) for k in sorted(created)},
        "acked": {k: acked[k] for k in sorted(acked)},
        "ring_fingerprint": store.ring.fingerprint(),
        "ring_version": store.ring.version,
        "shards": store.shard_count,
    }
    fingerprint = hashlib.sha256(
        json.dumps({**body, "reshard_stats": stats,
                    "fence_rejections": store.fence_rejections},
                   sort_keys=True).encode()
    ).hexdigest()
    return {
        **body,
        "fingerprint": fingerprint,
        "lost_writes": lost,
        "out_of_order_keys": out_of_order,
        "watch_closes": len(closes),
        "forced_resyncs": forced_resyncs,
        "fence_rejections": store.fence_rejections,
        "reroutes": reroutes,
        "reshard_stats": stats,
        "virtual_seconds": env.now,
    }


#: Fleet scenario: concurrent serial writers and how long they push.
FLEET_WRITERS = 16
FLEET_PACING = 0.002
FLEET_LOAD_SECONDS = 6.0


def run_fleet(seed, n_writes):
    """The autoscaled variant: load -> ScalingEvents -> ring reshard.

    Sixteen serial writers over disjoint key slices outrun one shard's
    service rate, so worker-queue depth sits well above the autoscale
    target while the load phase lasts; the autoscaler grows the pod
    fleet, the fleet reshards the ring under the load, and the backlog
    drains on the wider topology.
    """
    env = Environment()
    network = Network(env)

    def factory(i):
        return MemKV(env, network, location=f"fleet-shard-{i}")

    topology = Topology(
        shards=1, seed=seed, min_shards=1, max_shards=4,
        autoscale=AutoscalePolicy(target_queue_depth=2.0, interval=0.2,
                                  cooldown=0.5),
    )
    store = ShardedStore(topology=topology, shard_factory=factory,
                        name="bench-fleet")
    client = ShardedStoreClient(store, "bench")
    cluster = Cluster(env)
    fleet = ShardFleet(cluster, store)
    env.run(until=4.0)  # let the initial shard pod come up
    fleet.start()
    all_keys = [f"k/{i}" for i in range(N_KEYS)]
    written = {}
    stop_at = env.now + FLEET_LOAD_SECONDS

    def writer(slot):
        keys = all_keys[slot::FLEET_WRITERS]
        value = slot
        while env.now < stop_at:
            for key in keys:
                if env.now >= stop_at:
                    return
                if key in written:
                    yield client.update(key, {"v": value})
                else:
                    yield client.create(key, {"v": value})
                written[key] = value  # post-ack: verified below
                value += FLEET_WRITERS
                yield env.timeout(FLEET_PACING)

    for slot in range(FLEET_WRITERS):
        env.process(writer(slot))
    env.run(until=stop_at + 20.0)
    fleet.stop()

    mismatches = []

    def verify(env):
        for key, value in sorted(written.items()):
            obj = yield client.get(key)
            if obj["data"]["v"] != value:
                mismatches.append(key)

    env.process(verify(env))
    env.run(until=env.now + 10.0)
    return {
        "seed": seed,
        "writes": len(written),
        "scaling_events": len(fleet.autoscaler.events),
        "reshards_driven": fleet.reshards_driven,
        "peak_shards": max((e.to_replicas for e in fleet.autoscaler.events),
                           default=store.shard_count),
        "final_shards": store.shard_count,
        "mismatches": len(mismatches),
        "fleet": fleet.stats(),
    }


def run_sweep(smoke=False):
    seeds = SMOKE_SEEDS if smoke else SEEDS
    n_writes = SMOKE_WRITES if smoke else N_WRITES
    runs = []
    for seed in seeds:
        elastic = run_once(seed, n_writes, elastic=True)
        static = run_once(seed, n_writes, elastic=False)
        repeat = run_once(seed, n_writes, elastic=True)
        runs.append({
            "seed": seed,
            "elastic": _summarize(elastic),
            "state_matches_static": elastic["final_state"]
            == static["final_state"],
            "order_matches_static": elastic["observed"]
            == static["observed"],
            "deterministic": elastic["fingerprint"] == repeat["fingerprint"],
        })
    fleet = run_fleet(seeds[0], n_writes)
    return {
        "schema": 1,
        "bench": "reshard",
        "seed": seeds[0],
        "smoke": smoke,
        "seeds": list(seeds),
        "writes_per_seed": n_writes,
        "plan": [1] + list(PLAN),
        "runs": runs,
        "fleet": fleet,
        "lost_writes": sum(r["elastic"]["lost_writes"] for r in runs),
        "duplicated_or_reordered": sum(
            r["elastic"]["out_of_order_keys"] for r in runs),
        "watch_closes": sum(r["elastic"]["watch_closes"] for r in runs),
        "forced_resyncs": sum(r["elastic"]["forced_resyncs"] for r in runs),
        "state_matches_static": all(r["state_matches_static"] for r in runs),
        "order_matches_static": all(r["order_matches_static"] for r in runs),
        "deterministic": all(r["deterministic"] for r in runs),
        "keys_moved": sum(
            r["elastic"]["reshard_stats"]["keys_moved"] for r in runs),
    }


def _summarize(run):
    """The per-run record minus the bulky state/order payloads."""
    return {k: v for k, v in run.items()
            if k not in ("final_state", "observed", "acked")}


def gate_ok(results):
    return (
        results["lost_writes"] == 0
        and results["duplicated_or_reordered"] == 0
        and results["watch_closes"] == 0
        and results["forced_resyncs"] == 0
        and results["state_matches_static"]
        and results["order_matches_static"]
        and results["deterministic"]
        and results["keys_moved"] > 0
        and results["fleet"]["scaling_events"] >= 1
        and results["fleet"]["reshards_driven"] >= 1
        and results["fleet"]["peak_shards"] > 1
        and results["fleet"]["mismatches"] == 0
    )


def write_results(results, path=OUTPUT):
    path = Path(path)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def describe(results):
    lines = [
        "live reshard under Zipf write load "
        f"(seeds {results['seeds']}, {results['writes_per_seed']} "
        f"writes/seed, shards {' -> '.join(map(str, results['plan']))})",
        f"  lost writes          : {results['lost_writes']}",
        f"  dup/reordered keys   : {results['duplicated_or_reordered']}",
        f"  watch closes         : {results['watch_closes']}",
        f"  forced resyncs       : {results['forced_resyncs']}",
        f"  keys moved           : {results['keys_moved']}",
        f"  state == static run  : {results['state_matches_static']}",
        f"  order == static run  : {results['order_matches_static']}",
        f"  same-seed identical  : {results['deterministic']}",
        f"  fleet scaling events : {results['fleet']['scaling_events']} "
        f"(peak {results['fleet']['peak_shards']} shards, "
        f"{results['fleet']['reshards_driven']} reshards driven)",
    ]
    return "\n".join(lines)


# -- pytest surface ----------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    results = run_sweep(smoke=True)
    write_results(results)
    return results


def test_no_lost_or_duplicated_writes(sweep):
    assert sweep["lost_writes"] == 0
    assert sweep["duplicated_or_reordered"] == 0


def test_watch_streams_undisturbed(sweep):
    assert sweep["watch_closes"] == 0
    assert sweep["forced_resyncs"] == 0


def test_identity_with_static_run(sweep):
    assert sweep["state_matches_static"]
    assert sweep["order_matches_static"]


def test_same_seed_runs_are_bit_identical(sweep):
    assert sweep["deterministic"]


def test_data_actually_moved(sweep):
    assert sweep["keys_moved"] > 0


def test_fleet_autoscales_the_ring(sweep):
    assert sweep["fleet"]["scaling_events"] >= 1
    assert sweep["fleet"]["mismatches"] == 0


# -- CLI surface -------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Reshard a live sharded store 1->4->2 under Zipf "
                    "write load and gate zero-loss + watch continuity."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep (CI): 1 seed x 180 writes")
    parser.add_argument("--out", default=str(OUTPUT),
                        help="output JSON path")
    args = parser.parse_args(argv)
    results = run_sweep(smoke=args.smoke)
    path = write_results(results, args.out)
    print(describe(results))
    print(f"wrote {path}")
    return 0 if gate_ok(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
