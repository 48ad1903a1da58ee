"""Zero-copy/delta benchmark: the state-plane copy and wire hot path.

One sweep on the Knactor retail app, written to
``BENCH_zero_copy_delta.json``: the same order burst + patch burst is
run under three state-plane configurations --

- **deepcopy** (``zero_copy=False, delta_watch=False``) -- the classic
  plane: every ingest, snapshot, scan and cache fill deep-copies; watch
  events ship full object snapshots.
- **cow** (``zero_copy=True, delta_watch=False``) -- frozen
  structurally-shared views: reads alias the committed object, writes
  path-copy; watch events still ship full snapshots.
- **cow+delta** (``zero_copy=True, delta_watch=True``) -- views plus
  revision-chained JSON-merge-patch deltas on the watch/replication
  plane.

at shard counts 1 and 4.  Each case reports copied bytes (the server's
``CopyMeter``), watch wire bytes, and create throughput/latency.  The
bench asserts the planes are observably identical -- byte-identical
final store state and identical per-key event order per watcher --
and that ``cow+delta`` cuts copied bytes >= 3x and watch wire bytes
>= 2x versus the deepcopy baseline.

Run directly (``python benchmarks/bench_zero_copy_delta.py [--smoke]``)
or under pytest (``pytest benchmarks/bench_zero_copy_delta.py``).
"""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_APISERVER
from repro.store import Topology

SEED = 17
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_zero_copy_delta.json"

#: (name, zero_copy, delta_watch) -- deepcopy first: it is the baseline.
MODES = (
    ("deepcopy", False, False),
    ("cow", True, False),
    ("cow+delta", True, True),
)
SHARD_COUNTS = (1, 4)

ORDERS = 16
SMOKE_ORDERS = 8
PATCH_ROUNDS = 8
SMOKE_PATCH_ROUNDS = 5
#: Read-only Checkout watchers riding along: every committed event fans
#: out to each of them, so snapshot copies (deepcopy mode) and full
#: snapshots on the wire (non-delta modes) scale with this.
WATCHERS = 6


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def run_case(mode, zero_copy, delta_watch, shards,
             orders=ORDERS, patch_rounds=PATCH_ROUNDS):
    """One full retail run under a state-plane configuration.

    Returns throughput/latency stats, copy and wire accounting, plus a
    final-state digest and the per-watcher per-key event sequences so
    the three planes can be proven observably identical.
    """
    app = RetailKnactorApp.build(
        profile=K_APISERVER, with_notify=False, seed=SEED,
        topology=Topology(shards=shards) if shards > 1 else None,
        zero_copy=zero_copy, delta_watch=delta_watch,
    )

    observed = {}  # watcher index -> key -> [(type, revision), ...]
    for index in range(WATCHERS):
        principal = f"watcher-{index}"
        app.de.grant(principal, "knactor-checkout", role="reader")
        handle = app.de.handle("knactor-checkout", principal=principal)
        seen = observed.setdefault(index, {})

        def recorder(event, seen=seen):
            seen.setdefault(event.key, []).append((event.type, event.revision))

        handle.watch(recorder)

    workload = OrderWorkload(seed=SEED)
    batch = workload.orders(orders)
    latencies = []

    def submit(env, key, data):
        started = env.now
        yield app.place_order(key, data)
        latencies.append(env.now - started)

    backend = app.de.backend
    ops_before = sum(backend.op_counts.values())
    started = app.env.now
    burst = [
        app.env.process(submit(app.env, key, data)) for key, data in batch
    ]
    app.env.run(until=app.env.all_of(burst))
    window = app.env.now - started
    ops_in_window = sum(backend.op_counts.values()) - ops_before
    app.run_until_quiet(max_seconds=300.0)

    # The patch burst: small field changes against full-grown orders --
    # the delta plane's best case, and exactly the shape of steady-state
    # reconciliation traffic.
    owner = app.runtime.handle_of("checkout")
    keys = list(app.orders_placed)
    patches = [
        owner.patch(key, {"email": f"shopper+{round_}@example.com"})
        for round_ in range(patch_rounds)
        for key in keys
    ]
    app.env.run(until=app.env.all_of(patches))
    app.run_until_quiet(max_seconds=120.0)

    state = []
    for store in ("knactor-checkout", "knactor-shipping", "knactor-payment"):
        handle = app.de.handle(store, principal=app.de.store(store).owner)
        for view in app.env.run(until=handle.list()):
            state.append((store, view["key"], view["data"]))
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()
    ).hexdigest()

    copy = backend.copy_stats
    return {
        "mode": mode,
        "shards": shards,
        "orders": orders,
        "burst_window_s": window,
        "ops_per_sec": ops_in_window / window if window > 0 else 0.0,
        "create_p50_s": _percentile(latencies, 0.50),
        "create_p99_s": _percentile(latencies, 0.99),
        "copied_bytes": copy["copied_bytes"],
        "copies": copy["copies"],
        "copied_by_site": copy["by_site"],
        "shared_views": copy["shared_views"],
        "shared_bytes_avoided": copy["shared_bytes_avoided"],
        "watch_wire_bytes": backend.watch_wire_bytes,
        "watch_deltas_sent": backend.watch_deltas_sent,
        "watch_fulls_sent": backend.watch_fulls_sent,
        "state_digest": digest,
        "event_orders": {
            str(index): {key: list(seq) for key, seq in sorted(seen.items())}
            for index, seen in observed.items()
        },
    }


def run_sweep(smoke=False):
    orders = SMOKE_ORDERS if smoke else ORDERS
    patch_rounds = SMOKE_PATCH_ROUNDS if smoke else PATCH_ROUNDS
    cases = []
    reductions = {}
    identical = True
    for shards in SHARD_COUNTS:
        group = [
            run_case(mode, zero_copy, delta_watch, shards,
                     orders=orders, patch_rounds=patch_rounds)
            for mode, zero_copy, delta_watch in MODES
        ]
        baseline, _cow, cow_delta = group
        identical = identical and all(
            case["state_digest"] == baseline["state_digest"]
            and case["event_orders"] == baseline["event_orders"]
            for case in group[1:]
        )
        reductions[str(shards)] = {
            "copied_bytes_x": (
                baseline["copied_bytes"] / cow_delta["copied_bytes"]
                if cow_delta["copied_bytes"] else float("inf")
            ),
            "wire_bytes_x": (
                baseline["watch_wire_bytes"] / cow_delta["watch_wire_bytes"]
                if cow_delta["watch_wire_bytes"] else float("inf")
            ),
        }
        cases.extend(group)
    # The per-watcher streams are bulky; keep them out of the artifact.
    for case in cases:
        case.pop("event_orders")
    return {
        "schema": 1,
        "bench": "zero_copy_delta",
        "seed": SEED,
        "smoke": smoke,
        "watchers": WATCHERS,
        "cases": cases,
        "reductions": reductions,
        "identical_state": identical,
    }


def write_results(results, path=OUTPUT):
    path = Path(path)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def describe(results):
    lines = ["zero-copy/delta state plane (retail app, order + patch burst)"]
    lines.append(
        f"{'shards':>7} {'mode':>10} {'copied KB':>10} {'wire KB':>9} "
        f"{'deltas':>7} {'fulls':>6} {'ops/sec':>9} {'p99 ms':>8}"
    )
    for case in results["cases"]:
        lines.append(
            f"{case['shards']:>7} {case['mode']:>10} "
            f"{case['copied_bytes'] / 1e3:>10.1f} "
            f"{case['watch_wire_bytes'] / 1e3:>9.1f} "
            f"{case['watch_deltas_sent']:>7} {case['watch_fulls_sent']:>6} "
            f"{case['ops_per_sec']:>9.0f} {case['create_p99_s'] * 1e3:>8.2f}"
        )
    for shards, cuts in results["reductions"].items():
        lines.append(
            f"shards={shards}: cow+delta copies {cuts['copied_bytes_x']:.1f}x "
            f"less, wire {cuts['wire_bytes_x']:.1f}x less than deepcopy"
        )
    lines.append(
        "identical state/event order across modes: "
        f"{results['identical_state']}"
    )
    return "\n".join(lines)


# -- pytest surface --------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    """Module-scoped smoke sweep; writes the JSON artifact as it goes."""
    results = run_sweep(smoke=True)
    write_results(results)
    return results


def test_planes_observably_identical(sweep):
    assert sweep["identical_state"], (
        "zero-copy/delta changed the final store state or event order"
    )


def test_cow_delta_cuts_copied_bytes_3x(sweep):
    for shards, cuts in sweep["reductions"].items():
        assert cuts["copied_bytes_x"] >= 3.0, (
            f"shards={shards}: cow+delta cut copied bytes only "
            f"{cuts['copied_bytes_x']:.2f}x (need >= 3x)"
        )


def test_delta_cuts_wire_bytes_2x(sweep):
    for shards, cuts in sweep["reductions"].items():
        assert cuts["wire_bytes_x"] >= 2.0, (
            f"shards={shards}: delta watch cut wire bytes only "
            f"{cuts['wire_bytes_x']:.2f}x (need >= 2x)"
        )


def test_deltas_dominate_the_stream(sweep):
    for case in sweep["cases"]:
        if case["mode"] != "cow+delta":
            assert case["watch_deltas_sent"] == 0
            continue
        # Once anchored, the patch burst rides the delta chain.
        assert case["watch_deltas_sent"] > case["watch_fulls_sent"]


def test_artifact_written(sweep):
    data = json.loads(OUTPUT.read_text())
    assert data["bench"] == "zero_copy_delta"
    assert len(data["cases"]) == len(MODES) * len(SHARD_COUNTS)


# -- CLI surface -----------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Sweep state-plane modes x shard count on the retail app."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep (CI): fewer orders and patch rounds")
    parser.add_argument("--out", default=str(OUTPUT),
                        help="output JSON path")
    args = parser.parse_args(argv)
    results = run_sweep(smoke=args.smoke)
    path = write_results(results, args.out)
    print(describe(results))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
