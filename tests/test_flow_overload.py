"""The ``repro.flow`` backpressure plane on the retail app under 10x load.

Two measurements, at 8 nominal and 80 overload orders, seed 13:

- **nominal overhead** -- the nominal order burst with flow control on
  vs off.  Credit accounting, admission checks and queue bounds must
  cost <= 5 % sim throughput when nothing is overloaded.
- **overload containment** -- a 10x concurrent order burst plus
  slow-consumer watchers, with flow control on and every bound
  deliberately tight.  The plane degrades by shedding and rejecting
  (``OverloadedError`` -> client backoff via ``RetryPolicy``) while the
  reconciler dirty-key peak stays under ``reconciler_queue`` and the
  watch paused buffers under ``4 x credits``; every order completes,
  and two same-seed runs agree on every shed/rejection counter and on
  the final store state.
"""

import hashlib
import json

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_APISERVER
from repro.faults import RetryPolicy
from repro.flow import BULK, FlowConfig
from repro.simnet.network import FixedLatency

SEED = 13
NOMINAL_ORDERS = 8
OVERLOAD_ORDERS = 10 * NOMINAL_ORDERS
WATCHERS = 3
#: The watchers run an even tighter window than the app default, over a
#: WAN-grade link, so the burst's fan-out outpaces their credit-grant
#: round trips (the slow-consumer scenario credit flow exists for).
WATCHER_CREDITS = 2
WATCH_PAUSED_MAX = 4 * WATCHER_CREDITS
SLOW_CONSUMER_LINK = FixedLatency(0.025)

#: Deliberately tight bounds so an 80-order burst genuinely overloads:
#: the point is *containment*, not absolute capacity.
FLOW = FlowConfig(
    watch_credits=4,
    reconciler_queue=64,
    admission_rate=600.0,
    admission_burst=24,
    admission_queue_high=6,
    principals={"bench-bulk": BULK},
)


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _state_digest(app):
    state = []
    for store in ("knactor-checkout", "knactor-shipping", "knactor-payment"):
        handle = app.de.handle(store, principal=app.de.store(store).owner)
        for view in app.env.run(until=handle.list()):
            state.append((store, view["key"], view["revision"], view["data"]))
    return hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()
    ).hexdigest()


def run_case(orders, flow, seed=SEED):
    """One concurrent order burst; returns throughput, latency, and the
    full backpressure counter set (none when ``flow=False``)."""
    retry = RetryPolicy(max_attempts=12, base_backoff=0.01, max_backoff=2.0)
    app = RetailKnactorApp.build(
        profile=K_APISERVER, with_notify=False, seed=seed,
        retry_policy=retry, flow=FLOW if flow else None,
    )

    # Slow consumers: read-only watchers on a high-latency link whose
    # tiny credit windows exhaust while their grants ride back, forcing
    # the server to pause, coalesce, and (past the paused bound) resync.
    watches = []
    if flow:
        for index in range(WATCHERS):
            principal = f"bench-bulk-watch-{index}"
            app.runtime.network.set_latency(
                app.de.backend.location, principal, SLOW_CONSUMER_LINK,
            )
            app.de.grant(principal, "knactor-checkout", role="reader")
            handle = app.de.handle(
                "knactor-checkout", principal=principal,
                credits=WATCHER_CREDITS,
            )
            watches.append(handle.watch(lambda event: None))

    latencies = []
    failures = []

    def submit(env, key, data):
        started = env.now
        try:
            yield app.place_order(key, data)
        except Exception as error:  # gave up after retries: count, don't crash
            failures.append(type(error).__name__)
        else:
            latencies.append(env.now - started)

    started = app.env.now
    burst = [
        app.env.process(submit(app.env, key, data))
        for key, data in OrderWorkload(seed=seed).orders(orders)
    ]
    app.env.run(until=app.env.all_of(burst))
    window = app.env.now - started
    app.run_until_quiet(max_seconds=600.0)

    backend = app.de.backend
    reconcilers = [knactor.reconciler.stats()
                   for knactor in app.runtime.knactors.values()
                   if knactor.reconciler is not None]
    result = {
        "orders": orders,
        "completed": len(latencies),
        "failed": len(failures),
        "orders_per_sec": len(latencies) / window if window > 0 else 0.0,
        "order_p99_s": _percentile(latencies, 0.99),
        "retry_stats": retry.stats(),
        "state_digest": _state_digest(app),
        "reconciler_queue_peak": max(
            (stats["queue_peak"] for stats in reconcilers), default=0),
        "reconciler_shed": sum(stats["shed"] for stats in reconcilers),
        "rpc_rejected_overload": getattr(backend, "rejected_overload", 0),
    }
    if flow:
        result["flow_counters"] = {
            "admission": backend.admission.stats(),
            "watch_pauses": backend.watch_pauses,
            "watch_credit_grants": backend.watch_credit_grants,
            "watch_shed_events": backend.watch_shed_events,
            "watch_forced_resyncs": backend.watch_forced_resyncs,
            "watch_peak_paused": max(
                (w.peak_paused for w in watches), default=0),
        }
    return result


@pytest.fixture(scope="module")
def overload():
    """Two same-seed 10x bursts with flow control on."""
    return (run_case(OVERLOAD_ORDERS, flow=True),
            run_case(OVERLOAD_ORDERS, flow=True))


def test_overload_stays_bounded(overload):
    case, _ = overload
    assert case["reconciler_queue_peak"] <= FLOW.reconciler_queue, (
        f"reconciler queue peaked at {case['reconciler_queue_peak']} "
        f"over bound {FLOW.reconciler_queue}"
    )
    counters = case["flow_counters"]
    assert counters["watch_peak_paused"] <= WATCH_PAUSED_MAX, (
        f"watch paused buffer peaked at {counters['watch_peak_paused']} "
        f"over bound {WATCH_PAUSED_MAX}"
    )
    # Overload must engage the plane, not sail through.
    assert counters["admission"]["rejected"] > 0, (
        "10x load never tripped admission control"
    )
    assert counters["watch_pauses"] > 0, (
        "slow consumers never exhausted their credit windows"
    )
    # p99 finite: every order completes (retry backoff absorbs
    # rejections) and the percentile is a real number.
    assert case["completed"] == case["orders"], (
        f"{case['failed']} orders failed outright under overload"
    )
    assert case["order_p99_s"] > 0.0


def test_priority_classes_shield_the_integrator(overload):
    admission = overload[0]["flow_counters"]["admission"]
    integrator = admission["classes"]["integrator"]
    assert integrator["admitted"] > 0
    # The cast rides through overload with at most token-bucket-level
    # rejections; the shed burden lands on the normal/bulk classes.
    assert integrator["rejected"] <= admission["rejected"]


def test_nominal_overhead_within_five_percent():
    off = run_case(NOMINAL_ORDERS, flow=False)
    on = run_case(NOMINAL_ORDERS, flow=True)
    ratio = on["orders_per_sec"] / off["orders_per_sec"]
    assert ratio >= 0.95, (
        f"flow control cost {(1 - ratio) * 100:.1f}% nominal throughput"
    )
    assert off["completed"] == off["orders"]
    assert on["completed"] == on["orders"]


def test_same_seed_runs_are_bit_identical(overload):
    first, second = overload
    assert first == second, (
        "same-seed overload runs diverged in shed counts or final state"
    )
