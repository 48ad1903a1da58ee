"""Chaos harness: the retail app under a seeded fault schedule.

This is the end-to-end resilience experiment shared by
``benchmarks/bench_chaos_recovery.py`` and ``knactor demo retail
--chaos``: build the Knactor retail app with a
:class:`~repro.faults.retry.RetryPolicy` on every store client, schedule
a deterministic :class:`~repro.faults.plan.FaultPlan` (at least one
store crash, one partition, and one drop-rate window), drive a seeded
order workload *through* the faults, then let the system converge and
check two properties:

- **convergence**: every placed order ends ``fulfilled`` with a tracking
  id -- the level-triggered reconcilers and integrator re-derive
  everything after resync;
- **zero lost updates**: every order whose create was acknowledged (or
  observed as already-committed by an abandoned attempt) survives the
  crash -- the apiserver backend's WAL replay makes this hold.

Everything is seeded, so the same seed reproduces the identical fault
trace and final state -- the determinism the benchmark asserts.
"""

import hashlib
import random

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_APISERVER
from repro.errors import (
    AlreadyExistsError,
    CircuitOpenError,
    DeadlineExceededError,
    UnavailableError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy

#: The store backend's network location in the retail app.
BACKEND = "object-backend"

#: Virtual seconds between two placed orders.
ORDER_SPACING = 0.6

#: How long the app may take to go quiet after the faults (virtual s).
CONVERGE_SECONDS = 120.0


def default_retail_plan(seed=0):
    """A seeded schedule guaranteed to contain the required fault triad:
    a store crash, a partition, and a drop-rate window, plus a transient
    brown-out and an integrator kill for good measure."""
    rng = random.Random(seed)
    plan = FaultPlan()
    plan.crash_store(
        BACKEND,
        at=0.4 + rng.uniform(0.0, 0.2),
        duration=0.25 + rng.uniform(0.0, 0.15),
    )
    plan.partition(
        BACKEND, "shipping",
        at=1.2 + rng.uniform(0.0, 0.2),
        duration=0.15 + rng.uniform(0.0, 0.1),
    )
    plan.drop_window(
        BACKEND, "checkout",
        rate=0.3 + rng.uniform(0.0, 0.3),
        at=1.8 + rng.uniform(0.0, 0.2),
        duration=0.2 + rng.uniform(0.0, 0.1),
        seed=rng.randrange(2**31),
    )
    plan.unavailable_window(
        BACKEND,
        at=2.5 + rng.uniform(0.0, 0.2),
        duration=0.08 + rng.uniform(0.0, 0.06),
    )
    plan.kill_process(
        "retail-cast",
        at=3.0 + rng.uniform(0.0, 0.2),
        duration=0.1 + rng.uniform(0.0, 0.1),
    )
    return plan


def run_retail_chaos(seed=0, orders=6):
    """Run the experiment; returns a plain-dict report (see module doc).

    The backend is the apiserver: its WAL makes crash recovery lossless,
    which is the property the run asserts.
    """
    retry = RetryPolicy(
        max_attempts=8, base_backoff=0.01, max_backoff=0.3,
        jitter=0.3, seed=seed,
    )
    app = RetailKnactorApp.build(
        profile=K_APISERVER, seed=seed, with_notify=False,
        retry_policy=retry,
    )
    env = app.env
    injector = FaultInjector(
        env,
        app.runtime.network,
        stores=[app.de.backend],
        processes={
            "retail-cast": app.cast,
            "checkout-reconciler": app.runtime.knactors["checkout"].reconciler,
        },
    )
    plan = default_retail_plan(seed)
    injector.schedule(plan)

    workload = OrderWorkload(seed=seed)
    handle = app.runtime.handle_of("checkout")
    load_rng = random.Random(seed + 1)
    placed = []

    def load(env):
        for _ in range(orders):
            key, data = workload.next_order()
            while True:
                try:
                    yield handle.create(key, data)
                    break
                except AlreadyExistsError:
                    # An attempt abandoned by a timeout actually committed
                    # server-side: at-least-once, treated as success.
                    break
                except (UnavailableError, DeadlineExceededError,
                        CircuitOpenError):
                    # Retry policy exhausted mid-outage; pause and re-issue.
                    yield env.timeout(0.08 * load_rng.uniform(0.5, 1.5))
            placed.append(key)
            yield env.timeout(ORDER_SPACING)

    env.run(until=env.process(load(env)))
    # Let the remaining scheduled faults play out, then converge.
    if plan.horizon > env.now:
        env.run(until=plan.horizon + 0.05)
    app.run_until_quiet(max_seconds=CONVERGE_SECONDS)

    # Operator replay: any cid parked in a DLQ during the outages gets
    # one more chance now that the faults have healed.
    replayed = [letter.key for letter in app.cast.dead_letters]
    for cid in replayed:
        app.cast.queue.requeue(cid)
    for knactor in app.runtime.knactors.values():
        reconciler = knactor.reconciler
        if reconciler is None:
            continue
        for letter in reconciler.dead_letters:
            replayed.append(letter.key)
            reconciler.requeue(letter.key)
    if replayed:
        app.run_until_quiet(max_seconds=CONVERGE_SECONDS)
    converged_at = env.now

    def collect(env):
        states = {}
        for key in placed:
            view = yield app.order(key)
            states[key] = view["data"]
        return states

    states = env.run(until=env.process(collect(env)))
    lost = [k for k in placed if states.get(k) is None]
    unfulfilled = [
        k for k, data in states.items()
        if data is not None and data.get("status") != "fulfilled"
    ]
    digest = hashlib.sha256()
    for line in injector.trace():
        digest.update(line.encode())
    for key in placed:
        data = states.get(key) or {}
        digest.update(
            f"{key}={data.get('status')}:{data.get('trackingID')}".encode()
        )

    return {
        "seed": seed,
        "orders": len(placed),
        "placed": list(placed),
        "lost": lost,
        "unfulfilled": unfulfilled,
        "converged": not lost and not unfulfilled,
        "convergence_time": converged_at,
        "fault_trace": injector.trace(),
        "fault_counts": {
            kind: plan.count(kind)
            for kind in ("crash", "partition", "drop", "latency_spike",
                         "unavailable", "kill")
        },
        "dlq_replayed": replayed,
        "retry": retry.stats(),
        "resilience": app.runtime.stats(),
        "order_states": {
            k: (states.get(k) or {}).get("status") for k in placed
        },
        "state_digest": digest.hexdigest(),
        "wal_length": app.de.backend.wal_length,
        "messages_lost": app.runtime.network.messages_lost,
    }


def describe_report(report):
    """Render a chaos report as plain text (used by the CLI)."""
    lines = [
        f"chaos run  seed={report['seed']}  orders={report['orders']}",
        f"  converged:        {report['converged']}",
        f"  convergence time: {report['convergence_time']:.3f}s (virtual)",
        f"  lost updates:     {len(report['lost'])}",
        f"  unfulfilled:      {len(report['unfulfilled'])}",
        f"  messages lost:    {report['messages_lost']}",
        f"  retries: {report['retry']}",
        f"  dlq replayed: {len(report['dlq_replayed'])}",
        "  fault schedule:",
    ]
    lines += [f"    {line}" for line in report["fault_trace"]]
    lines.append("  order states:")
    for key, status in report["order_states"].items():
        lines.append(f"    {key}: {status}")
    return "\n".join(lines)
