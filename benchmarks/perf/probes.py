"""Untraced ``probe.*_ns``: the wrapper-free cost of each primitive.

Each probe replays the first 2,000 argument tuples the traced run
captured for that primitive, 50 times in a tight loop, with tracing
uninstalled -- so it is the cost of the primitive on that workload's
real arguments, and it explains a change in its layer's
``self_us_per_op``.  A primitive the workload never called reads 0.
"""

import time

from repro.obs.registry import Registry
from repro.query import compile_ops
from repro.simnet import Environment
from repro.store.cow import diff_shared, estimate_size, merge_shared
from repro.store.ring import hash_key

PASSES = 50


def _ns_per_call(calls, passes=PASSES):
    """Median-free by design: one long tight loop, mean ns per call."""
    if not calls:
        return 0.0
    started = time.perf_counter_ns()
    for _ in range(passes):
        for fn, args, kwargs in calls:
            try:
                fn(*args, **kwargs)
            except Exception:  # noqa: BLE001 - replayed state may have moved on
                pass
    return (time.perf_counter_ns() - started) / (passes * len(calls))


def _positional(captured, fn):
    return [(fn, args, {}) for args, _kw in captured]


def run_probes(captured):
    """``{metric name: ns per call}`` for every probe."""
    out = {}

    # Timeout on the delays the kernel was actually asked to schedule;
    # a fresh environment per pass keeps the heap at the captured size.
    delays = [
        kwargs.get("delay", args[2] if len(args) > 2 else 0.0)
        for args, kwargs in captured.get("schedule", ())
    ]
    if delays:
        started = time.perf_counter_ns()
        for _ in range(PASSES):
            timeout = Environment().timeout
            for delay in delays:
                timeout(delay)
        out["probe.simnet.timeout_ns"] = (
            (time.perf_counter_ns() - started) / (PASSES * len(delays)))
    else:
        out["probe.simnet.timeout_ns"] = 0.0

    out["probe.store.cow.estimate_size_ns"] = _ns_per_call(
        _positional(captured.get("estimate_size", ()), estimate_size))
    # Meters are left out of the replay: they are accounting, and must
    # not be charged twice.
    out["probe.store.cow.merge_shared_ns"] = _ns_per_call([
        (merge_shared, args[:2], {})
        for args, _kw in captured.get("merge_shared", ())])
    out["probe.store.cow.diff_shared_ns"] = _ns_per_call(
        _positional(captured.get("diff_shared", ()), diff_shared))
    # Inside ``owner_of`` the hash is folded into its span, so its keys
    # stand in when no bare ``hash_key`` call was seen.
    keys = captured.get("hash_key") or [
        (args[1:], {}) for args, _kw in captured.get("owner_of", ())]
    out["probe.store.ring.hash_key_ns"] = _ns_per_call(
        _positional(keys, hash_key))
    out["probe.store.ring.owner_of_ns"] = _ns_per_call([
        (args[0].owner_of, args[1:], {})
        for args, _kw in captured.get("owner_of", ())])
    out["probe.query.compile_ops_ns"] = _ns_per_call(
        _positional(captured.get("compile_ops", ()), compile_ops))

    # Handle lookup on a scratch registry: same names, same label sets.
    registry = Registry(Environment())
    out["probe.obs.registry.handle_ns"] = _ns_per_call([
        (getattr(registry, kind), args[1:], labels)
        for kind in ("counter", "gauge", "histogram")
        for args, labels in captured.get(f"registry.{kind}", ())])

    # RBAC checks against the live controllers, with the audit log
    # detached so a replay does not append 100k records to it.
    checks, controllers = [], []
    for args, kwargs in captured.get("access_check", ()):
        if args[0] not in controllers:
            controllers.append(args[0])
        checks.append((args[0].check, args[1:], kwargs))
    audits = [(c, c.audit) for c in controllers]
    for controller, _audit in audits:
        controller.audit = None
    try:
        out["probe.exchange.access.check_ns"] = _ns_per_call(checks)
    finally:
        for controller, audit in audits:
            controller.audit = audit

    out["probe.core.dxg.evaluate_ns"] = _ns_per_call([
        (args[0].evaluate, args[1:], {})
        for args, _kw in captured.get("evaluate", ())])
    return out
