"""Observability over a running Knactor deployment (paper §5).

"Deployment issues such as load balancing, autoscaling, and observability,
such as monitoring knactor SLOs through distributed tracing and telemetry,
are also worth exploring."  This module provides the telemetry layer:

- :func:`runtime_snapshot` -- a point-in-time health view of every
  knactor, integrator, store, and the access counts,
- :func:`resilience_snapshot` -- the failure-domain counters (retries,
  open circuits, dead letters, store availability) the chaos tooling
  asserts on.

Both are plain dict assembly over each component's ``stats()`` /
``status()`` (the contract is in ``docs/observability.md``); the
per-exchange latency series extracted from the trace stream are in
:mod:`repro.metrics.latency`, objectives over them in
:mod:`repro.obs.slo`.
"""


def _pick(stats, *names):
    """The named entries of a ``stats()`` dict that it carries."""
    return {name: stats[name] for name in names if name in stats}


def runtime_snapshot(runtime):
    """Health/throughput counters for every component of a runtime."""
    snapshot = {"time": runtime.env.now, "knactors": {}, "integrators": {},
                "exchanges": {}}
    for name, knactor in runtime.knactors.items():
        entry = {"stores": [b.store_name for b in knactor.stores]}
        if knactor.reconciler is not None:
            entry.update(_pick(
                knactor.reconciler.stats(), "reconciles", "conflicts",
                "queue_depth", "health", "dead_letters", "unavailable"))
        snapshot["knactors"][name] = entry
    for name, integrator in runtime.integrators.items():
        snapshot["integrators"][name] = integrator.status()
    for name, de in runtime.exchanges.items():
        stats = de.backend.stats()
        entry = {
            "stores": de.stores(),
            "backend_ops": stats["op_counts"],
            "audited_accesses": sum(de.acl.audit.values()),
            "denials": sum(de.acl.denials().values()),
            "backend_available": stats["available"],
            "backend_aborted_ops": stats["aborted_ops"],
            "backend_crashes": stats["crash_count"],
        }
        state_plane = _state_plane_stats(stats)
        if state_plane is not None:
            entry["state_plane"] = state_plane
        if de.retry_policy is not None:
            entry["retry"] = de.retry_policy.stats()
        snapshot["exchanges"][name] = entry
    if runtime.obs is not None:
        snapshot["obs"] = runtime.obs.snapshot()
    return snapshot


def _state_plane_stats(stats):
    """The zero-copy / delta-replication slice of a backend's ``stats()``
    (None for one that reports no copy section)."""
    if "copy" not in stats:
        return None
    return _pick(stats, "zero_copy", "delta_watch", "copy", "watch_wire_bytes",
                 "watch_deltas_sent", "watch_fulls_sent")


def resilience_snapshot(runtime, breakers=()):
    """The failure-domain view: retry/circuit/DLQ/availability counters.

    ``breakers`` is an optional iterable of
    :class:`repro.faults.CircuitBreaker` instances to include (breakers
    are client-side objects the runtime does not know about).
    """
    snapshot = {"time": runtime.env.now, "reconcilers": {}, "integrators": {},
                "stores": {}, "retries": {}, "circuits": {}}
    for name, knactor in runtime.knactors.items():
        if knactor.reconciler is not None:
            snapshot["reconcilers"][name] = _pick(
                knactor.reconciler.stats(), "health", "dead_letters",
                "dead_letter_keys", "unavailable", "kills")
    for name, integrator in runtime.integrators.items():
        snapshot["integrators"][name] = _pick(
            integrator.stats(), "started", "dead_letters",
            "dead_letter_keys", "unavailable", "kills")
    for name, de in runtime.exchanges.items():
        stats = de.backend.stats()
        snapshot["stores"][stats["location"]] = {
            "available": stats["available"],
            "aborted_ops": stats["aborted_ops"],
            "crashes": stats["crash_count"],
        }
        if de.retry_policy is not None:
            snapshot["retries"][name] = de.retry_policy.stats()
    for breaker in breakers:
        snapshot["circuits"][breaker.name or repr(breaker)] = breaker.stats()
    return snapshot
