"""Observability over a running Knactor deployment (paper §5).

"Deployment issues such as load balancing, autoscaling, and observability,
such as monitoring knactor SLOs through distributed tracing and telemetry,
are also worth exploring."  This module provides the telemetry layer:

- :func:`runtime_snapshot` -- a point-in-time health view of every
  knactor, integrator, store, and the audit trail,
- :func:`resilience_snapshot` -- the failure-domain counters (retries,
  open circuits, dead letters, store availability) the chaos tooling
  asserts on,
- :func:`exchange_durations` -- per-exchange latency series extracted
  from the trace stream (the distributed-tracing view of an integrator).

Objectives over these series are declared in :mod:`repro.obs.slo`.
"""


def runtime_snapshot(runtime):
    """Health/throughput counters for every component of a runtime."""
    snapshot = {"time": runtime.env.now, "knactors": {}, "integrators": {},
                "exchanges": {}}
    for name, knactor in runtime.knactors.items():
        entry = {"stores": [b.store_name for b in knactor.stores]}
        reconciler = knactor.reconciler
        if reconciler is not None:
            entry.update(
                reconciles=reconciler.reconcile_count,
                conflicts=reconciler.error_count,
                queue_depth=len(reconciler._queue),
                health=reconciler.health(),
                dead_letters=len(reconciler.dead_letters),
                unavailable=reconciler.unavailable_count,
            )
        snapshot["knactors"][name] = entry
    for name, integrator in runtime.integrators.items():
        snapshot["integrators"][name] = integrator.status()
    for name, de in runtime.exchanges.items():
        entry = {
            "stores": de.stores(),
            "backend_ops": dict(de.backend.op_counts),
            "audited_accesses": len(de.audit),
            "denials": len(de.audit.denials()),
            "backend_available": de.backend.available,
            "backend_aborted_ops": de.backend.aborted_ops,
            "backend_crashes": de.backend.crash_count,
        }
        state_plane = _state_plane_stats(de.backend)
        if state_plane is not None:
            entry["state_plane"] = state_plane
        if de.retry_policy is not None:
            entry["retry"] = de.retry_policy.stats()
        snapshot["exchanges"][name] = entry
    obs = getattr(runtime, "obs", None)
    if obs is not None:
        snapshot["obs"] = obs.snapshot()
    return snapshot


def _state_plane_stats(backend):
    """Zero-copy / delta-replication counters for one store backend.

    Log backends and older store stand-ins may lack the counters;
    return None rather than guessing.
    """
    copy_stats = getattr(backend, "copy_stats", None)
    if copy_stats is None:
        return None
    return {
        "zero_copy": getattr(backend, "zero_copy", False),
        "delta_watch": getattr(backend, "delta_watch", False),
        "copy": copy_stats,
        "watch_wire_bytes": getattr(backend, "watch_wire_bytes", 0),
        "watch_deltas_sent": getattr(backend, "watch_deltas_sent", 0),
        "watch_fulls_sent": getattr(backend, "watch_fulls_sent", 0),
    }


def resilience_snapshot(runtime, breakers=()):
    """The failure-domain view: retry/circuit/DLQ/availability counters.

    ``breakers`` is an optional iterable of
    :class:`repro.faults.CircuitBreaker` instances to include (breakers
    are client-side objects the runtime does not know about).
    """
    snapshot = {
        "time": runtime.env.now,
        "reconcilers": {},
        "integrators": {},
        "stores": {},
        "retries": {},
        "circuits": {},
    }
    for name, knactor in runtime.knactors.items():
        reconciler = knactor.reconciler
        if reconciler is None:
            continue
        snapshot["reconcilers"][name] = {
            "health": reconciler.health(),
            "dead_letters": len(reconciler.dead_letters),
            "dead_letter_keys": reconciler.dead_letters.keys(),
            "unavailable": reconciler.unavailable_count,
            "kills": reconciler.kill_count,
        }
    for name, integrator in runtime.integrators.items():
        entry = {"started": integrator.started}
        dlq = getattr(integrator, "dead_letters", None)
        if dlq is not None:
            entry["dead_letters"] = len(dlq)
            entry["dead_letter_keys"] = dlq.keys()
        if hasattr(integrator, "unavailable_count"):
            entry["unavailable"] = integrator.unavailable_count
            entry["kills"] = integrator.kill_count
        snapshot["integrators"][name] = entry
    for name, de in runtime.exchanges.items():
        snapshot["stores"][de.backend.location] = {
            "available": de.backend.available,
            "aborted_ops": de.backend.aborted_ops,
            "crashes": de.backend.crash_count,
        }
        if de.retry_policy is not None:
            snapshot["retries"][name] = de.retry_policy.stats()
    for breaker in breakers:
        snapshot["circuits"][breaker.name or repr(breaker)] = breaker.stats()
    return snapshot


def exchange_durations(tracer, integrator):
    """Per-exchange (begin -> end) durations for one Cast integrator.

    Matches each ``cast/begin`` with the next ``cast/end`` of the same
    correlation id, in trace order -- the span a distributed tracer
    would reconstruct.
    """
    open_begins = {}
    durations = []
    for event in tracer.events:
        if event.category != "cast" or event.attrs.get("integrator") != integrator:
            continue
        cid = event.attrs.get("cid")
        if event.name == "begin":
            open_begins.setdefault(cid, []).append(event.time)
        elif event.name in ("end", "denied") and open_begins.get(cid):
            started = open_begins[cid].pop(0)
            durations.append(event.time - started)
    return durations


def reconcile_durations(tracer, knactor):
    """Per-reconcile durations for one knactor's reconciler."""
    return [
        event.attrs["duration"]
        for event in tracer.events
        if event.category == "reconciler"
        and event.name == "reconciled"
        and event.attrs.get("knactor") == knactor
        and "duration" in event.attrs
    ]
