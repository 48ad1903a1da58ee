"""The observability plane: the run's tracer + one metrics registry.

The plane is built around the runtime's one
:class:`~repro.obs.causal.CausalTracer`, which is already threaded into
every store server -- so deep components reach the plane through the
tracer's ``plane`` back-reference with zero new constructor plumbing.
``bind_runtime`` registers one pull collector that reads each
component's ``stats()`` at snapshot time and turns the numbers named in
the tables below into registry series; the plane knows no component's
attribute names.
"""

from repro.obs.causal import CausalTracer
from repro.obs.registry import COUNTER, GAUGE, Registry

#: ``stats()`` name -> (kind, metric, *labels), one table per component
#: kind.  A dotted name reaches into a section and each ``*`` fans out
#: over that section's keys, binding the row's labels in order; every
#: series also carries the component's own name (``exchange=``, ...).  A
#: name a component does not report -- ``admission`` while the door is
#: open, ``ring`` off a sharded frontend, ``txn`` before any cross-shard
#: transaction -- makes no series.
_RECONCILER = {
    "reconciles": (COUNTER, "reconciles_total"),
    "conflicts": (COUNTER, "reconcile_conflicts_total"),
    "queue_depth": (GAUGE, "reconciler_queue_depth"),
    "queue_peak": (GAUGE, "reconciler_queue_peak"),
    "shed": (COUNTER, "reconciler_shed_total"),
}
_INTEGRATOR = {
    "exchanges_run": (COUNTER, "exchanges_total"),
    "events_ignored": (COUNTER, "integrator_events_ignored_total"),
    "queue_depth": (GAUGE, "integrator_queue_depth"),
}
_DEAD_LETTERS = {"dead_letters": (GAUGE, "dead_letters")}
_STORE = {
    "op_counts.*": (COUNTER, "store_ops_total", "op"),
    "watch_messages_sent": (COUNTER, "watch_messages_total"),
    "watch_events_sent": (COUNTER, "watch_events_total"),
    "watch_wire_bytes": (COUNTER, "watch_wire_bytes_total"),
    "watch_deltas_sent": (COUNTER, "watch_deltas_total"),
    "watch_fulls_sent": (COUNTER, "watch_fulls_total"),
    "available": (GAUGE, "store_available"),
    # Flow-control plane (repro.flow): credit pauses, sheds, forced
    # resyncs, and the admission front door.
    "watch_pauses": (COUNTER, "watch_credit_pauses_total"),
    "watch_shed_events": (COUNTER, "watch_shed_events_total"),
    "watch_forced_resyncs": (COUNTER, "watch_forced_resyncs_total"),
    "watch_credit_grants": (COUNTER, "watch_credit_grants_total"),
    "admission.admitted": (COUNTER, "admission_admitted_total"),
    "admission.rejected": (COUNTER, "admission_rejected_total"),
    "admission.classes.*.rejected":
        (COUNTER, "admission_rejected_total", "priority"),
    "admission.classes.*.scale": (GAUGE, "admission_scale", "priority"),
    # Cross-shard transactional plane (repro.txn): the in-doubt gauge is
    # the recovery-health signal -- it must drain to zero after a
    # coordinator restart.
    "in_doubt_txns": (GAUGE, "txn_in_doubt"),
    **{f"txn.{field}": (COUNTER, f"txn_{field}_total")
       for field in ("prepared", "committed", "aborted",
                     "idempotent_replays", "unknown_participants",
                     "recoveries")},
    # Elastic topology plane (repro.store.ring/reshard): `knactor top`
    # shows a reshard as a ring_version bump plus a keys_moved jump.
    "ring.version": (GAUGE, "ring_version"),
    "ring.shards": (GAUGE, "ring_shards"),
    "ring.fence_rejections": (COUNTER, "ring_fence_rejections_total"),
    "ring.reroutes": (COUNTER, "ring_reroutes_total"),
    **{f"reshard.{field}": (COUNTER, f"reshard_{field}_total")
       for field in ("reshards", "transitions", "keys_moved",
                     "ranges_moved", "resyncs")},
    "copy.copied_bytes": (COUNTER, "copied_bytes_total"),
    "copy.shared_bytes_avoided": (COUNTER, "copy_bytes_avoided_total"),
}
_RETRY = {field: (COUNTER, f"retry_{field}_total")
          for field in ("attempts", "retries", "giveups")}


def _find(stats, name):
    """Every ``(keys bound to *, leaf)`` a dotted stats name matches."""
    found = [((), stats)]
    for part in name.split("."):
        if part == "*":
            found = [(bound + (key,), value) for bound, node in found
                     for key, value in node.items()]
        else:
            found = [(bound, node[part]) for bound, node in found
                     if part in node]
    return found


def _scrape(reg, table, stats, **owner):
    """Set one series per table row ``stats`` has a value for."""
    for name, (kind, metric, *label_names) in table.items():
        for bound, value in _find(stats, name):
            labels = dict(zip(label_names, bound), **owner)
            if kind == COUNTER:
                reg.counter(metric, **labels).set_total(value)
            else:
                reg.gauge(metric, **labels).set(value)


class ObsPlane:
    """Everything observability for one simulation run."""

    def __init__(self, env):
        self.env = env
        self.registry = Registry(env)
        self._adopt(CausalTracer(env))

    def _adopt(self, tracer):
        self.causal = tracer
        tracer.plane = self

    # -- runtime scraping ----------------------------------------------------

    def bind_runtime(self, runtime):
        """Adopt a runtime's tracer; scrape its components at every snapshot.

        From here ``self.causal is runtime.tracer``: the spans the data
        plane mints and the events components record land in one place.
        The collector reads the live registries (``runtime.knactors``
        etc.) at collect time, so components registered *after* binding
        are still seen.
        """
        self._adopt(runtime.tracer)

        def collect(reg):
            for name, knactor in runtime.knactors.items():
                if knactor.reconciler is not None:
                    stats = knactor.reconciler.stats()
                    _scrape(reg, _RECONCILER, stats, knactor=name)
                    _scrape(reg, _DEAD_LETTERS, stats, component=name)
            for name, integrator in runtime.integrators.items():
                stats = integrator.stats()
                _scrape(reg, _INTEGRATOR, stats, integrator=name)
                _scrape(reg, _DEAD_LETTERS, stats, component=name)
            for name, de in runtime.exchanges.items():
                _scrape(reg, _STORE, de.backend.stats(), exchange=name)
                if de.retry_policy is not None:
                    _scrape(reg, _RETRY, de.retry_policy.stats(),
                            exchange=name)
            reg.counter("network_bytes_total").set_total(
                runtime.network.bytes_sent)

        self.registry.register_collector(collect)
        return self

    def watch_autoscalers(self, autoscalers):
        """Scrape :class:`~repro.cluster.HorizontalAutoscaler` activity.

        Every registered autoscaler contributes its scaling-event count,
        current replica target, and the load it last acted on -- so
        ``knactor top`` shows elastic topology decisions next to the
        queue-depth signals that drove them.
        """
        autoscalers = list(autoscalers)

        def collect(reg):
            for scaler in autoscalers:
                label = scaler.deployment_name
                reg.counter("autoscale_events_total", deployment=label
                            ).set_total(len(scaler.events))
                try:
                    replicas = len(
                        scaler.cluster.deployment(label).ready_pods)
                except Exception:
                    replicas = 0
                reg.gauge("autoscale_replicas", deployment=label).set(
                    replicas)
                if scaler.events:
                    last = scaler.events[-1]
                    reg.gauge("autoscale_last_load", deployment=label).set(
                        last.load)
                    reg.gauge("autoscale_last_target", deployment=label
                              ).set(last.to_replicas)

        self.registry.register_collector(collect)
        return self

    # -- summary views -------------------------------------------------------

    def snapshot(self):
        """Metrics + trace-volume summary, all plain JSON data."""
        return {
            "metrics": self.registry.snapshot(),
            "traces": {
                "count": len(self.causal.trace_ids()),
                "spans": len(self.causal.spans),
            },
        }

    def dashboard(self):
        """The ``knactor top`` text view: every metric, one line per series."""
        snapshot = self.registry.snapshot()
        lines = [f"time {snapshot['time']:.3f}s  "
                 f"traces {len(self.causal.trace_ids())}  "
                 f"spans {len(self.causal.spans)}"]
        for name, entry in snapshot["metrics"].items():
            for key, value in entry["series"].items():
                label = f"{{{key}}}" if key else ""
                if entry["kind"] == "histogram":
                    if not value["count"]:
                        continue
                    p99 = value["p99"]
                    rendered = (
                        f"count={value['count']} p50={value['p50']:.6f} "
                        f"p99={p99:.6f}" if p99 is not None
                        else f"count={value['count']}"
                    )
                else:
                    rendered = (f"{value:.0f}" if float(value).is_integer()
                                else f"{value:.4f}")
                title = f"{name}{label}"
                lines.append(f"  {title:<56} {rendered}")
        return "\n".join(lines)
