"""One run of one workload: the repetition protocol and its numbers.

Untraced (``trace=0``): one cold repetition, discarded for timing, then
timed repetitions until ``seconds`` of measuring have passed (never
fewer than ``MIN_REPS``, never more than ``MAX_REPS``).  Every
repetition builds a fresh app from the same seed, so all of them are
identical work: their state digests and kernel-event counts must be
equal (the determinism check), and each host-time metric is the median
over the timed repetitions.

Traced (``trace=1``): a cold and a timed untraced repetition (the
base of ``trace.overhead_ratio`` and the carrier of the sim metrics),
one traced repetition, then the untraced probes.
"""

import gc
import statistics
import time

from benchmarks.perf import spec
from benchmarks.perf.measure import (
    calibrate,
    peak_rss_mb,
    percentile,
    summary,
)
from benchmarks.perf.probes import run_probes
from benchmarks.perf.tracer import Tracer
from benchmarks.perf.workloads import WORKLOADS

MIN_REPS = 5
MAX_REPS = 7


class Rep:
    """Timings and the checked outcome of one repetition."""

    def __init__(self, workload, tracer=None):
        self.calib = [calibrate()]
        gc.collect()
        inputs = workload.generate()
        if tracer is not None:
            tracer.prepare()
        started = time.perf_counter()
        try:
            ctx = workload.build(inputs)
        except BaseException:
            if tracer is not None:
                tracer.uninstall()
            raise
        self.setup_s = time.perf_counter() - started
        before = workload.counters(ctx)
        collections = sum(g["collections"] for g in gc.get_stats())
        try:
            if tracer is not None:
                tracer.install()
            cpu = time.process_time()
            started = time.perf_counter()
            try:
                workload.run(ctx)
            finally:
                self.run_s = time.perf_counter() - started
                self.cpu_s = time.process_time() - cpu
                if tracer is not None:
                    tracer.uninstall()
            self.gc_collections = (
                sum(g["collections"] for g in gc.get_stats()) - collections)
            after = workload.counters(ctx)
            self.outcome = workload.finish(ctx)
            self.outcome.counters = {
                key: after[key] - before.get(key, 0) for key in after}
        finally:
            workload.close(ctx)
        self.calib.append(calibrate())

    @property
    def ops_per_s(self):
        return self.outcome.correct / self.run_s


def _sim_metrics(workload, outcome):
    """The sim-clock end-to-end numbers of one (any) repetition."""
    out = {}
    if outcome.sim_latencies_ms:
        out["sim_p50_ms"] = percentile(outcome.sim_latencies_ms, 0.50)
        out["sim_tail_ms"] = percentile(
            outcome.sim_latencies_ms, workload.tail_q)
    if outcome.sim_span_s:
        out["sim_ops_per_sim_s"] = outcome.correct / outcome.sim_span_s
    return out


def _request_metrics(workload, outcome):
    """The workload-specific end-to-end numbers of one repetition: the
    sim-clock ones, or the client-observed POST latency on real sockets."""
    out = _sim_metrics(workload, outcome)
    if outcome.wall_ms:
        out["wall_p50_ms"] = percentile(outcome.wall_ms["post"], 0.50)
        out["wall_p95_ms"] = percentile(outcome.wall_ms["post"], 0.95)
    return out


def _determinism(workload, reps):
    """Texts of every way the repetitions were not identical work."""
    problems = []
    first = reps[0].outcome
    for index, rep in enumerate(reps[1:], start=1):
        outcome = rep.outcome
        if outcome.digest != first.digest:
            problems.append(f"repetition {index}: state digest differs")
        if workload.exact_events and outcome.events != first.events:
            problems.append(
                f"repetition {index}: {outcome.events} kernel events, "
                f"repetition 0 had {first.events}")
        if (outcome.attempted, outcome.correct) != (
                first.attempted, first.correct):
            problems.append(f"repetition {index}: op counts differ")
        if _sim_metrics(workload, outcome) != _sim_metrics(workload, first):
            problems.append(f"repetition {index}: sim metrics differ")
    return problems


def _record(workload, trace, reps, counted, import_s, problems):
    """What every record says; ``counted`` are the repetitions whose ops
    count (the cold one is identical work but is not measured)."""
    first = reps[0].outcome
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": trace,
        "size": workload.size(),
        "op_unit": workload.op_unit,
        "loop": workload.loop,
        "tail_percentile": workload.tail_q,
        "repetitions": len(counted),
        "attempted": sum(rep.outcome.attempted for rep in counted),
        "failed": sum(rep.outcome.failed for rep in counted),
        "ops_per_repetition": first.correct,
        "kernel_events": first.events,
        "state_digest": first.digest,
        "deterministic": not problems,
        "problems": problems + [
            text for rep in reps for text in rep.outcome.errors][:10],
        "import_s": statistics.median(import_s),
        "calib_mops": statistics.median(
            value for rep in reps for value in rep.calib),
    }


def run_untraced(name, seed, seconds, import_s, scale=1.0):
    """The end-to-end record of one workload."""
    workload = WORKLOADS[name](seed, scale)
    cold = Rep(workload)
    timed = []
    measuring = time.perf_counter()
    while len(timed) < MIN_REPS or (
            len(timed) < MAX_REPS
            and time.perf_counter() - measuring < seconds):
        timed.append(Rep(workload))
    reps = [cold] + timed
    problems = _determinism(workload, reps)
    record = _record(workload, 0, reps, timed, import_s, problems)

    metrics = {
        "setup_s": summary(
            import_s[index % len(import_s)] + rep.setup_s
            for index, rep in enumerate(timed)),
        "ops_per_s": summary(rep.ops_per_s for rep in timed),
        "peak_rss_mb": summary([peak_rss_mb()]),
        "failed_share": summary([
            record["failed"] / max(1, record["attempted"])]),
    }
    per_rep = [_request_metrics(workload, rep.outcome) for rep in timed]
    for key in per_rep[0]:
        metrics[key] = summary(values[key] for values in per_rep)
    record["end_to_end"] = {key: metrics[key] for key in spec.CARRIES[name]}
    record["run_s"] = summary(rep.run_s for rep in timed)
    # Every repetition's own numbers, for the noise study (how far a
    # single repetition strays from the median that is reported).
    record["timed_repetitions"] = [
        {"run_s": rep.run_s, "setup_s": rep.setup_s, "calib_mops": rep.calib}
        for rep in timed]
    return record


def _layer_metrics(tracer, traced, base, probes):
    """All 89 per-layer metrics from one traced repetition."""
    outcome = traced.outcome
    ops = max(1, outcome.correct)
    c = outcome.counters
    sim = outcome.sim
    wall = outcome.wall_ms or {}

    def per_op(value):
        return value / ops

    def count(*names):
        return per_op(tracer.count(*names))

    def self_us(*names):
        return per_op(tracer.self_us(*names))

    events = tracer.count("simnet.step")
    reads = c.get("cache_hits", 0) + c.get("cache_misses", 0)
    decisions = c.get("admitted", 0) + c.get("rejected", 0)
    txns = c.get("txn_committed", 0) + c.get("txn_aborted", 0)
    total_us = traced.run_s * 1e6
    m = {
        "simnet.events_per_op": per_op(events),
        "simnet.events_per_s": base.outcome.events / base.run_s,
        "simnet.step.self_us_per_op": self_us("simnet.step"),
        "simnet.schedule.self_us_per_op": self_us("simnet.schedule"),
        "simnet.process.spawns_per_op": per_op(tracer.spawns),
        "simnet.process.self_us_per_op": self_us("simnet.process"),
        "simnet.network.sends_per_op": count("simnet.network"),
        "simnet.network.self_us_per_op": self_us("simnet.network"),
        "simnet.network.bytes_per_op": per_op(c.get("network_bytes", 0)),
        "simnet.queue.self_us_per_op": self_us("simnet.queue"),
        "store.proc.resumes_per_op": count("proc:store"),
        "store.proc.self_us_per_op": self_us("proc:store", "store.request"),
        "store.server_ops_per_op": per_op(c.get("server_ops", 0)),
        "store.objectops.calls_per_op": count("store.objectops"),
        "store.objectops.self_us_per_op": self_us("store.objectops"),
        "store.loglake.calls_per_op": count("store.loglake"),
        "store.loglake.self_us_per_op": self_us("store.loglake"),
        "store.sharded.self_us_per_op": self_us("proc:store.sharded"),
        "store.wal_bytes_per_op": per_op(c.get("wal_bytes", 0)),
        "store.fence_rejections_per_op": per_op(
            c.get("fence_rejections", 0)),
        "store.readcache.hit_ratio": (
            c.get("cache_hits", 0) / reads if reads else 0.0),
        "store.cow.estimate_size.calls_per_op": count(
            "store.cow.estimate_size"),
        "store.cow.estimate_size.self_us_per_op": self_us(
            "store.cow.estimate_size"),
        "store.cow.copy.calls_per_op": count("store.cow.copy"),
        "store.cow.copy.self_us_per_op": self_us("store.cow.copy"),
        "store.cow.copied_bytes_per_op": per_op(c.get("copied_bytes", 0)),
        "store.ring.calls_per_op": count("store.ring"),
        "store.ring.self_us_per_op": self_us("store.ring"),
        "store.watch.events_per_op": per_op(c.get("watch_events", 0)),
        "store.watch.messages_per_op": per_op(c.get("watch_messages", 0)),
        "store.watch.wire_bytes_per_op": per_op(
            c.get("watch_wire_bytes", 0)),
        "store.watch.self_us_per_op": self_us("store.watch"),
        "flow.admit.calls_per_op": count("flow.admit"),
        "flow.admit.self_us_per_op": self_us("flow.admit"),
        "flow.rejected_share": (
            c.get("rejected", 0) / decisions if decisions else 0.0),
        "exchange.access.checks_per_op": count("exchange.access"),
        "exchange.access.self_us_per_op": self_us("exchange.access"),
        "exchange.handle.self_us_per_op": self_us("proc:exchange"),
        "core.reconciler.resumes_per_op": count("proc:core.reconciler"),
        "core.reconciler.self_us_per_op": self_us("proc:core.reconciler"),
        "core.cast.self_us_per_op": self_us("proc:core.cast"),
        "core.dxg.evals_per_op": count("core.dxg.evaluate"),
        "core.dxg.self_us_per_op": self_us(
            "proc:core.dxg", "core.dxg.evaluate", "core.dxg.update_cache"),
        "core.sync.self_us_per_op": self_us("proc:core.sync"),
        "core.sync.lag_sim_p99_ms": percentile(
            sim.get("sync_lag_ms", ()), 0.99),
        "query.compiles_per_op": count("query.compile"),
        "query.self_us_per_op": self_us("query.compile", "query.run"),
        "federation.engine.self_us_per_op": self_us(
            "proc:federation.engine"),
        "federation.materialize.self_us_per_op": self_us(
            "proc:federation.materialize", "federation.materialize"),
        "federation.materialized_share": sim.get("materialized_share", 0.0),
        "federation.max_staleness_sim_ms": sim.get("max_staleness_ms", 0.0),
        "federation.federated.sim_p50_ms": sim.get("federated_p50_ms", 0.0),
        "federation.federated.sim_p95_ms": sim.get("federated_p95_ms", 0.0),
        "federation.materialized.sim_p50_ms": sim.get(
            "materialized_p50_ms", 0.0),
        "txn.coordinator.self_us_per_op": self_us("proc:txn"),
        "txn.committed_per_op": per_op(c.get("txn_committed", 0)),
        "txn.aborted_share": (
            c.get("txn_aborted", 0) / txns if txns else 0.0),
        "obs.registry.calls_per_op": count("obs.registry"),
        "obs.registry.self_us_per_op": self_us("obs.registry"),
        "obs.causal.spans_per_op": count("obs.causal"),
        "obs.causal.self_us_per_op": self_us("obs.causal", "proc:obs"),
        "obs.context.self_us_per_op": self_us("proc:obs.context"),
        "schema.validate.calls_per_op": count("schema.validate"),
        "schema.validate.self_us_per_op": self_us("schema.validate"),
        "faults.retry.self_us_per_op": self_us("proc:faults"),
        "faults.retries_per_op": per_op(c.get("retries", 0)),
        "apps.self_us_per_op": self_us("proc:apps"),
        "apps.retail.fulfil_sim_p50_ms": percentile(
            sim.get("fulfil_ms", ()), 0.50),
        "load.self_us_per_op": self_us("proc:load", "proc:bench"),
        "realtime.max_lateness_ms": sim.get("max_lateness_ms", 0.0),
        "rest.dispatch.self_us_per_op": self_us("proc:rest"),
        "rest.http.post_p99_ms": percentile(wall.get("post", ()), 0.99),
        "rest.http.get_p50_ms": percentile(wall.get("get", ()), 0.50),
        "rest.http.get_p99_ms": percentile(wall.get("get", ()), 0.99),
        "host.cpu_us_per_op": base.cpu_s * 1e6 / max(
            1, base.outcome.correct),
        "host.calib_mops": statistics.median(base.calib + traced.calib),
        "host.gc_collections_per_kop": base.gc_collections * 1e3 / max(
            1, base.outcome.correct),
        "trace.overhead_ratio": traced.run_s / base.run_s,
        "trace.attributed_share": tracer.total_self_us(
            exclude=("simnet.step",)) / total_us,
    }
    m.update(probes)
    return m


def run_traced(name, seed, import_s, scale=1.0):
    """The per-layer record of one workload."""
    workload = WORKLOADS[name](seed, scale)
    cold = Rep(workload)
    # The faster of two untraced repetitions: one slow outlier must not
    # read as cheap tracing.
    base = min(Rep(workload), Rep(workload), key=lambda rep: rep.run_s)
    tracer = Tracer()
    traced = Rep(workload, tracer)
    probes = run_probes(tracer.captured)
    reps = [cold, base, traced]
    problems = _determinism(workload, reps)
    record = _record(workload, 1, reps, reps, import_s, problems)
    record["per_layer"] = _layer_metrics(tracer, traced, base, probes)
    record["spans"] = {
        span: {"count": rec[0], "self_us": rec[1] / 1e3}
        for span, rec in sorted(tracer.spans.items()) if rec[0]
    }
    # The workload-specific end-to-end numbers, from the untraced
    # repetition of this run (0 where the workload does not carry one).
    measured = _request_metrics(workload, base.outcome)
    measured["failed_share"] = record["failed"] / max(1, record["attempted"])
    record["end_to_end_extra"] = {
        m.name: measured.get(m.name, 0.0)
        for m in spec.END_TO_END if m.name not in spec.COMMON}
    record["run_s"] = {"untraced": base.run_s, "traced": traced.run_s}
    return record


def driver_result(record):
    """The one JSON object the benchmark contract asks for."""
    if record["trace"]:
        values = {**record["end_to_end_extra"], **record["per_layer"]}
        metrics = {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in spec.DRIVER_PER_LAYER}
    else:
        metrics = {
            name: {"value": record["end_to_end"][name]["median"],
                   "unit": spec.END_TO_END_BY_NAME[name].unit}
            for name in spec.COMMON}
    return {
        "correct": record["deterministic"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
