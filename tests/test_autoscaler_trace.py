"""Tests for the autoscaler and the Chrome-trace exporter."""

import json

import pytest

from repro.cluster import Cluster, Image, Node
from repro.cluster.autoscaler import HorizontalAutoscaler
from repro.errors import ClusterError
from repro.obs import CausalTracer, ObsPlane


@pytest.fixture
def cluster(env):
    return Cluster(env, nodes=[Node("n1", capacity=32), Node("n2", capacity=32)])


def make_autoscaler(env, cluster, load_holder, **kwargs):
    env.run(until=cluster.create_deployment("svc", Image("svc", "v1"), replicas=2))
    defaults = dict(
        cluster=cluster,
        deployment_name="svc",
        metric=lambda: load_holder["load"],
        target_load_per_replica=10.0,
        min_replicas=1,
        max_replicas=8,
        interval=5.0,
        cooldown=0.0,
    )
    defaults.update(kwargs)
    return HorizontalAutoscaler(**defaults)


class TestAutoscaler:
    def test_scales_up_under_load(self, env, cluster):
        load = {"load": 55.0}  # needs ceil(55/10) = 6 replicas
        scaler = make_autoscaler(env, cluster, load)
        scaler.start()
        env.run(until=30.0)
        assert len(cluster.deployment("svc").ready_pods) == 6
        assert scaler.events and scaler.events[0].to_replicas == 6

    def test_scales_down_when_idle(self, env, cluster):
        load = {"load": 0.0}
        scaler = make_autoscaler(env, cluster, load)
        scaler.start()
        env.run(until=30.0)
        assert len(cluster.deployment("svc").ready_pods) == 1

    def test_bounded_by_max(self, env, cluster):
        load = {"load": 10_000.0}
        scaler = make_autoscaler(env, cluster, load, max_replicas=4)
        scaler.start()
        env.run(until=30.0)
        assert len(cluster.deployment("svc").ready_pods) == 4

    def test_obs_plane_scrapes_autoscaler_activity(self, env, cluster):
        load = {"load": 55.0}
        scaler = make_autoscaler(env, cluster, load)
        plane = ObsPlane(env).watch_autoscalers([scaler])
        scaler.start()
        env.run(until=30.0)

        def scraped():
            metrics = plane.registry.snapshot()["metrics"]
            return {name: metrics[name]["series"]["deployment=svc"]
                    for name in ("autoscale_events_total",
                                 "autoscale_replicas", "autoscale_last_load",
                                 "autoscale_last_target")}

        assert scraped() == {
            "autoscale_events_total": 1.0, "autoscale_replicas": 6.0,
            "autoscale_last_load": 55.0, "autoscale_last_target": 6.0,
        }
        scaler.stop()
        del cluster.deployments["svc"]  # removed: no replicas to count
        assert scraped()["autoscale_replicas"] == 0.0

    def test_cooldown_prevents_flapping(self, env, cluster):
        load = {"load": 55.0}
        scaler = make_autoscaler(env, cluster, load, cooldown=1000.0)
        scaler.start()
        env.run(until=12.0)
        load["load"] = 0.0
        env.run(until=60.0)
        # Only the initial scale-up happened; the scale-down is cooling.
        assert len(scaler.events) == 1

    def test_stop_halts_scaling(self, env, cluster):
        load = {"load": 55.0}
        scaler = make_autoscaler(env, cluster, load)
        scaler.start()
        scaler.stop()
        env.run(until=30.0)
        assert scaler.events == []

    def test_desired_replicas_formula(self, env, cluster):
        scaler = make_autoscaler(env, cluster, {"load": 0})
        assert scaler.desired_replicas(0, 2) == 1
        assert scaler.desired_replicas(10, 2) == 1
        assert scaler.desired_replicas(11, 2) == 2
        assert scaler.desired_replicas(10**9, 2) == 8

    def test_invalid_configuration(self, env, cluster):
        with pytest.raises(ClusterError):
            make_autoscaler(env, cluster, {"load": 0}, target_load_per_replica=0)
        cluster2 = Cluster(env)
        env.run(until=cluster2.create_deployment("svc2", Image("s", "v1")))
        with pytest.raises(ClusterError):
            HorizontalAutoscaler(
                cluster=cluster2, deployment_name="svc2", metric=lambda: 0,
                target_load_per_replica=1.0, min_replicas=5, max_replicas=2,
            )


class TestChromeTrace:
    def test_export_shape(self, env):
        tracer = CausalTracer(env)
        work = tracer.start_span("work", "stage", cid="o1")
        env.run(until=1.0)
        tracer.annotate(work, "retry", attempt=1)
        env.run(until=2.5)
        tracer.end_span(work)
        entries = tracer.to_chrome_trace()
        assert len(entries) == 2
        instant = next(e for e in entries if e["ph"] == "i")
        complete = next(e for e in entries if e["ph"] == "X")
        # The annotation is an instant on its span's own track.
        assert instant["name"] == "retry"
        assert (instant["pid"], instant["tid"]) == (
            complete["pid"], complete["tid"]) == ("stage", work.trace_id)
        assert instant["ts"] == pytest.approx(1e6)
        assert instant["args"] == {"span": work.span_id, "attempt": 1}
        assert complete["dur"] == pytest.approx(2.5e6)
        json.dumps(entries)  # must be JSON-serializable

    def test_entries_sorted_by_time(self, env):
        tracer = CausalTracer(env)
        span = tracer.start_span("span", "b")
        env.run(until=3.0)
        tracer.annotate(tracer.start_span("other", "a"), "late")
        env.run(until=4.0)
        tracer.end_span(span)
        entries = tracer.to_chrome_trace()
        times = [e["ts"] for e in entries]
        assert times == sorted(times)
        assert entries[0]["ph"] == "X"  # the span started first

    def test_real_app_trace_exports(self):
        from repro.apps.retail.knactor_app import RetailKnactorApp
        from repro.apps.retail.workload import OrderWorkload
        from repro.core.optimizer import K_REDIS

        app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False,
                                     obs=True)
        key, data = OrderWorkload(seed=7).next_order()
        app.env.run(until=app.place_order(key, data))
        app.run_until_quiet(max_seconds=30.0)
        entries = app.tracer.to_chrome_trace()
        assert len(entries) > 10
        names = {(e["ph"], e["name"]) for e in entries}
        assert {("X", "write"), ("X", "exchange"), ("X", "reconcile"),
                ("i", "writes.begin"), ("i", "fedex.done")} <= names
        json.dumps(entries)
