"""Tests for the runtime's one ``stats()`` tree and SLO monitoring."""

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_REDIS
from repro.core.runtime import KnactorRuntime
from repro.errors import ConfigurationError
from repro.exchange import ObjectDE
from repro.metrics.latency import exchange_durations, reconcile_durations
from repro.obs.slo import TraceLatencySLO
from repro.store import MemKV


def three_orders(obs=None):
    app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False, obs=obs)
    workload = OrderWorkload(seed=7)
    for _ in range(3):
        key, data = workload.next_order()
        app.env.run(until=app.place_order(key, data))
    app.run_until_quiet(max_seconds=60.0)
    return app


@pytest.fixture(scope="module")
def app():
    return three_orders()


@pytest.fixture(scope="module")
def traced_app():
    """The same run with the obs plane: only it mints the exchange and
    reconcile spans the latency series and the SLO read."""
    return three_orders(obs=True)


class TestSnapshot:
    """``KnactorRuntime.stats()``: every component's ``stats()`` in one
    tree."""

    def test_covers_all_components(self, app):
        snapshot = app.runtime.stats()
        assert set(snapshot["knactors"]) == set(app.runtime.knactors)
        assert "retail-cast" in snapshot["integrators"]
        assert snapshot["exchanges"]["object"]["audited_accesses"] > 0

    def test_reconciler_counters(self, app):
        shipping = app.runtime.stats()["knactors"]["shipping"]
        assert shipping["reconciles"] >= 3
        assert shipping["queue_depth"] == 0  # quiescent

    def test_backend_op_counts_present(self, app):
        ops = app.runtime.stats()["exchanges"]["object"]["backend"][
            "op_counts"]
        assert ops.get("create", 0) >= 3
        assert ops.get("patch", 0) >= 3

    def test_shape_without_obs_plane(self, app):
        snapshot = app.runtime.stats()
        assert set(snapshot) == {"time", "knactors", "integrators",
                                 "exchanges"}
        assert snapshot["time"] == app.env.now

    def test_obs_section_present_when_plane_attached(self):
        """The plane's section is ``runtime.obs.snapshot()``, beside
        ``runtime.stats()`` and never inside it: the plane's collector
        reads ``runtime.stats()``."""
        app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False,
                                     obs=True)
        key, data = OrderWorkload(seed=7).next_order()
        app.env.run(until=app.place_order(key, data))
        app.run_until_quiet(max_seconds=60.0)
        assert "obs" not in app.runtime.stats()
        obs = app.runtime.obs.snapshot()
        assert obs["traces"]["count"] == 1
        assert obs["traces"]["spans"] > 3
        assert "store_ops_total" in obs["metrics"]["metrics"]

    def test_state_plane_section(self, app):
        state_plane = app.runtime.stats()["exchanges"]["object"]["backend"]
        assert state_plane["zero_copy"] is True
        assert set(state_plane["copy"]) >= {"copied_bytes",
                                            "shared_bytes_avoided"}
        assert state_plane["watch_wire_bytes"] > 0


class TestStatePlaneStats:
    """The zero-copy / delta-replication counters are the backend's own
    ``stats()``, carried whole under ``exchanges.E.backend``."""

    def test_none_for_backends_without_copy_meter(self, env, net):
        server = MemKV(env, net, location="plain")
        server.stats = lambda: {"available": True}  # no copy section
        runtime = KnactorRuntime(env, network=net)
        runtime.add_exchange("plain", ObjectDE(env, server))
        backend = runtime.stats()["exchanges"]["plain"]["backend"]
        assert backend == {"available": True}

    def test_counters_for_instrumented_backend(self, app):
        stats = app.runtime.stats()["exchanges"]["object"]["backend"]
        assert set(stats) >= {"zero_copy", "delta_watch", "copy",
                              "watch_wire_bytes", "watch_deltas_sent",
                              "watch_fulls_sent"}
        # Full/delta split only accumulates on the delta-watch plane;
        # here it is off, so the counters exist but stay zero.
        assert stats["delta_watch"] is False
        assert stats["watch_wire_bytes"] > 0


class TestResilienceSnapshot:
    """The failure-domain counters (health, dead letters, availability,
    crashes) the chaos tooling asserts on, read from ``runtime.stats()``."""

    def test_shape_and_quiescent_values(self, app):
        snapshot = app.runtime.stats()
        assert set(snapshot) == {"time", "knactors", "integrators",
                                 "exchanges"}
        shipping = snapshot["knactors"]["shipping"]
        assert shipping["health"] == "ready"
        assert shipping["dead_letters"] == 0
        assert shipping["dead_letter_keys"] == []
        cast = snapshot["integrators"]["retail-cast"]
        assert cast["started"] is True
        assert cast["dead_letters"] == 0
        store = snapshot["exchanges"]["object"]["backend"]
        assert store["location"] == "object-backend"
        assert store["available"] is True
        assert store["crash_count"] == 0

    def test_breakers_included_when_passed(self, app):
        """A breaker is a client-side object the runtime does not know
        about: it reports its own ``stats()``."""
        from repro.faults import CircuitBreaker

        breaker = CircuitBreaker(app.env, name="probe")
        assert breaker.stats()["state"] == "closed"


class TestExchangeDurations:
    def test_one_span_per_exchange(self, traced_app):
        durations = exchange_durations(traced_app.tracer, "retail-cast")
        assert len(durations) == traced_app.cast.exchanges_run
        assert all(d >= 0 for d in durations)

    def test_unknown_integrator_has_no_spans(self, traced_app):
        assert exchange_durations(traced_app.tracer, "nope") == []

    def test_reconcile_durations_per_knactor(self, traced_app):
        durations = reconcile_durations(traced_app.tracer, "shipping")
        assert len(durations) >= 3
        # The carrier call dominates each shipping reconcile.
        assert all(d > 0.4 for d in durations if d > 0.01)

    def test_reconcile_durations_unknown_knactor(self, traced_app):
        assert reconcile_durations(traced_app.tracer, "ghost") == []


class TestSLOMonitor:
    """SLO monitoring over a real app trace: :class:`TraceLatencySLO`
    judged on the retail run's exchange spans."""

    def test_met_slo(self, traced_app):
        spec = TraceLatencySLO("exchange-fast", integrator="retail-cast",
                               target_seconds=1.0)
        result = spec.evaluate_trace(traced_app.tracer)
        assert result.met
        assert result.sample_count == traced_app.cast.exchanges_run
        assert "MET" in result.describe()

    def test_violated_slo(self, traced_app):
        spec = TraceLatencySLO("impossible", integrator="retail-cast",
                               target_seconds=1e-9)
        result = spec.evaluate_trace(traced_app.tracer)
        assert not result.met
        assert "VIOLATED" in result.describe()

    def test_custom_percentile(self, traced_app):
        spec = TraceLatencySLO("median", integrator="retail-cast",
                               target_seconds=1.0, percentile=0.5)
        result = spec.evaluate_trace(traced_app.tracer)
        assert result.target == 0.5
        durations = sorted(exchange_durations(traced_app.tracer, "retail-cast"))
        assert durations[0] <= result.observed <= durations[-1]

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            TraceLatencySLO("x", integrator="cast", target_seconds=0)
        with pytest.raises(ConfigurationError):
            TraceLatencySLO("x", integrator="cast", target_seconds=1,
                            percentile=1.5)

    def test_no_samples_is_a_no_data_report(self, traced_app):
        """Zero spans is an answer, not a crash: a dead integrator reads
        as a violated objective so the monitoring loop keeps running."""
        spec = TraceLatencySLO("empty", integrator="ghost-integrator",
                               target_seconds=1.0)
        result = spec.evaluate_trace(traced_app.tracer)
        assert result.no_data
        assert not result.met
        assert result.sample_count == 0
        assert result.observed is None
        assert "NO DATA" in result.describe()
        assert "NOT MET" in result.describe()
