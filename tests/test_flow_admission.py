"""Admission control: the token-bucket + AIMD front door (repro.flow)."""

import pytest

from repro.errors import ConfigurationError, OverloadedError, UnavailableError
from repro.flow import (
    BULK,
    INTEGRATOR,
    NORMAL,
    OVERFLOW_POLICIES,
    AdmissionController,
    FlowConfig,
    check_overflow,
)
from repro.faults import RetryPolicy
from repro.faults.retry import default_retryable
from repro.store import ApiServer
from repro.store.client import ObjectClient


class TestOverflowPolicy:
    def test_vocabulary(self):
        assert OVERFLOW_POLICIES == ("block", "shed_oldest", "shed_newest",
                                     "reject")

    def test_check_accepts_members(self):
        for policy in OVERFLOW_POLICIES:
            assert check_overflow(policy) == policy

    def test_check_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="overflow"):
            check_overflow("drop_sometimes")

    def test_check_respects_allowed_subset(self):
        with pytest.raises(ConfigurationError):
            check_overflow("shed_oldest", allowed=("block", "reject"))


class TestTokenBucket:
    def test_burst_admits_then_rejects(self, env):
        limiter = AdmissionController(env, rate=100.0, burst=3)
        assert [limiter.admit("p", 0) for _ in range(4)] == [
            True, True, True, False,
        ]
        assert limiter.admitted == 3 and limiter.rejected == 1

    def test_tokens_refill_with_virtual_time(self, env):
        limiter = AdmissionController(env, rate=10.0, burst=1)
        assert limiter.admit("p", 0)
        assert not limiter.admit("p", 0)
        env.run(until=env.timeout(0.1))  # 10/s * 0.1s = one token back
        assert limiter.admit("p", 0)

    def test_rejects_are_per_class(self, env):
        limiter = AdmissionController(
            env, rate=100.0, burst=1,
            principals={"cast": INTEGRATOR, "reader": BULK},
        )
        limiter.admit("cast", 0)
        assert not limiter.admit("cast", 0)
        # The bulk class still has its own bucket.
        assert limiter.admit("reader", 0)
        stats = limiter.stats()
        assert stats["classes"][INTEGRATOR]["rejected"] == 1
        assert stats["classes"][BULK]["rejected"] == 0

    def test_unattributed_principal_uses_default_class(self, env):
        limiter = AdmissionController(env, rate=100.0, burst=1)
        assert limiter.class_of(None) == NORMAL
        limiter.admit(None, 0)
        assert limiter.stats()["classes"][NORMAL]["admitted"] == 1

    def test_invalid_configuration(self, env):
        with pytest.raises(ConfigurationError):
            AdmissionController(env, rate=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionController(env, principals={"p": "no-such-class"})
        with pytest.raises(ConfigurationError):
            AdmissionController(env, default_class="no-such-class")

    def test_assign_binds_and_validates(self, env):
        limiter = AdmissionController(env)
        limiter.assign("spider", BULK)
        assert limiter.class_of("spider") == BULK
        with pytest.raises(ConfigurationError, match="priority class"):
            limiter.assign("spider", "mega")


class TestAIMD:
    def _congest(self, env, limiter, principal, rounds=8, step=0.1):
        """Admit against a saturated queue, spaced past decrease_interval."""
        for _ in range(rounds):
            limiter.admit(principal, queue_depth=100)
            env.run(until=env.timeout(step))

    def test_congestion_cuts_scale_to_class_floor(self, env):
        limiter = AdmissionController(
            env, rate=1000.0, burst=8, queue_high=16, beta=0.5,
            decrease_interval=0.05,
            principals={"cast": INTEGRATOR, "reader": BULK},
        )
        self._congest(env, limiter, "cast")
        self._congest(env, limiter, "reader")
        scales = {name: entry["scale"]
                  for name, entry in limiter.stats()["classes"].items()}
        # Integrator keeps half its rate through overload; bulk is cut
        # to near-zero -- the priority ranking at the moment it matters.
        assert scales[INTEGRATOR] == 0.5
        assert scales[BULK] == pytest.approx(0.02)
        assert scales[NORMAL] == 1.0  # untouched class keeps full scale

    def test_decrease_interval_limits_cut_rate(self, env):
        limiter = AdmissionController(env, queue_high=4, beta=0.5,
                                      decrease_interval=10.0)
        for _ in range(5):  # same instant: only the first cut lands
            limiter.admit("p", queue_depth=50)
        assert limiter.stats()["classes"][NORMAL]["scale"] == 0.5

    def test_healthy_queue_recovers_additively(self, env):
        limiter = AdmissionController(env, rate=1000.0, queue_high=4,
                                      alpha=0.2, decrease_interval=0.01)
        self._congest(env, limiter, "p", rounds=6, step=0.02)
        cut = limiter.stats()["classes"][NORMAL]["scale"]
        assert cut < 1.0
        for _ in range(40):
            env.run(until=env.timeout(0.25))
            limiter.admit("p", queue_depth=0)
        assert limiter.stats()["classes"][NORMAL]["scale"] == 1.0


class TestStoreFrontDoor:
    """AdmissionController installed on StoreServer.handle."""

    def _server(self, env, zero_net, **limiter_kwargs):
        server = ApiServer(env, zero_net, location="store",
                           watch_overhead=0.0)
        server.admission = AdmissionController(env, **limiter_kwargs)
        return server

    def test_rejection_surfaces_overloaded_error(self, env, zero_net, call):
        server = self._server(env, zero_net, rate=5.0, burst=2)
        client = ObjectClient(server, location="app")
        client.principal = "app"
        call(client.create("a", {"v": 1}))
        call(client.create("b", {"v": 2}))
        with pytest.raises(OverloadedError, match="admission control"):
            call(client.create("c", {"v": 3}))

    def test_overloaded_error_is_retryable(self):
        error = OverloadedError("shed")
        assert isinstance(error, UnavailableError)
        assert default_retryable(error)

    def test_retry_policy_rides_through_rejection(self, env, zero_net, call):
        server = self._server(env, zero_net, rate=10.0, burst=1)
        policy = RetryPolicy(max_attempts=6, base_backoff=0.1, jitter=0.0)
        client = ObjectClient(server, location="app", retry_policy=policy)
        client.principal = "app"
        call(client.create("a", {"v": 1}))  # spends the only token
        # The next create is rejected, backs off while the bucket
        # refills (10/s), and lands on a retry -- Overloaded is a
        # *retryable* condition end to end.
        view = call(client.create("b", {"v": 2}))
        assert view["data"] == {"v": 2}
        assert policy.stats()["retries"] >= 1
        assert server.admission.rejected >= 1

    def test_admission_stats_scraped_by_obs_registry(self, env, zero_net):
        """The obs plane surfaces admission counters per exchange."""
        from repro.exchange import ObjectDE
        from repro.obs import CausalTracer, ObsPlane

        server = self._server(env, zero_net, rate=5.0, burst=1)
        de = ObjectDE(env, server)
        plane = ObsPlane(env)

        class FakeRuntime:
            knactors = {}
            integrators = {}
            exchanges = {"object": de}
            network = zero_net
            tracer = CausalTracer(env)

        plane.bind_runtime(FakeRuntime())
        server.admission.admit("p", 0)
        server.admission.admit("p", 0)  # rejected: bucket empty
        metrics = plane.registry.snapshot()["metrics"]
        assert metrics["admission_admitted_total"]["series"][
            "exchange=object"] == 1
        assert metrics["admission_rejected_total"]["series"][
            "exchange=object"] == 1


class TestFlowConfig:
    def test_build_admission_carries_principals(self, env):
        cfg = FlowConfig(admission_rate=123.0, admission_burst=7,
                         principals={"spider": BULK})
        limiter = cfg.build_admission(env)
        assert limiter.rate == 123.0
        assert limiter.burst == 7.0
        assert limiter.class_of("spider") == BULK

    def test_retail_app_flow_wiring(self):
        """``build(flow=True)`` arms every layer of the plane."""
        from repro.apps.retail.knactor_app import RetailKnactorApp

        app = RetailKnactorApp.build(flow=True, with_notify=True)
        cfg = app.flow
        assert cfg is not None
        assert app.de.watch_credits == cfg.watch_credits
        assert app.de.backend.admission is not None
        # The integrator casts outrank knactor traffic at the front door.
        limiter = app.de.backend.admission
        assert limiter.class_of("retail-cast") == INTEGRATOR
        assert limiter.class_of("notify-cast") == INTEGRATOR
        assert limiter.class_of("checkout") == NORMAL
        for knactor in app.runtime.knactors.values():
            assert knactor.reconciler.max_queue == cfg.reconciler_queue
            assert knactor.reconciler.queue_overflow == cfg.reconciler_overflow

    def test_flow_accepts_custom_config(self):
        from repro.apps.retail.knactor_app import RetailKnactorApp

        cfg = FlowConfig(watch_credits=5, reconciler_queue=9,
                         principals={"bench": BULK})
        app = RetailKnactorApp.build(flow=cfg, with_notify=False)
        assert app.de.watch_credits == 5
        assert app.de.backend.admission.class_of("bench") == BULK
        # Explicit principal overrides merge with the cast defaults.
        assert app.de.backend.admission.class_of("retail-cast") == INTEGRATOR

    def test_flow_off_leaves_no_machinery(self):
        from repro.apps.retail.knactor_app import RetailKnactorApp

        app = RetailKnactorApp.build(with_notify=False)
        assert app.flow is None
        assert app.de.backend.admission is None
        assert app.de.watch_credits is None
