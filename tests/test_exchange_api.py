"""Tests for the unified exchange-handle API and its sunset surface.

``DataExchange.handle()`` and ``DataExchange.grant()`` are the single
entry points across Object and Log exchanges.  ``principal`` and every
``grant`` option are keyword-only: a positional call raises
``TypeError``, and the pre-unification aliases and warn-once shims do
not exist.
"""

import warnings

import pytest

from repro.exchange import LogDE, ObjectDE, StoreHandle
from repro.exchange.log_de import LogStoreHandle
from repro.exchange.object_de import ObjectStoreHandle
from repro.faults import RetryPolicy
from repro.store import ApiServer, LogLake

ORDER_SCHEMA = """\
schema: OnlineRetail/v1/Checkout/Order
items: object
status: string
trackingID: string # +kr: external
"""

READINGS_SCHEMA = """\
schema: SmartHome/v1/House/Readings
kwh: number # +kr: ingest
note: string
"""


@pytest.fixture
def object_de(env, zero_net):
    de = ObjectDE(env, ApiServer(env, zero_net, watch_overhead=0.0))
    de.host_store("knactor-checkout", ORDER_SCHEMA, owner="checkout")
    return de


@pytest.fixture
def log_de(env, zero_net):
    de = LogDE(env, LogLake(env, zero_net, watch_overhead=0.0))
    de.host_store("house-log", READINGS_SCHEMA, owner="house")
    return de


class TestUnifiedHandle:
    def test_handles_share_the_store_handle_protocol(self, object_de, log_de):
        obj = object_de.handle("knactor-checkout", principal="checkout")
        log = log_de.handle("house-log", principal="house")
        assert isinstance(obj, ObjectStoreHandle) and isinstance(obj, StoreHandle)
        assert isinstance(log, LogStoreHandle) and isinstance(log, StoreHandle)
        assert obj.store_name == "knactor-checkout"
        assert log.store_name == "house-log"
        assert str(obj.schema.name) == "OnlineRetail/v1/Checkout/Order"

    def test_location_defaults_to_principal(self, object_de):
        handle = object_de.handle("knactor-checkout", principal="checkout")
        assert handle.client.location == "checkout"
        placed = object_de.handle(
            "knactor-checkout", principal="checkout", location="edge-pop-1"
        )
        assert placed.client.location == "edge-pop-1"

    def test_principal_is_required(self, object_de):
        with pytest.raises(TypeError, match="principal"):
            object_de.handle("knactor-checkout")

    def test_handle_binds_principal_to_client(self, object_de):
        """Admission control attributes requests to the handle's principal."""
        handle = object_de.handle("knactor-checkout", principal="checkout")
        assert handle.client.principal == "checkout"

    def test_per_handle_retry_policy_overrides_de_default(self, env, zero_net):
        de_policy = RetryPolicy(max_attempts=2)
        handle_policy = RetryPolicy(max_attempts=7)
        de = ObjectDE(
            env, ApiServer(env, zero_net, watch_overhead=0.0),
            retry_policy=de_policy,
        )
        de.host_store("knactor-checkout", ORDER_SCHEMA, owner="checkout")
        default = de.handle("knactor-checkout", principal="checkout")
        assert default.client.retry_policy is de_policy
        tuned = de.handle(
            "knactor-checkout", principal="checkout",
            retry_policy=handle_policy,
        )
        assert tuned.client.retry_policy is handle_policy

    def test_unified_handle_works_end_to_end(self, object_de, call, env):
        owner = object_de.handle("knactor-checkout", principal="checkout")
        call(owner.create("o1", {"items": {}, "status": "placed"}))
        assert call(owner.get("o1"))["data"]["status"] == "placed"
        object_de.grant("viewer", "knactor-checkout", role="reader")
        seen = []
        reader = object_de.handle("knactor-checkout", principal="viewer")
        reader.watch(lambda e: seen.append(e.key))
        call(owner.patch("o1", {"status": "fulfilled"}))
        env.run()
        assert seen == ["o1"]


class TestHandleFlowKnobs:
    """``handle(..., credits=)`` and ``watch(..., credits=)``."""

    def test_handle_credits_become_watch_defaults(self, object_de, env):
        handle = object_de.handle(
            "knactor-checkout", principal="checkout", credits=8,
        )
        assert handle.client.default_watch_credits == 8
        watch = handle.watch(lambda e: None)
        assert watch.credits == 8

    def test_watch_credits_override_handle_default(self, object_de):
        handle = object_de.handle(
            "knactor-checkout", principal="checkout", credits=8
        )
        watch = handle.watch(lambda e: None, credits=2)
        assert watch.credits == 2

    def test_de_wide_default_flows_to_every_handle(self, env, zero_net):
        de = ObjectDE(
            env, ApiServer(env, zero_net, watch_overhead=0.0),
            watch_credits=16,
        )
        de.host_store("knactor-checkout", ORDER_SCHEMA, owner="checkout")
        watch = de.handle(
            "knactor-checkout", principal="checkout"
        ).watch(lambda e: None)
        assert watch.credits == 16
        # The paused buffer is bounded: past four windows the stream breaks.
        assert watch.max_paused == 64

    def test_credits_default_off(self, object_de):
        watch = object_de.handle(
            "knactor-checkout", principal="checkout"
        ).watch(lambda e: None)
        assert watch.credits is None

    def test_log_handle_watch_accepts_credits(self, log_de):
        handle = log_de.handle("house-log", principal="house")
        watch = handle.watch(lambda e: None, credits=4)
        assert watch.credits == 4
        assert watch._coalesce == "append"


class TestUnifiedGrant:
    def test_integrator_role_scopes_writes_to_external_fields(self, object_de):
        grant = object_de.grant(
            "cast-a", "knactor-checkout", role="integrator"
        )
        assert "patch" in grant.verbs
        assert grant.write_fields == ("trackingID",)

    def test_reader_role_is_read_only(self, object_de, call):
        object_de.grant("viewer", "knactor-checkout", role="reader")
        grant = object_de.grants[-1]
        assert grant.verbs == frozenset({"get", "list", "watch"})
        assert grant.write_fields == ()

    def test_unknown_role_rejected(self, object_de):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="role"):
            object_de.grant("x", "knactor-checkout", role="superuser")

    def test_explicit_verbs_bypass_role_dispatch(self, object_de):
        grant = object_de.grant(
            "auditor", "knactor-checkout",
            verbs={"get", "list"}, note="audit only",
        )
        assert grant.verbs == frozenset({"get", "list"})
        assert grant.note == "audit only"

    def test_an_identical_grant_repeated_adds_nothing(self, object_de):
        grants = len(object_de.grants)
        first = object_de.grant("viewer", "knactor-checkout", role="reader")
        for _ in range(2):
            assert object_de.grant(
                "viewer", "knactor-checkout", role="reader") is first
        assert len(object_de.acl.permissions_for("viewer")) == 1
        assert len(object_de.grants) == grants + 1

    @pytest.mark.parametrize("differs", [
        {"verbs": {"get"}},
        {"verbs": {"get", "list"}, "read_fields": ("items",)},
    ])
    def test_a_grant_that_differs_still_adds_one(self, object_de, differs):
        first = object_de.grant("viewer", "knactor-checkout",
                                verbs={"get", "list"})
        assert object_de.grant("viewer", "knactor-checkout",
                               verbs={"list", "get"}) is first
        other = object_de.grant("viewer", "knactor-checkout", **differs)
        assert other is not first
        assert len(object_de.acl.permissions_for("viewer")) == 2
        assert object_de.grants[-2:] == [first, other]

    def test_log_de_roles(self, log_de):
        integrator = log_de.grant("sync", "house-log", role="integrator")
        reader = log_de.grant("viewer", "house-log", role="reader")
        assert "load" in integrator.verbs
        assert reader.verbs == frozenset({"query", "watch"})


class TestRemovedForms:
    """Positional principal/verbs are a ``TypeError``; the old aliases
    and every warn-once shim are absent, not stubbed."""

    def test_positional_handle_raises_with_migration(self, object_de):
        with pytest.raises(TypeError):
            object_de.handle("knactor-checkout", "checkout")

    def test_positional_handle_with_location_raises(self, object_de):
        with pytest.raises(TypeError):
            object_de.handle("knactor-checkout", "checkout", "edge")

    def test_positional_grant_raises_with_migration(self, object_de):
        with pytest.raises(TypeError):
            object_de.grant("a", "knactor-checkout", {"get", "list"})

    def test_removed_forms_raise_on_log_de_too(self, log_de):
        with pytest.raises(TypeError):
            log_de.handle("house-log", "house")
        with pytest.raises(TypeError):
            log_de.handle("house-log")  # principal is required

    def test_registry_and_shims_are_deleted(self):
        import importlib

        import repro.exchange.base as base
        import repro.metrics
        import repro.store
        import repro.store.ring as ring

        for symbol in ("_WARNED", "_warn_once", "_reset_deprecation_warnings"):
            assert not hasattr(base, symbol)
        for owner, symbol in (
            (base.DataExchange, "grant_integrator"),
            (base.DataExchange, "grant_reader"),
            (repro.store, "shard_index"),
            (ring, "coerce_shards_knob"),
            (ring, "deprecation_notice"),
            (repro.metrics, "SLOMonitor"),
        ):
            assert not hasattr(owner, symbol), symbol
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.store.zql")

    def test_in_repo_callers_are_warning_free(self):
        """The whole migrated retail app builds without one deprecation."""
        from repro.apps.retail.knactor_app import RetailKnactorApp

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            RetailKnactorApp.build()
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
