"""Unit tests for the Object Data Exchange."""

import pytest

from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    NotFoundError,
    SchemaError,
)
from repro.exchange import ObjectDE
from repro.schema import Field, parse_annotation
from repro.store import ApiServer, LogLake, MemKV

CHECKOUT_SCHEMA = """\
schema: OnlineRetail/v1/Checkout/Order
items: object
address: string
cost: number
shippingCost: number # +kr: external
totalCost: number
currency: string
paymentID: string # +kr: external
trackingID: string # +kr: external
cardToken: string # +kr: secret
"""


@pytest.fixture
def de(env, zero_net):
    backend = ApiServer(env, zero_net, watch_overhead=0.0)
    exchange = ObjectDE(env, backend)
    exchange.host_store("knactor-checkout", CHECKOUT_SCHEMA, owner="checkout")
    return exchange


@pytest.fixture
def owner(de):
    return de.handle("knactor-checkout", principal="checkout")


class TestHosting:
    def test_schema_registered(self, de):
        schema = de.schema_for("knactor-checkout")
        assert str(schema.name) == "OnlineRetail/v1/Checkout/Order"

    def test_duplicate_hosting_rejected(self, de):
        with pytest.raises(ConfigurationError):
            de.host_store("knactor-checkout", CHECKOUT_SCHEMA, owner="x")

    def test_unknown_store_rejected(self, de):
        with pytest.raises(NotFoundError):
            de.handle("nope", principal="x")

    def test_wrong_backend_rejected(self, env, zero_net):
        with pytest.raises(ConfigurationError):
            ObjectDE(env, LogLake(env, zero_net))

    def test_memkv_backend_accepted(self, env, zero_net):
        exchange = ObjectDE(env, MemKV(env, zero_net))
        assert exchange.supports_udf

    def test_apiserver_has_no_udf(self, de):
        assert not de.supports_udf

    def test_describe_mentions_stores_and_grants(self, de):
        de.grant("intg", "knactor-checkout", role="integrator")
        text = de.describe()
        assert "knactor-checkout" in text and "intg" in text


class TestOwnerAccess:
    def test_owner_full_crud(self, owner, call):
        call(owner.create("o1", {"cost": 10, "currency": "USD"}))
        view = call(owner.get("o1"))
        assert view["data"]["cost"] == 10
        assert view["key"] == "o1"
        call(owner.update("o1", {"cost": 20}))
        call(owner.patch("o1", {"address": "12 Elm St"}))
        assert call(owner.read_field("o1", "address")) == "12 Elm St"
        call(owner.delete("o1"))
        with pytest.raises(NotFoundError):
            call(owner.get("o1"))

    def test_schema_enforced_on_create(self, owner, call):
        with pytest.raises(SchemaError):
            call(owner.create("o1", {"cost": "not-a-number"}))

    def test_unknown_field_rejected(self, owner, call):
        with pytest.raises(SchemaError):
            call(owner.create("o1", {"bogus": 1}))

    def test_owner_sees_secret_fields(self, owner, call):
        call(owner.create("o1", {"cardToken": "tok-123"}))
        assert call(owner.get("o1"))["data"]["cardToken"] == "tok-123"

    def test_list_scoped_to_store(self, de, owner, call):
        call(owner.create("o1", {"cost": 1}))
        call(owner.create("o2", {"cost": 2}))
        views = call(owner.list())
        assert [v["key"] for v in views] == ["o1", "o2"]


class TestIntegratorAccess:
    def test_integrator_grant_allows_external_fields_only(self, de, owner, call):
        de.grant("intg", "knactor-checkout", role="integrator")
        handle = de.handle("knactor-checkout", principal="intg")
        call(owner.create("o1", {"cost": 10}))
        call(handle.patch("o1", {"shippingCost": 4.5, "trackingID": "t-1"}))
        with pytest.raises(AccessDeniedError):
            call(handle.patch("o1", {"cost": 0.01}))

    def test_ungranted_integrator_denied(self, de, call):
        handle = de.handle("knactor-checkout", principal="stranger")
        with pytest.raises(AccessDeniedError):
            call(handle.get("o1"))

    def test_integrator_cannot_delete(self, de, owner, call):
        de.grant("intg", "knactor-checkout", role="integrator")
        handle = de.handle("knactor-checkout", principal="intg")
        call(owner.create("o1", {"cost": 10}))
        with pytest.raises(AccessDeniedError):
            call(handle.delete("o1"))

    def test_secret_masked_for_integrator(self, de, owner, call):
        de.grant("intg", "knactor-checkout", role="integrator")
        handle = de.handle("knactor-checkout", principal="intg")
        call(owner.create("o1", {"cost": 10, "cardToken": "tok-1"}))
        view = call(handle.get("o1"))
        assert "cardToken" not in view["data"]
        assert view["data"]["cost"] == 10

    def test_secret_field_added_after_a_masked_read_is_hidden(
            self, de, owner, call):
        """``Schema.secret_fields`` is computed once per schema state:
        ``add_field`` must start a new one."""
        de.grant("intg", "knactor-checkout", role="integrator")
        handle = de.handle("knactor-checkout", principal="intg")
        call(owner.create("o1", {"cost": 10, "cardToken": "tok-1"}))
        assert "cardToken" not in call(handle.get("o1"))["data"]  # memoised
        schema = de.schema_for("knactor-checkout")
        listed = schema.secret_fields()
        listed.clear()  # callers get their own list
        assert [f.path for f in schema.secret_fields()] == ["cardToken"]
        schema.add_field(
            Field("cvv", annotations=parse_annotation("+kr: secret")))
        call(owner.patch("o1", {"cvv": "123"}))
        data = call(handle.get("o1"))["data"]
        assert "cvv" not in data and "cardToken" not in data
        assert data["cost"] == 10
        assert call(owner.get("o1"))["data"]["cvv"] == "123"

    def test_secret_visible_with_read_grant(self, de, owner, call):
        de.grant(
            "auditor",
            "knactor-checkout",
            verbs={"get"},
            read_fields=("cardToken",),
        )
        handle = de.handle("knactor-checkout", principal="auditor")
        call(owner.create("o1", {"cardToken": "tok-1"}))
        assert call(handle.get("o1"))["data"]["cardToken"] == "tok-1"

    def test_reader_grant_is_read_only(self, de, owner, call):
        de.grant("viewer", "knactor-checkout", role="reader")
        handle = de.handle("knactor-checkout", principal="viewer")
        call(owner.create("o1", {"cost": 10}))
        assert call(handle.get("o1"))["data"]["cost"] == 10
        with pytest.raises(AccessDeniedError):
            call(handle.patch("o1", {"shippingCost": 1}))


class TestWatch:
    def test_watch_events_masked_and_key_relative(self, env, de, owner, call):
        de.grant("intg", "knactor-checkout", role="integrator")
        handle = de.handle("knactor-checkout", principal="intg")
        events = []
        handle.watch(events.append)
        call(owner.create("o1", {"cost": 10, "cardToken": "tok"}))
        env.run()
        assert events[0].key == "o1"
        assert events[0].object["cost"] == 10
        assert "cardToken" not in events[0].object

    def test_watch_denied_without_grant(self, de):
        handle = de.handle("knactor-checkout", principal="stranger")
        with pytest.raises(AccessDeniedError):
            handle.watch(lambda e: None)

    def test_stores_isolated_on_shared_backend(self, env, de, owner, call):
        de.host_store(
            "knactor-shipping",
            "schema: OnlineRetail/v1/Shipping/Shipment\nitems: array\naddr: string\n",
            owner="shipping",
        )
        ship = de.handle("knactor-shipping", principal="shipping")
        events = []
        ship.watch(events.append)
        call(owner.create("o1", {"cost": 1}))
        call(ship.create("s1", {"addr": "x"}))
        env.run()
        assert [e.key for e in events] == ["s1"]


class TestSchemaEvolution:
    def test_compatible_update(self, de):
        wider = CHECKOUT_SCHEMA + "giftWrap: boolean\n"
        delta = de.update_schema("knactor-checkout", wider)
        assert delta.added == ["giftWrap"]
        assert de.schema_for("knactor-checkout").has_field("giftWrap")

    def test_breaking_update_blocked_then_forced(self, de):
        narrower = "schema: OnlineRetail/v1/Checkout/Order\ncost: number\n"
        with pytest.raises(SchemaError):
            de.update_schema("knactor-checkout", narrower)
        delta = de.update_schema("knactor-checkout", narrower, allow_breaking=True)
        assert "address" in delta.removed


class TestAuditIntegration:
    def test_every_access_audited(self, de, owner, call):
        call(owner.create("o1", {"cost": 1}))
        call(owner.get("o1"))
        call(owner.get("o1"))
        counts = {verb: n for (principal, _store, verb, _ok), n
                  in de.acl.audit.items() if principal == "checkout"}
        assert counts == {"create": 1, "get": 2}

    def test_denial_audited(self, de, call):
        handle = de.handle("knactor-checkout", principal="stranger")
        with pytest.raises(AccessDeniedError, match="no role grants this verb"):
            call(handle.get("o1"))
        assert de.acl.denials() == {("stranger", "knactor-checkout", "get"): 1}
