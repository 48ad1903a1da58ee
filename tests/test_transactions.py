"""Tests for atomic transactions: backend, DE, and executor levels."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    AccessDeniedError,
    AlreadyExistsError,
    ConfigurationError,
    ConflictError,
    NotFoundError,
    SchemaError,
    StoreError,
)
from repro.exchange import ObjectDE
from repro.store import ApiServer, MemKV, MemKVClient
from repro.store.client import ObjectClient


@pytest.fixture
def client(env, zero_net):
    return ObjectClient(ApiServer(env, zero_net, watch_overhead=0.0), "t")


class TestBackendTxn:
    def test_create_and_patch_atomically(self, client, call):
        views = call(
            client.txn(
                [
                    {"action": "create", "key": "a", "data": {"v": 1}},
                    {"action": "create", "key": "b", "data": {"v": 2}},
                    {"action": "patch", "key": "a", "patch": {"w": 3}},
                ]
            )
        )
        assert len(views) == 3
        assert call(client.get("a"))["data"] == {"v": 1, "w": 3}
        assert call(client.get("b"))["data"] == {"v": 2}

    def test_any_failure_applies_nothing(self, client, call):
        call(client.create("existing", {"v": 0}))
        with pytest.raises(AlreadyExistsError):
            call(
                client.txn(
                    [
                        {"action": "create", "key": "new", "data": {"v": 1}},
                        {"action": "create", "key": "existing", "data": {}},
                    ]
                )
            )
        with pytest.raises(NotFoundError):
            call(client.get("new"))  # first op must NOT have applied

    def test_missing_target_aborts(self, client, call):
        with pytest.raises(NotFoundError):
            call(client.txn([{"action": "patch", "key": "ghost", "patch": {}}]))

    def test_stale_resource_version_aborts(self, client, call):
        created = call(client.create("k", {"v": 1}))
        call(client.update("k", {"v": 2}))
        with pytest.raises(ConflictError):
            call(
                client.txn(
                    [
                        {"action": "create", "key": "other", "data": {}},
                        {"action": "update", "key": "k", "data": {"v": 3},
                         "resource_version": created["revision"]},
                    ]
                )
            )
        with pytest.raises(NotFoundError):
            call(client.get("other"))

    def test_create_then_patch_same_key_is_legal(self, client, call):
        call(
            client.txn(
                [
                    {"action": "create", "key": "x", "data": {"v": 1}},
                    {"action": "patch", "key": "x", "patch": {"w": 2}},
                ]
            )
        )
        assert call(client.get("x"))["data"] == {"v": 1, "w": 2}

    def test_delete_within_txn(self, client, call):
        call(client.create("gone", {"v": 1}))
        call(
            client.txn(
                [
                    {"action": "delete", "key": "gone"},
                    {"action": "create", "key": "kept", "data": {}},
                ]
            )
        )
        with pytest.raises(NotFoundError):
            call(client.get("gone"))
        assert call(client.get("kept"))

    def test_empty_or_malformed_rejected(self, client, call):
        with pytest.raises(StoreError):
            call(client.txn([]))
        with pytest.raises(StoreError):
            call(client.txn([{"action": "explode", "key": "k"}]))
        with pytest.raises(StoreError):
            call(client.txn([{"action": "create"}]))

    def test_watchers_see_all_events_in_order(self, env, client, call):
        events = []
        client.watch(events.append)
        call(
            client.txn(
                [
                    {"action": "create", "key": "a", "data": {"v": 1}},
                    {"action": "create", "key": "b", "data": {"v": 2}},
                ]
            )
        )
        env.run()
        assert [e.key for e in events] == ["a", "b"]
        assert events[1].revision == events[0].revision + 1

    def test_memkv_txn_parity(self, env, zero_net, call):
        client = MemKVClient(MemKV(env, zero_net, watch_overhead=0.0), "t")
        call(
            client.txn(
                [
                    {"action": "create", "key": "a", "data": {"v": 1}},
                    {"action": "patch", "key": "a", "patch": {"v": 2}},
                ]
            )
        )
        assert call(client.get("a"))["data"] == {"v": 2}


ORDER_SCHEMA = """\
schema: App/v1/Checkout/Order
cost: number
trackingID: string # +kr: external
"""

SHIPMENT_SCHEMA = """\
schema: App/v1/Shipping/Shipment
addr: string # +kr: external
internal: string
"""


@pytest.fixture
def de(env, zero_net):
    exchange = ObjectDE(env, ApiServer(env, zero_net, watch_overhead=0.0))
    exchange.host_store("knactor-checkout", ORDER_SCHEMA, owner="checkout")
    exchange.host_store("knactor-shipping", SHIPMENT_SCHEMA, owner="shipping")
    exchange.grant("cast", "knactor-checkout", role="integrator")
    exchange.grant("cast", "knactor-shipping", role="integrator")
    return exchange


class TestDETransaction:
    def test_cross_store_atomic_commit(self, de, call):
        checkout = de.handle("knactor-checkout", principal="checkout")
        call(checkout.create("o1", {"cost": 10}))
        txn = de.transaction("cast")
        txn.patch("knactor-checkout", "o1", {"trackingID": "trk-1"})
        txn.create("knactor-shipping", "o1", {"addr": "12 Elm St"})
        views = call(txn.commit())
        assert len(views) == 2
        assert call(checkout.get("o1"))["data"]["trackingID"] == "trk-1"
        shipping = de.handle("knactor-shipping", principal="shipping")
        assert call(shipping.get("o1"))["data"]["addr"] == "12 Elm St"

    def test_acl_enforced_per_operation(self, de):
        txn = de.transaction("cast")
        with pytest.raises(AccessDeniedError):
            txn.patch("knactor-checkout", "o1", {"cost": 0.01})  # not external
        with pytest.raises(AccessDeniedError):
            de.transaction("stranger").patch(
                "knactor-checkout", "o1", {"trackingID": "x"}
            )

    def test_schema_enforced_per_operation(self, de):
        txn = de.transaction("checkout")
        with pytest.raises(SchemaError):
            txn.create("knactor-checkout", "o1", {"cost": "free"})

    def test_empty_and_double_commit_rejected(self, de, call):
        txn = de.transaction("checkout")
        with pytest.raises(ConfigurationError):
            txn.commit()
        txn.create("knactor-checkout", "o1", {"cost": 1})
        call(txn.commit())
        with pytest.raises(ConfigurationError):
            txn.commit()

    def test_failed_txn_leaves_no_partial_state(self, de, call):
        shipping = de.handle("knactor-shipping", principal="shipping")
        call(shipping.create("dup", {"internal": "x"}))
        txn = de.transaction("cast")
        txn.patch("knactor-checkout", "ghost", {"trackingID": "t"})  # missing
        txn.create("knactor-shipping", "fresh", {"addr": "a"})
        with pytest.raises(NotFoundError):
            call(txn.commit())
        with pytest.raises(NotFoundError):
            call(shipping.get("fresh"))


class TestTransactionalExecutor:
    def build(self, env, zero_net, transactional):
        from repro.core.dxg import DXGExecutor, parse_dxg
        from repro.core.dxg.executor import ExecutorOptions

        de = ObjectDE(env, ApiServer(env, zero_net, watch_overhead=0.0))
        de.host_store("knactor-checkout", ORDER_SCHEMA, owner="checkout")
        de.host_store("knactor-shipping", SHIPMENT_SCHEMA, owner="shipping")
        de.grant("cast", "knactor-checkout", role="integrator")
        de.grant("cast", "knactor-shipping", role="integrator")
        dxg = (
            "Input:\n"
            "  C: App/v1/Checkout/knactor-checkout\n"
            "  S: App/v1/Shipping/knactor-shipping\n"
            "DXG:\n"
            "  C:\n"
            "    trackingID: S.internal\n"
            "  S:\n"
            "    addr: concat('addr-for-', C.cost)\n"
        )
        executor = DXGExecutor(
            env, parse_dxg(dxg),
            handles={"C": de.handle("knactor-checkout", principal="cast"),
                     "S": de.handle("knactor-shipping", principal="cast")},
            options=ExecutorOptions(transactional=transactional),
        )
        return de, executor

    def test_transactional_matches_plain_results(self, env, zero_net, call):
        final = {}
        for transactional in (False, True):
            de, executor = self.build(env, zero_net, transactional)
            checkout = de.handle("knactor-checkout", principal="checkout")
            call(checkout.create(f"o-{transactional}", {"cost": 42}))
            call(executor.exchange(f"o-{transactional}"))
            shipping = de.handle("knactor-shipping", principal="shipping")
            final[transactional] = call(
                shipping.get(f"o-{transactional}")
            )["data"]
        assert final[True] == final[False]

    def test_one_commit_per_pass(self, env, zero_net, call):
        de, executor = self.build(env, zero_net, transactional=True)
        checkout = de.handle("knactor-checkout", principal="checkout")
        call(checkout.create("o1", {"cost": 42}))
        stats = call(executor.exchange("o1"))
        assert stats.writes == 1  # the shipment create, one atomic commit
        assert stats.creates == 1

    def test_transactional_idempotent(self, env, zero_net, call):
        de, executor = self.build(env, zero_net, transactional=True)
        checkout = de.handle("knactor-checkout", principal="checkout")
        call(checkout.create("o1", {"cost": 42}))
        call(executor.exchange("o1"))
        stats = call(executor.exchange("o1"))
        assert stats.writes == 0


# ---------------------------------------------------------------------------
# Validation reads only the keys a transaction names
# ---------------------------------------------------------------------------

TXN_KEYS = ["a", "b", "c"]


def shadow_validate(server, ops):
    """Transaction validation as it was: a ``{key: revision}`` shadow of
    the whole keyspace, then every op checked against it."""
    if not isinstance(ops, list) or not ops:
        raise StoreError("transaction needs a non-empty op list")
    shadow = {key: obj.revision for key, obj in server._objects.items()}
    for index, op in enumerate(ops):
        action = op.get("action")
        key = op.get("key")
        if action not in ("create", "update", "patch", "delete"):
            raise StoreError(f"txn op {index}: unknown action {action!r}")
        if not key:
            raise StoreError(f"txn op {index}: missing key")
        server._check_txn_lock(key)
        if action == "create":
            if key in shadow:
                raise AlreadyExistsError(
                    f"txn op {index}: object {key!r} already exists"
                )
            shadow[key] = ("txn", index)
        else:
            if key not in shadow:
                raise NotFoundError(f"txn op {index}: object {key!r} not found")
            expected = op.get("resource_version")
            current = shadow[key]
            if expected is not None and current != expected:
                if isinstance(current, tuple):
                    actual = (
                        f"already rewritten by op {current[1]} "
                        f"of this transaction"
                    )
                else:
                    actual = f"is {current}"
                raise ConflictError(
                    f"txn op {index}: object {key!r} changed "
                    f"(expected revision {expected}, {actual})"
                    + server._ownership_note(key)
                )
            if action == "delete":
                del shadow[key]
            else:
                shadow[key] = ("txn", index)


def verdict(validate, ops):
    try:
        validate(ops)
    except StoreError as error:
        return type(error), str(error)
    return None


TXN_OP = st.fixed_dictionaries(
    {"key": st.sampled_from(TXN_KEYS + ["other", ""])},
    optional={
        "action": st.sampled_from(["create", "update", "patch", "delete",
                                   "explode"]),
        "resource_version": st.one_of(st.none(), st.integers(1, 8)),
    },
)


@settings(max_examples=300, deadline=None)
@given(live=st.lists(st.sampled_from(TXN_KEYS), unique=True),
       rewrites=st.lists(st.sampled_from(TXN_KEYS), max_size=4),
       locked=st.lists(st.sampled_from(TXN_KEYS + ["other"]), unique=True,
                       max_size=2),
       ops=st.one_of(st.lists(TXN_OP, max_size=6), st.just({})))
@example(live=["a"], rewrites=[], locked=[], ops=[
    {"action": "create", "key": "b"},
    {"action": "patch", "key": "b", "resource_version": 1},
])
@example(live=["a"], rewrites=[], locked=[], ops=[
    {"action": "delete", "key": "a"},
    {"action": "create", "key": "a"},
    {"action": "update", "key": "a"},
])
@example(live=["a"], rewrites=["a"], locked=[], ops=[
    {"action": "patch", "key": "a", "resource_version": 1},
])
@example(live=["a", "b"], rewrites=[], locked=["b"], ops=[
    {"action": "patch", "key": "a"}, {"action": "patch", "key": "b"},
])
def test_validation_overlay_matches_the_keyspace_shadow(live, rewrites,
                                                        locked, ops):
    """Same verdict, same error type, same message -- for create-then-
    patch, delete-then-create, stale ``resource_version`` and keys held
    by an in-doubt prepared transaction."""
    from repro.simnet import Environment, FixedLatency, Network

    env = Environment()
    server = MemKV(env, Network(env, default_latency=FixedLatency(0.0)),
                   watch_overhead=0.0)
    for key in live:
        server.op_create(key, {"v": 0})
    for key in rewrites:
        if key in live:
            server.op_patch(key, {"v": 1})
    if locked:
        server.op_txn_prepare("held", [
            {"action": "patch" if key in live else "create", "key": key,
             "patch": {}, "data": {}}
            for key in locked
        ])
    assert verdict(server._validate_txn, ops) \
        == verdict(lambda ops: shadow_validate(server, ops), ops)


SECRET_ORDER_SCHEMA = """\
schema: App/v1/Checkout/Order
cost: number
cardToken: string # +kr: secret
trackingID: string # +kr: external
"""


class TestCommitRepliesLikeAHandle:
    @pytest.fixture
    def secret_de(self, env, zero_net, call):
        exchange = ObjectDE(env, ApiServer(env, zero_net, watch_overhead=0.0))
        exchange.host_store("knactor-checkout", SECRET_ORDER_SCHEMA,
                            owner="checkout")
        exchange.grant("cast", "knactor-checkout", role="integrator")
        checkout = exchange.handle("knactor-checkout", principal="checkout")
        call(checkout.create("o1", {"cost": 10, "cardToken": "tok-1"}))
        return exchange

    def test_secret_fields_masked_for_a_principal_without_read(
            self, secret_de, call):
        txn = secret_de.transaction("cast")
        txn.patch("knactor-checkout", "o1", {"trackingID": "trk-1"})
        (view,) = call(txn.commit())
        assert "cardToken" not in view["data"]
        assert view["data"]["trackingID"] == "trk-1"
        assert view["key"] == "o1"  # store-relative, like a handle reply
        handle = secret_de.handle("knactor-checkout", principal="cast")
        assert view == call(handle.get("o1"))

    def test_owner_still_reads_secrets_and_deletes_reply_none(
            self, secret_de, call):
        txn = secret_de.transaction("checkout")
        txn.patch("knactor-checkout", "o1", {"cost": 12})
        txn.create("knactor-checkout", "o2", {"cost": 1, "cardToken": "t2"})
        txn.delete("knactor-checkout", "o1")
        patched, created, deleted = call(txn.commit())
        assert patched["data"]["cardToken"] == "tok-1"
        assert (patched["key"], created["key"]) == ("o1", "o2")
        assert created["data"]["cardToken"] == "t2"
        assert deleted is None

    def test_cross_shard_commit_masks_every_participant_view(self, env,
                                                             zero_net, call):
        from repro.store import ShardedStore, ShardRing

        shards = [ApiServer(env, zero_net, location=f"shard-{i}",
                            watch_overhead=0.0) for i in range(2)]
        exchange = ObjectDE(env, ShardedStore(shards, name="txnstore"))
        exchange.host_store("knactor-checkout", SECRET_ORDER_SCHEMA,
                            owner="checkout")
        exchange.grant("cast", "knactor-checkout", role="integrator")
        ring = ShardRing.for_count(2)
        keys, owners = [], set()
        for n in range(100):
            owner = ring.owner_index(f"knactor-checkout/o{n}")
            if owner not in owners:
                owners.add(owner)
                keys.append(f"o{n}")
        assert len(keys) == 2
        checkout = exchange.handle("knactor-checkout", principal="checkout")
        for key in keys:
            call(checkout.create(key, {"cost": 1, "cardToken": "secret"}))
        txn = exchange.transaction("cast", mode="2pc")
        for key in keys:
            txn.patch("knactor-checkout", key, {"trackingID": f"trk-{key}"})
        views = call(txn.commit())
        assert sorted(view["key"] for view in views) == sorted(keys)
        assert all("cardToken" not in view["data"] for view in views)
