"""Unit tests for RBAC, field scoping, conditions, and the access counts."""

import pytest

from repro.errors import AccessDeniedError, ConfigurationError
from repro.exchange import AccessController, Permission, Role


@pytest.fixture
def acl():
    controller = AccessController()
    controller.add_role(
        Role("reader", [Permission("storeA", frozenset({"get", "watch"}))])
    )
    controller.add_role(
        Role(
            "writer",
            [
                Permission(
                    "storeA",
                    frozenset({"patch"}),
                    write_fields=("shippingCost", "quote"),
                )
            ],
        )
    )
    return controller


class TestRBAC:
    def test_unbound_principal_denied(self, acl):
        with pytest.raises(AccessDeniedError):
            acl.check("stranger", "storeA", "get")

    def test_bound_principal_allowed(self, acl):
        acl.bind("alice", "reader")
        acl.check("alice", "storeA", "get")  # no raise

    def test_verb_not_granted_denied(self, acl):
        acl.bind("alice", "reader")
        with pytest.raises(AccessDeniedError):
            acl.check("alice", "storeA", "delete")

    def test_wrong_store_denied(self, acl):
        acl.bind("alice", "reader")
        with pytest.raises(AccessDeniedError):
            acl.check("alice", "storeB", "get")

    def test_multiple_roles_union(self, acl):
        acl.bind("bob", "reader")
        acl.bind("bob", "writer")
        acl.check("bob", "storeA", "get")
        acl.check("bob", "storeA", "patch", fields=["shippingCost"])

    def test_unbind_revokes(self, acl):
        acl.bind("alice", "reader")
        acl.unbind("alice", "reader")
        with pytest.raises(AccessDeniedError):
            acl.check("alice", "storeA", "get")

    def test_bind_unknown_role_rejected(self, acl):
        with pytest.raises(ConfigurationError):
            acl.bind("alice", "nope")

    def test_unknown_verb_in_permission_rejected(self):
        with pytest.raises(ConfigurationError):
            Permission("s", frozenset({"frobnicate"}))

    def test_can_is_non_raising(self, acl):
        acl.bind("alice", "reader")
        assert acl.can("alice", "storeA", "get")
        assert not acl.can("alice", "storeA", "delete")
        assert acl.audit == {}  # and uncounted


class TestFieldScope:
    def test_scoped_write_allowed(self, acl):
        acl.bind("intg", "writer")
        acl.check("intg", "storeA", "patch", fields=["shippingCost"])

    def test_out_of_scope_write_denied(self, acl):
        acl.bind("intg", "writer")
        with pytest.raises(AccessDeniedError):
            acl.check("intg", "storeA", "patch", fields=["cost"])

    def test_prefix_covers_subpaths(self, acl):
        acl.bind("intg", "writer")
        acl.check("intg", "storeA", "patch", fields=["quote.price"])

    def test_prefix_does_not_cover_siblings(self, acl):
        acl.bind("intg", "writer")
        with pytest.raises(AccessDeniedError):
            acl.check("intg", "storeA", "patch", fields=["quoted"])

    def test_none_scope_means_all_fields(self, acl):
        acl.add_role(
            Role("owner", [Permission("storeA", frozenset({"patch"}), None)])
        )
        acl.bind("own", "owner")
        acl.check("own", "storeA", "patch", fields=["anything.at.all"])


class TestConditions:
    def test_condition_denies_despite_role(self, acl):
        acl.bind("alice", "reader")
        acl.add_condition(lambda p, s, v, now: now < 10.0)
        acl.check("alice", "storeA", "get", now=5.0)
        with pytest.raises(AccessDeniedError):
            acl.check("alice", "storeA", "get", now=15.0)

    def test_sleep_hours_policy_shape(self, acl):
        """The paper's example: no Lamp access during sleep hours."""
        acl.add_role(Role("house", [Permission("lamp", frozenset({"patch"}), None)]))
        acl.bind("house", "house")

        def awake(principal, store, verb, now):
            if store == "lamp" and principal == "house":
                return (now % 24.0) < 22.0  # sleep from hour 22 to 24
            return True

        acl.add_condition(awake)
        acl.check("house", "lamp", "patch", now=12.0)
        with pytest.raises(AccessDeniedError):
            acl.check("house", "lamp", "patch", now=23.0)


class TestVerdictIndex:
    """Verdicts are indexed after the first check; every policy change
    made after that check is honoured by the next one."""

    def test_bind_after_a_denial_grants(self, acl):
        assert not acl.can("alice", "storeA", "get")
        acl.bind("alice", "reader")
        acl.check("alice", "storeA", "get")

    def test_unbind_after_an_allowed_check_revokes(self, acl):
        acl.bind("alice", "reader")
        acl.check("alice", "storeA", "get")
        acl.unbind("alice", "reader")
        with pytest.raises(AccessDeniedError):
            acl.check("alice", "storeA", "get")

    def test_add_role_replacing_a_bound_name_is_honoured(self, acl):
        acl.bind("alice", "reader")
        acl.check("alice", "storeA", "get")
        acl.add_role(Role("reader", [Permission("storeA", frozenset({"list"}))]))
        assert not acl.can("alice", "storeA", "get")
        acl.check("alice", "storeA", "list")

    def test_role_add_on_a_registered_role_is_honoured(self, acl):
        acl.bind("alice", "reader")
        assert not acl.can("alice", "storeA", "delete")
        assert acl.readable_secret_fields("alice", "storeA") == set()
        acl._roles["reader"].add(Permission(
            "storeA", frozenset({"delete"}), read_fields=("card",)))
        acl.check("alice", "storeA", "delete")
        assert acl.readable_secret_fields("alice", "storeA") == {"card"}

    def test_write_scope_is_checked_on_every_call(self, acl):
        acl.bind("bob", "writer")
        acl.check("bob", "storeA", "patch", fields=["quote"])
        with pytest.raises(AccessDeniedError, match="write scope"):
            acl.check("bob", "storeA", "patch", fields=["secret"])

    def test_condition_vetoes_an_indexed_allowed_access(self, acl):
        acl.bind("alice", "reader")
        acl.check("alice", "storeA", "get")
        blocked = []
        acl.add_condition(lambda p, s, v, now: not blocked)
        acl.check("alice", "storeA", "get")
        blocked.append(True)  # a run-time condition, not a policy change
        with pytest.raises(AccessDeniedError, match="run-time policy"):
            acl.check("alice", "storeA", "get")
        assert acl.audit == {
            ("alice", "storeA", "get", True): 2,
            ("alice", "storeA", "get", False): 1,
        }


class TestAudit:
    def test_allowed_and_denied_recorded(self, acl):
        acl.bind("alice", "reader")
        acl.check("alice", "storeA", "get", now=1.0)
        with pytest.raises(AccessDeniedError, match="no role grants this verb"):
            acl.check("alice", "storeA", "delete", now=2.0)
        assert acl.audit == {
            ("alice", "storeA", "get", True): 1,
            ("alice", "storeA", "delete", False): 1,
        }

    def test_exchange_matrix(self, acl):
        acl.bind("alice", "reader")
        acl.check("alice", "storeA", "get")
        acl.check("alice", "storeA", "get")
        assert acl.exchange_matrix() == {("alice", "storeA"): 2}

    def test_denials_filter(self, acl):
        acl.bind("alice", "reader")
        acl.check("alice", "storeA", "get")
        with pytest.raises(AccessDeniedError):
            acl.check("alice", "storeA", "delete")
        assert acl.denials() == {("alice", "storeA", "delete"): 1}

    def test_an_early_access_stays_in_the_matrix_on_a_long_run(self, acl):
        """Counts are never rotated out: one access by ``early`` is still
        in the matrix after 100,000 more, and the total is exact."""
        acl.bind("early", "reader")
        acl.bind("busy", "reader")
        acl.check("early", "storeA", "get")
        for _ in range(100_000):
            acl.check("busy", "storeA", "watch")
        assert acl.exchange_matrix() == {
            ("early", "storeA"): 1,
            ("busy", "storeA"): 100_000,
        }
        assert sum(acl.audit.values()) == 100_001
