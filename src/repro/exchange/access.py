"""Role-based access control with field-level scoping (paper §3.3).

"Knactor ensures only authorized entities can access the states in the
data stores. [...] This can be done via the standard Role-based Access
Control (RBAC) [...] the data-centric approach allows finer-grained
access control over states, e.g., granting access to certain state
objects/fields but not others to specific roles."

Model:

- a :class:`Permission` allows a set of verbs on one store, optionally
  scoped to specific *writable* field paths and specific *readable*
  (unmask-able) secret fields;
- a :class:`Role` is a named bundle of permissions;
- principals (reconcilers, integrators, operators) are bound to roles;
- :class:`AccessController` answers ``check()`` queries, supports
  run-time policy predicates (e.g. the paper's "House should not access
  the Lamp during user-defined sleep hours"), and counts every check it
  answers: ``exchange_matrix()`` says who touches whose state, the
  visibility API-centric composition hides (paper Problem 3).
"""

from collections import Counter
from dataclasses import dataclass

from repro.errors import AccessDeniedError, ConfigurationError

#: The full verb set.  ``load``/``query`` are the Log DE's surface.
ALL_VERBS = frozenset(
    {"get", "list", "watch", "create", "update", "patch", "delete", "load", "query"}
)

READ_VERBS = frozenset({"get", "list", "watch", "query"})
WRITE_VERBS = frozenset({"create", "update", "patch", "delete", "load"})


@dataclass(frozen=True)
class Permission:
    """Allows ``verbs`` on ``store``.

    - ``write_fields``: if not None, writes may only touch these dotted
      field paths (a prefix covers its sub-paths).
    - ``read_fields``: secret fields this permission un-masks on read.
    """

    store: str
    verbs: frozenset
    write_fields: tuple = None
    read_fields: tuple = ()

    def __post_init__(self):
        bad = set(self.verbs) - ALL_VERBS
        if bad:
            raise ConfigurationError(f"unknown verb(s) {sorted(bad)}")

    def allows(self, store, verb):
        return store == self.store and verb in self.verbs

    def allows_field_write(self, path):
        if self.write_fields is None:
            return True
        return any(
            path == allowed or path.startswith(allowed + ".")
            for allowed in self.write_fields
        )


class Role:
    """A named bundle of permissions."""

    def __init__(self, name, permissions=()):
        if not name:
            raise ConfigurationError("role name must be non-empty")
        self.name = name
        self.permissions = list(permissions)
        self._controllers = []  # registered with: add clears their index

    def add(self, permission):
        self.permissions.append(permission)
        for controller in self._controllers:
            controller._index.clear()
        return self

    def __repr__(self):
        return f"<Role {self.name} permissions={len(self.permissions)}>"


class AccessController:
    """Binds principals to roles and answers access queries."""

    def __init__(self):
        self._roles = {}
        self._bindings = {}  # principal -> set of role names
        self._conditions = []  # callables(principal, store, verb, now) -> bool
        #: Every :meth:`check` counted by ``(principal, store, verb,
        #: allowed)``: exact for any run length, bounded by principals x
        #: stores x verbs.  Set to None, checks go uncounted.
        self.audit = Counter()
        #: ``(principal, store, verb)`` -> the permissions allowing it and
        #: ``(principal, store)`` -> the secret fields it may read; every
        #: policy change clears it.
        self._index = {}

    # -- policy management ---------------------------------------------------

    def add_role(self, role):
        self._roles[role.name] = role
        role._controllers.append(self)
        self._index.clear()
        return role

    def bind(self, principal, role_name):
        if role_name not in self._roles:
            raise ConfigurationError(f"unknown role {role_name!r}")
        self._bindings.setdefault(principal, set()).add(role_name)
        self._index.clear()

    def unbind(self, principal, role_name):
        self._bindings.get(principal, set()).discard(role_name)
        self._index.clear()

    def add_condition(self, predicate):
        """Add a run-time condition applied to *every* access.

        ``predicate(principal, store, verb, now) -> bool``; returning
        False denies the access even if a role allows it.  This is the
        mechanism behind data-centric policies like "no Lamp access
        during sleep hours".
        """
        self._conditions.append(predicate)
        self._index.clear()

    # -- queries ---------------------------------------------------------------

    def permissions_for(self, principal):
        perms = []
        for role_name in self._bindings.get(principal, ()):
            perms.extend(self._roles[role_name].permissions)
        return perms

    def _verdict(self, principal, store, verb, now, fields):
        """Why the access is denied, or ``""`` when it is allowed."""
        matching = self._index.get((principal, store, verb))
        if matching is None:
            matching = self._index[principal, store, verb] = [
                p for p in self.permissions_for(principal)
                if p.allows(store, verb)]
        if not matching:
            return "no role grants this verb"
        for path in fields or ():
            if not any(p.allows_field_write(path) for p in matching):
                return f"field {path!r} is outside the granted write scope"
        for predicate in self._conditions:
            if not predicate(principal, store, verb, now):
                return "denied by run-time policy condition"
        return ""

    def check(self, principal, store, verb, now=0.0, fields=None):
        """Raise :class:`AccessDeniedError` unless the access is allowed.

        ``fields`` (for writes) is the list of dotted paths being written;
        every one must be covered by some permission's field scope.
        """
        reason = self._verdict(principal, store, verb, now, fields)
        if self.audit is not None:
            self.audit[principal, store, verb, not reason] += 1
        if reason:
            raise AccessDeniedError(
                f"{principal!r} may not {verb} on {store!r}: {reason}"
            )

    def readable_secret_fields(self, principal, store):
        """Secret field paths this principal may see unmasked."""
        fields = self._index.get((principal, store))
        if fields is None:
            fields = self._index[principal, store] = frozenset(
                field for p in self.permissions_for(principal)
                if p.store == store for field in p.read_fields)
        return fields

    def can(self, principal, store, verb):
        """Non-raising, uncounted variant of :meth:`check`."""
        return not self._verdict(principal, store, verb, 0.0, None)

    def exchange_matrix(self):
        """``{(principal, store): count}`` of allowed accesses.

        This is the app-level data-exchange visibility the paper argues
        for: who touches whose state, measurable at run time.
        """
        matrix = Counter()
        for (principal, store, _verb, allowed), n in self.audit.items():
            if allowed:
                matrix[principal, store] += n
        return dict(matrix)

    def denials(self):
        """``{(principal, store, verb): count}`` of denied accesses."""
        return {(principal, store, verb): n
                for (principal, store, verb, allowed), n in self.audit.items()
                if not allowed}


@dataclass
class Grant:
    """Record of one integrator grant (used for introspection/UX)."""

    principal: str
    store: str
    verbs: frozenset
    write_fields: tuple = None
    note: str = ""
