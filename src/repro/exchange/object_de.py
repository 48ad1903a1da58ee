"""The Object Data Exchange.

Hosts attribute-value data stores ("keeps states as attribute-value pairs
in a k-v store and exposes APIs for CRUD operations", paper §3.2) on either
Object backend -- the apiserver-like store or the Redis-like store -- which
is exactly the ``K-apiserver`` vs ``K-redis`` axis of Table 2.

Every handle operation:

1. passes RBAC (+ field-scope for writes, + run-time conditions),
2. validates the payload against the store's schema,
3. executes on the backend with real (virtual-clock) latency,
4. masks ``+kr: secret`` fields on the way out for non-privileged readers.
"""

from repro.errors import ConfigurationError
from repro.exchange.base import DataExchange, StoreHandle
from repro.schema.validation import validate_state
from repro.store.apiserver import ApiServer
from repro.store.base import WatchEvent
from repro.store.client import ObjectClient
from repro.store.memkv import MemKV, MemKVClient
from repro.store.sharded import ShardedStore, ShardedStoreClient
from repro.util.paths import get_path, walk_leaves


class ObjectDE(DataExchange):
    """Object exchange over an apiserver-like, Redis-like, or sharded backend."""

    def __init__(self, env, backend, name="object-de", retry_policy=None,
                 watch_credits=None, watch_overflow=None):
        if not isinstance(backend, (ApiServer, MemKV, ShardedStore)):
            raise ConfigurationError(
                f"ObjectDE needs an ApiServer, MemKV, or ShardedStore "
                f"backend, got {type(backend).__name__}"
            )
        super().__init__(env, backend, name, retry_policy=retry_policy,
                         watch_credits=watch_credits,
                         watch_overflow=watch_overflow)

    def _client(self, location, retry_policy=None):
        policy = retry_policy if retry_policy is not None else self.retry_policy
        if isinstance(self.backend, ShardedStore):
            return ShardedStoreClient(self.backend, location, retry_policy=policy)
        if isinstance(self.backend, MemKV):
            return MemKVClient(self.backend, location, retry_policy=policy)
        return ObjectClient(self.backend, location, retry_policy=policy)

    def _role_policy(self, role, store_name):
        """Integrator: read + writes scoped to ``+kr: external``.  Reader:
        read-only."""
        if role == "integrator":
            schema = self.schema_for(store_name)
            external = tuple(f.path for f in schema.external_fields())
            return (
                {"get", "list", "watch", "patch", "create"},
                external,
                "integrator grant (external fields only)",
            )
        if role == "reader":
            return {"get", "list", "watch"}, (), "read-only grant"
        return super()._role_policy(role, store_name)

    def _make_handle(self, hosted, principal, location, retry_policy):
        return ObjectStoreHandle(
            de=self,
            hosted=hosted,
            principal=principal,
            client=self._client(location, retry_policy),
        )

    def transaction(self, principal, location=None, mode=None,
                    idempotence_key=None):
        """Start an atomic multi-store transaction (paper §5).

        Operations may span any stores hosted on THIS exchange (they share
        a backend, which is what makes atomicity cheap).  Every queued
        operation passes the same access-control and schema checks a
        handle would apply; ``commit()`` applies all of them in one
        backend round trip, all-or-nothing.

        On a sharded backend, a batch whose keys land on several shards
        needs ``mode="2pc"`` (and optionally an ``idempotence_key`` for
        exactly-once submission) -- otherwise
        ``commit()`` fails with
        :class:`~repro.errors.CrossShardTxnError`.
        """
        return Transaction(
            de=self,
            principal=principal,
            client=self._client(location if location is not None else principal),
            mode=mode,
            idempotence_key=idempotence_key,
        )

    @property
    def supports_udf(self):
        """True when the backend can run pushed-down integrator logic."""
        return isinstance(self.backend, MemKV)


class ObjectStoreHandle(StoreHandle):
    """A principal's access handle to one hosted Object store."""

    # -- helpers -----------------------------------------------------------

    def _key(self, key):
        return f"{self.hosted.name}/{key}"

    def _mask(self, view):
        """Strip secret fields unless this principal may read them.

        How the masked data is built (path copy sharing the unmasked
        subtrees, or a deep copy) is the backend's copy policy.
        """
        secrets = self.schema.secret_fields()
        if not secrets:
            return view
        readable = self.de.acl.readable_secret_fields(
            self.principal, self.hosted.name
        )
        if "*" in readable:
            return view
        hidden = [f.path for f in secrets if f.path not in readable]
        if not hidden:
            return view
        masked = dict(view)
        masked["data"] = self.client.copies.mask(
            view["data"], hidden, self.client.copy_meter
        )
        return masked

    @staticmethod
    def _patch_paths(patch):
        return [".".join(str(p) for p in path) for path, _ in walk_leaves(patch)]

    # -- operations (each returns a simnet process event) --------------------

    def create(self, key, data):
        self._check("create", fields=self._patch_paths(data))
        validate_state(data, self.schema).raise_if_invalid()
        return self._masked_request(self.client.create(self._key(key), data))

    def get(self, key):
        self._check("get")
        return self._masked_request(self.client.get(self._key(key)))

    def update(self, key, data, resource_version=None):
        self._check("update", fields=self._patch_paths(data))
        validate_state(data, self.schema).raise_if_invalid()
        return self._masked_request(
            self.client.update(self._key(key), data, resource_version)
        )

    def patch(self, key, patch, resource_version=None):
        self._check("patch", fields=self._patch_paths(patch))
        validate_state(patch, self.schema, partial=True).raise_if_invalid()
        return self._masked_request(
            self.client.patch(self._key(key), patch, resource_version)
        )

    def delete(self, key):
        self._check("delete")
        return self.client.delete(self._key(key))

    def list(self, prefix=""):
        self._check("list")

        def run(env):
            views = yield self.client.list(self._key(prefix))
            return [self._strip_prefix(self._mask(v)) for v in views]

        return self.env.process(run(self.env))

    def watch(self, handler, prefix="", *, on_close=None, credits=None,
              overflow=None):
        """Watch this store; events carry keys relative to the store.

        ``handler`` sees each event masked and prefix-stripped.
        ``on_close`` fires if the backend drops the watch (failover) or
        credit flow control forces a slow-consumer resync; a
        :class:`~repro.store.follow.Follower` then re-watches and runs
        the caller's catch-up.  ``credits``/``overflow`` override the
        handle's flow-control defaults for this stream.
        """
        self._check("watch")

        def wrapped(event):
            view = self._mask({"data": event.object})
            handler(WatchEvent(
                type=event.type,
                key=event.key[len(self.hosted.key_prefix) :],
                object=view["data"],
                revision=event.revision,
                ctx=event.ctx,
                committed_at=event.committed_at,
            ))

        return self.client.watch(
            wrapped, key_prefix=self.hosted.key_prefix + prefix,
            on_close=on_close, credits=credits, overflow=overflow,
        )

    def read_field(self, key, path):
        """Convenience: read one dotted field of one object (None when
        the object has no such field)."""

        def run(env):
            view = yield self.get(key)
            return get_path(view["data"], path, default=None)

        return self.env.process(run(self.env))

    # -- internals ------------------------------------------------------------

    def _masked_request(self, request):
        def run(env):
            view = yield request
            return self._strip_prefix(self._mask(view))

        return self.env.process(run(self.env))

    def _strip_prefix(self, view):
        out = dict(view)
        key = out.get("key", "")
        if key.startswith(self.hosted.key_prefix):
            out["key"] = key[len(self.hosted.key_prefix) :]
        return out


class Transaction:
    """An atomic batch of checked operations across one DE's stores."""

    def __init__(self, de, principal, client, mode=None, idempotence_key=None):
        self.de = de
        self.principal = principal
        self.client = client
        self.mode = mode
        self.idempotence_key = idempotence_key
        self._ops = []
        self._handles = {}  # backend key -> the handle its view is read by
        self.committed = False

    def __len__(self):
        return len(self._ops)

    def _admit(self, verb, store_name, key, payload_fields=()):
        hosted = self.de.store(store_name)
        self.de.acl.check(
            self.principal, store_name, verb,
            now=self.de.env.now, fields=payload_fields,
        )
        key = f"{hosted.key_prefix}{key}"
        self._handles[key] = ObjectStoreHandle(
            self.de, hosted, self.principal, self.client)
        return hosted, key

    @staticmethod
    def _paths(payload):
        return [".".join(str(p) for p in path) for path, _ in walk_leaves(payload)]

    def create(self, store_name, key, data):
        hosted, key = self._admit("create", store_name, key, self._paths(data))
        validate_state(data, hosted.schema).raise_if_invalid()
        self._ops.append({"action": "create", "key": key, "data": data})
        return self

    def update(self, store_name, key, data, resource_version=None):
        hosted, key = self._admit("update", store_name, key, self._paths(data))
        validate_state(data, hosted.schema).raise_if_invalid()
        self._ops.append({"action": "update", "key": key, "data": data,
                          "resource_version": resource_version})
        return self

    def patch(self, store_name, key, patch, resource_version=None):
        hosted, key = self._admit("patch", store_name, key, self._paths(patch))
        validate_state(patch, hosted.schema, partial=True).raise_if_invalid()
        self._ops.append({"action": "patch", "key": key, "patch": patch,
                          "resource_version": resource_version})
        return self

    def delete(self, store_name, key):
        _hosted, key = self._admit("delete", store_name, key)
        self._ops.append({"action": "delete", "key": key})
        return self

    def commit(self):
        """Apply atomically; returns a process event with the views, each
        as a handle would reply to this principal (None for a delete)."""
        if self.committed:
            raise ConfigurationError("transaction already committed")
        if not self._ops:
            raise ConfigurationError("empty transaction")
        self.committed = True
        if self.mode is None:
            request = self.client.txn(self._ops)
        else:
            # Cross-shard plane: only the sharded client understands
            # modes; surface a clear error on single-server backends
            # (where every batch is already atomic and mode is noise).
            try:
                request = self.client.txn(
                    self._ops, mode=self.mode,
                    idempotence_key=self.idempotence_key,
                )
            except TypeError:
                raise ConfigurationError(
                    f"backend {self.client.server.location!r} does not "
                    "support cross-shard txn modes; drop mode="
                    f"{self.mode!r} (single-server txns are atomic "
                    "already)"
                ) from None
        return self.de.env.process(self._replies(request))

    def _replies(self, request):
        views = yield request
        return [None if view is None else self._reply(view) for view in views]

    def _reply(self, view):
        handle = self._handles[view["key"]]
        return handle._strip_prefix(handle._mask(view))
