"""Server-side functions (UDFs) for integrator push-down.

The paper's §3.3 push-down optimization (evaluated as ``K-redis-udf`` in
Table 2) moves composition logic *into* the data store, the way Redis
Functions / stored procedures do.  A pushed-down integrator no longer pays
a network round trip per state access: its reads and writes execute inside
the store process at local-memory cost.

A UDF is a plain Python callable ``fn(ctx, *args)`` receiving a
:class:`UDFContext` bound to the live store.  Writes made through the
context commit through the store's normal path, so watchers still see
every change.
"""

import copy

from repro.errors import ConfigurationError, NotFoundError
from repro.store.cow import merge_patch


class UDFRegistry:
    """Named server-side functions, with per-function execution cost."""

    def __init__(self):
        self._functions = {}

    def register(self, name, fn, cost=0.0002):
        """Register ``fn`` under ``name``; ``cost`` is its CPU time (s)."""
        if not callable(fn):
            raise ConfigurationError(f"UDF {name!r} must be callable")
        if cost < 0:
            raise ConfigurationError(f"UDF {name!r} has negative cost")
        self._functions[name] = (fn, cost)

    def unregister(self, name):
        self._functions.pop(name, None)

    def get(self, name):
        try:
            return self._functions[name]
        except KeyError:
            raise NotFoundError(f"UDF {name!r} is not registered") from None

    def names(self):
        return sorted(self._functions)

    def __contains__(self, name):
        return name in self._functions

    def __len__(self):
        return len(self._functions)


class UDFContext:
    """Store access handle passed to a UDF while it runs server-side.

    Every access is counted; the server charges ``local_access_cost``
    per operation after the function returns (local memory ops, not
    network round trips -- this is the entire point of push-down).
    """

    def __init__(self, server):
        self._server = server
        self.ops = 0

    @property
    def now(self):
        return self._server.env.now

    def get(self, key):
        """Snapshot of one object's data (raises NotFoundError)."""
        self.ops += 1
        return self._server.op_get(key)

    def exists(self, key):
        self.ops += 1
        try:
            self._server.op_get(key)
            return True
        except NotFoundError:
            return False

    def list(self, key_prefix=""):
        self.ops += 1
        return self._server.op_list(key_prefix=key_prefix)

    def create(self, key, data):
        self.ops += 1
        return self._server.op_create(key=key, data=data)

    def update(self, key, data, resource_version=None):
        self.ops += 1
        return self._server.op_update(
            key=key, data=data, resource_version=resource_version
        )

    def patch(self, key, patch):
        self.ops += 1
        return self._server.op_patch(key=key, patch=patch)

    def delete(self, key):
        self.ops += 1
        return self._server.op_delete(key=key)


#: Overlay marker: the key was deleted inside the transaction.
_DELETED = object()


class TxnUDFContext(UDFContext):
    """Transactional variant: writes buffer, then commit as one ``txn``.

    A plain :class:`UDFContext` applies every write immediately, so a
    reconcile step that reads, computes, and writes can interleave with
    concurrent writers and commit half its effects.  This context gives
    the function snapshot-ish semantics instead:

    - **reads** pass through to the live store, and the revision seen at
      a key's *first* read is remembered;
    - **writes** buffer (in program order) and the function reads its
      own writes back through an overlay;
    - **commit** turns the buffer into one atomic ``op_txn`` batch, with
      the remembered read revision attached as a ``resource_version``
      precondition on the first buffered write to each read key.

    If any read key changed underneath the function, the whole batch
    aborts with a :class:`~repro.errors.ConflictError` and the caller
    (``op_fcall_txn``) re-runs the function against fresh state --
    optimistic concurrency at function granularity.
    """

    def __init__(self, server):
        super().__init__(server)
        self._read_versions = {}  # key -> revision at first live read
        self._buffer = []  # ops in program order
        self._overlay = {}  # key -> buffered data | _DELETED

    # -- reads: live store + read-your-writes overlay ------------------------

    def get(self, key):
        self.ops += 1
        staged = self._overlay.get(key)
        if staged is _DELETED:
            raise NotFoundError(f"object {key!r} not found (deleted in txn)")
        if staged is not None:
            return {"key": key, "data": copy.deepcopy(staged),
                    "revision": None, "buffered": True}
        view = self._server.op_get(key)
        self._read_versions.setdefault(key, view["revision"])
        return view

    def exists(self, key):
        self.ops += 1
        staged = self._overlay.get(key)
        if staged is _DELETED:
            return False
        if staged is not None:
            return True
        try:
            view = self._server.op_get(key)
        except NotFoundError:
            return False
        self._read_versions.setdefault(key, view["revision"])
        return True

    def list(self, key_prefix=""):
        self.ops += 1
        views = self._server.op_list(key_prefix=key_prefix)
        for view in views:
            self._read_versions.setdefault(view["key"], view["revision"])
        # Overlay wins: drop deletes, append buffered creates/updates.
        merged = [
            view for view in views
            if self._overlay.get(view["key"]) is None
        ]
        for key in sorted(self._overlay):
            staged = self._overlay[key]
            if staged is not _DELETED and key.startswith(key_prefix):
                merged.append({"key": key, "data": copy.deepcopy(staged),
                               "revision": None, "buffered": True})
        return merged

    # -- writes: buffered ----------------------------------------------------

    def create(self, key, data):
        self.ops += 1
        self._buffer.append(
            {"action": "create", "key": key, "data": copy.deepcopy(data)}
        )
        self._overlay[key] = copy.deepcopy(data)
        return {"key": key, "data": copy.deepcopy(data), "revision": None,
                "buffered": True}

    def update(self, key, data, resource_version=None):
        self.ops += 1
        op = {"action": "update", "key": key, "data": copy.deepcopy(data)}
        self._stamp_precondition(key, op, resource_version)
        self._buffer.append(op)
        self._overlay[key] = copy.deepcopy(data)
        return {"key": key, "data": copy.deepcopy(data), "revision": None,
                "buffered": True}

    def patch(self, key, patch):
        self.ops += 1
        op = {"action": "patch", "key": key, "patch": copy.deepcopy(patch)}
        self._stamp_precondition(key, op, None)
        self._buffer.append(op)
        base = self._overlay.get(key)
        if base is None or base is _DELETED:
            try:
                base = copy.deepcopy(self.get(key)["data"])
                self.ops -= 1  # get above already counted
            except NotFoundError:
                base = {}
        self._overlay[key] = merge_patch(base, patch)
        return {"key": key, "data": copy.deepcopy(self._overlay[key]),
                "revision": None, "buffered": True}

    def delete(self, key):
        self.ops += 1
        op = {"action": "delete", "key": key}
        self._stamp_precondition(key, op, None)
        self._buffer.append(op)
        self._overlay[key] = _DELETED
        return None

    def _stamp_precondition(self, key, op, explicit):
        """Attach the read-version precondition to a key's first write."""
        if explicit is not None:
            op["resource_version"] = explicit
            return
        first_write = not any(b["key"] == key for b in self._buffer)
        read_at = self._read_versions.get(key)
        if first_write and read_at is not None:
            op["resource_version"] = read_at

    def build_ops(self):
        """The buffered writes as one atomic ``txn`` batch (may be empty)."""
        return [copy.deepcopy(op) for op in self._buffer]

    @property
    def dirty(self):
        return bool(self._buffer)
