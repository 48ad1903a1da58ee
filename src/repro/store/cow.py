"""Copy-on-write object representation: the zero-copy state plane.

The paper names **zero-copy** state sharing as one of Knactor's four
performance optimizations (§3.3).  The Object/Log hot paths used to
``copy.deepcopy`` every object on read, patch, watch delivery, RBAC
masking, and scan -- O(object) work per touch.  This module replaces
those copies with an immutable, structurally-shared representation:

- :class:`CowMap` / :class:`CowList` -- frozen ``dict`` / ``list``
  subclasses.  Being subclasses, every existing ``isinstance`` check,
  JSON encoder, and read path works unchanged; every mutator raises
  :class:`FrozenViewError`.  "Handing out a snapshot" becomes handing
  out the frozen view itself: O(1), zero bytes copied.
- :func:`freeze` -- the single ingest copy: convert caller-owned data
  into frozen containers once, at write time (leaves are shared;
  strings/numbers are immutable anyway).
- :func:`merge_shared` -- JSON-merge-patch by **path copy**: only the
  containers along patched paths are re-created; untouched siblings are
  shared by reference with the previous version.  "Copy" becomes
  O(depth of the patch), not O(object).
- :func:`set_shared` -- the same path copy for one dotted-path write
  into a caller-owned dict over shared children (the DXG working copy).
- :func:`thaw` -- the escape hatch: a plain, mutable deep copy for code
  that genuinely needs to edit a view locally.  ``copy.deepcopy`` on a
  frozen view does the same, so legacy copy-then-mutate code keeps
  working by construction.
- :class:`SharedState` / :class:`CopiedState` -- the copy policy.  A
  store is built with one of them (``zero_copy=``) and every site that
  takes state in, patches it, hands it out or masks it asks the policy;
  no site decides for itself.  ``CopiedState`` is the deep-copy
  reference the zero-copy claim is measured against.
- :class:`CopyMeter` -- copy accounting, so "we stopped copying" is a
  measured claim (``tests/test_plane_claims.py``), not vibes.
- :func:`estimate_size` -- the byte model behind every size-dependent
  latency and every metered copy.  A frozen node never changes, so it
  remembers its size the first time it is asked: a path-copy merge
  re-creates only the nodes along the patch, every shared subtree keeps
  its memo, and sizing the patched object costs O(re-created path).

Versions are persistent-data-structure style: a store that patches an
object gets a NEW frozen root sharing all unpatched subtrees with the
old one, so views handed out earlier remain consistent point-in-time
snapshots for free.
"""

import copy

from repro.util.paths import delete_path, get_path, set_path, split


class FrozenViewError(TypeError):
    """A mutation was attempted on a frozen (zero-copy) view.

    Reads from the state plane are immutable by design: they alias the
    store's live structure.  Use ``thaw()`` (or ``copy.deepcopy``) for a
    private mutable copy, or go through the store's patch/update APIs.
    """


def _blocked(name):
    def method(self, *args, **kwargs):
        raise FrozenViewError(
            f"cannot {name}() a frozen view; thaw() it for a mutable copy "
            "or mutate through the store's patch/update APIs"
        )

    method.__name__ = name
    return method


class CowMap(dict):
    """A frozen dict view.  Reads are plain dict reads; writes raise."""

    #: ``estimate_size`` memo; unset until the node is first sized.
    __slots__ = ("_size",)

    __setitem__ = _blocked("__setitem__")
    __delitem__ = _blocked("__delitem__")
    clear = _blocked("clear")
    pop = _blocked("pop")
    popitem = _blocked("popitem")
    setdefault = _blocked("setdefault")
    update = _blocked("update")
    __ior__ = _blocked("__ior__")

    def thaw(self):
        """A plain, mutable deep copy (leaves shared; they are immutable)."""
        return thaw(self)

    # ``copy.copy`` / ``copy.deepcopy`` hand back PLAIN containers: the
    # whole point of copying a frozen view is to mutate the result, and
    # this keeps pre-zero-copy code (copy-then-edit) working unchanged.
    def __copy__(self):
        return dict(self)

    def __deepcopy__(self, memo):
        return thaw(self)

    def __reduce__(self):
        return (dict, (dict(self),))


class CowList(list):
    """A frozen list view.  Reads are plain list reads; writes raise."""

    __slots__ = ("_size",)

    __setitem__ = _blocked("__setitem__")
    __delitem__ = _blocked("__delitem__")
    __iadd__ = _blocked("__iadd__")
    __imul__ = _blocked("__imul__")
    append = _blocked("append")
    extend = _blocked("extend")
    insert = _blocked("insert")
    pop = _blocked("pop")
    remove = _blocked("remove")
    sort = _blocked("sort")
    reverse = _blocked("reverse")
    clear = _blocked("clear")

    def thaw(self):
        return thaw(self)

    def __copy__(self):
        return list(self)

    def __deepcopy__(self, memo):
        return thaw(self)

    def __reduce__(self):
        return (list, (list(self),))


def is_frozen(value):
    return isinstance(value, (CowMap, CowList))


def freeze(value, meter=None, site="ingest"):
    """Frozen version of ``value`` (the one ingest copy).

    Containers are re-created as frozen views; leaves are shared.
    Already-frozen subtrees are returned as-is -- re-freezing shared
    state is free, which is what makes path-copy merges cheap.
    """
    if is_frozen(value):
        return value
    if isinstance(value, dict):
        out = CowMap(
            (key, freeze(item)) for key, item in value.items()
        )
    elif isinstance(value, (list, tuple)):
        out = CowList(freeze(item) for item in value)
    else:
        return value
    if meter is not None:
        meter.record(estimate_size(out), site)
    return out


def thaw(value):
    """Plain mutable deep copy of a (possibly frozen) structure."""
    if isinstance(value, dict):
        return {key: thaw(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [thaw(item) for item in value]
    return value


def merge_shared(base, patch, meter=None, site="merge"):
    """JSON-merge-patch by path copy: returns a NEW frozen map.

    Semantics match :func:`merge_patch` (``None`` deletes, nested
    dicts merge per key, everything else replaces) --
    but only the containers along patched paths are allocated; all
    untouched subtrees are shared by reference with ``base``.  ``base``
    itself is never modified, so earlier views stay consistent.
    """
    merged = _merge_shared(base, patch)
    if meter is not None:
        # The actual allocation: re-pointed entries along patched paths
        # plus the frozen patch payload -- NOT the whole object.
        meter.record(_path_copy_size(base, patch), site)
    return merged


def _merge_shared(base, patch):
    out = dict(base)  # shallow: shares every subtree reference
    for key, value in patch.items():
        if value is None:
            out.pop(key, None)
        elif isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_shared(out[key], value)
        else:
            out[key] = freeze(value)
    return CowMap(out)


def _path_copy_size(base, patch):
    """Bytes materialized by one path-copy merge of ``patch`` into ``base``."""
    # Each re-created node costs its key slots (pointer work), plus the
    # new leaf payloads actually written.
    size = 2 + 8 * (len(base) + 1)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            size += _path_copy_size(base[key], value)
        elif value is not None:
            size += estimate_size(value)
    return size


def set_shared(obj, path, value):
    """:func:`~repro.util.paths.set_path` by path copy, for a plain dict
    ``obj`` the caller owns whose children may be shared (frozen) state:
    every container on the way to the leaf is replaced in its parent by
    a plain shallow copy before it is written, so only ``obj`` is
    mutated and everything off the path stays shared."""
    parts = split(path)
    for part in parts[:-1]:
        child = get_path(obj, [part], default=_MISSING)
        child = {} if child is _MISSING else copy.copy(child)
        set_path(obj, [part], child)
        obj = child
    set_path(obj, parts[-1:], value)


def diff_shared(old, new):
    """The JSON-merge-patch turning ``old`` into ``new`` (both dicts).

    This is the delta the replication protocol ships instead of a full
    snapshot: keys present only in ``old`` become ``None`` (deletion
    markers), changed nested dicts recurse, everything else carries the
    new value.  Returns ``{}`` when the objects are equal.
    """
    delta = {}
    for key, value in new.items():
        previous = old.get(key, _MISSING)
        if previous is value or previous == value:
            continue
        if isinstance(value, dict) and isinstance(previous, dict):
            inner = diff_shared(previous, value)
            if inner:
                delta[key] = inner
        else:
            delta[key] = value
    for key in old:
        if key not in new:
            delta[key] = None
    return delta


def mask_shared(data, paths, meter=None):
    """Frozen view of ``data`` with the dotted ``paths`` removed.

    The RBAC masking path: instead of deep-copying the whole object and
    deleting secret leaves from the copy, express the mask as a deletion
    merge-patch and apply it by path copy -- unmasked subtrees are
    shared with the original view.
    """
    patch = {}
    for path in paths:
        parts = split(path)
        parent = data if len(parts) == 1 else get_path(
            data, parts[:-1], default=None
        )
        if isinstance(parent, dict) and parts[-1] in parent:
            node = patch
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = None
    if not patch:
        return freeze(data)
    return merge_shared(data, patch, meter=meter, site="mask")


_MISSING = object()


def copy_value(value, meter=None, site="snapshot"):
    """Classic deep copy, metered -- the baseline the COW path replaces."""
    if meter is not None:
        meter.record(estimate_size(value), site)
    return copy.deepcopy(value)


def merge_patch(data, patch):
    """JSON-merge-patch onto a deep copy of ``data`` -- the reference
    :func:`merge_shared` is checked against.

    Dicts merge per key, everything else replaces, ``None`` deletes.
    """
    result = copy.deepcopy(data)
    _merge_into(result, patch)
    return result


def _merge_into(target, patch):
    for key, value in patch.items():
        if value is None:
            target.pop(key, None)
        elif isinstance(value, dict) and isinstance(target.get(key), dict):
            _merge_into(target[key], value)
        else:
            target[key] = copy.deepcopy(value)


def retain(value):
    """``value`` in a form safe to keep across later writes: a frozen
    view is kept as is, anything mutable as a private deep copy."""
    return value if is_frozen(value) else copy.deepcopy(value)


class SharedState:
    """Copy policy of a ``zero_copy=True`` store.

    State is frozen once on the way in; every later hand-out aliases
    the frozen structure and a patch re-creates only the patched paths.
    A store picks its policy once, at construction, and every site that
    takes in, patches, hands out or masks state goes through it.  Each
    method names the :class:`CopyMeter` site it accounts to;
    ``meter=None`` (WAL replay) leaves the work unmetered.
    """

    def ingest(self, value, meter=None, stamp=None):
        """The one write-time copy (site ``ingest``); ``stamp`` adds
        store-assigned fields to a Log row."""
        frozen = freeze(value, meter, "ingest")
        return CowMap({**frozen, **stamp}) if stamp else frozen

    def merge(self, base, patch, meter=None):
        """``base`` with a merge-patch applied (site ``merge``)."""
        return merge_shared(base, patch, meter)

    def snapshot(self, value, meter, site="snapshot"):
        """Stored state as handed to a reader, watcher or scan: it is
        frozen, so the view IS the snapshot."""
        meter.shared(estimate_size(value))
        return value

    def cached(self, view, meter):
        """A read-cache hit.  The cached ``data`` is already frozen, so
        freezing the envelope around it copies nothing."""
        hit = freeze(view)
        meter.shared(estimate_size(view))
        return hit

    def mask(self, value, paths, meter=None):
        """``value`` without the dotted ``paths`` (site ``mask``)."""
        return mask_shared(value, paths, meter=meter)


class CopiedState:
    """Copy policy of a ``zero_copy=False`` store: deep-copy at every
    site :class:`SharedState` aliases.  The reference the zero-copy
    claim is measured and property-tested against."""

    def ingest(self, value, meter=None, stamp=None):
        copied = copy_value(value, meter, "ingest")
        if stamp:
            copied.update(stamp)
        return copied

    def merge(self, base, patch, meter=None):
        return merge_patch(base, patch)

    def snapshot(self, value, meter, site="snapshot"):
        return copy_value(value, meter, site)

    def cached(self, view, meter):
        return copy_value(view, meter, "cache")

    def mask(self, value, paths, meter=None):
        copied = copy_value(value, meter, "mask")
        for path in paths:
            delete_path(copied, path)
        return copied


class CopyMeter:
    """Counts bytes materialized by state-plane copies, by site.

    Sites: ``ingest`` (data entering the store -- paid in every mode),
    ``snapshot`` (read/watch/view copies), ``merge`` (patch
    application), ``mask`` (RBAC masking), ``scan`` (Log scans),
    ``cache`` (informer read cache hits), ``wal`` (durable encoding).
    ``shared`` counts the reads that aliased instead of copying, and
    ``shared_bytes_avoided`` estimates what they would have copied.
    """

    def __init__(self):
        self.copied_bytes = 0
        self.copies = 0
        self.by_site = {}
        self.shared_views = 0
        self.shared_bytes_avoided = 0

    def record(self, nbytes, site):
        self.copied_bytes += nbytes
        self.copies += 1
        self.by_site[site] = self.by_site.get(site, 0) + nbytes

    def shared(self, nbytes=0):
        self.shared_views += 1
        self.shared_bytes_avoided += nbytes

    def snapshot(self):
        return {
            "copied_bytes": self.copied_bytes,
            "copies": self.copies,
            "by_site": dict(self.by_site),
            "shared_views": self.shared_views,
            "shared_bytes_avoided": self.shared_bytes_avoided,
        }

    @staticmethod
    def merge_snapshots(snapshots):
        """Aggregate several :meth:`snapshot` dicts (sharded frontends)."""
        merged = {
            "copied_bytes": 0, "copies": 0, "by_site": {},
            "shared_views": 0, "shared_bytes_avoided": 0,
        }
        for snap in snapshots:
            merged["copied_bytes"] += snap["copied_bytes"]
            merged["copies"] += snap["copies"]
            merged["shared_views"] += snap["shared_views"]
            merged["shared_bytes_avoided"] += snap["shared_bytes_avoided"]
            for site, nbytes in snap["by_site"].items():
                merged["by_site"][site] = (
                    merged["by_site"].get(site, 0) + nbytes
                )
        return merged


def estimate_size(value):
    """Rough serialized size in bytes of a JSON-like value.

    The one byte model of the state plane: op latencies, wire sizes and
    every :class:`CopyMeter` figure come from here.  Frozen nodes answer
    from their memo (see :func:`_frozen_size`); plain values are walked
    on every call, because nothing stops their owner editing them.
    """
    if isinstance(value, str):
        return len(value) + 2
    if value is None:
        return 4
    if isinstance(value, bool):
        return 5
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (CowMap, CowList)):
        size = getattr(value, "_size", None)
        return _frozen_size(value) if size is None else size
    if isinstance(value, (list, tuple, dict)):
        return _walk_size(value)
    return 16


def _walk_size(value):
    size = 2
    if isinstance(value, dict):
        for key, item in value.items():
            size += estimate_size(key) + estimate_size(item) + 2
    else:
        for item in value:
            size += estimate_size(item) + 1
    return size


def _frozen_size(node):
    """First sizing of a frozen node: walk it once and remember the answer.

    The memo is kept only when nothing below the node can still change,
    i.e. every container child is itself frozen and memoised.  A
    hand-built ``CowMap`` over plain dicts (or a merge onto a plain
    base) aliases mutable state, so it is re-walked on every call
    instead of going stale.
    """
    size = _walk_size(node)
    for child in node.values() if isinstance(node, dict) else node:
        if (isinstance(child, (dict, list, tuple))
                and getattr(child, "_size", None) is None):
            return size
    node._size = size
    return size
