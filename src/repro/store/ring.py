"""Consistent-hash ring + the first-class :class:`Topology` spec.

Routing for :class:`~repro.store.sharded.ShardedStore` used to be frozen
at build time as ``crc32(key) % N`` -- correct, deterministic, and
impossible to change without remapping (almost) every key.  This module
replaces it with a classic consistent-hash ring with virtual nodes:

- **Deterministic under sim**: vnode placement is seeded
  (``blake2b(f"{seed}/{member}/{i}")``), key hashing is stable
  (``blake2b(key)``), and neither depends on Python's randomized
  ``hash`` -- every client, run, and host agrees on placement, and
  same-seed rings are bit-identical (see :meth:`ShardRing.fingerprint`).
- **Minimal movement**: adding one shard to an N-shard ring moves an
  expected ``1/(N+1)`` of the keyspace; removing one moves ``1/N``.
  Unmoved ranges keep their owner, which is what makes *online*
  resharding (:mod:`repro.store.reshard`) cheap: only the moved ranges
  migrate.
- **Versioned membership**: every ``add``/``remove`` bumps
  :attr:`ShardRing.version`.  Writes are fenced on the version during a
  cutover (a sealed range rejects with
  :class:`~repro.errors.ShardMovedError`), and the transaction
  coordinator re-groups a cross-shard batch when the ring moved under
  its feet -- see ``docs/transactions.md``.

:class:`Topology` is the API-redesign half: one spec object (ring seed,
min/max shards, autoscale policy) that every sharded build
takes as ``topology=``.
"""

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

from repro.errors import ConfigurationError

#: The hash space is [0, 2^64).
_SPACE_BITS = 64


@lru_cache(maxsize=1 << 14)
def hash_key(key):
    """Position of ``key`` on the ring: stable 64-bit blake2b digest.

    Deliberately seed-independent (only vnode *placement* is seeded):
    two rings with different seeds still agree on where a key sits,
    they just carve the circle differently.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def key_in_ranges(key, ranges):
    """True when ``key`` hashes into any ``(lo, hi]`` ring range."""
    h = hash_key(key)
    return any(_contains(h, lo, hi) for lo, hi in ranges)


def _contains(h, lo, hi):
    """Membership in the half-open ring arc ``(lo, hi]`` (wrapping)."""
    if lo == hi:  # degenerate arc: the whole circle
        return True
    if lo < hi:
        return lo < h <= hi
    return h > lo or h <= hi  # the arc wraps through 0


class ShardRing:
    """A seeded consistent-hash ring over opaque, sortable member ids.

    Members are placed at :attr:`vnodes` pseudo-random points each; a
    key is owned by the member of the first point clockwise from the
    key's hash.  ``preview_add``/``preview_remove`` report exactly which
    ``(lo, hi]`` arcs a membership change would move (and from/to whom)
    WITHOUT mutating the ring -- the resharding engine copies those
    ranges first and flips the ring (``add``/``remove``, version bump)
    only at cutover.
    """

    #: Virtual nodes per ring member.  64 keeps the max/min owned
    #: fraction within ~2x at small N while staying cheap to recompute.
    vnodes = 64

    def __init__(self, seed=0, members=()):
        self.seed = int(seed)
        self.version = 0
        self.members = []  # insertion order (deterministic)
        self._points = []  # sorted [(point, member), ...]
        for member in members:
            self.add(member)

    @classmethod
    def for_count(cls, count):
        """The ring a fresh ``count``-shard store would build: members
        are the integer shard ids ``0..count-1``."""
        if count < 1:
            raise ConfigurationError("need at least one ring member")
        return cls(members=range(count))

    # -- placement -----------------------------------------------------------

    def _member_points(self, member):
        prefix = f"{self.seed}/{member}/"
        points = []
        for i in range(self.vnodes):
            digest = hashlib.blake2b(
                f"{prefix}{i}".encode("utf-8"), digest_size=8
            ).digest()
            points.append((int.from_bytes(digest, "big"), member))
        return sorted(points)

    def owner_of(self, key):
        """The member owning ``key`` (first vnode clockwise)."""
        return self.owner_of_point(hash_key(key))

    def owner_of_point(self, h):
        points = self._points
        if not points:
            raise ConfigurationError("the ring has no members")
        # ``(h,)`` sorts first among ``(h, member)``: the first point >= h.
        return points[bisect_left(points, (h,)) % len(points)][1]

    def owner_index(self, key):
        """Index of the owner in :attr:`members` (insertion order)."""
        return self.members.index(self.owner_of(key))

    # -- membership changes --------------------------------------------------

    def preview_add(self, member):
        """Arcs ``member`` would take over: ``[(lo, hi, old_owner)]``.

        Empty when the ring has no members yet (nothing to move from).
        Does not mutate the ring.
        """
        if member in self.members:
            raise ConfigurationError(f"ring member {member!r} already present")
        if not self._points:
            return []
        new_points = self._member_points(member)
        combined = sorted(self._points + new_points)
        moved = []
        for pt, m in new_points:
            i = combined.index((pt, m))
            lo = combined[i - 1][0]
            if lo == pt:
                continue  # degenerate arc (colliding point)
            moved.append((lo, pt, self.owner_of_point(pt)))
        return moved

    def add(self, member):
        """Commit ``member`` into the ring; bumps :attr:`version`.

        Returns the moved arcs (same shape as :meth:`preview_add`).
        """
        moved = self.preview_add(member)
        self._points = sorted(self._points + self._member_points(member))
        self.members.append(member)
        self.version += 1
        return moved

    def preview_remove(self, member):
        """Arcs that would change hands: ``[(lo, hi, new_owner)]``."""
        if member not in self.members:
            raise ConfigurationError(f"ring member {member!r} not present")
        if len(self.members) == 1:
            raise ConfigurationError("cannot remove the last ring member")
        points = self._points
        n = len(points)
        moved = []
        for i, (pt, m) in enumerate(points):
            if m != member:
                continue
            lo = points[i - 1][0]
            j = (i + 1) % n
            while points[j][1] == member:
                j = (j + 1) % n
            moved.append((lo, pt, points[j][1]))
        return moved

    def remove(self, member):
        """Commit the removal; bumps :attr:`version`; returns moved arcs."""
        moved = self.preview_remove(member)
        self._points = [p for p in self._points if p[1] != member]
        self.members.remove(member)
        self.version += 1
        return moved

    # -- identity ------------------------------------------------------------

    def fingerprint(self):
        """Stable digest of the full placement (seed, vnodes, points).

        Two rings built from the same seed and membership history are
        bit-identical here -- the determinism gate the reshard benchmark
        asserts.
        """
        payload = json.dumps(
            {
                "seed": self.seed,
                "vnodes": self.vnodes,
                "version": self.version,
                "points": [[pt, repr(m)] for pt, m in self._points],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self):
        return (
            f"ring v{self.version}: {len(self.members)} members x "
            f"{self.vnodes} vnodes (seed {self.seed})"
        )


@dataclass(frozen=True)
class AutoscalePolicy:
    """How a :class:`~repro.cluster.shardfleet.ShardFleet` scales shards.

    ``target_queue_depth`` is the per-shard load target fed to the
    standard HPA formula (load here is worker-queue depth plus an AIMD
    congestion penalty from admission control -- the obs-plane signals
    the flow plane already exports).
    """

    target_queue_depth: float = 4.0
    interval: float = 0.5
    cooldown: float = 2.0

    def __post_init__(self):
        if self.target_queue_depth <= 0:
            raise ConfigurationError("target_queue_depth must be positive")
        if self.interval <= 0 or self.cooldown < 0:
            raise ConfigurationError("invalid autoscale interval/cooldown")


@dataclass(frozen=True)
class Topology:
    """The sharding spec for one store: ring shape + elasticity bounds.

    ``shards`` is the *initial* shard count;
    ``min_shards``/``max_shards`` bound what live resharding (manual
    ``store.reshard(n)`` or a :class:`ShardFleet` autoscaler) may do.
    """

    shards: int = 1
    seed: int = 0
    min_shards: int = 1
    max_shards: int = None
    autoscale: AutoscalePolicy = None

    #: The quiesce window between sealing moved ranges and flipping the
    #: ring (seconds).  It must exceed one watch-delivery hop plus the
    #: batch window so in-flight events land first.
    cutover_drain: ClassVar[float] = 0.05

    def __post_init__(self):
        if self.shards < 1:
            raise ConfigurationError("a topology needs at least one shard")
        if self.min_shards < 1 or self.min_shards > self.shards:
            raise ConfigurationError(
                "need 1 <= min_shards <= shards "
                f"(got min={self.min_shards}, shards={self.shards})"
            )
        if self.max_shards is not None and self.max_shards < self.shards:
            raise ConfigurationError(
                "need shards <= max_shards "
                f"(got shards={self.shards}, max={self.max_shards})"
            )

    @property
    def effective_max_shards(self):
        return self.max_shards if self.max_shards is not None else max(
            self.shards, 8
        )

    def build_ring(self, members=()):
        return ShardRing(seed=self.seed, members=members)
