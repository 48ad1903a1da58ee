"""Declarative composed-view specs for cross-store query federation.

A :class:`ComposedView` names a read-side join over stores hosted on one
or more Data Exchanges: a **root** source (the page's driving table) plus
any number of joined sources, each matched on a field of the root record.
The spec is pure data -- which stores, which join keys, which per-source
pipelines (shared-core operator specs, :mod:`repro.query.core`), and the
default freshness bound -- so the same view can be answered by either
execution strategy (scatter-gather federated reads, or an incrementally
maintained materialized table) without the caller changing a line.

Row shapes the join operates on:

- Object-store sources contribute one row per object,
  ``{**data, "_key": key}`` (the masked data the source principal may
  see, flattened with the store-relative key);
- Log-store sources contribute their stamped records (``_seq`` /
  ``_ts`` included) and join as **lists** (all matching records), which
  is what an order's event history or charge attempts look like.
"""

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.query.core import compile_ops


@dataclass(frozen=True)
class ViewSource:
    """One named source of a composed view.

    - ``alias``: the view-local name; joined rows land on the composed
      record under ``into`` (default: the alias).
    - ``store``: the hosted store (Object) or pool-backed store (Log)
      name on ``exchange`` (``None`` = the exchange the view is
      registered on).
    - ``on``: the field of the *root* record whose value is matched
      (default ``_key``: compose stores keyed identically; the retail
      storefront joins on its orders' ``cid``, their shipments' key).
    - ``match``: the field of *this* source's rows compared against
      (default ``_key`` for Object sources; Log sources usually match a
      payload field like ``order``).
    - ``ops``: a per-source pipeline applied before the join -- pushed
      down to the Log store on federated reads, evaluated locally over
      Object rows and materialized tables.
    - ``required``: inner-join semantics (drop root records without a
      match) instead of the default left join.
    """

    alias: str
    store: str
    exchange: str = None
    on: str = "_key"
    match: str = "_key"
    into: str = None
    ops: tuple = ()
    required: bool = False

    def __post_init__(self):
        if not self.alias or not isinstance(self.alias, str):
            raise ConfigurationError(f"source alias must be a name, got "
                                     f"{self.alias!r}")
        if not self.store:
            raise ConfigurationError(f"source {self.alias!r} names no store")
        object.__setattr__(self, "ops", tuple(self.ops or ()))
        compile_ops(self.ops)  # validate eagerly

    @property
    def field(self):
        """The composed-record field this source's rows land on."""
        return self.into or self.alias


@dataclass(frozen=True)
class ComposedView:
    """A named, declarative cross-store read view.

    ``sources[0]`` is the root; every other source joins onto it.
    ``ops`` is the post-join pipeline over composed records (same
    operator catalog as everywhere else).  ``freshness`` is the default
    staleness bound in seconds a query without an explicit bound
    tolerates -- the planner serves the materialized table only while
    its staleness estimate stays within the bound.
    """

    name: str
    sources: tuple
    ops: tuple = ()
    freshness: float = 0.25
    description: str = ""

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"view name must be a string, got "
                                     f"{self.name!r}")
        sources = tuple(self.sources or ())
        if not sources:
            raise ConfigurationError(f"view {self.name!r} has no sources")
        aliases = [s.alias for s in sources]
        if len(set(aliases)) != len(aliases):
            raise ConfigurationError(
                f"view {self.name!r} has duplicate source aliases {aliases!r}"
            )
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "ops", tuple(self.ops or ()))
        compile_ops(self.ops)  # validate eagerly
        if self.freshness is None or self.freshness < 0:
            raise ConfigurationError(
                f"view {self.name!r} freshness bound must be >= 0 seconds"
            )

    @property
    def root(self):
        return self.sources[0]

    def source(self, alias):
        for src in self.sources:
            if src.alias == alias:
                return src
        raise ConfigurationError(f"view {self.name!r} has no source {alias!r}")


def compose(view, tables, kinds, keys=None):
    """Join per-source row sets into composed records.

    ``tables`` maps alias -> list of rows *after* per-source ops;
    ``kinds`` maps alias -> ``"object"`` | ``"log"`` (Log sources join
    as lists of matches, Object sources as a single record or None).
    ``keys`` restricts the root to exactly those ``_key`` values, in the
    given order (the point-read access path).

    Both strategies funnel through this one function, which is what
    makes the federated-vs-materialized answer-identity property
    testable: given identical inputs there is exactly one join.
    """
    root = view.root
    rows = tables.get(root.alias, [])
    if keys is not None:
        by_key = {r.get("_key"): r for r in rows}
        rows = [by_key[k] for k in keys if k in by_key]
    composed = [dict(r) for r in rows]
    for src in view.sources[1:]:
        records = tables.get(src.alias, [])
        as_list = kinds.get(src.alias) == "log"
        index = {}
        if as_list:
            for record in records:
                index.setdefault(record.get(src.match), []).append(record)
        else:
            for record in records:
                index[record.get(src.match)] = record
        empty = [] if as_list else None
        for row in composed:
            row[src.field] = index.get(row.get(src.on), empty)
        if src.required:
            composed = [r for r in composed if r[src.field] not in (None, [])]
    return compile_ops(view.ops)(composed)
