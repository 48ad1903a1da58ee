"""The unified declarative read spec behind ``DataExchange.query``.

One keyword-only :class:`Query` subsumes the repo's historically
fragmented read surface -- ``ObjectStoreHandle.list()`` + local
filtering, hand-compiled pipelines, and per-DE query
verbs -- behind a single shape the exchange (and the federation
planner) can reason about:

- ``target``: a hosted store name or a registered composed-view name;
- ``ops``: a pipeline of shared-core operator specs
  (:func:`repro.query.core.compile_ops`), validated eagerly;
- ``freshness``: the staleness bound in seconds the caller tolerates
  (``0`` demands a synchronous read of the source stores; ``None``
  defers to the view's declared default);
- ``consistency``: ``"strong"`` (always read the sources),
  ``"bounded"`` (serve materialized state while its staleness estimate
  is within ``freshness``), or ``"any"`` (serve materialized state
  whenever one exists);
- ``principal``: the RBAC / admission / audit identity of the read;
- ``keys``: optional root-key restriction (the "order details page"
  access path: exactly these objects, composed).
"""

from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.query.core import compile_ops

#: Accepted ``consistency`` levels, weakest-to-strongest guarantees last.
CONSISTENCY_LEVELS = ("strong", "bounded", "any")


@dataclass(frozen=True)
class Query:
    """A validated, immutable read specification."""

    target: str
    ops: tuple = ()
    freshness: float = None
    consistency: str = None
    principal: str = None
    keys: tuple = None

    def __post_init__(self):
        if not self.target or not isinstance(self.target, str):
            raise QueryError(f"query target must be a store/view name, got "
                             f"{self.target!r}")
        object.__setattr__(self, "ops", tuple(self.ops or ()))
        compile_ops(self.ops)  # validate eagerly; raises QueryError
        if self.freshness is not None and self.freshness < 0:
            raise QueryError(
                f"freshness bound must be >= 0 seconds, got {self.freshness}"
            )
        if self.consistency is not None \
                and self.consistency not in CONSISTENCY_LEVELS:
            raise QueryError(
                f"unknown consistency {self.consistency!r} "
                f"(expected one of {CONSISTENCY_LEVELS})"
            )
        if self.keys is not None:
            object.__setattr__(self, "keys", tuple(self.keys))

    def effective_consistency(self):
        """The level the planner acts on when none was named.

        ``freshness=0`` (or no bound at all) means the caller wants the
        sources' current truth -- ``strong``; a positive bound opts into
        ``bounded`` staleness.
        """
        if self.consistency is not None:
            return self.consistency
        if self.freshness is None or self.freshness <= 0:
            return "strong"
        return "bounded"

    def pipeline(self):
        """The compiled ``records -> records`` callable."""
        return compile_ops(self.ops)


@dataclass
class QueryResult:
    """Records plus the provenance the planner attached."""

    records: list
    strategy: str  # "direct" | "federated" | "materialized"
    staleness: float = 0.0
    sources: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, index):
        return self.records[index]
