"""``repro.query`` -- the shared declarative query core.

Every read surface in the repo compiles the same operator-spec pipeline
language through this package: the Log store's server-side analytics
(:mod:`repro.store.loglake`), the Sync/Rollup push-down dataflows, the
unified :meth:`repro.exchange.base.DataExchange.query` API, and the
federation plane's composed views (:mod:`repro.federation`).

- :func:`compile_ops` -- operator specs -> ``records -> records``;
- :data:`OPERATORS` -- the operator catalog;
- :class:`Query` / :class:`QueryResult` -- the keyword-only read spec
  and its answered form;
- :class:`~repro.errors.QueryError` -- the typed failure, re-exported.
"""

from repro.errors import QueryError
from repro.query.core import OPERATORS, compile_ops
from repro.query.spec import CONSISTENCY_LEVELS, Query, QueryResult

__all__ = [
    "CONSISTENCY_LEVELS",
    "OPERATORS",
    "Query",
    "QueryError",
    "QueryResult",
    "compile_ops",
]
