"""The Data Exchange (DE) layer.

A Data Exchange hosts knactors' data stores on a backend and provides
"state access and management capabilities such as data storage, caching,
scaling, analytics, and access control" (paper §3.2).  Two DE types are
provided, matching the paper:

- :class:`ObjectDE` -- attribute-value states with CRUD + watch, hosted on
  either the apiserver-like or the Redis-like backend,
- :class:`LogDE` -- append-only structured records with ingest + analytics,
  hosted on the Zed-lake-like backend.

Every access goes through role-based access control with optional
field-level scoping, and is counted per principal, store and verb on the
DE's access controller (``de.acl.exchange_matrix()``, ``de.acl.denials()``)
-- the visibility that API-centric composition hides (paper Problem 3).
"""

from repro.exchange.access import (
    ALL_VERBS,
    AccessController,
    Permission,
    Role,
)
from repro.exchange.base import DataExchange, HostedStore, StoreHandle
from repro.exchange.log_de import LogDE, LogStoreHandle
from repro.exchange.object_de import ObjectDE, ObjectStoreHandle, Transaction

__all__ = [
    "ALL_VERBS",
    "AccessController",
    "DataExchange",
    "HostedStore",
    "LogDE",
    "LogStoreHandle",
    "ObjectDE",
    "ObjectStoreHandle",
    "Permission",
    "Role",
    "StoreHandle",
    "Transaction",
]
