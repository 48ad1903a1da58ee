"""Data-store backends built from scratch.

Three backends, mirroring the paper's prototype choices:

- :mod:`repro.store.apiserver` -- a Kubernetes-apiserver-like Object store:
  typed resources, ``resourceVersion`` optimistic concurrency, watch
  streams, and an etcd-like persistence latency model.
- :mod:`repro.store.memkv` -- a Redis-like in-memory k-v store: command
  surface, keyspace notifications, and server-side functions (UDFs) used
  for integrator push-down.
- :mod:`repro.store.loglake` -- a Zed-lake-like Log store: append-only
  pools of structured/semi-structured records with query operators.

All backends are simulation processes: client operations return simnet
events and take virtual time according to calibrated per-op latency models.
"""

from repro.store.base import (
    ADDED,
    DELETED,
    MODIFIED,
    OpLatency,
    StoreClient,
    StoreServer,
    StoredObject,
    WatchEvent,
    combine_patches,
    estimate_size,
)
from repro.store.cow import (
    CopyMeter,
    CowList,
    CowMap,
    FrozenViewError,
    diff_shared,
    freeze,
    is_frozen,
    mask_shared,
    merge_shared,
    thaw,
)
from repro.store.apiserver import ApiServer
from repro.store.memkv import MemKV, MemKVClient
from repro.store.loglake import APPENDED, LogLake, LogLakeClient
from repro.store.ring import (
    AutoscalePolicy,
    ShardRing,
    Topology,
    hash_key,
    key_in_ranges,
)
from repro.store.sharded import MergedWatch, ShardedStore, ShardedStoreClient
from repro.store.retention import RefCountRetention, RetentionPolicy, TTLRetention
from repro.store.udf import TxnUDFContext, UDFContext, UDFRegistry

__all__ = [
    "ADDED",
    "APPENDED",
    "ApiServer",
    "AutoscalePolicy",
    "CopyMeter",
    "CowList",
    "CowMap",
    "DELETED",
    "FrozenViewError",
    "LogLake",
    "LogLakeClient",
    "MODIFIED",
    "MemKV",
    "MemKVClient",
    "MergedWatch",
    "OpLatency",
    "RefCountRetention",
    "RetentionPolicy",
    "ShardRing",
    "ShardedStore",
    "ShardedStoreClient",
    "StoreClient",
    "StoreServer",
    "StoredObject",
    "TTLRetention",
    "Topology",
    "TxnUDFContext",
    "UDFContext",
    "UDFRegistry",
    "WatchEvent",
    "combine_patches",
    "diff_shared",
    "estimate_size",
    "freeze",
    "hash_key",
    "is_frozen",
    "key_in_ranges",
    "mask_shared",
    "merge_shared",
    "thaw",
]
