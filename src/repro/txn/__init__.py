"""Cross-shard transactional plane: deterministic 2PC and exactly-once
transactional functions.  See ``docs/transactions.md``.
"""

from repro.txn.coordinator import PHASES, TxnCoordinator
from repro.txn.functions import TxnFunctionIntegrator

__all__ = [
    "PHASES",
    "TxnCoordinator",
    "TxnFunctionIntegrator",
]
