"""Self-tests of the benchmark harness.

Run with ``pytest benchmarks/perf/tests`` from the repo root; they are
not part of tier-1 collection (``testpaths = ["tests"]``).  Everything
runs at a tiny size: the point is the harness, not the numbers.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
# ``repro`` is importable under the tier-1 command's PYTHONPATH=src; make
# a bare ``pytest benchmarks/perf/tests`` work too.
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

#: Per-workload scale that keeps one repetition well under a second.
TINY = {
    "retail_orders": 0.1,
    "fleet_ingest": 0.05,
    "storefront_pages": 0.1,
    "kv_sharded": 0.05,
    "kernel_pingpong": 0.02,
    "http_realtime": 0.05,
}
SIM_WORKLOADS = [name for name in TINY if name != "http_realtime"]
