"""The six workloads, by name."""

from benchmarks.perf.workloads.fleet import FleetIngest
from benchmarks.perf.workloads.http import HttpRealtime
from benchmarks.perf.workloads.kv import KvSharded
from benchmarks.perf.workloads.pingpong import KernelPingPong
from benchmarks.perf.workloads.retail import RetailOrders
from benchmarks.perf.workloads.storefront import StorefrontPages

WORKLOADS = {
    cls.name: cls
    for cls in (RetailOrders, FleetIngest, StorefrontPages, KvSharded,
                KernelPingPong, HttpRealtime)
}
