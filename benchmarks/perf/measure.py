"""Small measurement helpers: order statistics, digests, host probes."""

import hashlib
import heapq
import json
import resource
import statistics
import sys
import time


def percentile(values, q):
    """Nearest-rank percentile (the convention of ``repro.load``)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def summary(values):
    """Median, extremes and quartiles of one metric's repetitions."""
    values = list(values)
    if len(values) >= 2:
        q1, _mid, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def plain(value):
    """Canonical plain-python copy (frozen views and tuples normalised)."""
    if hasattr(value, "items"):
        return {str(k): plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def digest(payload):
    """Stable sha256 of any JSON-able structure."""
    return hashlib.sha256(
        json.dumps(plain(payload), sort_keys=True).encode()
    ).hexdigest()


def peak_rss_mb():
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        rss /= 1024.0
    return rss / 1024.0


def _ticker():
    value = 0
    while True:
        value = (yield value) + 1


def calibrate(chunks=10, rounds=10000):
    """Millions of kernel-shaped primitive ops per second on this host.

    A fixed heap push/pop + generator send + dict store/load loop: the
    three things the sim kernel's inner loop is made of.  Timed in
    ``chunks`` short bursts, of which the median is kept, so that one
    preempted burst does not read as a slow machine.  Run before and
    after each repetition; a shift between two result files marks them
    as measured on different machines.
    """
    heap = []
    table = {}
    gen = _ticker()
    next(gen)
    push, pop, send = heapq.heappush, heapq.heappop, gen.send
    rates = []
    for _ in range(chunks):
        started = time.perf_counter()
        for i in range(rounds):
            push(heap, (i * 7919 % 1013, i))
            table[i & 255] = send(i)
            if i & 1:
                pop(heap)
            table.get(i & 127)
        rates.append(rounds * 4 / (time.perf_counter() - started) / 1e6)
        del heap[:]
    return statistics.median(rates)
