"""``http_realtime``: the retail gateway over loopback TCP, wall clock."""

import http.client
import json
import os
import threading
import time
from urllib.parse import quote

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.rest_gateway import RetailGateway

from benchmarks.perf.workloads.base import (
    CountingRealtimeEnvironment,
    Outcome,
    Violations,
    Workload,
    server_counters,
)
from benchmarks.perf.workloads.retail import (
    check_orders,
    order_payload,
    retail_digest,
    retail_state,
)

#: How long the client waits for the last orders to fulfil (seconds).
DRAIN_TIMEOUT = 20.0
#: Socket and thread-join timeout: a hung server fails the run.
IO_TIMEOUT = 30.0


def _call(conn, method, path, body=None):
    """One request on the keep-alive connection: (status, json, ms)."""
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    started = time.perf_counter()
    conn.request(method, path, payload, headers)
    response = conn.getresponse()
    raw = response.read()
    elapsed = (time.perf_counter() - started) * 1e3
    return response.status, json.loads(raw), elapsed


class HttpRealtime(Workload):
    name = "http_realtime"
    op_unit = "one POST /orders (201) + GET /orders/{key} (200), echoed"
    loop = "closed"
    tail_q = 0.95  # 200 samples per repetition: 10 lie beyond p95
    exact_events = False  # socket arrivals interleave with kernel events

    PAIRS = 200

    def size(self):
        return {"request_pairs": self.scaled(self.PAIRS, 4),
                "connections": 1, "factor": 0.0, "cpus": 1}

    def generate(self):
        rng = self.rng("orders")
        return [{"key": f"rt{index:05d}", **order_payload(rng)}
                for index in range(self.scaled(self.PAIRS, 4))]

    def build(self, inputs):
        # Kernel thread and client thread share one CPU.  Under the GIL
        # they take turns anyway, and in a sandbox whose two vCPUs do not
        # reliably amount to two cores, spreading them over both made
        # every request twice as slow for minutes at a time while
        # single-threaded speed (host.calib_mops) stayed put.  Threads
        # started from here inherit the mask; close() restores it.
        affinity = None
        if hasattr(os, "sched_setaffinity"):
            affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {max(affinity)})
        env = CountingRealtimeEnvironment(factor=0.0)
        app = RetailKnactorApp.build(
            env=env, seed=self.rng("app").getrandbits(32))
        gateway = RetailGateway(app)
        listener = gateway.serve(port=0)
        return {"env": env, "app": app, "listener": listener,
                "orders": inputs, "client": {}, "affinity": affinity}

    def counters(self, ctx):
        app = ctx["app"]
        return server_counters(
            [app.de.backend], app.runtime.network, app.de.retry_policy)

    def _client(self, port, orders, out):
        """The web tier: waits for each reply before the next request."""
        post, get, good = [], [], 0
        conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=IO_TIMEOUT)
        try:
            for order in orders:
                key = f"order/{order['key']}"
                status, body, ms = _call(conn, "POST", "/orders", order)
                post.append(ms)
                created = (status == 201 and body.get("key") == key
                           and body["order"].get("address")
                           == order["address"])
                status, body, ms = _call(
                    conn, "GET", f"/orders/{quote(key, safe='')}")
                get.append(ms)
                good += created and status == 200 and (
                    body.get("key") == key
                    and body["order"].get("cardToken") == order["cardToken"])
            deadline = time.monotonic() + DRAIN_TIMEOUT
            metrics = {}
            while time.monotonic() < deadline:
                _status, metrics, _ms = _call(conn, "GET", "/metrics")
                if metrics.get("orders_fulfilled") == len(orders):
                    break
                time.sleep(0.02)
            out.update(post=post, get=get, good=good, metrics=metrics)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            out.update(post=post, get=get, good=good, metrics={},
                       error=repr(exc))
        finally:
            conn.close()

    def run(self, ctx):
        env, out = ctx["env"], ctx["client"]
        stop = env.event()

        def client():
            try:
                self._client(ctx["listener"].port, ctx["orders"], out)
            finally:
                env.loop.call_soon_threadsafe(stop.succeed)

        thread = threading.Thread(target=client, name="bench-http-client")
        thread.start()
        try:
            env.run(until=stop)
        finally:
            thread.join(IO_TIMEOUT)
        ctx["client_alive"] = thread.is_alive()

    def finish(self, ctx):
        env, app, out = ctx["env"], ctx["app"], ctx["client"]
        events = env.steps
        orders = ctx["orders"]
        violations = Violations()
        violations.whole(not ctx["client_alive"] and "error" not in out,
                         f"client did not finish: {out.get('error')}")
        metrics = out.get("metrics", {})
        violations.whole(
            metrics.get("orders_fulfilled") == len(orders)
            == metrics.get("orders_placed"),
            f"/metrics reports {metrics} for {len(orders)} orders",
        )
        stores = retail_state(app)
        placed = [f"order/{order['key']}" for order in orders]
        fulfilled = check_orders(placed, stores, violations)
        violations.whole(fulfilled == len(placed),
                         f"{len(placed) - fulfilled} orders not fulfilled")
        return Outcome(
            attempted=len(orders),
            correct=violations.correct(out.get("good", 0)),
            # Revisions depend on how requests interleave with the
            # kernel; the data they leave behind does not.
            digest=retail_digest(stores, with_revisions=False),
            events=events,
            wall_ms={"post": out.get("post", []), "get": out.get("get", [])},
            sim={"max_lateness_ms": env.max_lateness * 1e3},
            errors=violations.texts,
        )

    def close(self, ctx):
        ctx["listener"].stop()
        ctx["env"].close()
        if ctx["affinity"] is not None:
            os.sched_setaffinity(0, ctx["affinity"])
