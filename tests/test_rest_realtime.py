"""The real TCP front door: HttpListener + the retail REST gateway.

These tests bind real sockets on 127.0.0.1 (ephemeral ports), issue
requests from a client thread with ``http.client``, and drive the
kernel in the main thread until the client reports completion.
"""

import http.client
import json
import socket
import threading
from urllib.parse import quote

import pytest

from repro.apps.retail.rest_gateway import serve_retail
from repro.apps.retail.workload import OrderWorkload
from repro.errors import ConfigurationError
from repro.realtime import RealtimeEnvironment
from repro.rest import RestServer
from repro.simnet import Environment, Network


def _drive(env, listener, done, settle=0.05):
    """Run the kernel until the client thread flags completion.

    Each tick blocks on ``done`` for a millisecond of real time: at
    ``factor=0`` the kernel never idles, and without a real-time pause
    it holds the GIL so tightly that the client thread can starve for
    minutes between two bytecodes.
    """

    def monitor():
        while not done.wait(0.001):
            yield env.timeout(settle)
        listener.stop()

    env.process(monitor())
    env.run()


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, payload,
                     {"Content-Type": "application/json"} if payload else {})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHttpListener:
    def test_serve_refused_on_sim_backend(self):
        env = Environment()
        server = RestServer(env, Network(env), "api")
        with pytest.raises(ConfigurationError, match="realtime backend"):
            server.serve()

    def test_round_trip_and_404(self):
        env = RealtimeEnvironment(factor=0.0)
        server = RestServer(env, Network(env), "api")
        server.route("GET", "/ping", lambda request: {"pong": True})
        server.route(
            "POST", "/echo", lambda request: {"got": request.body}
        )
        listener = server.serve(port=0)
        assert listener.port != 0

        results = {}
        done = threading.Event()

        def client():
            try:
                results["ping"] = _request(listener.port, "GET", "/ping")
                results["echo"] = _request(
                    listener.port, "POST", "/echo", body={"n": 3}
                )
                results["missing"] = _request(listener.port, "GET", "/nope")
            finally:
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        _drive(env, listener, done)
        thread.join()
        env.close()

        assert results["ping"] == (200, {"pong": True})
        assert results["echo"] == (200, {"got": {"n": 3}})
        assert results["missing"][0] == 404
        assert server.requests_served == 2  # 404s are not served requests

    def test_keep_alive_reuses_one_connection(self):
        env = RealtimeEnvironment(factor=0.0)
        server = RestServer(env, Network(env), "api")
        server.route("GET", "/ping", lambda request: {"pong": True})
        listener = server.serve(port=0)

        statuses = []
        done = threading.Event()

        def client():
            conn = http.client.HTTPConnection(
                "127.0.0.1", listener.port, timeout=10
            )
            try:
                for _ in range(3):
                    conn.request("GET", "/ping")
                    response = conn.getresponse()
                    response.read()
                    statuses.append(response.status)
            finally:
                conn.close()
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        _drive(env, listener, done)
        thread.join()
        env.close()

        assert statuses == [200, 200, 200]
        assert listener.connections_accepted == 1


class TestRetailGateway:
    def test_order_lifecycle_over_tcp(self):
        app, gateway, listener = serve_retail(port=0, factor=0.02)
        key, data = OrderWorkload(seed=9).next_order()
        results = {}
        done = threading.Event()

        def client():
            try:
                results["health"] = _request(
                    listener.port, "GET", "/healthz"
                )
                results["created"] = _request(
                    listener.port, "POST", "/orders",
                    body={**data, "key": key, "email": "shopper@example.com"},
                )
                # Poll until the integrator fulfils the order for real.
                for _ in range(100):
                    status, body = _request(
                        listener.port, "GET",
                        f"/orders/{quote(key, safe='')}",
                    )
                    if body.get("order", {}).get("status") == "fulfilled":
                        break
                results["final"] = (status, body)
                results["missing"] = _request(
                    listener.port, "GET", "/orders/nope"
                )
                results["metrics"] = _request(listener.port, "GET", "/metrics")
            finally:
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        _drive(app.env, listener, done)
        thread.join()
        app.env.close()

        assert results["health"][1]["backend"] == "realtime"
        status, created = results["created"]
        assert status == 201
        assert created["key"] == key
        assert created["order"]["status"] == "placed"
        assert results["final"][1]["order"]["status"] == "fulfilled"
        assert results["missing"][0] == 404
        metrics = results["metrics"][1]
        assert metrics["orders_placed"] == 1
        assert metrics["orders_fulfilled"] == 1

    def test_generated_key_order_fulfils(self):
        # No "key" in the body: the gateway must mint an order/* key --
        # the DXG matches objects by the key's kind, so a bare "order-1"
        # style key would never be picked up by the integrator.
        app, gateway, listener = serve_retail(port=0, factor=0.0)
        _, data = OrderWorkload(seed=9).next_order()
        results = {}
        done = threading.Event()

        def client():
            try:
                status, created = _request(
                    listener.port, "POST", "/orders", body=dict(data)
                )
                results["created"] = (status, created)
                key = created["key"]
                for _ in range(200):
                    status, body = _request(
                        listener.port, "GET",
                        f"/orders/{quote(key, safe='')}",
                    )
                    if body.get("order", {}).get("status") == "fulfilled":
                        break
                results["final"] = (status, body)
                results["namespaced"] = _request(
                    listener.port, "POST", "/orders",
                    body={**data, "key": "bare-key"},
                )
            finally:
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        _drive(app.env, listener, done)
        thread.join()
        app.env.close()

        status, created = results["created"]
        assert status == 201
        assert created["key"].startswith("order/")
        assert results["final"][1]["order"]["status"] == "fulfilled"
        assert results["namespaced"][1]["key"] == "order/bare-key"

    def test_bad_request_rejected(self):
        app, gateway, listener = serve_retail(port=0, factor=0.0)
        results = {}
        done = threading.Event()

        def client():
            try:
                results["empty"] = _request(
                    listener.port, "POST", "/orders", body={}
                )
                results["invalid"] = _request(
                    listener.port, "POST", "/orders", body={"items": "nope"}
                )
                results["wrong-kind"] = _request(
                    listener.port, "POST", "/orders",
                    body={"items": {}, "key": "shipment/s1"},
                )
            finally:
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        _drive(app.env, listener, done)
        thread.join()
        app.env.close()

        assert results["empty"][0] == 400
        assert results["invalid"][0] == 400
        assert results["wrong-kind"][0] == 400


class TestStopUnwindsConnections:
    """A connection task must not outlive ``stop()`` to be cancelled by
    the loop's teardown: it would end *cancelled*, which asyncio's stream
    protocol logs as a ``CancelledError`` "Exception in callback" trace.
    """

    @staticmethod
    def _serving():
        env = RealtimeEnvironment(factor=0.0)
        server = RestServer(env, Network(env), "api")
        server.route("GET", "/ping", lambda request: {"pong": True})
        return env, server.serve(port=0)

    @staticmethod
    def _problems(caplog):
        return [record.getMessage() for record in caplog.records
                if record.levelname in ("WARNING", "ERROR", "CRITICAL")]

    def test_stop_racing_a_just_closed_connection_logs_nothing(self, caplog):
        """The client hangs up and the kernel stops the listener at once:
        the server-side task may not have read the EOF yet.  (Shows at
        least once in 20 rounds on the unfixed listener.)"""

        def one_round():
            env, listener = self._serving()
            done = threading.Event()

            def client():
                conn = http.client.HTTPConnection(
                    "127.0.0.1", listener.port, timeout=10)
                try:
                    conn.request("GET", "/ping")  # keep-alive by default
                    conn.getresponse().read()
                finally:
                    conn.close()
                    done.set()

            thread = threading.Thread(target=client)
            thread.start()
            _drive(env, listener, done)
            thread.join()
            assert listener not in env._external_sources
            env.close()

        with caplog.at_level("DEBUG", logger="asyncio"):
            for _ in range(20):
                one_round()
        assert self._problems(caplog) == []

    def test_stop_unwinds_an_idle_keep_alive_connection(self, caplog):
        """Stopped from outside ``run()`` with a connection still open:
        nothing is pending on the loop once ``stop()`` has returned."""
        import asyncio

        env, listener = self._serving()
        answered, stopped = threading.Event(), threading.Event()
        outcome = {}

        def client():
            conn = http.client.HTTPConnection(
                "127.0.0.1", listener.port, timeout=10)
            try:
                conn.request("GET", "/ping")
                conn.getresponse().read()
                answered.set()
                stopped.wait(10)
                conn.request("GET", "/ping")
                outcome["second"] = conn.getresponse().status
            except (ConnectionError, http.client.HTTPException) as exc:
                outcome["second"] = type(exc).__name__
            finally:
                answered.set()
                conn.close()

        thread = threading.Thread(target=client)
        thread.start()
        served = env.event()

        def wait_for_answer():
            while not answered.wait(0.001):  # see _drive
                yield env.timeout(0.05)
            served.succeed()

        env.process(wait_for_answer())
        with caplog.at_level("DEBUG", logger="asyncio"):
            env.run(until=served)
            listener.stop()
            assert asyncio.all_tasks(env.loop) == set()
            assert listener not in env._external_sources
            stopped.set()
            thread.join()
            env.close()
        assert outcome["second"] != 200  # the server hung up on it
        assert self._problems(caplog) == []


def _raw(port, payload):
    """Send raw bytes; return all the server answers until it hangs up."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        answer = b""
        while chunk := sock.recv(65536):
            answer += chunk
    return answer


class TestHostileInput:
    """What no well-behaved client sends must be *answered*: the
    connection task used to die on it (asyncio logs ``Unhandled exception
    in client_connected_cb``) and the socket closed with no response."""

    @staticmethod
    def _answers(caplog, env, listener, payloads):
        answers = []
        done = threading.Event()

        def client():
            try:
                answers.extend(_raw(listener.port, p) for p in payloads)
            finally:
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        with caplog.at_level("DEBUG", logger="asyncio"):
            _drive(env, listener, done)
            thread.join()
            env.close()
        assert TestStopUnwindsConnections._problems(caplog) == []
        return [answer.split(b"\r\n\r\n")[0].decode() for answer in answers]

    @pytest.mark.parametrize("payload, status", [
        (b"POST /echo HTTP/1.1\r\nContent-Length: -5\r\n\r\n", "400 Bad Request"),
        (b"GET http://[bad HTTP/1.1\r\n\r\n", "400 Bad Request"),
        (b"POST /echo HTTP/1.1\r\nContent-Length: 100000\r\n\r\n" + b"[" * 100000,
         "400 Bad Request"),
        (b"GET /bug HTTP/1.1\r\n\r\n", "500 Internal Server Error"),
    ], ids=["negative-length", "unsplittable-target", "bottomless-json",
            "handler-bug"])
    def test_listener_answers_and_closes(self, caplog, payload, status):
        env = RealtimeEnvironment(factor=0.0)
        server = RestServer(env, Network(env), "api")
        server.route("POST", "/echo", lambda request: {"got": request.body})
        server.route("GET", "/bug", lambda request: {}["not a ReproError"])
        [head] = self._answers(caplog, env, server.serve(port=0), [payload])
        assert head.startswith(f"HTTP/1.1 {status}\r\n")
        assert "Connection: close" in head

    def test_gateway_rejects_a_body_that_is_not_an_object(self, caplog):
        app, gateway, listener = serve_retail(port=0, factor=0.0)
        payloads = [
            b"POST /orders HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            for body in (b"[1]", b'"x"')
        ]
        heads = self._answers(caplog, app.env, listener, payloads)
        assert [head.split("\r\n")[0] for head in heads] == [
            "HTTP/1.1 400 Bad Request"] * 2
