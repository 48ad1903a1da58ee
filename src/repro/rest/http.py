"""A real TCP front door for :class:`repro.rest.RestServer`.

:class:`HttpListener` binds a listening socket on the realtime
environment's asyncio loop and speaks just enough HTTP/1.1 for JSON
APIs: request line + headers, ``Content-Length`` bodies, keep-alive.
Each request is bridged into the kernel -- ``server.dispatch()``
schedules the handler as a normal kernel process, and the connection
coroutine awaits it through :meth:`RealtimeEnvironment.future_of` --
so socket traffic and store/watch/integrator work interleave on the
same schedule.

The listener runs only while the kernel runs: start it, then drive the
environment (``env.run()`` idles on an empty queue while a listener is
registered, waiting for sockets to inject work).
"""

import asyncio
import json
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ConfigurationError
from repro.rest.server import Request, Response

#: Hard cap on header block + body we are willing to buffer.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK", 201: "Created", 204: "No Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 500: "Internal Server Error",
}


class HttpListener:
    """A live ``host:port`` serving one :class:`RestServer`.

    Create via :meth:`repro.rest.RestServer.serve`.  ``port=0`` binds an
    ephemeral port; read :attr:`port` after :meth:`start`.
    """

    def __init__(self, env, server, host="127.0.0.1", port=0):
        if env.backend != "realtime":
            raise ConfigurationError(
                "a real TCP listener needs the realtime backend "
                "(RealtimeEnvironment); the sim exchanges requests "
                "through RestClient instead"
            )
        self.env = env
        self.server = server
        self.host = host
        self._requested_port = port
        self._tcp = None
        self._connections = set()  # live connection tasks
        self.connections_accepted = 0

    @property
    def port(self):
        """The bound port (valid once started)."""
        if self._tcp is None:
            return self._requested_port
        return self._tcp.sockets[0].getsockname()[1]

    @property
    def address(self):
        return f"http://{self.host}:{self.port}"

    def start(self):
        """Bind the socket (callable from sync code, before ``env.run``)."""
        if self._tcp is not None:
            return self
        self._tcp = self.env.loop.run_until_complete(
            asyncio.start_server(
                self._serve_connection, self.host, self._requested_port
            )
        )
        # While we are listening, an empty kernel queue means "idle",
        # not "finished".
        self.env.register_external_source(self)
        return self

    def stop(self):
        """Close the socket and every connection, and let ``env.run()``
        terminate when drained.

        Open connections (an idle keep-alive one, or one whose client
        just hung up and whose task has not seen the EOF yet) are
        cancelled here and unwind -- ``writer.close()``,
        ``wait_closed()`` -- before this returns; called from inside the
        running loop, they finish on its next turns, or under
        ``env.close()`` at the latest.  Left for the loop's teardown to
        cancel, a connection task would end *cancelled*, which asyncio's
        stream protocol reports as an "Exception in callback" traceback.
        """
        if self._tcp is None:
            return
        tcp, self._tcp = self._tcp, None
        tcp.close()
        loop = self.env.loop
        if not loop.is_closed():
            connections = list(self._connections)
            for task in connections:
                task.cancel()
            if not loop.is_running():
                loop.run_until_complete(tcp.wait_closed())
                if connections:
                    loop.run_until_complete(asyncio.wait(connections))
        self.env.unregister_external_source(self)

    # -- connection handling ----------------------------------------------

    async def _serve_connection(self, reader, writer):
        self.connections_accepted += 1
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            try:
                await self._serve_requests(reader, writer)
            finally:
                writer.close()
                await writer.wait_closed()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # :meth:`stop` cancelled us (or the environment is closing
            # after it): that is this connection's orderly end, so the
            # task finishes instead of ending cancelled.  Any other
            # cancellation is not ours to absorb.
            if self._tcp is not None:
                raise
        finally:
            self._connections.discard(task)

    async def _serve_requests(self, reader, writer):
        keep_alive = True
        while keep_alive:
            request = await self._read_request(reader)
            if request is None:
                return
            if isinstance(request, int):  # parse-level error status
                response = Response(request, {"error": _REASONS[request]})
                keep_alive = False
            else:
                bound, keep_alive = request
                try:
                    response = await self.env.future_of(
                        self.server.dispatch(bound))
                except Exception as exc:
                    # A handler bug: answer 500 and hang up, not die mute.
                    response = Response(500, {"error": repr(exc)})
                    keep_alive = False
            await self._write_response(writer, response, keep_alive)

    async def _read_request(self, reader):
        """One request off the wire -> (Request, keep_alive) | status | None."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            return 400
        except asyncio.LimitOverrunError:
            return 413
        if len(head) > MAX_HEADER_BYTES:
            return 413
        try:
            request_line, *header_lines = head.decode("latin-1").split("\r\n")
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            return 400
        headers = {}
        for line in header_lines:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
            parts = urlsplit(target)
        except ValueError:
            return 400
        if not 0 <= length <= MAX_BODY_BYTES:
            return 400 if length < 0 else 413
        body = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except (ValueError, RecursionError):  # malformed, or nested too deep
                return 400
        keep_alive = headers.get("connection", "").lower() != "close"
        return Request(
            method=method.upper(),
            path=parts.path,
            query=dict(parse_qsl(parts.query)),
            body=body,
        ), keep_alive

    async def _write_response(self, writer, response, keep_alive):
        status, body = response.status, response.body
        payload = json.dumps(body if body is not None else {}).encode()
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {connection}\r\n\r\n".encode("latin-1")
            + payload
        )
        await writer.drain()

    def __repr__(self):
        state = "listening" if self._tcp is not None else "stopped"
        return f"<HttpListener {self.address} {state}>"
