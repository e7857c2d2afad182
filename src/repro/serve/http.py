"""Shared JSON-over-HTTP plumbing for the service layers (stdlib only).

Both ``repro.serve`` (the simulation service) and ``repro.cluster`` (the
distributed sweep coordinator) speak the same deliberately small dialect:
HTTP/1.1 over ``asyncio`` streams on the server side, JSON bodies both
ways.  This module is the one implementation of that dialect and of its
connection policy:

* :class:`HTTPServer` — the async server half: one listener and one
  connection loop, shared by :class:`~repro.serve.server.ServeApp` and
  the cluster coordinator.  A connection stays open for further
  requests (HTTP/1.1 keep-alive) until the client closes it or sends
  ``Connection: close``, it sits idle for :data:`IDLE_TIMEOUT`, or the
  server shuts down;
* :class:`KeepAliveClient` — the blocking client half for a caller that
  sends many requests (:class:`~repro.serve.client.ServeClient`): one
  kept-alive :mod:`http.client` connection per thread;
* :func:`http_json_call` — one request on a connection of its own, for
  the cluster worker/session clients and other occasional callers;
* :func:`close_inherited_sockets` — the initializer a forked worker pool
  needs so that it holds none of the server's sockets;
* :class:`BadRequest` — the client-error exception every route handler
  raises to produce a 400 with the message as detail.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import stat
import threading

from repro.obs.log import get_logger

logger = get_logger("serve.http")

#: Status-line reason phrases for the statuses the services emit.
REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Longest accepted request body.  SimRequests are tiny; the largest
#: legitimate payload is a cache write-through (a serialized RunResult
#: with its sampled timeline), which still fits comfortably.
MAX_BODY = 8 << 20

#: Seconds a kept-alive connection may wait for its next request before
#: the server closes it.  The server closes a connection only between
#: requests, so a client that finds its idle connection closed may send
#: the request again on a new one.
IDLE_TIMEOUT = 5.0


class BadRequest(Exception):
    """Client error turned into a 400 with the message as detail."""


def parse_hostport(value: str, default_port: int) -> tuple[str, int]:
    """Parse a ``HOST[:PORT]`` CLI argument."""
    host, _, port = value.partition(":")
    if not host:
        raise ValueError(f"empty host in {value!r}")
    if not port:
        return host, default_port
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(f"bad port in {value!r}") from exc


async def read_request(
    reader, line: bytes
) -> tuple[str, str, dict[str, str], bytes, bool]:
    """Read the rest of the request whose request line is ``line``.

    Returns ``(method, path, query, body, keep_alive)``; ``keep_alive``
    is false when the client asked to close after the reply (HTTP/1.0,
    or ``Connection: close``).  Raises :class:`BadRequest` on malformed
    input and ``asyncio.IncompleteReadError`` on a truncated body.
    """
    try:
        method, target, version = line.decode("ascii").split()
    except ValueError as exc:
        raise BadRequest("malformed request line") from exc
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or 0)
    except ValueError as exc:
        raise BadRequest("malformed Content-Length") from exc
    if length > MAX_BODY:
        raise BadRequest("request body too large")
    body = await reader.readexactly(length) if length else b""
    path, _, raw_query = target.partition("?")
    query: dict[str, str] = {}
    for pair in raw_query.split("&"):
        if pair:
            k, _, v = pair.partition("=")
            query[k] = v
    keep_alive = (
        version == "HTTP/1.1"
        and "close" not in headers.get("connection", "").lower()
    )
    return method.upper(), path, query, body, keep_alive


async def respond(
    writer,
    status: int,
    payload: dict,
    headers: dict[str, str] | None = None,
    *,
    keep_alive: bool = False,
) -> None:
    """Write one complete JSON response and flush it."""
    body = json.dumps(payload, sort_keys=True).encode()
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write("\r\n".join(lines).encode() + b"\r\n\r\n" + body)
    await writer.drain()


class HTTPServer:
    """One asyncio listener whose connections serve many requests each.

    ``handle(writer, method, path, query, body)`` answers one request
    with ``(status, payload)`` or ``(status, payload, headers)``.  It
    returns ``None`` after writing a reply of its own (an event stream),
    which ends the connection.  :class:`BadRequest` becomes a 400 and any
    other exception a 500.
    """

    def __init__(self, handle):
        self.handle = handle
        self._closing = False
        self._server: asyncio.base_events.Server | None = None
        #: connections waiting for their next request
        self._idle: set = set()

    async def start(self, host: str, port: int) -> tuple[str, int]:
        """Listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(self._serve, host, port)
        return self._server.sockets[0].getsockname()[:2]

    async def close(self) -> None:
        """Stop listening and end every connection.

        Idle connections close at once; a connection busy with a request
        closes after its reply.  (From Python 3.12 on, ``wait_closed``
        waits for every connection, so an idle one left open would hold
        up shutdown until it timed out or its client hung up.)
        """
        self._closing = True
        if self._server is None:
            return
        self._server.close()
        for writer in self._idle:
            writer.close()
        await self._server.wait_closed()

    async def _serve(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        try:
            while not self._closing:
                self._idle.add(writer)
                idle_close = loop.call_later(IDLE_TIMEOUT, writer.close)
                try:
                    line = await reader.readline()
                finally:
                    idle_close.cancel()
                    self._idle.discard(writer)
                if not line:
                    return  # the client hung up, or the server closed
                try:
                    method, path, query, body, keep_alive = (
                        await read_request(reader, line)
                    )
                except BadRequest as exc:
                    await respond(writer, 400, {"error": str(exc)})
                    return
                try:
                    response = await self.handle(
                        writer, method, path, query, body
                    )
                except BadRequest as exc:
                    response = 400, {"error": str(exc)}
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    logger.warning(f"internal error serving {path}: {exc}")
                    response = 500, {"error": f"{type(exc).__name__}: {exc}"}
                if response is None:
                    return
                keep_alive = keep_alive and not self._closing
                await respond(writer, *response, keep_alive=keep_alive)
                if not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            # ValueError: a request line longer than the stream limit.
            return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError, asyncio.CancelledError):
                # CancelledError: the loop is tearing down mid-close
                # (drain-initiated shutdown); the socket is going away
                # with it, so there is nothing left to clean up.
                pass


def _exchange(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: dict | None,
    headers: dict[str, str],
) -> tuple[int, dict[str, str], dict]:
    data = json.dumps(body).encode() if body is not None else None
    if data:
        headers = {**headers, "Content-Type": "application/json"}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    try:
        payload = json.loads(raw) if raw else {}
    except json.JSONDecodeError:
        payload = {"error": raw.decode("utf-8", "replace")}
    return response.status, dict(response.getheaders()), payload


def http_json_call(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    timeout: float = 30.0,
) -> tuple[int, dict[str, str], dict]:
    """One blocking JSON round trip: ``(status, headers, payload)``.

    Opens a connection for this one request and asks the server to
    close it after the reply.  A non-JSON response body is wrapped as
    ``{"error": <text>}`` so callers always get a dict.  Network
    failures surface as ``OSError`` (including ``ConnectionError`` /
    ``socket.timeout``) for callers to map onto their own
    unreachable-peer handling.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        return _exchange(conn, method, path, body, {"Connection": "close"})
    finally:
        conn.close()


class _Connection(http.client.HTTPConnection):
    """A kept-alive connection that closes its socket when dropped.

    It lives in thread-local storage, so it is dropped when its thread
    ends or its client is collected, usually without a ``close()``.
    """

    def __del__(self):
        self.close()


class KeepAliveClient:
    """Blocking JSON client keeping one open connection per thread.

    :meth:`call` returns what :func:`http_json_call` does.  When the
    server has closed a connection while it sat idle, the request is
    sent once more on a new connection.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = _Connection(
                self.host, self.port, timeout=self.timeout
            )
        return conn

    def call(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict[str, str], dict]:
        conn = self._connection()
        reused = conn.sock is not None
        try:
            return _exchange(conn, method, path, body, {})
        except ConnectionError:
            # A reused connection fails here when the server closed it
            # while idle, which it does only before reading a request.
            conn.close()
            if not reused:
                raise
        except BaseException:
            # A timeout or interrupt leaves a reply unread on the socket.
            conn.close()
            raise
        try:
            return _exchange(conn, method, path, body, {})
        except BaseException:
            conn.close()
            raise

    def close(self) -> None:
        """Close the calling thread's connection (reopened on demand)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()


def close_inherited_sockets() -> None:
    """Pool initializer: let go of every socket a forked worker inherited.

    A worker forked by a server inherits its listener and every open
    connection.  Holding them keeps a connection the server closed from
    ever ending (its client waits for a reply that never comes) and the
    port bound after the server dies.  Pool workers talk to their parent
    over pipes, never sockets.  Each socket descriptor is pointed at
    ``/dev/null`` rather than closed, so the number cannot be reused by
    a file a stray close of the old socket object would then cut off.
    The standard streams are left alone.
    """
    try:
        names = os.listdir("/proc/self/fd")
    except FileNotFoundError:
        return  # no procfs (macOS, whose pools spawn rather than fork)
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in map(int, names):
            if fd <= 2 or fd == null:
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd, inheritable=False)
            except OSError:
                pass  # the listing's own descriptor, closed by now
    finally:
        os.close(null)
