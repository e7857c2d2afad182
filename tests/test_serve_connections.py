"""Connection-level tests for repro.serve: one exchange per request,
kept-alive connections, the idle close, the bounded job table, fork
hygiene and shutdown.

Most tests boot an :class:`EmbeddedServer` with thread workers.  The
fork-hygiene tests use the process executor instead, because only
forked pool workers inherit the server's sockets.
"""

import concurrent.futures
import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from serve_helpers import EmbeddedServer

import repro
from repro.serve import http as serve_http
from repro.serve.client import JobFailed, ServeClient, ServeError
from repro.serve.jobs import MAX_FINISHED_JOBS

REQUEST = {"benchmark": "lib", "timing": False, "scale": "small"}


def requests_served(server: EmbeddedServer) -> int:
    return server.app.requests.value


def closed_by_peer(sock: socket.socket, timeout: float) -> bool:
    """True when the other end closes ``sock`` within ``timeout`` s."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except socket.timeout:
        return False


def get(conn: http.client.HTTPConnection, path: str, **headers):
    conn.request("GET", path, headers=headers)
    response = conn.getresponse()
    response.read()
    return response


class TestOneExchange:
    def test_warm_run_is_one_request(self):
        with EmbeddedServer() as server:
            client = server.client()
            cold = client.run(REQUEST)
            before = requests_served(server)
            warm = client.run(REQUEST)
            assert requests_served(server) - before == 1
            assert warm.to_dict() == cold.to_dict()

    def test_cold_run_finishing_within_wait_is_one_request(self):
        with EmbeddedServer() as server:
            client = server.client()
            before = requests_served(server)
            result = client.run(REQUEST, poll_wait=30)
            assert requests_served(server) - before == 1
            assert server.app.scheduler.simulations.value == 1
            assert result.benchmark == "lib" and not result.timing_mode

    def test_inline_result_is_the_result_resource(self):
        with EmbeddedServer() as server:
            client = server.client()
            reply = client.submit(REQUEST, wait=30)
            assert reply["job"]["state"] == "done"
            _, fetched = client._checked(
                "GET", f"/v1/jobs/{reply['job']['id']}/result"
            )
            assert reply["result"] == fetched["result"]
            # Without "wait" the reply is as before: no result in it.
            assert "result" not in client.submit(REQUEST)

    def test_failed_job_answers_in_one_request(self):
        def broken(request):
            future = concurrent.futures.Future()
            future.set_exception(RuntimeError("worker exploded"))
            return future

        with EmbeddedServer(max_retries=0) as server:
            server.app.scheduler.submit_fn = broken
            client = server.client()
            before = requests_served(server)
            with pytest.raises(JobFailed, match="worker exploded"):
                client.run(REQUEST)
            assert requests_served(server) - before == 1

    def test_wait_must_be_a_number(self):
        with EmbeddedServer() as server:
            with pytest.raises(ServeError) as excinfo:
                server.client().submit(REQUEST, wait="soon")
            assert excinfo.value.status == 400


class TestConnectionLoop:
    def test_requests_share_one_connection(self):
        with EmbeddedServer() as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            assert get(conn, "/healthz").getheader("Connection") == (
                "keep-alive"
            )
            sock = conn.sock
            get(conn, "/v1/metrics")
            assert conn.sock is sock
            # Asked to close, the server does so after its reply (the
            # client closes its own descriptor too, so watch a copy).
            with sock.dup() as copy:
                response = get(conn, "/healthz", Connection="close")
                assert response.getheader("Connection") == "close"
                assert closed_by_peer(copy, 5)
            conn.close()

    def test_malformed_content_length_is_400(self):
        with EmbeddedServer() as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Content-Length: many\r\n\r\n"
                )
                reply = sock.makefile("rb").read()
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert b"Content-Length" in reply.split(b"\r\n\r\n", 1)[1]

    def test_idle_close_and_client_reconnect(self, monkeypatch):
        monkeypatch.setattr(serve_http, "IDLE_TIMEOUT", 0.2)
        with EmbeddedServer() as server:
            client = server.client()
            client.health()
            # A connection opened after the client's went idle later, so
            # once it has been closed the client's has been too.
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            get(conn, "/healthz")
            assert closed_by_peer(conn.sock, 5)
            conn.close()
            before = requests_served(server)
            assert client.health()["status"] == "ok"
            assert requests_served(server) - before == 1


class TestJobTable:
    def test_keeps_only_recent_terminal_jobs(self):
        release = threading.Event()
        stalled = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        with EmbeddedServer(workers=1) as server:
            scheduler = server.app.scheduler
            client = server.client()
            first = client.submit(REQUEST, wait=30)["job"]
            assert first["state"] == "done"
            simulate = scheduler.submit_fn

            def stall(request):
                def _wait():
                    release.wait(30)
                    return simulate(request).result(30)

                return stalled.submit(_wait)

            scheduler.submit_fn = stall
            live = client.submit({**REQUEST, "benchmark": "pathfinder"})
            live = live["job"]
            for _ in range(MAX_FINISHED_JOBS + 1):
                assert client.submit(REQUEST)["job"]["source"] == "cache"
            assert len(scheduler.jobs) == MAX_FINISHED_JOBS + 1
            assert live["id"] in scheduler.jobs
            assert all(
                job.material is None
                for job in scheduler.jobs.values()
                if job.terminal
            )
            with pytest.raises(ServeError) as excinfo:
                client.status(first["id"])
            assert excinfo.value.status == 404
            release.set()
            assert client.status(live["id"], wait=30)["state"] == "done"
        stalled.shutdown(wait=True)


class TestShutdown:
    def test_shutdown_with_idle_client_is_prompt(self):
        server = EmbeddedServer()
        with server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            get(conn, "/healthz")
            started = time.monotonic()
        assert time.monotonic() - started < 1.0
        assert closed_by_peer(conn.sock, 1)
        conn.close()


class TestForkHygiene:
    def test_worker_holds_no_connection_open(self, monkeypatch):
        monkeypatch.setattr(serve_http, "IDLE_TIMEOUT", 1.0)
        with EmbeddedServer(executor="process", workers=1) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=10
            )
            get(conn, "/healthz")
            # The first simulation forks the pool while ``conn`` is open.
            client = server.client()
            client.run(REQUEST)
            client.close()
            assert closed_by_peer(conn.sock, 10), (
                "the server's idle close never reached the client"
            )
            conn.close()

    def test_port_rebinds_after_sigkill(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.verify", "serve",
             "--port", str(port), "--workers", "1", "--no-cache"],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            client = ServeClient("127.0.0.1", port, timeout=30)
            assert client.wait_ready(30)
            client.run(REQUEST)  # forks the pool
            client.close()
            server.kill()
            server.wait(10)
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("127.0.0.1", port))
                sock.listen()
        finally:
            # The pool workers outlive a SIGKILLed server.
            try:
                os.killpg(server.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            server.wait(10)
