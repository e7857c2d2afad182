"""Thin synchronous client for a ``repro serve`` instance (stdlib only).

Built on :mod:`http.client` through
:class:`~repro.serve.http.KeepAliveClient`: each thread keeps one
connection open across calls, so one client may serve many threads.
The load generator and tests drive the service exclusively through this
module, so it doubles as the reference for the wire protocol.

Typical use::

    client = ServeClient("127.0.0.1", 8642)
    result = client.run({"benchmark": "lib", "timing": False})
    print(result.benchmark, result.value.instructions)

:meth:`ServeClient.run` is the high-level path: one request that
submits and waits, so the :class:`~repro.sim.result.RunResult` comes
back in the reply, transparently re-submitting on ``429`` backpressure
(honouring ``Retry-After``).  Only a job that outlives the wait costs
further requests: status long-polls, then the result.
"""

from __future__ import annotations

import time
from dataclasses import asdict

from repro.serve.http import KeepAliveClient
from repro.sim.result import RunResult
from repro.sim.session import SimRequest


class ServeError(Exception):
    """Base class for protocol-level failures."""

    def __init__(self, status: int, detail: str):
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail


class Backpressure(ServeError):
    """The server rejected a submission (bounded queue at capacity)."""

    def __init__(self, status: int, detail: str, retry_after: float):
        super().__init__(status, detail)
        self.retry_after = retry_after


class JobFailed(ServeError):
    """The job reached the ``failed`` terminal state."""


def request_payload(request: SimRequest | dict) -> dict:
    """Normalize a request spec into the wire format."""
    if isinstance(request, SimRequest):
        spec = asdict(request)
        spec["config_overrides"] = dict(request.config_overrides)
    else:
        spec = dict(request)
    if not spec.get("config_overrides"):
        spec.pop("config_overrides", None)
    return spec


class ServeClient:
    """Blocking JSON-over-HTTP client for one server endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._http = KeepAliveClient(host, port, timeout)

    # ------------------------------------------------------------------
    # Raw HTTP
    # ------------------------------------------------------------------
    def _call(self, method: str, path: str, body: dict | None = None):
        return self._http.call(method, path, body)

    def close(self) -> None:
        """Close the calling thread's connection (reopened on demand)."""
        self._http.close()

    def _checked(self, method: str, path: str, body: dict | None = None):
        status, headers, payload = self._call(method, path, body)
        if status == 429:
            retry_after = float(
                headers.get("Retry-After")
                or payload.get("retry_after")
                or 1.0
            )
            raise Backpressure(
                status, payload.get("error", "queue full"), retry_after
            )
        if status >= 400:
            raise ServeError(status, payload.get("error", str(payload)))
        return status, payload

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._checked("GET", "/healthz")[1]

    def metrics(self) -> dict:
        return self._checked("GET", "/v1/metrics")[1]

    def jobs(self) -> list[dict]:
        return self._checked("GET", "/v1/jobs")[1]["jobs"]

    def drain(self) -> dict:
        return self._checked("POST", "/v1/drain")[1]

    def submit(
        self,
        request: SimRequest | dict,
        priority: int = 0,
        wait: float | None = None,
    ) -> dict:
        """Submit one request; returns the job status payload.

        With ``wait`` the server holds the reply until the job is
        terminal or ``wait`` seconds pass; a terminal job's reply also
        carries ``"result"`` (the ``RunResult`` dict, ``None`` if the
        job failed).  Raises :class:`Backpressure` on 429 — callers
        decide whether to honour ``retry_after`` and resubmit (``run``
        does).
        """
        body = {"request": request_payload(request), "priority": priority}
        if wait is not None:
            body["wait"] = wait
        _status, payload = self._checked("POST", "/v1/jobs", body)
        return payload

    def status(self, job_id: str, wait: float | None = None) -> dict:
        path = f"/v1/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
        return self._checked("GET", path)[1]["job"]

    def result(self, job_id: str) -> RunResult:
        _status, payload = self._checked(
            "GET", f"/v1/jobs/{job_id}/result"
        )
        if payload.get("result") is None:
            job = payload.get("job", {})
            raise JobFailed(200, job.get("error") or "job failed")
        return RunResult.from_dict(payload["result"])

    # ------------------------------------------------------------------
    # High-level round trip
    # ------------------------------------------------------------------
    def run(
        self,
        request: SimRequest | dict,
        priority: int = 0,
        *,
        poll_wait: float = 10.0,
        deadline: float = 600.0,
        on_backpressure=None,
    ) -> RunResult:
        """Submit and wait in one request, resubmitting politely under 429s.

        A job still unfinished after ``poll_wait`` seconds is long-polled
        until terminal, then its result fetched.  ``on_backpressure`` (if
        given) is called with each :class:`Backpressure` before the
        client sleeps and retries — the load generator counts shed
        requests through it.
        """
        give_up = time.monotonic() + deadline
        while True:
            try:
                submission = self.submit(request, priority, wait=poll_wait)
                break
            except Backpressure as exc:
                if on_backpressure is not None:
                    on_backpressure(exc)
                if time.monotonic() + exc.retry_after > give_up:
                    raise
                time.sleep(exc.retry_after)
        job = submission["job"]
        if submission.get("result") is not None:
            return RunResult.from_dict(submission["result"])
        while job["state"] not in ("done", "failed"):
            if time.monotonic() > give_up:
                raise ServeError(408, f"job {job['id']} still {job['state']}")
            job = self.status(job["id"], wait=poll_wait)
        if job["state"] == "failed":
            raise JobFailed(200, job.get("error") or "job failed")
        return self.result(job["id"])

    def wait_ready(self, deadline: float = 10.0) -> bool:
        """Poll ``/healthz`` until the server answers (boot helper)."""
        give_up = time.monotonic() + deadline
        while time.monotonic() < give_up:
            try:
                self.health()
                return True
            except (OSError, ServeError):
                time.sleep(0.05)
        return False
