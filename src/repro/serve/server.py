"""Asyncio JSON-over-HTTP front end for the job scheduler (stdlib only).

A deliberately small HTTP/1.1 implementation over ``asyncio`` streams —
no framework; the connection loop lives in :mod:`repro.serve.http` —
that exposes the :class:`~repro.serve.jobs.JobScheduler` as a service:

====== ============================ =====================================
POST   ``/v1/jobs``                 submit a ``SimRequest`` (JSON body);
                                    ``200`` cached result, ``202``
                                    queued/coalesced, ``400`` bad
                                    request, ``429`` + ``Retry-After``
                                    backpressure, ``503`` draining.
                                    With ``"wait": S`` the server first
                                    long-polls the job (max 60 s): a
                                    terminal job answers ``200`` with
                                    the ``RunResult`` inline as
                                    ``"result"`` (``null`` if it failed)
GET    ``/v1/jobs``                 list job summaries
GET    ``/v1/jobs/<id>``            job status; ``?wait=S`` long-polls
                                    until terminal (max S seconds)
GET    ``/v1/jobs/<id>/result``     the ``RunResult`` artifact (``409``
                                    until the job is terminal)
GET    ``/v1/jobs/<id>/events``     server-sent-events status stream
GET    ``/v1/metrics``              scheduler + session cache metrics
                                    (``/metrics`` is an alias)
GET    ``/healthz``                 liveness / drain state
POST   ``/v1/drain``                begin graceful drain (also SIGTERM)
====== ============================ =====================================

Submission body::

    {"request": {"benchmark": "lib", "policy": "warped",
                 "timing": false, "scale": "small", ...},
     "priority": 0, "wait": 10}

``request`` accepts every :class:`~repro.sim.session.SimRequest` field;
``config_overrides`` as a ``{name: value}`` object.  ``wait`` is
optional; without it the reply never carries the result.

Connections are HTTP/1.1 keep-alive: one serves request after request
until the client closes it or sends ``Connection: close``, it sits idle
for :data:`~repro.serve.http.IDLE_TIMEOUT` seconds, or the server shuts
down.  An event stream ends its connection.  The server keeps the
:data:`~repro.serve.jobs.MAX_FINISHED_JOBS` most recent terminal jobs;
an older id answers ``404``.
"""

from __future__ import annotations

import asyncio
import json
import signal
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from repro.obs.log import get_logger
from repro.obs.metrics import MetricRegistry
from repro.serve.http import (
    MAX_BODY,
    BadRequest,
    HTTPServer,
    close_inherited_sockets,
)
from repro.serve.jobs import (
    Draining,
    JobScheduler,
    QueueFull,
    default_submit_fn,
)
from repro.sim.session import Session, SimRequest

__all__ = [
    "BadRequest",
    "MAX_BODY",
    "ServeApp",
    "ServeConfig",
    "WORKERS_ENV",
    "parse_sim_request",
    "run_server",
    "start_app",
]

logger = get_logger("serve.server")

#: Environment variable providing the default worker-pool size.
WORKERS_ENV = "REPRO_SERVE_WORKERS"


@dataclass(frozen=True)
class ServeConfig:
    """Everything `repro serve` needs to boot one server."""

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2
    #: ``process`` (default) or ``thread`` (in-process; tests/debugging)
    executor: str = "process"
    max_queue: int = 256
    job_timeout: float = 300.0
    max_retries: int = 2
    backoff_base: float = 0.5
    drain_timeout: float = 30.0
    cache_dir: str | None = None
    use_disk_cache: bool = True
    scale: str = "small"


def parse_sim_request(payload: dict, default_scale: str) -> SimRequest:
    """Build a validated :class:`SimRequest` from a JSON submission."""
    from repro.kernels import benchmark_names

    if not isinstance(payload, dict):
        raise BadRequest("body must be a JSON object")
    spec = payload.get("request")
    if not isinstance(spec, dict):
        raise BadRequest('body must carry a "request" object')
    spec = dict(spec)
    benchmark = spec.pop("benchmark", None)
    if not benchmark:
        raise BadRequest('request needs a "benchmark"')
    known = set(benchmark_names()) | set(benchmark_names(extended=True))
    if benchmark not in known:
        raise BadRequest(f"unknown benchmark {benchmark!r}")
    overrides = spec.pop("config_overrides", None)
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise BadRequest("config_overrides must be an object")
        spec["config_overrides"] = tuple(sorted(overrides.items()))
    spec.setdefault("scale", default_scale)
    allowed = set(SimRequest.__dataclass_fields__)
    unknown = set(spec) - allowed
    if unknown:
        raise BadRequest(f"unknown request fields: {sorted(unknown)}")
    try:
        request = SimRequest(benchmark=benchmark, **spec)
        request.gpu_config()  # force config validation up front
    except (TypeError, ValueError) as exc:
        raise BadRequest(str(exc)) from exc
    return request


class ServeApp:
    """Routes HTTP requests onto one scheduler; owns server lifecycle."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.metrics = MetricRegistry(enabled=True)
        self.requests = self.metrics.counter("serve.http_requests")
        self.session = Session(
            scale=config.scale,
            cache_dir=config.cache_dir,
            use_disk_cache=config.use_disk_cache,
        )
        if config.executor == "thread":
            self.executor = ThreadPoolExecutor(max_workers=config.workers)
        else:
            # Workers fork at the first simulation and would otherwise
            # hold every socket open at that moment.
            self.executor = ProcessPoolExecutor(
                max_workers=config.workers,
                initializer=close_inherited_sockets,
            )
        self.scheduler = JobScheduler(
            self.session,
            default_submit_fn(self.executor),
            workers=config.workers,
            max_queue=config.max_queue,
            job_timeout=config.job_timeout,
            max_retries=config.max_retries,
            backoff_base=config.backoff_base,
            metrics=self.metrics,
        )
        self.http = HTTPServer(self._handle)
        self._stopped = asyncio.Event()
        self._shutting_down = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind, start workers, and return the bound (host, port)."""
        self.scheduler.start()
        host, port = await self.http.start(self.config.host, self.config.port)
        logger.info(
            f"repro serve listening on http://{host}:{port} "
            f"({self.config.workers} {self.config.executor} workers, "
            f"queue bound {self.config.max_queue})"
        )
        return host, port

    async def shutdown(self, *, drain: bool = True) -> None:
        """Graceful stop: drain jobs, close connections and the pool."""
        if self._shutting_down:
            await self._stopped.wait()
            return
        self._shutting_down = True
        if drain:
            drained = await self.scheduler.drain(self.config.drain_timeout)
            if not drained:
                logger.warning(
                    "drain timed out; abandoning unfinished jobs"
                )
        await self.http.close()
        await self.scheduler.close()
        self.executor.shutdown(wait=False, cancel_futures=True)
        self._stopped.set()

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`shutdown` completes (CLI main loop)."""
        await self._stopped.wait()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain, then exit."""
        loop = asyncio.get_running_loop()

        def _initiate(signame: str) -> None:
            logger.info(f"received {signame}: draining")
            asyncio.ensure_future(self.shutdown(drain=True))

        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, _initiate, sig.name)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _handle(self, writer, method, path, query, body):
        self.requests.inc()
        try:
            return await self._route(writer, method, path, query, body)
        except QueueFull as exc:
            return (
                429,
                {"error": "queue full", "retry_after": exc.retry_after},
                {"Retry-After": str(max(1, int(exc.retry_after)))},
            )
        except Draining:
            return 503, {"error": "server is draining"}

    async def _route(self, writer, method, path, query, body):
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "draining" if self.scheduler.draining else "ok",
                "jobs": len(self.scheduler.jobs),
                "queued": len(self.scheduler.queue),
            }
        if path in ("/v1/metrics", "/metrics") and method == "GET":
            return 200, self._metrics_payload()
        if path == "/v1/drain" and method == "POST":
            asyncio.ensure_future(self.shutdown(drain=True))
            return 202, {"status": "draining"}
        if path == "/v1/jobs" and method == "POST":
            return await self._submit(body)
        if path == "/v1/jobs" and method == "GET":
            return 200, {
                "jobs": [job.to_dict() for job in self.scheduler.jobs.values()]
            }
        if path.startswith("/v1/jobs/"):
            return await self._job_resource(writer, method, path, query)
        return 404, {"error": f"no route {path}"}

    def _metrics_payload(self) -> dict:
        # Cross-warp batching counters are process-global; under the
        # process-pool executor the workers accumulate their own copies,
        # so this snapshot covers in-process (thread-executor) runs only.
        from repro.gpu.batch import BATCH_STATS

        return {
            "metrics": self.metrics.read_all(),
            "histograms": self.metrics.histograms(),
            "batching": BATCH_STATS.snapshot(),
            "draining": self.scheduler.draining,
        }

    @staticmethod
    def _wait_seconds(value) -> float:
        """A client's long-poll ``wait``, capped at 60 s."""
        try:
            return min(60.0, max(0.0, float(value)))
        except (TypeError, ValueError) as exc:
            raise BadRequest("wait must be a number") from exc

    async def _submit(self, body: bytes):
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        request = parse_sim_request(payload, self.config.scale)
        priority = payload.get("priority", 0)
        if not isinstance(priority, int):
            raise BadRequest("priority must be an integer")
        wait = payload.get("wait")
        if wait is not None:
            wait = self._wait_seconds(wait)
        job, coalesced = await self.scheduler.submit(request, priority)
        reply = {"coalesced": coalesced}
        if wait is not None:
            await self.scheduler.wait(job, wait)
            if job.terminal:
                reply["result"] = (
                    job.result.to_dict() if job.state == "done" else None
                )
        reply["job"] = job.to_dict()
        return (200 if job.terminal else 202), reply

    async def _job_resource(self, writer, method, path, query):
        if method != "GET":
            return 405, {"error": "GET only"}
        parts = path.split("/")  # '', 'v1', 'jobs', '<id>'[, sub]
        job = self.scheduler.get(parts[3])
        if job is None:
            return 404, {"error": "unknown job"}
        sub = parts[4] if len(parts) > 4 and parts[4] else None
        if sub is None:
            wait = query.get("wait")
            if wait is not None:
                await self.scheduler.wait(job, self._wait_seconds(wait))
            return 200, {"job": job.to_dict()}
        if sub == "result":
            if not job.terminal:
                return 409, {"error": "job not finished", "state": job.state}
            if job.state == "failed":
                return 200, {"job": job.to_dict(), "result": None}
            return 200, job.to_dict(include_result=True)
        if sub == "events":
            await self._stream_events(writer, job)
            return None
        return 404, {"error": f"no route {path}"}

    async def _stream_events(self, writer, job) -> None:
        """Server-sent-events: one ``data:`` line per state change."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        version = -1
        last_state = None
        while True:
            if job.state != last_state:
                last_state = job.state
                data = json.dumps(job.to_dict(), sort_keys=True)
                writer.write(f"data: {data}\n\n".encode())
                await writer.drain()
            if job.terminal:
                return
            version = await self.scheduler.wait_change(version, 5.0)


async def start_app(config: ServeConfig) -> tuple[ServeApp, str, int]:
    """Boot a server programmatically; returns (app, host, port)."""
    app = ServeApp(config)
    host, port = await app.start()
    return app, host, port


def run_server(config: ServeConfig) -> int:
    """Blocking CLI entry: serve until SIGTERM/SIGINT drains us."""

    async def _main() -> None:
        app = ServeApp(config)
        await app.start()
        app.install_signal_handlers()
        await app.serve_until_stopped()
        logger.info("repro serve stopped")

    asyncio.run(_main())
    return 0
