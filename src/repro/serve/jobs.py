"""Job model and async scheduler behind the simulation service.

The scheduler is the heart of ``repro.serve``: it turns concurrent
:class:`~repro.sim.session.SimRequest` submissions into at most one
simulation per distinct cache key, with explicit flow control:

* **warm-cache short-circuit** — a submission whose key is already in
  the session memo or on-disk cache completes immediately, without
  touching the queue or the worker pool;
* **request coalescing** — submissions whose key matches a queued or
  running job *attach* to that job instead of enqueuing a duplicate;
  every attached client observes the same terminal state and result;
* **bounded admission** — at most ``max_queue`` jobs may be queued
  (running jobs excluded); beyond that :meth:`JobScheduler.submit`
  raises :class:`QueueFull`, which the HTTP layer converts into a
  ``429`` with a ``Retry-After`` hint — the queue never grows without
  bound;
* **priority scheduling** — higher ``priority`` runs first; ties break
  FIFO by submission sequence number;
* **timeout → retry → backoff** — each attempt is bounded by
  ``job_timeout``; a timed-out or crashed attempt is retried up to
  ``max_retries`` times with exponential backoff
  (``backoff_base * 2**attempt`` seconds) before the job fails;
* **a bounded job table** — every live job stays, but only the
  :data:`MAX_FINISHED_JOBS` most recent terminal ones: the oldest is
  forgotten first.

Everything here runs on one asyncio event loop; simulations themselves
run on a ``concurrent.futures`` executor supplied by the server (a
``ProcessPoolExecutor`` in production, a thread pool or a fake in
tests) via an injectable ``submit_fn``.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import MetricRegistry, NULL_REGISTRY
from repro.sim.result import RunResult
from repro.sim.session import SIM_COUNTER, Session, SimRequest

#: Latency-histogram bucket bounds (seconds).
LATENCY_BOUNDS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                  10.0, 30.0, 60.0)

#: Terminal jobs the scheduler remembers; an older one's id is unknown.
#: A client that submits with ``wait`` gets the result in the reply and
#: never looks the job up again.
MAX_FINISHED_JOBS = 1024


class QueueFull(Exception):
    """Admission control rejected a submission (queue at capacity)."""

    def __init__(self, retry_after: float):
        super().__init__(f"job queue full, retry after {retry_after:.1f}s")
        self.retry_after = retry_after


class Draining(Exception):
    """The server is draining and no longer accepts submissions."""


#: Job lifecycle states (terminal: ``done`` / ``failed``).
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
TERMINAL = frozenset({DONE, FAILED})


@dataclass
class Job:
    """One scheduled simulation; possibly serving many submissions."""

    id: str
    key: str
    request: SimRequest
    #: the cache key's material, until the result is stored (``None``
    #: once the job is terminal)
    material: dict | None
    priority: int = 0
    state: str = QUEUED
    #: how the result was produced: ``cache`` | ``simulated`` | ``""``
    source: str = ""
    #: number of client submissions attached to this job (>= 1)
    submissions: int = 1
    #: execution attempts so far (retries increment this)
    attempts: int = 0
    error: str | None = None
    result: RunResult | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    def to_dict(self, include_result: bool = False) -> dict:
        """JSON-safe status view (the server's job resource)."""
        payload = {
            "id": self.id,
            "key": self.key,
            "benchmark": self.request.benchmark,
            "policy": self.request.policy,
            "timing": self.request.timing,
            "scale": self.request.scale,
            "priority": self.priority,
            "state": self.state,
            "source": self.source,
            "submissions": self.submissions,
            "attempts": self.attempts,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if include_result and self.result is not None:
            payload["result"] = self.result.to_dict()
        return payload


class PriorityJobQueue:
    """Bounded max-priority queue with FIFO tie-breaking.

    Pure data structure (no asyncio): pushes raise :class:`QueueFull`
    beyond ``max_queue`` entries, pops return the highest-priority,
    oldest job.  Kept separate from the scheduler so ordering and
    admission control are unit-testable without an event loop.
    """

    def __init__(self, max_queue: int = 256):
        self.max_queue = max_queue
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, job: Job, *, retry_after: float = 1.0) -> None:
        if len(self._heap) >= self.max_queue:
            raise QueueFull(retry_after)
        heapq.heappush(self._heap, (-job.priority, next(self._seq), job))

    def pop(self) -> Job:
        return heapq.heappop(self._heap)[2]


def default_submit_fn(executor) -> Callable:
    """Adapt a futures executor into the scheduler's ``submit_fn``.

    Reuses :func:`repro.sim.session._pool_simulate` so worker payloads
    match the session layer's parallel executor exactly (result dict +
    wall time + worker pid).
    """
    from repro.sim.session import _pool_simulate

    return lambda request: executor.submit(_pool_simulate, (request, None))


class JobScheduler:
    """Coalescing priority scheduler feeding a worker pool.

    ``workers`` asyncio consumer tasks pull jobs off the queue and run
    them through ``submit_fn`` (which must return a
    ``concurrent.futures.Future`` resolving to the
    ``_pool_simulate``-shaped payload dict).  Results are published to
    the shared :class:`~repro.sim.session.Session` memo/disk cache, so
    a restarted server — or a plain CLI run against the same cache
    directory — sees every previously computed artifact.
    """

    def __init__(
        self,
        session: Session,
        submit_fn: Callable,
        *,
        workers: int = 2,
        max_queue: int = 256,
        job_timeout: float = 300.0,
        max_retries: int = 2,
        backoff_base: float = 0.5,
        metrics: MetricRegistry | None = None,
    ):
        self.session = session
        self.submit_fn = submit_fn
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.queue = PriorityJobQueue(max_queue)
        self.jobs: dict[str, Job] = {}
        #: ids of the terminal jobs in ``jobs``, oldest first
        self._finished: deque[str] = deque()
        #: key -> non-terminal Job (the coalescing map)
        self.inflight: dict[str, Job] = {}
        self.draining = False
        self._running = 0
        self._job_seq = itertools.count(1)
        self._work = asyncio.Condition()
        self._changed = asyncio.Condition()
        self._version = 0
        self._tasks: list[asyncio.Task] = []
        #: EMA of recent service times, feeding the Retry-After hint.
        self._service_time = 0.1

        metrics = metrics if metrics is not None else NULL_REGISTRY
        self.metrics = metrics
        self.submitted = metrics.counter("serve.submitted")
        self.coalesced = metrics.counter("serve.coalesced")
        self.cache_hits = metrics.counter("serve.cache_hits")
        self.simulations = metrics.counter("serve.simulations")
        self.completed = metrics.counter("serve.completed")
        self.failures = metrics.counter("serve.failures")
        self.rejected = metrics.counter("serve.rejected")
        self.retries = metrics.counter("serve.retries")
        self.timeouts = metrics.counter("serve.timeouts")
        self.latency = metrics.histogram(
            "serve.latency_seconds", LATENCY_BOUNDS
        )
        metrics.probe("serve.queue_depth", lambda: len(self.queue))
        metrics.probe("serve.running", lambda: self._running)
        metrics.probe("serve.jobs_total", lambda: len(self.jobs))
        session.register_metrics(metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker consumer tasks on the running loop."""
        for n in range(self.workers):
            self._tasks.append(
                asyncio.create_task(self._worker(), name=f"serve-worker-{n}")
            )

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, wait for queued + running jobs to finish.

        Returns ``True`` when everything completed within ``timeout``.
        """
        self.draining = True
        async with self._work:
            self._work.notify_all()

        async def _idle() -> None:
            async with self._changed:
                await self._changed.wait_for(
                    lambda: not self.inflight and self._running == 0
                )

        try:
            await asyncio.wait_for(_idle(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def close(self) -> None:
        """Cancel worker tasks (pending jobs stay queued, unserved)."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks.clear()

    # ------------------------------------------------------------------
    # Submission (called from the HTTP layer, on the loop)
    # ------------------------------------------------------------------
    def retry_after_hint(self) -> float:
        """Seconds a rejected client should wait before resubmitting."""
        backlog = len(self.queue) + self._running
        per_slot = self._service_time / max(1, self.workers)
        return max(1.0, min(60.0, backlog * per_slot))

    async def submit(
        self, request: SimRequest, priority: int = 0
    ) -> tuple[Job, bool]:
        """Admit one request; returns ``(job, coalesced)``.

        Raises :class:`Draining` after drain started and
        :class:`QueueFull` when admission control rejects the request.
        """
        if self.draining:
            raise Draining("server is draining")
        self.submitted.inc()
        key, material, hit = self.session.lookup(request)

        live = self.inflight.get(key)
        if live is not None:
            live.submissions += 1
            self.coalesced.inc()
            return live, True

        job = Job(
            id=f"job-{next(self._job_seq):06d}",
            key=key,
            request=request,
            material=material if hit is None else None,
            priority=priority,
        )
        if hit is not None:
            # Warm cache: complete without queue or worker pool.
            self.cache_hits.inc()
            job.source = "cache"
            job.result = hit
            self.jobs[job.id] = job
            self._terminate(job, DONE)
            self.completed.inc()
            self.latency.observe(job.finished_at - job.submitted_at)
            return job, False

        try:
            self.queue.push(job, retry_after=self.retry_after_hint())
        except QueueFull:
            self.rejected.inc()
            raise
        self.jobs[job.id] = job
        self.inflight[key] = job
        async with self._work:
            self._work.notify()
        return job, False

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    async def wait(self, job: Job, timeout: float | None = None) -> Job:
        """Block (async) until ``job`` is terminal or ``timeout`` runs out."""
        if job.terminal:
            return job
        try:
            async with self._changed:
                await asyncio.wait_for(
                    self._changed.wait_for(lambda: job.terminal), timeout
                )
        except asyncio.TimeoutError:
            pass
        return job

    async def wait_change(self, version: int, timeout: float) -> int:
        """Event-stream helper: wait until the change counter moves."""
        try:
            async with self._changed:
                await asyncio.wait_for(
                    self._changed.wait_for(
                        lambda: self._version != version
                    ),
                    timeout,
                )
        except asyncio.TimeoutError:
            pass
        return self._version

    async def _publish(self) -> None:
        async with self._changed:
            self._version += 1
            self._changed.notify_all()

    def _terminate(self, job: Job, state: str) -> None:
        """Move ``job`` to a terminal state, then bound the job table."""
        job.state = state
        job.finished_at = time.time()
        job.material = None
        self.inflight.pop(job.key, None)
        self._finished.append(job.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            del self.jobs[self._finished.popleft()]

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            async with self._work:
                await self._work.wait_for(
                    lambda: len(self.queue) > 0 or self.draining
                )
                if len(self.queue) == 0:
                    break  # draining and the queue is dry: retire
                job = self.queue.pop()
                self._running += 1
            try:
                await self._run_job(job)
            finally:
                self._running -= 1
                await self._publish()
        await self._publish()

    async def _run_job(self, job: Job) -> None:
        job.state = RUNNING
        job.started_at = time.time()
        await self._publish()
        last_error = "unknown"
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.retries.inc()
                await asyncio.sleep(self.backoff_base * 2 ** (attempt - 1))
            job.attempts = attempt + 1
            future = None
            try:
                future = self.submit_fn(job.request)
                payload = await asyncio.wait_for(
                    asyncio.wrap_future(future), self.job_timeout
                )
            except asyncio.TimeoutError:
                self.timeouts.inc()
                last_error = (
                    f"attempt {attempt + 1} timed out "
                    f"after {self.job_timeout:.1f}s"
                )
                if future is not None:
                    # Best effort: a queued task dies here; a task already
                    # on a worker process runs to waste (documented).
                    future.cancel()
                continue
            except Exception as exc:  # noqa: BLE001 - retried, then surfaced
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            try:
                self._finish(job, payload)
            except Exception as exc:  # noqa: BLE001 - corrupt payload
                last_error = (
                    f"result publication failed: {type(exc).__name__}: {exc}"
                )
                continue
            return
        job.error = last_error
        self._terminate(job, FAILED)
        self.failures.inc()

    def _finish(self, job: Job, payload: dict) -> None:
        result = RunResult.from_dict(payload["result"])
        elapsed = payload.get("elapsed", 0.0)
        self._service_time = 0.8 * self._service_time + 0.2 * max(
            0.001, elapsed
        )
        # Thread/inline executors simulate in this process, where
        # SIM_COUNTER already ticked; mirror only cross-process work.
        if payload.get("worker") != os.getpid():
            SIM_COUNTER.add()
        self.simulations.inc()
        self.session.store(job.key, job.material, result)
        job.source = "simulated"
        job.result = result
        self._terminate(job, DONE)
        self.completed.inc()
        self.latency.observe(job.finished_at - job.submitted_at)
