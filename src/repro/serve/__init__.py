"""``repro.serve`` — the simulator as a long-lived service.

Turns the one-shot :mod:`repro.sim` session layer into something that
can take sustained concurrent traffic:

* :mod:`repro.serve.jobs` — priority job queue + asyncio scheduler:
  request coalescing (identical cache keys share one in-flight job),
  warm-cache short-circuiting, per-job timeout → retry → exponential
  backoff, bounded-queue admission control, graceful drain;
* :mod:`repro.serve.server` — stdlib asyncio JSON-over-HTTP front end
  (submit-and-wait / poll / stream / fetch artifacts / scrape metrics)
  with explicit 429 + ``Retry-After`` backpressure and SIGTERM drain;
* :mod:`repro.serve.http` — the shared wire dialect and connection
  policy: one kept-alive connection loop for serve and the cluster
  coordinator, and the blocking clients;
* :mod:`repro.serve.client` — the blocking client library every
  consumer (tests, load generator, future shards) drives it through;
* :mod:`repro.serve.loadgen` — open/closed-loop load generation with
  p50/p95/p99 latency reporting and a cold-run contract checker.
"""

from repro.serve.client import Backpressure, JobFailed, ServeClient, ServeError
from repro.serve.jobs import Draining, Job, JobScheduler, PriorityJobQueue, QueueFull
from repro.serve.loadgen import LoadReport, LoadSpec, run_loadgen, verify_cold_run
from repro.serve.server import ServeApp, ServeConfig, start_app

__all__ = [
    "Backpressure",
    "Draining",
    "Job",
    "JobFailed",
    "JobScheduler",
    "LoadReport",
    "LoadSpec",
    "PriorityJobQueue",
    "QueueFull",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "run_loadgen",
    "start_app",
    "verify_cold_run",
]
