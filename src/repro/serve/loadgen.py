"""Load generator for ``repro serve``: replay workloads, report latency.

Two arrival disciplines, both driving the server purely through
:class:`~repro.serve.client.ServeClient`:

* **closed loop** — ``concurrency`` synthetic clients, each submitting
  its next request the moment the previous one completes (classic
  think-time-zero closed system; offered load adapts to the server);
* **open loop** — requests arrive on a fixed schedule at ``rate``
  requests/second regardless of completions (measures behaviour under
  an offered load the server does not control — the discipline that
  actually exposes queueing delay and backpressure).

The workload is a deterministic shuffle of ``distinct`` benchmark
kernels across ``requests`` submissions, so duplicates are guaranteed
whenever ``requests > distinct`` — exactly the shape that exercises
request coalescing and the warm-cache short-circuit.  The report
carries client-side throughput and latency percentiles plus the
server's own ``/v1/metrics`` deltas, and :func:`verify_cold_run` checks
the service contract a cold-cache run must satisfy (zero failures, one
simulation per distinct key, every duplicate answered by coalescing or
cache).
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.serve.client import Backpressure, ServeClient

#: Default kernel mix: paper benchmarks spanning best case (lib),
#: worst case (aes), and heavy-divergence workloads.
DEFAULT_BENCHMARKS = (
    "lib",
    "pathfinder",
    "hotspot",
    "nw",
    "bfs",
    "kmeans",
    "gaussian",
    "srad",
    "spmv",
    "aes",
    "backprop",
    "dwt2d",
)


@dataclass(frozen=True)
class LoadSpec:
    """One load-generation run, fully determined by its fields."""

    requests: int = 50
    concurrency: int = 4
    mode: str = "closed"  # "closed" | "open"
    rate: float = 10.0  # open-loop arrivals per second
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS
    distinct: int = 10
    seed: int = 0
    timing: bool = False
    policy: str = "warped"
    scale: str = "small"
    priority: int = 0


def build_workload(spec: LoadSpec) -> list[dict]:
    """The deterministic request sequence for ``spec``.

    Cycles the first ``distinct`` benchmarks across ``requests`` slots
    (guaranteeing exactly ``min(distinct, requests)`` distinct cache
    keys), then shuffles with ``spec.seed`` so arrival order interleaves
    duplicates realistically.
    """
    if spec.distinct < 1:
        raise ValueError("distinct must be >= 1")
    names = [
        spec.benchmarks[i % len(spec.benchmarks)]
        for i in range(min(spec.distinct, spec.requests))
    ]
    sequence = [names[i % len(names)] for i in range(spec.requests)]
    random.Random(spec.seed).shuffle(sequence)
    return [
        {
            "benchmark": name,
            "policy": spec.policy,
            "timing": spec.timing,
            "scale": spec.scale,
        }
        for name in sequence
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies: list[float]) -> dict:
    return {
        "count": len(latencies),
        "mean": sum(latencies) / len(latencies) if latencies else 0.0,
        "p50": percentile(latencies, 50),
        "p90": percentile(latencies, 90),
        "p95": percentile(latencies, 95),
        "p99": percentile(latencies, 99),
        "max": max(latencies, default=0.0),
    }


@dataclass
class LoadReport:
    """Everything one loadgen run measured (JSON artifact payload)."""

    spec: LoadSpec
    ok: int = 0
    failed: int = 0
    backpressure_retries: int = 0
    duration_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    distinct_keys: int = 0
    server_metrics: dict = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "requests": self.spec.requests,
            "ok": self.ok,
            "failed": self.failed,
            "backpressure_retries": self.backpressure_retries,
            "distinct_keys": self.distinct_keys,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "latency_s": latency_summary(self.latencies_s),
            "errors": self.errors[:20],
            "server_metrics": self.server_metrics,
        }

    def render(self) -> str:
        latency = latency_summary(self.latencies_s)
        lines = [
            f"loadgen [{self.spec.mode} loop]: "
            f"{self.ok}/{self.spec.requests} ok, "
            f"{self.failed} failed, "
            f"{self.backpressure_retries} backpressure retries",
            f"  duration {self.duration_s:.2f}s — "
            f"{self.throughput_rps:.1f} req/s over "
            f"{self.distinct_keys} distinct keys",
            "  latency p50 {p50:.3f}s  p90 {p90:.3f}s  p95 {p95:.3f}s  "
            "p99 {p99:.3f}s  max {max:.3f}s".format(**latency),
        ]
        metrics = self.server_metrics.get("metrics", {})
        if metrics:
            lines.append(
                "  server: {sims:.0f} simulations, {coal:.0f} coalesced, "
                "{hits:.0f} cache hits, {rej:.0f} rejected".format(
                    sims=metrics.get("serve.simulations", 0),
                    coal=metrics.get("serve.coalesced", 0),
                    hits=metrics.get("serve.cache_hits", 0),
                    rej=metrics.get("serve.rejected", 0),
                )
            )
        return "\n".join(lines)


def run_loadgen(
    host: str,
    port: int,
    spec: LoadSpec,
    *,
    deadline: float = 600.0,
) -> LoadReport:
    """Execute one load run against a live server and measure it."""
    workload = build_workload(spec)
    report = LoadReport(
        spec=spec,
        distinct_keys=len({item["benchmark"] for item in workload}),
    )
    lock = threading.Lock()
    # One client for every thread: each thread keeps its own connection,
    # closed when the thread ends.
    client = ServeClient(host, port)

    def _measure(item: dict) -> None:
        shed = []
        start = time.perf_counter()
        try:
            client.run(
                item,
                spec.priority,
                deadline=deadline,
                on_backpressure=lambda exc: shed.append(exc),
            )
            elapsed = time.perf_counter() - start
            with lock:
                report.ok += 1
                report.latencies_s.append(elapsed)
                report.backpressure_retries += len(shed)
        except Exception as exc:  # noqa: BLE001 - tallied, not raised
            with lock:
                report.failed += 1
                report.backpressure_retries += len(shed)
                report.errors.append(
                    f"{item['benchmark']}: {type(exc).__name__}: {exc}"
                )

    begin = time.perf_counter()
    if spec.mode == "closed":
        pending = list(enumerate(workload))
        pending.reverse()

        def _client_loop() -> None:
            while True:
                with lock:
                    if not pending:
                        return
                    _, item = pending.pop()
                _measure(item)

        threads = [
            threading.Thread(target=_client_loop, daemon=True)
            for _ in range(max(1, spec.concurrency))
        ]
    elif spec.mode == "open":
        threads = []
        for index, item in enumerate(workload):
            arrival = index / spec.rate if spec.rate > 0 else 0.0

            def _timed(item=item, arrival=arrival) -> None:
                delay = arrival - (time.perf_counter() - begin)
                if delay > 0:
                    time.sleep(delay)
                _measure(item)

            threads.append(threading.Thread(target=_timed, daemon=True))
    else:
        raise ValueError(f"unknown loadgen mode {spec.mode!r}")

    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.duration_s = time.perf_counter() - begin

    try:
        report.server_metrics = client.metrics()
    except Exception as exc:  # noqa: BLE001 - metrics are best-effort
        report.errors.append(f"metrics scrape failed: {exc}")
    finally:
        client.close()
    return report


def verify_cold_run(report: LoadReport) -> list[str]:
    """Service-contract check for a run against a *cold* cache.

    Returns human-readable problems (empty = contract held):

    * every request succeeded;
    * the server simulated exactly once per distinct cache key;
    * all duplicate submissions were answered by coalescing or the
      warm-cache short-circuit (their counters account for every
      non-first submission).
    """
    problems = []
    if report.failed:
        problems.append(f"{report.failed} requests failed")
    if report.ok != report.spec.requests:
        problems.append(
            f"expected {report.spec.requests} ok, got {report.ok}"
        )
    metrics = report.server_metrics.get("metrics", {})
    if not metrics:
        problems.append("no server metrics captured")
        return problems
    simulations = metrics.get("serve.simulations", 0)
    if simulations != report.distinct_keys:
        problems.append(
            f"expected {report.distinct_keys} simulations "
            f"(one per distinct key), server performed {simulations:.0f}"
        )
    coalesced = metrics.get("serve.coalesced", 0)
    cache_hits = metrics.get("serve.cache_hits", 0)
    duplicates = report.spec.requests - report.distinct_keys
    if duplicates > 0 and coalesced + cache_hits < duplicates:
        problems.append(
            f"{duplicates} duplicate submissions but only "
            f"{coalesced:.0f} coalesced + {cache_hits:.0f} cache hits"
        )
    return problems


def write_report(report: LoadReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
