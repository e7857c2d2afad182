"""Host-side profiling: where does the *simulator's* wall clock go?

The microarchitectural layers answer "why does this kernel stall"; this
module answers "why is the simulation slow".  A :class:`HostProfiler`
threads through the session layer and records

* wall-clock per named phase (``simulate``, ``reduce``, per experiment),
* cache accounting (memo hits, disk hits, actual simulations),
* per-worker throughput in the process-pool engine,
* per-simulation wall-clock as a histogram,

and serializes everything to the ``--metrics-out metrics.json`` payload.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.log import get_logger
from repro.obs.metrics import Histogram

logger = get_logger("profiler")


@dataclass
class WorkerStats:
    """Throughput of one worker process in the pool engine."""

    #: simulated keys (a shared kernel run counts each of its keys)
    simulations: int = 0
    busy_seconds: float = 0.0
    #: codec-memo lookups the worker's simulations made
    memo_hits: int = 0
    memo_misses: int = 0

    @property
    def throughput(self) -> float:
        """Simulated keys per busy second."""
        if self.busy_seconds <= 0:
            return 0.0
        return self.simulations / self.busy_seconds


@dataclass
class HostProfiler:
    """Wall-clock and throughput accounting for one CLI invocation."""

    phases: dict[str, float] = field(default_factory=dict)
    phase_calls: dict[str, int] = field(default_factory=dict)
    workers: dict[int, WorkerStats] = field(default_factory=dict)
    sim_seconds: Histogram = field(
        default_factory=lambda: Histogram(
            "sim.wall_seconds",
            bounds=(0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0),
        )
    )
    started_at: float = field(default_factory=time.monotonic)
    heartbeat_every: int = 10
    #: kernel executions behind the simulated keys (a shared functional
    #: run prices several keys at once)
    kernel_runs: int = 0

    # ------------------------------------------------------------------
    # Phase timing
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Time a named phase; nested/repeated phases accumulate."""
        start = time.monotonic()
        try:
            yield
        finally:
            elapsed = time.monotonic() - start
            self.phases[name] = self.phases.get(name, 0.0) + elapsed
            self.phase_calls[name] = self.phase_calls.get(name, 0) + 1

    def add_phase_seconds(
        self, name: str, seconds: float, calls: int = 1
    ) -> None:
        """Fold externally measured wall-clock into a named phase.

        For callers that already hold timings (e.g. the bench's
        instrumented per-stage pass) and only need them aggregated into
        the same ``phases`` table the :meth:`phase` context manager
        feeds.
        """
        self.phases[name] = self.phases.get(name, 0.0) + seconds
        self.phase_calls[name] = self.phase_calls.get(name, 0) + calls

    # ------------------------------------------------------------------
    # Simulation accounting
    # ------------------------------------------------------------------
    def record_simulation(
        self,
        elapsed: float,
        worker: int | None = None,
        memo_hits: int = 0,
        memo_misses: int = 0,
        keys: int = 1,
    ) -> None:
        """One kernel run simulated ``keys`` keys in ``elapsed`` seconds.

        ``worker`` is the pid that ran it (default: this process);
        ``memo_hits``/``memo_misses`` are the codec-memo lookups it made
        there, which a pool worker ships back beside its wall-clock.
        Simulations count keys; a run shared by several keys adds its
        wall-clock once, split evenly over them in the histogram.
        """
        for _ in range(keys):
            self.sim_seconds.observe(elapsed / keys)
        self.kernel_runs += 1
        stats = self.workers.setdefault(
            worker if worker is not None else os.getpid(), WorkerStats()
        )
        stats.simulations += keys
        stats.busy_seconds += elapsed
        stats.memo_hits += memo_hits
        stats.memo_misses += memo_misses

    def heartbeat(self, done: int, total: int, label: str = "") -> None:
        """Progress line every ``heartbeat_every`` completions (and last)."""
        if done % self.heartbeat_every and done != total:
            return
        elapsed = time.monotonic() - self.started_at
        suffix = f" — {label}" if label else ""
        logger.info(
            "  [%d/%d] %.1fs elapsed%s", done, total, elapsed, suffix
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The ``metrics.json`` payload."""
        return {
            "wall_seconds": time.monotonic() - self.started_at,
            "phases": {
                name: {
                    "seconds": seconds,
                    "calls": self.phase_calls.get(name, 0),
                }
                for name, seconds in sorted(self.phases.items())
            },
            "simulations": {
                "count": self.sim_seconds.total,
                "kernel_runs": self.kernel_runs,
                "total_seconds": self.sim_seconds.sum,
                "mean_seconds": self.sim_seconds.mean,
                "histogram": self.sim_seconds.to_dict(),
            },
            "workers": {
                str(pid): {
                    "simulations": w.simulations,
                    "busy_seconds": w.busy_seconds,
                    "throughput_per_s": w.throughput,
                    "memo_hits": w.memo_hits,
                    "memo_misses": w.memo_misses,
                }
                for pid, w in sorted(self.workers.items())
            },
        }

    def hotspot_table(self, limit: int = 20) -> str:
        """Phases sorted by wall-clock, widest first."""
        rows = sorted(self.phases.items(), key=lambda kv: -kv[1])[:limit]
        if not rows:
            return "(no phases recorded)"
        width = max(len(name) for name, _ in rows)
        lines = [f"{'phase':<{width}}  seconds  calls"]
        for name, seconds in rows:
            lines.append(
                f"{name:<{width}}  {seconds:7.2f}  "
                f"{self.phase_calls.get(name, 0):5d}"
            )
        return "\n".join(lines)
