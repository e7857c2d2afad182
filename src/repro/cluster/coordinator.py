"""The cluster coordinator: grid expansion, shard scheduling, resume.

The coordinator owns no simulation code.  It turns submitted request
grids into **content-addressed cache keys** (the same
``fingerprint(key_material)`` the local :class:`~repro.sim.session.Session`
uses), drops every key the shared cache already holds, partitions the
remainder into **shards**, and leases shards to registered workers.
Liveness is heartbeat-based: a worker that misses its heartbeat window
is declared dead and its assigned shards return to the pending queue
for reassignment.

Two design decisions carry the fault-tolerance story:

* **The cache is the ground truth for completion.**  Workers publish
  every result through the coordinator's ``PUT /v1/cache/<key>``
  endpoint (the write-through tier of
  :class:`~repro.cluster.cache.TieredResultCache`), and that PUT marks
  the key done — so a worker that crashes *after* publishing but
  *before* reporting costs nothing, and a coordinator restart recovers
  completion state by probing the cache rather than trusting its own
  notes.
* **Submission is idempotent.**  Sweep ids are content-addressed over
  the grid's keys, so resubmitting the same grid after a crash — the
  ``--resume`` story — attaches to surviving state, re-probes the
  cache, and schedules only the still-unfilled keys.

The journal under ``<cache_root>/cluster/journal.json`` records only
the submitted units and sweeps (completion is recovered from the
cache); it is written atomically on each submission.

:class:`ClusterState` is deliberately synchronous — every mutation runs
on the event-loop thread, so there are no locks and the scheduler logic
is unit-testable without asyncio.  :class:`CoordinatorApp` wraps it in
the same stdlib HTTP dialect as :class:`~repro.serve.server.ServeApp`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.cache import DEFAULT_COORDINATOR_PORT
from repro.obs.log import get_logger
from repro.obs.metrics import MetricRegistry
from repro.serve.http import BadRequest, HTTPServer
from repro.sim.cache import (
    MALFORMED_ENTRY,
    ResultCache,
    code_version,
    fingerprint,
    resolve_cache_dir,
)
from repro.sim.session import SimRequest

logger = get_logger("cluster.coordinator")

#: Journal format version (bumped on incompatible layout changes).
JOURNAL_VERSION = 1


class StaleWorker(Exception):
    """The worker id is unknown (coordinator restarted, or reaped)."""


class StaleShard(Exception):
    """The shard id is unknown (coordinator restarted since the lease)."""


class VersionMismatch(Exception):
    """Worker and coordinator disagree on the simulator code version."""


# ----------------------------------------------------------------------
# Scheduler state (synchronous, no asyncio)
# ----------------------------------------------------------------------
@dataclass
class Shard:
    """One unit of lease-able work: a handful of cache keys."""

    shard_id: str
    sweep_id: str
    keys: list[str]
    state: str = "pending"  # pending | assigned | done
    worker: str | None = None
    assigned_at: float | None = None
    attempts: int = 0

    def remaining(self, done: set[str], failed: dict[str, str]) -> list[str]:
        """Keys still owed: neither completed nor recorded as failed."""
        return [k for k in self.keys if k not in done and k not in failed]

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "sweep_id": self.sweep_id,
            "keys": list(self.keys),
            "state": self.state,
            "worker": self.worker,
            "attempts": self.attempts,
        }


@dataclass
class WorkerInfo:
    """One registered worker's liveness and accounting."""

    worker_id: str
    name: str
    registered_at: float
    last_heartbeat: float
    alive: bool = True
    stats: dict = field(default_factory=dict)

    def to_dict(self, now: float) -> dict:
        return {
            "worker_id": self.worker_id,
            "name": self.name,
            "alive": self.alive,
            "heartbeat_age": round(now - self.last_heartbeat, 3),
            "stats": dict(self.stats),
        }


class ClusterState:
    """All coordinator bookkeeping; mutated only on the serving thread."""

    def __init__(
        self,
        cache: ResultCache,
        journal_path: Path | str | None = None,
        *,
        shard_size: int = 4,
        heartbeat_timeout: float = 10.0,
        clock=time.monotonic,
    ):
        self.cache = cache
        self.journal_path = Path(journal_path) if journal_path else None
        self.shard_size = max(1, shard_size)
        self.heartbeat_timeout = heartbeat_timeout
        self._clock = clock
        self.code_version = code_version()

        #: every tracked key → its request payload (the unit of work)
        self.units: dict[str, dict] = {}
        self.done: set[str] = set()
        self.failed: dict[str, str] = {}
        self.sweeps: dict[str, dict] = {}
        self.shards: dict[str, Shard] = {}
        self._pending: deque[str] = deque()
        self._key_shard: dict[str, str] = {}
        self.workers: dict[str, WorkerInfo] = {}
        self._worker_seq = 0
        self._shard_seq = 0

        # Flat counters, exported as delta probes via register_metrics.
        self.sweeps_submitted = 0
        self.keys_submitted = 0
        self.keys_skipped_cached = 0
        self.keys_failed = 0
        self.leases = 0
        self.reports = 0
        self.shards_created = 0
        self.shards_reassigned = 0
        self.workers_registered = 0
        self.workers_dead = 0
        self.cache_get_hits = 0
        self.cache_get_misses = 0
        self.put_new = 0
        self.put_dup = 0

    # ------------------------------------------------------------------
    # Sweep submission (idempotent; the resume path is a resubmission)
    # ------------------------------------------------------------------
    @staticmethod
    def expand(requests: list[dict]) -> dict[str, dict]:
        """Validate request payloads and key them; order-preserving."""
        units: dict[str, dict] = {}
        for payload in requests:
            if not isinstance(payload, dict):
                raise BadRequest("each request must be a JSON object")
            try:
                request = SimRequest.from_payload(payload)
                key = fingerprint(request.key_material())
            except (TypeError, ValueError, KeyError) as exc:
                raise BadRequest(f"bad request payload: {exc}") from exc
            units.setdefault(key, request.to_payload())
        return units

    @staticmethod
    def sweep_id_for(keys) -> str:
        """Content-addressed sweep id: same grid → same sweep, always."""
        return "sweep-" + fingerprint({"keys": sorted(keys)})[:12]

    def submit_sweep(
        self, requests: list[dict], shard_size: int | None = None
    ) -> dict:
        """Track a grid; returns the sweep's status view.

        Already-cached keys are marked done immediately, keys already
        tracked (by this or another sweep) are left on their existing
        shards, and only genuinely new work is sharded.
        """
        units = self.expand(requests)
        if not units:
            raise BadRequest("sweep carries no requests")
        sweep_id = self.sweep_id_for(units)
        if sweep_id not in self.sweeps:
            self.sweeps[sweep_id] = {"keys": list(units)}
            self.sweeps_submitted += 1
        self.keys_submitted += len(units)

        fresh: list[str] = []
        for key, payload in units.items():
            if key in self.units:
                continue  # already tracked (possibly by another sweep)
            self.units[key] = payload
            if self.cache.get(key) is not None:
                self.done.add(key)
                self.keys_skipped_cached += 1
            else:
                fresh.append(key)
        self._make_shards(sweep_id, fresh, shard_size or self.shard_size)
        self.save_journal()
        return self.sweep_status(sweep_id)

    def _make_shards(
        self, sweep_id: str, keys: list[str], shard_size: int
    ) -> None:
        for start in range(0, len(keys), max(1, shard_size)):
            chunk = keys[start : start + shard_size]
            self._shard_seq += 1
            shard = Shard(f"shard-{self._shard_seq:04d}", sweep_id, chunk)
            self.shards[shard.shard_id] = shard
            self._pending.append(shard.shard_id)
            for key in chunk:
                self._key_shard[key] = shard.shard_id
            self.shards_created += 1

    def sweep_status(self, sweep_id: str) -> dict:
        if sweep_id not in self.sweeps:
            raise KeyError(sweep_id)
        keys = self.sweeps[sweep_id]["keys"]
        done = sum(1 for k in keys if k in self.done)
        failed = {k: self.failed[k] for k in keys if k in self.failed}
        return {
            "sweep_id": sweep_id,
            "total": len(keys),
            "done": done,
            "failed": failed,
            "pending": len(keys) - done - len(failed),
            "complete": done + len(failed) == len(keys),
        }

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def register_worker(self, info: dict) -> WorkerInfo:
        """Admit one worker; rejects simulator code-version mismatches.

        A worker running different simulator source would compute
        *different* cache keys for the same requests — its results
        could never satisfy this coordinator's grid — so divergence is
        an admission error, not a runtime surprise.
        """
        version = info.get("code_version")
        if version != self.code_version:
            raise VersionMismatch(
                f"worker code version {version!r} != coordinator "
                f"{self.code_version!r}; update the worker's checkout"
            )
        self._worker_seq += 1
        name = str(info.get("name") or f"worker-{self._worker_seq}")
        worker_id = f"w{self._worker_seq:04d}-{name}"
        now = self._clock()
        worker = WorkerInfo(worker_id, name, now, now)
        self.workers[worker_id] = worker
        self.workers_registered += 1
        logger.info(f"worker {worker_id} registered")
        return worker

    def _live_worker(self, worker_id: str) -> WorkerInfo:
        worker = self.workers.get(worker_id)
        if worker is None:
            raise StaleWorker(f"unknown worker {worker_id!r}")
        if not worker.alive:
            # It answered after being reaped: make it re-register so its
            # stats restart cleanly and its old leases stay reassigned.
            raise StaleWorker(f"worker {worker_id!r} was declared dead")
        return worker

    def heartbeat(self, worker_id: str, stats: dict) -> None:
        worker = self._live_worker(worker_id)
        worker.last_heartbeat = self._clock()
        if stats:
            worker.stats = dict(stats)

    def lease(self, worker_id: str) -> dict | None:
        """Hand the next pending shard to ``worker_id`` (None = idle).

        Shards whose keys were all satisfied while queued (cache
        write-through from another worker, a duplicate sweep) are
        retired on the spot instead of being leased as empty work.
        """
        worker = self._live_worker(worker_id)
        worker.last_heartbeat = self._clock()
        while self._pending:
            shard = self.shards[self._pending.popleft()]
            remaining = shard.remaining(self.done, self.failed)
            if not remaining:
                shard.state = "done"
                continue
            shard.state = "assigned"
            shard.worker = worker_id
            shard.assigned_at = self._clock()
            shard.attempts += 1
            self.leases += 1
            return {
                "shard_id": shard.shard_id,
                "sweep_id": shard.sweep_id,
                "attempt": shard.attempts,
                "units": [
                    {"key": key, "request": self.units[key]}
                    for key in remaining
                ],
            }
        return None

    def report(
        self,
        shard_id: str,
        worker_id: str,
        done_keys: list[str],
        failed: dict[str, str],
        stats: dict,
    ) -> dict:
        """Record one shard's outcome (idempotent per key)."""
        shard = self.shards.get(shard_id)
        if shard is None:
            raise StaleShard(f"unknown shard {shard_id!r}")
        worker = self.workers.get(worker_id)
        if worker is not None and worker.alive:
            worker.last_heartbeat = self._clock()
            if stats:
                worker.stats = dict(stats)
        for key in done_keys:
            if key in shard.keys:
                self._mark_done(key)
        for key, error in failed.items():
            if key in shard.keys and key not in self.done:
                if key not in self.failed:
                    self.keys_failed += 1
                self.failed[key] = str(error)
        self.reports += 1
        self._maybe_complete(shard)
        return {"shard": shard.to_dict()}

    def _mark_done(self, key: str) -> None:
        if key in self.done:
            return
        self.done.add(key)
        self.failed.pop(key, None)
        shard_id = self._key_shard.get(key)
        if shard_id is not None:
            self._maybe_complete(self.shards[shard_id])

    def _maybe_complete(self, shard: Shard) -> None:
        if shard.state != "done" and not shard.remaining(
            self.done, self.failed
        ):
            shard.state = "done"
            shard.worker = None

    # ------------------------------------------------------------------
    # Dead-worker detection
    # ------------------------------------------------------------------
    def reap(self) -> list[str]:
        """Declare silent workers dead; requeue their assigned shards."""
        now = self._clock()
        reaped: list[str] = []
        for worker in self.workers.values():
            if not worker.alive:
                continue
            if now - worker.last_heartbeat <= self.heartbeat_timeout:
                continue
            worker.alive = False
            self.workers_dead += 1
            reaped.append(worker.worker_id)
            for shard in self.shards.values():
                if shard.state == "assigned" and shard.worker == worker.worker_id:
                    shard.state = "pending"
                    shard.worker = None
                    self._pending.append(shard.shard_id)
                    self.shards_reassigned += 1
                    logger.warning(
                        f"worker {worker.worker_id} dead "
                        f"(heartbeat {now - worker.last_heartbeat:.1f}s ago); "
                        f"requeued {shard.shard_id}"
                    )
        return reaped

    # ------------------------------------------------------------------
    # Shared cache tier (completion ground truth)
    # ------------------------------------------------------------------
    def cache_get(self, key: str) -> dict | None:
        """Serve one raw entry; trace-bearing entries never travel."""
        payload = self.cache.read_entry(key)
        if payload is not None:
            try:
                _material, result = ResultCache.parse_payload(key, payload)
            except MALFORMED_ENTRY:
                payload = None
            else:
                if result.trace_path is not None:
                    payload = None
        if payload is None:
            self.cache_get_misses += 1
            return None
        self.cache_get_hits += 1
        return payload

    def cache_put(self, key: str, payload: dict) -> bool:
        """Validate + store one pushed entry; marks tracked keys done.

        Returns False for duplicates — ``put_dup == 0`` across a sweep
        is the observable proof that no simulation ran twice.
        """
        novel = self.cache.read_entry(key) is None
        self.cache.put_payload(key, payload)  # raises on corrupt payloads
        if novel:
            self.put_new += 1
        else:
            self.put_dup += 1
        if key in self.units:
            self._mark_done(key)
        return novel

    # ------------------------------------------------------------------
    # Journal (units + sweeps only; the cache is the completion truth)
    # ------------------------------------------------------------------
    def save_journal(self) -> None:
        if self.journal_path is None:
            return
        payload = {
            "version": JOURNAL_VERSION,
            "code": self.code_version,
            "units": self.units,
            "sweeps": self.sweeps,
        }
        path = self.journal_path
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load_journal(self) -> bool:
        """Rebuild tracked work from the journal; cache decides doneness.

        Failed keys are *not* restored — a coordinator restart is the
        retry button — and unfilled keys are re-sharded from scratch.
        Journals written by a different simulator version are ignored:
        their keys are unreachable under the current code.
        """
        if self.journal_path is None or not self.journal_path.is_file():
            return False
        try:
            with open(self.journal_path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            logger.warning("unreadable cluster journal; starting fresh")
            return False
        if (
            payload.get("version") != JOURNAL_VERSION
            or payload.get("code") != self.code_version
        ):
            logger.warning("stale cluster journal (version/code); ignoring")
            return False
        units = payload.get("units")
        sweeps = payload.get("sweeps")
        if not isinstance(units, dict) or not isinstance(sweeps, dict):
            return False
        self.units = dict(units)
        self.sweeps = {
            sid: {"keys": list(info.get("keys", []))}
            for sid, info in sweeps.items()
        }
        fresh: list[str] = []
        for key in self.units:
            if self.cache.get(key) is not None:
                self.done.add(key)
            else:
                fresh.append(key)
        by_sweep: dict[str, list[str]] = {}
        for key in fresh:
            owner = next(
                (
                    sid
                    for sid, info in self.sweeps.items()
                    if key in info["keys"]
                ),
                "sweep-recovered",
            )
            by_sweep.setdefault(owner, []).append(key)
        for sweep_id, keys in by_sweep.items():
            self._make_shards(sweep_id, keys, self.shard_size)
        logger.info(
            f"journal recovered: {len(self.units)} keys tracked, "
            f"{len(self.done)} already cached, {len(fresh)} rescheduled"
        )
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_counts(self) -> dict[str, int]:
        counts = {"pending": 0, "assigned": 0, "done": 0}
        for shard in self.shards.values():
            counts[shard.state] += 1
        return counts

    def alive_workers(self) -> list[WorkerInfo]:
        return [w for w in self.workers.values() if w.alive]

    def max_heartbeat_age(self) -> float:
        alive = self.alive_workers()
        if not alive:
            return 0.0
        now = self._clock()
        return max(now - w.last_heartbeat for w in alive)

    def simulations_reported(self) -> int:
        return sum(
            int(w.stats.get("simulated", 0)) for w in self.workers.values()
        )

    def status(self) -> dict:
        now = self._clock()
        return {
            "code_version": self.code_version,
            "keys": {
                "total": len(self.units),
                "done": len(self.done),
                "failed": len(self.failed),
                "pending": len(self.units) - len(self.done) - len(self.failed),
            },
            "shards": self.shard_counts(),
            "sweeps": {sid: self.sweep_status(sid) for sid in self.sweeps},
            "workers": [w.to_dict(now) for w in self.workers.values()],
            "counters": {
                "leases": self.leases,
                "reports": self.reports,
                "shards_reassigned": self.shards_reassigned,
                "workers_dead": self.workers_dead,
                "keys_skipped_cached": self.keys_skipped_cached,
                "put_new": self.put_new,
                "put_dup": self.put_dup,
            },
        }

    def register_metrics(self, registry: MetricRegistry) -> None:
        """Export scheduler state under ``cluster.*`` (probes only)."""
        for name in (
            "sweeps_submitted",
            "keys_submitted",
            "keys_skipped_cached",
            "keys_failed",
            "leases",
            "reports",
            "shards_created",
            "shards_reassigned",
            "workers_registered",
            "workers_dead",
            "cache_get_hits",
            "cache_get_misses",
            "put_new",
            "put_dup",
        ):
            registry.probe(
                f"cluster.{name}",
                (lambda attr=name: getattr(self, attr)),
                kind="delta",
            )
        registry.probe("cluster.keys_total", lambda: len(self.units))
        registry.probe("cluster.keys_done", lambda: len(self.done))
        registry.probe(
            "cluster.keys_pending",
            lambda: len(self.units) - len(self.done) - len(self.failed),
        )
        for state in ("pending", "assigned", "done"):
            registry.probe(
                f"cluster.shards_{state}",
                (lambda s=state: self.shard_counts()[s]),
            )
        registry.probe(
            "cluster.workers_alive", lambda: len(self.alive_workers())
        )
        registry.probe(
            "cluster.worker_heartbeat_age_max", self.max_heartbeat_age
        )
        registry.probe(
            "cluster.simulations_reported",
            self.simulations_reported,
            kind="delta",
        )


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoordinatorConfig:
    """Everything ``repro cluster coordinator`` needs to boot."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_COORDINATOR_PORT
    cache_dir: str | None = None
    shard_size: int = 4
    heartbeat_timeout: float = 10.0
    heartbeat_interval: float = 2.0
    #: ignore any existing journal instead of resuming from it
    fresh: bool = False


class CoordinatorApp:
    """Routes cluster HTTP traffic onto one :class:`ClusterState`."""

    def __init__(self, config: CoordinatorConfig):
        self.config = config
        cache_root = resolve_cache_dir(config.cache_dir)
        self.cache = ResultCache(cache_root)
        self.state = ClusterState(
            self.cache,
            cache_root / "cluster" / "journal.json",
            shard_size=config.shard_size,
            heartbeat_timeout=config.heartbeat_timeout,
        )
        if not config.fresh:
            self.state.load_journal()
        self.metrics = MetricRegistry(enabled=True)
        self.requests = self.metrics.counter("cluster.http_requests")
        self.state.register_metrics(self.metrics)
        self.http = HTTPServer(self._handle)
        self._reaper: asyncio.Task | None = None
        self._stopped = asyncio.Event()
        self._shutting_down = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        host, port = await self.http.start(self.config.host, self.config.port)
        self._reaper = asyncio.ensure_future(self._reap_loop())
        logger.info(
            f"cluster coordinator listening on http://{host}:{port} "
            f"(cache {self.cache.root}, heartbeat timeout "
            f"{self.config.heartbeat_timeout:.0f}s)"
        )
        return host, port

    async def shutdown(self) -> None:
        if self._shutting_down:
            await self._stopped.wait()
            return
        self._shutting_down = True
        if self._reaper is not None:
            self._reaper.cancel()
        await self.http.close()
        self.state.save_journal()
        self._stopped.set()

    async def serve_until_stopped(self) -> None:
        await self._stopped.wait()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()

        def _initiate(signame: str) -> None:
            logger.info(f"received {signame}: stopping coordinator")
            asyncio.ensure_future(self.shutdown())

        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, _initiate, sig.name)

    async def _reap_loop(self) -> None:
        interval = max(0.05, self.config.heartbeat_timeout / 4)
        try:
            while True:
                await asyncio.sleep(interval)
                self.state.reap()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # Routing (same dialect as repro.serve)
    # ------------------------------------------------------------------
    async def _handle(self, writer, method, path, query, body):
        self.requests.inc()
        try:
            return self._route(method, path, body)
        except StaleWorker as exc:
            return 404, {"error": str(exc), "code": "unknown-worker"}
        except StaleShard as exc:
            return 404, {"error": str(exc), "code": "unknown-shard"}
        except VersionMismatch as exc:
            return 409, {"error": str(exc), "code": "code-version"}
        except KeyError as exc:
            return 404, {"error": f"not found: {exc}"}

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("body must be a JSON object")
        return payload

    def _route(self, method, path, body):
        state = self.state
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "ok",
                "keys": len(state.units),
                "workers": len(state.alive_workers()),
                "code_version": state.code_version,
            }
        if path in ("/v1/metrics", "/metrics") and method == "GET":
            return 200, {"metrics": self.metrics.read_all()}
        if path == "/v1/status" and method == "GET":
            return 200, state.status()
        if path == "/v1/sweeps" and method == "POST":
            payload = self._json_body(body)
            requests = payload.get("requests")
            if not isinstance(requests, list):
                raise BadRequest('body must carry a "requests" array')
            shard_size = payload.get("shard_size")
            if shard_size is not None and (
                not isinstance(shard_size, int) or shard_size < 1
            ):
                raise BadRequest("shard_size must be a positive integer")
            return 200, {"sweep": state.submit_sweep(requests, shard_size)}
        if path.startswith("/v1/sweeps/") and method == "GET":
            sweep_id = path.split("/")[3]
            return 200, {"sweep": state.sweep_status(sweep_id)}
        if path == "/v1/workers/register" and method == "POST":
            worker = state.register_worker(self._json_body(body))
            return 200, {
                "worker_id": worker.worker_id,
                "heartbeat_interval": self.config.heartbeat_interval,
                "heartbeat_timeout": self.config.heartbeat_timeout,
            }
        if path.startswith("/v1/workers/") and method == "POST":
            parts = path.split("/")  # '', 'v1', 'workers', '<id>', verb
            if len(parts) == 5 and parts[4] == "heartbeat":
                payload = self._json_body(body)
                state.heartbeat(parts[3], payload.get("stats") or {})
                return 200, {"ok": True}
            if len(parts) == 5 and parts[4] == "lease":
                return 200, {
                    "shard": state.lease(parts[3]),
                    "idle_for": self.config.heartbeat_interval,
                }
        if path.startswith("/v1/shards/") and method == "POST":
            parts = path.split("/")  # '', 'v1', 'shards', '<id>', 'report'
            if len(parts) == 5 and parts[4] == "report":
                payload = self._json_body(body)
                worker_id = payload.get("worker_id", "")
                done = payload.get("done") or []
                failed = payload.get("failed") or {}
                if not isinstance(done, list) or not isinstance(failed, dict):
                    raise BadRequest(
                        '"done" must be an array and "failed" an object'
                    )
                return 200, state.report(
                    parts[3],
                    worker_id,
                    [str(k) for k in done],
                    {str(k): str(v) for k, v in failed.items()},
                    payload.get("stats") or {},
                )
        if path.startswith("/v1/cache/"):
            key = path.split("/")[3]
            if method == "GET":
                entry = self.state.cache_get(key)
                if entry is None:
                    return 404, {"error": "cache miss"}
                return 200, {"entry": entry}
            if method == "PUT":
                payload = self._json_body(body)
                try:
                    stored = self.state.cache_put(key, payload)
                except MALFORMED_ENTRY as exc:
                    raise BadRequest(f"rejected cache entry: {exc}") from exc
                return 200, {"stored": stored}
        return 404, {"error": f"no route {path}"}


async def start_coordinator(
    config: CoordinatorConfig,
) -> tuple[CoordinatorApp, str, int]:
    """Boot a coordinator programmatically; returns (app, host, port)."""
    app = CoordinatorApp(config)
    host, port = await app.start()
    return app, host, port


def run_coordinator(config: CoordinatorConfig) -> int:
    """Blocking CLI entry: coordinate until SIGTERM/SIGINT."""

    async def _main() -> None:
        app = CoordinatorApp(config)
        await app.start()
        app.install_signal_handlers()
        await app.serve_until_stopped()
        logger.info("cluster coordinator stopped")

    asyncio.run(_main())
    return 0
