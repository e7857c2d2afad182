"""Single-run simulation sessions: memoized, cached, parallel execution.

:class:`Session` is the **only** way the experiment layer executes
kernels.  ``Session.run(request)`` returns an immutable
:class:`~repro.sim.result.RunResult`, memoized three ways:

* **in-process** — identical requests within one session share one
  result object;
* **on disk** — results persist in a content-addressed cache (keyed by
  benchmark, input seed, canonical config, and simulator code version),
  so a warm cache re-renders any figure without simulating at all;
* **across request spellings** — keys are computed from the *canonical*
  GPU configuration, so a request that spells out a default value
  explicitly dedupes with one that does not.

:meth:`Session.run_many` executes cache misses as *jobs*.  A job is
one key, except that functional misses of one (benchmark, scale) form
a single job: their register-write stream does not depend on the
policy, so :func:`simulate_shared` runs the kernel once and prices it
under each key's policy (see :mod:`repro.gpu.functional`).  Jobs fan
out across CPU cores when ``max_workers > 1`` (the library default is
1; the ``warped-compression`` CLI passes :func:`usable_cores`).  The
pool fails fast: the first failed job cancels the queued ones, keeps
every result that finished, and re-raises.

Accounting stays per key.  The module-level :data:`SIM_COUNTER` counts
simulated keys (not cache hits, not kernel runs) process-wide, which is
how the test suite *proves* the run-once/replay-many discipline: running
the Figure 9 and Figure 14 experiments back-to-back simulates each
distinct pair exactly once, and a warm-cache rerun simulates nothing.

Functional requests additionally support a **trace-replay tier**
(``SimRequest(replay=True)``): the session captures one canonical
register-write trace per (benchmark, scale) and re-prices every
replayed policy/config against it with whole-trace array arithmetic —
so a policy sweep over a warm trace performs zero new simulations.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.memo import MEMO_CACHE
from repro.gpu.config import GPUConfig
from repro.gpu.functional import FunctionalRunner, run_functional
from repro.gpu.launch import run_kernel
from repro.gpu.trace import RegisterTrace, capture_trace, replay_trace
from repro.kernels import benchmark_names, get_benchmark
from repro.obs.log import get_logger
from repro.obs.profiler import HostProfiler
from repro.sim.cache import (
    ResultCache,
    code_version,
    fingerprint,
    resolve_cache_dir,
)
from repro.sim.result import RunResult

logger = get_logger("sim.session")


class SimulationCounter:
    """Process-wide count of simulated keys (a shared run counts each)."""

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


#: Global counter incremented once per simulated key (never per cache hit).
SIM_COUNTER = SimulationCounter()

_CONFIG_FIELDS = tuple(f.name for f in fields(GPUConfig))


def config_dict(config: GPUConfig) -> dict:
    """``dataclasses.asdict(config)`` without its recursive deep copy.

    Every :class:`GPUConfig` field is a scalar, so reading the fields
    builds an equal dict several times faster; a cache key is built on
    every lookup.
    """
    return {name: getattr(config, name) for name in _CONFIG_FIELDS}


@dataclass(frozen=True)
class SimRequest:
    """Identity of one simulation: benchmark × configuration × mode."""

    benchmark: str
    policy: str = "warped"
    scheduler: str = "gto"
    compression_latency: int = 2
    decompression_latency: int = 1
    rfc_entries: int = 0
    timing: bool = True
    collect_bdi: bool = False
    scale: str = "default"
    #: extra :class:`GPUConfig` fields, as a sorted tuple of pairs
    config_overrides: tuple[tuple[str, object], ...] = ()
    #: functional runs only: also capture the register-write trace
    capture_trace: bool = False
    #: functional runs only: price this request by replaying the stored
    #: register-write trace instead of executing the kernel.  The session
    #: shares one captured trace per (benchmark, scale) across every
    #: replayed policy/config, so a warm trace re-prices a whole policy
    #: sweep with zero new simulations.  Ignored for timing runs (a
    #: trace carries no cycle information).
    replay: bool = False

    def gpu_config(self) -> GPUConfig | None:
        """The canonical config this request simulates (timing only)."""
        if not self.timing:
            return None
        config = GPUConfig(
            scheduler_policy=self.scheduler,
            compression_latency=self.compression_latency,
            decompression_latency=self.decompression_latency,
            rfc_entries_per_warp=self.rfc_entries,
        )
        if self.config_overrides:
            config = config.with_overrides(**dict(self.config_overrides))
        return config

    def key_material(self) -> dict:
        """Everything that determines this request's outcome.

        Timing-only knobs are folded into the canonical config (or
        dropped entirely for functional runs), so equivalent requests
        share one cache entry regardless of how they were phrased.
        """
        config = self.gpu_config()
        return {
            "benchmark": self.benchmark,
            "seed": int(get_benchmark(self.benchmark).seed),
            "scale": self.scale,
            "policy": self.policy,
            "timing": self.timing,
            "collect_bdi": self.collect_bdi,
            "capture_trace": self.capture_trace and not self.timing,
            "replay": self.replay and not self.timing,
            "config": config_dict(config) if config is not None else None,
            "code": code_version(),
        }

    # ------------------------------------------------------------------
    # Wire round trip (the serve submission body and the cluster shard
    # protocol both carry requests in this shape)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-safe representation; :meth:`from_payload` inverts it."""
        payload = asdict(self)
        if self.config_overrides:
            payload["config_overrides"] = dict(self.config_overrides)
        else:
            payload.pop("config_overrides", None)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SimRequest":
        """Rebuild a request from :meth:`to_payload` output.

        Raises ``TypeError``/``ValueError`` on unknown or malformed
        fields — the cluster worker calls this on coordinator-supplied
        payloads and must fail loudly rather than simulate the wrong
        thing.
        """
        spec = dict(payload)
        overrides = spec.pop("config_overrides", None)
        if overrides:
            if not isinstance(overrides, dict):
                raise TypeError("config_overrides must be an object")
            spec["config_overrides"] = tuple(sorted(overrides.items()))
        unknown = set(spec) - set(cls.__dataclass_fields__)
        if unknown:
            raise TypeError(f"unknown request fields: {sorted(unknown)}")
        return cls(**spec)


def simulate(request: SimRequest, trace_destination: str | None = None) -> RunResult:
    """Execute one request for real (no caching at this layer).

    Increments :data:`SIM_COUNTER`.  For functional requests with
    ``capture_trace``, the register-write trace is saved to
    ``trace_destination`` and the run's statistics are produced by
    replaying it — guaranteeing the stored trace reproduces the result.
    """
    if request.replay and not request.timing:
        raise ValueError(
            "replay requests are priced by the Session's replay tier, "
            "never simulated directly"
        )
    SIM_COUNTER.add()
    bench = get_benchmark(request.benchmark)
    spec = bench.launch(request.scale)
    gmem = spec.fresh_memory()

    if not request.timing:
        trace_path = None
        if request.capture_trace:
            trace = capture_trace(
                spec.kernel, spec.grid_dim, spec.cta_dim, spec.params, gmem
            )
            if trace_destination is not None:
                Path(trace_destination).parent.mkdir(parents=True, exist_ok=True)
                trace.save(trace_destination)
                trace_path = trace_destination
            stats = replay_trace(
                trace,
                policy=request.policy,
                collect_bdi=request.collect_bdi,
            )
        else:
            stats = run_functional(
                spec.kernel,
                spec.grid_dim,
                spec.cta_dim,
                spec.params,
                gmem,
                policy=request.policy,
                collect_bdi=request.collect_bdi,
            )
        return _functional_result(request, stats.value, trace_path)

    config = request.gpu_config()
    sim = run_kernel(
        spec.kernel,
        spec.grid_dim,
        spec.cta_dim,
        spec.params,
        gmem,
        config=config,
        policy=request.policy,
        collect_bdi=request.collect_bdi,
    )
    bench.verify(gmem, spec)
    return RunResult(
        benchmark=request.benchmark,
        policy=request.policy,
        scale=request.scale,
        config=config_dict(config),
        timing_mode=True,
        cycles=sim.cycles,
        value=sim.stats.value,
        timing=sim.stats.timing,
        energy=sim.stats.energy_breakdown,
        energy_model=sim.stats.energy_model,
        gated_fractions=sim.stats.gated_fractions,
        timeline=sim.stats.timeline,
    )


def shared_run(request: SimRequest) -> tuple[str, str] | None:
    """The kernel run ``request`` can share with other keys, if any.

    Plain functional requests of one (benchmark, scale) execute the same
    register-write stream whatever their policy, so they can be priced
    from one run.  Timing runs, trace captures and replays cannot.
    """
    if request.timing or request.capture_trace or request.replay:
        return None
    return (request.benchmark, request.scale)


def simulate_shared(requests: Sequence[SimRequest]) -> list[RunResult]:
    """Execute functional requests that share one kernel run.

    Runs the kernel once and prices it under each request's policy
    (:meth:`~repro.gpu.functional.FunctionalRunner.run_priced`), so each
    result equals what :func:`simulate` returns for that request alone.
    Increments :data:`SIM_COUNTER` once per request.
    """
    kernel_runs = {shared_run(request) for request in requests}
    if len(kernel_runs) != 1 or None in kernel_runs:
        raise ValueError(
            "shared simulation needs plain functional requests of one "
            "benchmark and scale"
        )
    SIM_COUNTER.add(len(requests))
    first = requests[0]
    spec = get_benchmark(first.benchmark).launch(first.scale)
    runs = FunctionalRunner().run_priced(
        spec.kernel,
        spec.grid_dim,
        spec.cta_dim,
        spec.params,
        spec.fresh_memory(),
        [(request.policy, request.collect_bdi) for request in requests],
    )
    return [
        _functional_result(request, stats.value)
        for request, stats in zip(requests, runs)
    ]


def _functional_result(
    request: SimRequest, value, trace_path: str | None = None
) -> RunResult:
    return RunResult(
        benchmark=request.benchmark,
        policy=request.policy,
        scale=request.scale,
        config=None,
        timing_mode=False,
        cycles=0,
        value=value,
        trace_path=trace_path,
    )


def usable_cores() -> int:
    """CPU cores this process may run on (never less than 1).

    Honours the scheduler affinity mask (containers, ``taskset``) where
    the platform has one, else counts every CPU.
    """
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        count = os.cpu_count() or 1
    return max(1, count)


def _measured_job(
    requests: Sequence[SimRequest], trace_destination: str | None = None
) -> tuple[list[RunResult], dict]:
    """Execute one job, plus what it cost on this process.

    A one-key job goes through :func:`simulate` (the only job that may
    capture a trace to ``trace_destination``); a larger one through
    :func:`simulate_shared`.  The measures are the wall-clock
    ``elapsed``, the ``worker`` pid and the codec-memo
    ``memo_hits``/``memo_misses`` the job added — the keyword arguments
    of :meth:`~repro.obs.profiler.HostProfiler.record_simulation`.
    """
    hits, misses = MEMO_CACHE.hits, MEMO_CACHE.misses
    start = time.perf_counter()
    if len(requests) == 1:
        results = [simulate(requests[0], trace_destination)]
    else:
        results = simulate_shared(requests)
    return results, {
        "elapsed": time.perf_counter() - start,
        "worker": os.getpid(),
        "memo_hits": MEMO_CACHE.hits - hits,
        "memo_misses": MEMO_CACHE.misses - misses,
    }


def _pool_job(job: tuple[tuple[SimRequest, ...], str | None]) -> dict:
    """Worker-process entry point: run a job and ship plain dicts back.

    Beside the results (one per request, in order), the payload carries
    the job's measures (see :func:`_measured_job`), which would
    otherwise die with the worker, so the parent's
    :class:`~repro.obs.profiler.HostProfiler` can attribute throughput
    and memo behaviour per worker.
    """
    results, measures = _measured_job(*job)
    return {"results": [result.to_dict() for result in results], **measures}


def _pool_simulate(job: tuple[SimRequest, str | None]) -> dict:
    """The one-key pool entry point (the serve scheduler's).

    The payload is :func:`_pool_job`'s with its one result as
    ``result``.
    """
    request, trace_destination = job
    payload = _pool_job(((request,), trace_destination))
    (payload["result"],) = payload.pop("results")
    return payload


class Session:
    """Runs simulations on demand; every result is a cached artifact."""

    def __init__(
        self,
        scale: str = "default",
        verbose: bool = False,
        subset: list[str] | None = None,
        *,
        cache_dir: str | Path | None = None,
        use_disk_cache: bool = True,
        max_workers: int = 1,
        profiler: HostProfiler | None = None,
        result_cache: ResultCache | None = None,
    ):
        self.scale = scale
        self.verbose = verbose
        self.subset = subset
        self.max_workers = max_workers
        self.profiler = profiler
        self._memo: dict[str, RunResult] = {}
        self._disk: ResultCache | None = None
        if result_cache is not None:
            # A pre-built cache (e.g. the cluster's tiered local→peer
            # stack) takes precedence over directory-based construction.
            self._disk = result_cache
        elif use_disk_cache:
            self._disk = ResultCache(resolve_cache_dir(cache_dir))
        self._tmp_trace_dir: str | None = None
        # Per-session accounting (SIM_COUNTER is the process-wide proof).
        self.simulated = 0
        self.memo_hits = 0
        self.disk_hits = 0
        self.dedup_hits = 0
        #: Requests priced by the trace-replay tier (no simulation).
        self.replayed = 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def register_metrics(self, registry, prefix: str = "session.cache") -> None:
        """Export cache behaviour as pull-based :mod:`repro.obs` probes.

        Registers ``<prefix>.memo_hits`` / ``disk_hits`` / ``dedup_hits``
        / ``simulated`` (delta counters) and ``<prefix>.memo_size`` (a
        gauge), so server dashboards and interval-sampled timelines can
        report cache effectiveness without log-scraping.
        """
        registry.probe(
            f"{prefix}.memo_hits", lambda: self.memo_hits, kind="delta"
        )
        registry.probe(
            f"{prefix}.disk_hits", lambda: self.disk_hits, kind="delta"
        )
        registry.probe(
            f"{prefix}.dedup_hits", lambda: self.dedup_hits, kind="delta"
        )
        registry.probe(
            f"{prefix}.simulated", lambda: self.simulated, kind="delta"
        )
        registry.probe(
            f"{prefix}.replayed", lambda: self.replayed, kind="delta"
        )
        registry.probe(f"{prefix}.memo_size", lambda: len(self._memo))

    # ------------------------------------------------------------------
    # Request construction
    # ------------------------------------------------------------------
    def request(self, benchmark: str, **overrides) -> SimRequest:
        return SimRequest(benchmark=benchmark, scale=self.scale, **overrides)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, request: SimRequest | str, **overrides) -> RunResult:
        """One memoized run (a :class:`SimRequest` or benchmark name)."""
        if isinstance(request, str):
            request = self.request(request, **overrides)
        elif overrides:
            raise TypeError("overrides only apply to benchmark-name requests")
        key, material, hit = self.lookup(request)
        if hit is not None:
            return hit
        result = self._execute(request, key)
        self.store(key, material, result)
        return result

    def run_many(
        self, requests: Iterable[SimRequest]
    ) -> dict[SimRequest, RunResult]:
        """Evaluate many requests, fanning cache misses across cores.

        Only *distinct* (kernel, config) pairs are simulated — duplicate
        and equivalent requests collapse onto one execution — and the
        returned mapping covers every requested key.  Misses run as jobs
        (see :meth:`_jobs`), so functional misses of one (benchmark,
        scale) share one kernel run.
        """
        requests = list(dict.fromkeys(requests))
        out: dict[SimRequest, RunResult] = {}
        misses: dict[str, tuple[SimRequest, dict]] = {}
        for request in requests:
            key, material, hit = self.lookup(request)
            if hit is not None:
                out[request] = hit
            elif key in misses:
                # Equivalent request already queued: alias after execution.
                self.dedup_hits += 1
            else:
                misses[key] = (request, material)

        if misses:
            # Replay-tier misses never cross process boundaries: they are
            # priced in-session from the shared trace (and may trigger the
            # one source capture), so only real simulations go to the pool.
            replays = {
                key: job
                for key, job in misses.items()
                if job[0].replay and not job[0].timing
            }
            simulations = {
                key: job for key, job in misses.items() if key not in replays
            }
            jobs = self._jobs(simulations)
            if self.max_workers > 1 and len(jobs) > 1:
                self._run_pool(jobs, simulations)
            else:
                for keys in jobs:
                    self._run_job(keys, simulations)
            for key, (request, material) in replays.items():
                result = self._execute(request, key)
                self.store(key, material, result)

        # Resolve every original request (including aliases) via the memo.
        for request in requests:
            if request not in out:
                out[request] = self._memo[fingerprint(request.key_material())]
        return out

    @staticmethod
    def _jobs(misses: dict[str, tuple[SimRequest, dict]]) -> list[list[str]]:
        """Group cache misses into jobs, in first-key order.

        Keys that can share one kernel run (see :func:`shared_run`) form
        one job; every other key is a job of its own.
        """
        jobs: list[list[str]] = []
        shared: dict[tuple[str, str], list[str]] = {}
        for key, (request, _) in misses.items():
            run = shared_run(request)
            if run is None:
                jobs.append([key])
            elif run in shared:
                shared[run].append(key)
            else:
                shared[run] = [key]
                jobs.append(shared[run])
        return jobs

    def _run_job(
        self, keys: list[str], misses: dict[str, tuple[SimRequest, dict]]
    ) -> None:
        """Run one job in this process and store every key of it."""
        requests = [misses[key][0] for key in keys]
        results = self._simulate(
            requests, self._trace_destination(requests[0], keys[0])
        )
        for key, result in zip(keys, results):
            self.store(key, misses[key][1], result)

    def _run_pool(
        self, jobs: list[list[str]], misses: dict[str, tuple[SimRequest, dict]]
    ) -> None:
        """Fan jobs across worker processes with progress beats.

        Fails fast.  On any exception — a failed job, a broken pool,
        ``KeyboardInterrupt`` — queued jobs are cancelled, the jobs
        already running finish, every key of every job that completed
        is stored, and the original exception propagates.
        """
        pool = ProcessPoolExecutor(max_workers=min(self.max_workers, len(jobs)))
        futures: dict = {}
        try:
            for keys in jobs:
                requests = tuple(misses[key][0] for key in keys)
                job = (requests, self._trace_destination(requests[0], keys[0]))
                futures[pool.submit(_pool_job, job)] = keys
            total = len(futures)
            for done, future in enumerate(as_completed(futures), 1):
                keys = futures.pop(future)
                self._adopt(keys, misses, future.result())
                if self.profiler is not None:
                    self.profiler.heartbeat(
                        done, total, label=misses[keys[0]][0].benchmark
                    )
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            for future, keys in futures.items():
                if not future.cancelled() and future.exception() is None:
                    self._adopt(keys, misses, future.result())
            raise
        pool.shutdown()

    def _adopt(
        self,
        keys: list[str],
        misses: dict[str, tuple[SimRequest, dict]],
        payload: dict,
    ) -> None:
        """Account for and store the keys of one job a pool worker ran."""
        results = [RunResult.from_dict(data) for data in payload.pop("results")]
        SIM_COUNTER.add(len(keys))  # workers counted in their own process
        self._account(len(keys), payload)
        for key, result in zip(keys, results):
            request, material = misses[key]
            self._log(request)
            self.store(key, material, result)

    def _simulate(
        self, requests: list[SimRequest], trace_destination: str | None
    ) -> list[RunResult]:
        """Run one job in this process and account for its keys."""
        for request in requests:
            self._log(request)
        results, measures = _measured_job(requests, trace_destination)
        self._account(len(requests), measures)
        return results

    def _account(self, keys: int, measures: dict) -> None:
        """Count one job's simulated keys; its measures go in once."""
        self.simulated += keys
        if self.profiler is not None:
            self.profiler.record_simulation(keys=keys, **measures)

    # Convenience wrappers mirroring the retired SimulationCache API.
    def timing_run(self, benchmark: str, **overrides) -> RunResult:
        """A cycle-level run (energy + cycles + value stats)."""
        return self.run(self.request(benchmark, timing=True, **overrides))

    def functional_run(self, benchmark: str, **overrides) -> RunResult:
        """A functional run (value stats only, much faster)."""
        return self.run(self.request(benchmark, timing=False, **overrides))

    def replay_run(self, benchmark: str, **overrides) -> RunResult:
        """A trace-replay-tier run: re-price from the stored trace."""
        return self.run(
            self.request(benchmark, timing=False, replay=True, **overrides)
        )

    def benchmarks(self, subset: list[str] | None = None) -> list[str]:
        return subset or self.subset or benchmark_names()

    # ------------------------------------------------------------------
    # Cache plumbing (public: the serve layer orchestrates around it)
    # ------------------------------------------------------------------
    def lookup(
        self, request: SimRequest
    ) -> tuple[str, dict, RunResult | None]:
        """Resolve ``request`` against the memo and disk cache.

        Returns ``(key, key_material, hit)`` where ``hit`` is ``None``
        on a miss; never executes anything.  External schedulers (the
        ``repro.serve`` job queue) pair this with :meth:`store` to run
        misses on their own executors while sharing the session's
        dedup/caching discipline and hit accounting.
        """
        material = request.key_material()
        key = fingerprint(material)
        if key in self._memo:
            self.memo_hits += 1
            return key, material, self._memo[key]
        if self._disk is not None:
            result = self._disk.get(key)
            if result is not None:
                self.disk_hits += 1
                self._memo[key] = result
                return key, material, result
        return key, material, None

    def _execute(self, request: SimRequest, key: str) -> RunResult:
        if request.replay and not request.timing:
            return self._execute_replay(request)
        (result,) = self._simulate(
            [request], self._trace_destination(request, key)
        )
        return result

    # ------------------------------------------------------------------
    # Trace-replay tier
    # ------------------------------------------------------------------
    def _replay_source(self, request: SimRequest) -> SimRequest:
        """The one trace-capture run a replayed request prices against.

        The captured write stream is policy-independent (capture always
        runs the baseline functional interpreter), so every replayed
        policy/config of a (benchmark, scale) pair shares this single
        canonical source — and therefore one simulation, ever.
        """
        return SimRequest(
            benchmark=request.benchmark,
            policy="baseline",
            timing=False,
            scale=request.scale,
            capture_trace=True,
        )

    def _execute_replay(self, request: SimRequest) -> RunResult:
        source = self.run(self._replay_source(request))
        trace = self._load_trace(request, source)
        logger.debug(
            f"  replaying {request.benchmark} [{request.policy}] "
            "from stored trace"
        )
        stats = replay_trace(
            trace,
            policy=request.policy,
            collect_bdi=request.collect_bdi,
        )
        self.replayed += 1
        return RunResult(
            benchmark=request.benchmark,
            policy=request.policy,
            scale=request.scale,
            config=None,
            timing_mode=False,
            cycles=0,
            value=stats.value,
            trace_path=source.trace_path,
        )

    def _load_trace(
        self, request: SimRequest, source: RunResult
    ) -> RegisterTrace:
        path = source.trace_path
        if path is not None and Path(path).exists():
            return RegisterTrace.load(path)
        # The trace artifact went missing (pruned cache directory, dead
        # temp dir from an earlier process): re-capture it once and
        # refresh the cached source entry.
        source_request = self._replay_source(request)
        material = source_request.key_material()
        key = fingerprint(material)
        (result,) = self._simulate(
            [source_request], self._trace_destination(source_request, key)
        )
        self.store(key, material, result)
        if result.trace_path is None or not Path(result.trace_path).exists():
            raise RuntimeError(
                f"trace capture for {request.benchmark!r} produced no "
                "loadable trace artifact"
            )
        return RegisterTrace.load(result.trace_path)

    def store(self, key: str, material: dict, result: RunResult) -> None:
        """Publish one result to the memo and (if enabled) disk cache."""
        self._memo[key] = result
        if self._disk is not None:
            self._disk.put(key, material, result)

    def _trace_destination(
        self, request: SimRequest, key: str
    ) -> str | None:
        if request.timing or not request.capture_trace:
            return None
        if self._disk is not None:
            return str(self._disk.trace_path(key))
        if self._tmp_trace_dir is None:
            self._tmp_trace_dir = tempfile.mkdtemp(prefix="repro-traces-")
        return str(Path(self._tmp_trace_dir) / f"{key}.npz")

    def _log(self, request: SimRequest) -> None:
        config = request.gpu_config()
        default = GPUConfig()
        deltas = ""
        if config is not None:
            changed = {
                name: value
                for name, value in config_dict(config).items()
                if value != getattr(default, name)
            }
            deltas = "".join(f", {k}={v}" for k, v in sorted(changed.items()))
        message = (
            f"  simulating {request.benchmark} [{request.policy}"
            f"{'' if request.timing else ', functional'}{deltas}]"
        )
        # ``verbose`` promotes the line to INFO (shown at the default log
        # level); otherwise it is DEBUG-only detail.
        if self.verbose:
            logger.info(message)
        else:
            logger.debug(message)
