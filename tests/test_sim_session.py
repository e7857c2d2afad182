"""Tests for the repro.sim session layer.

Covers the three pillars of the single-run discipline:

* **artifacts** — :class:`RunResult` and its stat components round-trip
  losslessly through JSON (property-based where cheap);
* **dedup** — the in-process memo and the canonical request keys make
  the Figure 9 + Figure 14 experiments share every (kernel, config)
  pair, so back-to-back they simulate each distinct pair exactly once;
* **cache** — a warm on-disk cache re-renders any figure with *zero*
  simulations and byte-identical tables, and the parallel executor
  produces results identical to serial execution; when a pooled key
  fails, the executor stops early and keeps every result that finished.
"""

import json
import multiprocessing
import os
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import TimingStats, ValueStats
from repro.core.codec import CompressionMode
from repro.gpu.trace import RegisterTrace, replay_trace
from repro.harness.experiments import fig03, fig09, fig14
from repro.kernels import benchmark_names
from repro.sim import (
    SIM_COUNTER,
    ResultCache,
    RunResult,
    Session,
    SimRequest,
    code_version,
    simulate,
)
from repro.sim import session as session_module
from repro.sim.cache import fingerprint
from repro.sim.result import SCHEMA_VERSION
from repro.sim.session import usable_cores

SUBSET = ["lib", "pathfinder"]


def canonical_json(result: RunResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

counts = st.integers(min_value=0, max_value=2**40)
phase_pair = st.lists(counts, min_size=2, max_size=2)


@st.composite
def value_stats(draw):
    stats = ValueStats(collect_bdi=draw(st.booleans()))
    stats.similarity = np.asarray(
        draw(
            st.lists(
                st.lists(counts, min_size=4, max_size=4),
                min_size=2,
                max_size=2,
            )
        ),
        dtype=np.int64,
    )
    stats.instructions = draw(counts)
    stats.divergent_instructions = draw(counts)
    stats.writes = np.asarray(draw(phase_pair), dtype=np.int64)
    stats.achievable_banks = np.asarray(draw(phase_pair), dtype=np.int64)
    stats.stored_banks = np.asarray(draw(phase_pair), dtype=np.int64)
    stats.mode_histogram = Counter(
        draw(
            st.dictionaries(
                st.sampled_from(list(CompressionMode)),
                st.integers(min_value=1, max_value=2**40),
            )
        )
    )
    stats.bdi_histogram = Counter(
        draw(
            st.dictionaries(
                st.sampled_from(["b1d0", "b2d1", "b4d2", "zeros", "none"]),
                st.integers(min_value=1, max_value=2**40),
            )
        )
    )
    stats.movs_injected = draw(counts)
    stats.occupancy_sum = np.asarray(
        draw(
            st.lists(
                st.floats(
                    min_value=0.0, max_value=1e9, allow_nan=False
                ),
                min_size=2,
                max_size=2,
            )
        ),
        dtype=np.float64,
    )
    stats.occupancy_samples = np.asarray(draw(phase_pair), dtype=np.int64)
    return stats


class TestSerialization:
    @settings(max_examples=50, deadline=None)
    @given(stats=value_stats())
    def test_value_stats_roundtrip_lossless(self, stats):
        wire = json.loads(json.dumps(stats.to_dict()))
        restored = ValueStats.from_dict(wire)
        assert json.dumps(restored.to_dict(), sort_keys=True) == json.dumps(
            stats.to_dict(), sort_keys=True
        )
        assert restored.mode_histogram == stats.mode_histogram
        for mode in restored.mode_histogram:
            assert isinstance(mode, CompressionMode)

    @settings(max_examples=50, deadline=None)
    @given(
        cycles=counts,
        issued=counts,
        stalls=counts,
        wakeups=counts,
    )
    def test_timing_stats_roundtrip(self, cycles, issued, stalls, wakeups):
        stats = TimingStats(
            cycles=cycles,
            issued=issued,
            collector_stall_cycles=stalls,
            bank_wakeup_stalls=wakeups,
        )
        assert TimingStats.from_dict(
            json.loads(json.dumps(stats.to_dict()))
        ) == stats

    def test_timing_run_result_roundtrip_lossless(self):
        result = simulate(SimRequest("lib", scale="small"))
        wire = json.loads(json.dumps(result.to_dict()))
        restored = RunResult.from_dict(wire, from_cache=True)
        assert restored.from_cache and not result.from_cache
        assert canonical_json(restored) == canonical_json(result)
        # The re-priceable energy model survives: same totals either side.
        assert (
            restored.energy_model.breakdown().total_pj
            == result.energy_model.breakdown().total_pj
        )

    def test_functional_run_result_roundtrip_lossless(self):
        result = simulate(
            SimRequest("lib", scale="small", timing=False, collect_bdi=True)
        )
        wire = json.loads(json.dumps(result.to_dict()))
        assert canonical_json(RunResult.from_dict(wire)) == canonical_json(
            result
        )

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="unsupported RunResult schema"):
            RunResult.from_dict({"schema": SCHEMA_VERSION + 1})

    def test_stats_compat_view(self):
        result = simulate(SimRequest("lib", scale="small"))
        stats = result.stats
        assert stats.benchmark == "lib"
        assert stats.value is result.value
        assert stats.energy_breakdown is result.energy


# ---------------------------------------------------------------------------
# Canonical request keys
# ---------------------------------------------------------------------------


class TestRequestKeys:
    def test_explicit_default_override_collapses(self):
        # bank_gate_delay=64 IS the default: spelling it out must not
        # change the cache key.
        plain = SimRequest("lib")
        spelled = SimRequest(
            "lib", config_overrides=(("bank_gate_delay", 64),)
        )
        assert fingerprint(plain.key_material()) == fingerprint(
            spelled.key_material()
        )

    def test_timing_knobs_ignored_for_functional_runs(self):
        a = SimRequest("lib", timing=False)
        b = SimRequest(
            "lib", timing=False, compression_latency=9, scheduler="lrr"
        )
        assert fingerprint(a.key_material()) == fingerprint(b.key_material())

    def test_distinct_configs_distinct_keys(self):
        a = SimRequest("lib")
        for other in (
            SimRequest("lib", policy="baseline"),
            SimRequest("lib", scheduler="lrr"),
            SimRequest("lib", compression_latency=4),
            SimRequest("lib", scale="small"),
            SimRequest("lib", timing=False),
            SimRequest("pathfinder"),
        ):
            assert fingerprint(a.key_material()) != fingerprint(
                other.key_material()
            )

    def test_key_material_carries_seed_and_code_version(self):
        material = SimRequest("lib").key_material()
        assert material["code"] == code_version()
        assert isinstance(material["seed"], int)

    def test_config_material_equals_asdict_for_every_paper_request(self):
        # Cache keys must not move: the shallow config dict has to equal
        # what dataclasses.asdict built for every request the paper makes.
        from dataclasses import asdict

        from repro.harness.experiments import EXPERIMENTS

        session = Session(scale="default", use_disk_cache=False)
        requests = {
            request
            for spec in EXPERIMENTS.values()
            for request in spec.requests(session).values()
        }
        requests.add(SimRequest("lib", config_overrides=(("num_sms", 2),)))
        assert len(requests) > 200
        for request in requests:
            config = request.gpu_config()
            expected = asdict(config) if config is not None else None
            assert request.key_material()["config"] == expected


# ---------------------------------------------------------------------------
# In-process dedup (the run-once proof)
# ---------------------------------------------------------------------------


class TestDedup:
    def test_fig09_fig14_simulate_each_pair_exactly_once(self, tmp_path):
        session = Session(
            scale="small", subset=SUBSET, cache_dir=tmp_path / "cache"
        )
        before = SIM_COUNTER.value
        fig09(session)
        assert SIM_COUNTER.value - before == 4  # 2 benchmarks × {baseline, warped}
        fig14(session)
        # Figure 14 re-uses both GTO runs; only the LRR pairs are new.
        assert SIM_COUNTER.value - before == 8
        assert session.memo_hits >= 4
        # Re-rendering either figure is now simulation-free.
        fig09(session)
        fig14(session)
        assert SIM_COUNTER.value - before == 8

    def test_run_many_collapses_duplicates(self):
        session = Session(scale="small", use_disk_cache=False)
        before = SIM_COUNTER.value
        requests = [
            SimRequest("lib", scale="small", timing=False),
            SimRequest("lib", scale="small", timing=False),
            SimRequest(
                "lib",
                scale="small",
                timing=False,
                compression_latency=77,  # timing-only: same canonical key
            ),
        ]
        out = session.run_many(requests)
        assert SIM_COUNTER.value - before == 1
        assert len(out) == 2  # two distinct request spellings
        assert out[requests[0]] is out[requests[2]]

    def test_memo_returns_same_object(self):
        session = Session(scale="small", use_disk_cache=False)
        assert session.functional_run("lib") is session.functional_run("lib")


# ---------------------------------------------------------------------------
# On-disk cache
# ---------------------------------------------------------------------------


class TestDiskCache:
    def test_warm_cache_zero_simulations_identical_tables(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = Session(scale="small", subset=SUBSET, cache_dir=cache_dir)
        first = fig03(cold).render()
        assert cold.simulated > 0

        warm = Session(scale="small", subset=SUBSET, cache_dir=cache_dir)
        before = SIM_COUNTER.value
        second = fig03(warm).render()
        assert SIM_COUNTER.value == before
        assert warm.simulated == 0
        assert warm.disk_hits > 0
        assert second == first  # byte-identical re-render

    def test_cached_results_flagged(self, tmp_path):
        cache_dir = tmp_path / "cache"
        Session(scale="small", cache_dir=cache_dir).functional_run("lib")
        warm = Session(scale="small", cache_dir=cache_dir)
        assert warm.functional_run("lib").from_cache

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        Session(scale="small", cache_dir=cache_dir).functional_run("lib")
        cache = ResultCache(cache_dir)
        assert len(cache) == 1
        (entry,) = cache_dir.glob("results/*/*.json")
        key = entry.stem
        bodies = [
            "{not json",
            # JSON of the wrong shape, with or without the right key
            "[1]",
            '"str"',
            '{"result": null}',
            '{"result": [1, 2]}',
            json.dumps({"key": key, "result": None}),
            json.dumps({"key": key, "result": [1, 2]}),
            json.dumps({"key": key, "result": {"schema": SCHEMA_VERSION}}),
        ]
        for body in bodies:
            entry.write_text(body)
            assert cache.get(key) is None, body
            session = Session(scale="small", cache_dir=cache_dir)
            before = SIM_COUNTER.value
            assert not session.functional_run("lib").from_cache, body
            assert SIM_COUNTER.value == before + 1, body

    def test_entry_under_another_key_is_a_miss(self, tmp_path):
        """A valid entry copied to another key's path is not a hit."""
        cache_dir = tmp_path / "cache"
        session = Session(scale="small", cache_dir=cache_dir)
        lib = session.request("lib", timing=False)
        pathfinder = session.request("pathfinder", timing=False)
        session.run_many([lib, pathfinder])
        cache = ResultCache(cache_dir)
        lib_key = fingerprint(lib.key_material())
        pathfinder_key = fingerprint(pathfinder.key_material())
        cache._entry_path(lib_key).write_bytes(
            cache._entry_path(pathfinder_key).read_bytes()
        )
        assert cache.read_entry(lib_key) is None
        assert cache.get(lib_key) is None
        assert cache.get(pathfinder_key).benchmark == "pathfinder"
        warm = Session(scale="small", cache_dir=cache_dir)
        assert warm.run(lib).benchmark == "lib"
        assert warm.simulated == 1

    def test_code_version_partitions_cache(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        Session(scale="small", cache_dir=cache_dir).functional_run("lib")
        monkeypatch.setattr(
            "repro.sim.cache.code_version", lambda: "different"
        )
        monkeypatch.setattr(
            "repro.sim.session.code_version", lambda: "different"
        )
        session = Session(scale="small", cache_dir=cache_dir)
        assert not session.functional_run("lib").from_cache
        assert session.simulated == 1


# ---------------------------------------------------------------------------
# Trace handles
# ---------------------------------------------------------------------------


class TestTraceHandles:
    def test_captured_trace_replays_to_identical_stats(self, tmp_path):
        session = Session(scale="small", cache_dir=tmp_path / "cache")
        result = session.functional_run("pathfinder", capture_trace=True)
        assert result.trace_path is not None
        trace = RegisterTrace.load(result.trace_path)
        replayed = replay_trace(trace, policy=result.policy)
        assert json.dumps(
            replayed.value.to_dict(), sort_keys=True
        ) == json.dumps(result.value.to_dict(), sort_keys=True)

    def test_missing_trace_file_is_a_cache_miss(self, tmp_path):
        import os

        cache_dir = tmp_path / "cache"
        first = Session(scale="small", cache_dir=cache_dir).functional_run(
            "lib", capture_trace=True
        )
        os.remove(first.trace_path)
        session = Session(scale="small", cache_dir=cache_dir)
        again = session.functional_run("lib", capture_trace=True)
        assert not again.from_cache
        assert session.simulated == 1

    def test_trace_survives_without_disk_cache(self):
        session = Session(scale="small", use_disk_cache=False)
        result = session.functional_run("lib", capture_trace=True)
        assert result.trace_path is not None
        assert len(RegisterTrace.load(result.trace_path)) > 0


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------


class TestParallel:
    def test_parallel_equals_serial(self, tmp_path):
        requests = [
            SimRequest("lib", scale="small", policy="baseline"),
            SimRequest("lib", scale="small", policy="warped"),
            SimRequest("pathfinder", scale="small", timing=False),
        ]
        serial = Session(scale="small", use_disk_cache=False).run_many(
            requests
        )
        parallel_session = Session(
            scale="small",
            cache_dir=tmp_path / "cache",
            max_workers=2,
        )
        before = SIM_COUNTER.value
        parallel = parallel_session.run_many(requests)
        assert SIM_COUNTER.value - before == len(requests)
        assert parallel_session.simulated == len(requests)
        for request in requests:
            assert canonical_json(parallel[request]) == canonical_json(
                serial[request]
            )
        # Pooled results landed in the memo and the disk cache.
        assert ResultCache(tmp_path / "cache") and len(
            ResultCache(tmp_path / "cache")
        ) == len(requests)


#: The five functional keys the paper figures need of one benchmark
#: (Figures 2, 3 and 8; Figure 5's BDI breakdown; Figure 15's static
#: policies), which one kernel run prices.
SHARED_POLICIES = [
    ("warped", False),
    ("warped", True),
    ("static-4-0", False),
    ("static-4-1", False),
    ("static-4-2", False),
]


def functional_keys(benchmark: str) -> list[SimRequest]:
    return [
        SimRequest(
            benchmark, scale="small", timing=False, policy=policy,
            collect_bdi=collect_bdi,
        )
        for policy, collect_bdi in SHARED_POLICIES
    ]


class TestSharedRuns:
    """Functional keys of one benchmark cost one kernel run together."""

    @pytest.fixture
    def kernel_runs(self, monkeypatch):
        """Count executions of the functional interpreter loop."""
        from repro.gpu.functional import FunctionalRunner

        calls = []
        real = FunctionalRunner.run_priced

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(FunctionalRunner, "run_priced", counted)
        return calls

    def test_five_keys_one_kernel_run(self, tmp_path, kernel_runs):
        requests = functional_keys("pathfinder")
        session = Session(scale="small", cache_dir=tmp_path / "shared")
        before = SIM_COUNTER.value
        results = session.run_many(requests)
        assert len(kernel_runs) == 1
        assert session.simulated == 5
        assert SIM_COUNTER.value - before == 5

        shared = ResultCache(tmp_path / "shared")
        for i, request in enumerate(requests):
            alone = Session(scale="small", cache_dir=tmp_path / f"alone{i}")
            assert canonical_json(alone.run(request)) == canonical_json(
                results[request]
            )
            key = fingerprint(request.key_material())
            assert shared.read_entry(key) == ResultCache(
                tmp_path / f"alone{i}"
            ).read_entry(key)
        assert len(kernel_runs) == 1 + len(requests)

    def test_captures_and_timing_runs_stay_one_key_jobs(self, kernel_runs):
        requests = functional_keys("lib") + [
            SimRequest("lib", scale="small", timing=False, capture_trace=True),
            SimRequest("lib", scale="small", policy="baseline"),
        ]
        session = Session(scale="small", use_disk_cache=False)
        session.run_many(requests)
        # One shared run for the five, one capture; the timing run does
        # not execute the functional interpreter at all.
        assert len(kernel_runs) == 2
        assert session.simulated == len(requests)

    def test_profiler_counts_keys_and_runs(self, tmp_path):
        from repro.obs.profiler import HostProfiler

        profiler = HostProfiler()
        session = Session(
            scale="small", use_disk_cache=False, profiler=profiler
        )
        session.run_many(functional_keys("lib") + functional_keys("nw"))
        payload = profiler.to_dict()
        assert payload["simulations"]["count"] == 10
        assert payload["simulations"]["kernel_runs"] == 2
        (worker,) = payload["workers"].values()
        assert worker["simulations"] == 10

    def test_shared_simulation_rejects_unshareable_requests(self):
        with pytest.raises(ValueError, match="one benchmark and scale"):
            session_module.simulate_shared(
                functional_keys("lib")[:1] + functional_keys("nw")[:1]
            )
        with pytest.raises(ValueError, match="one benchmark and scale"):
            session_module.simulate_shared(
                [SimRequest("lib", scale="small", policy="baseline")]
            )


#: Pool workers see a patched ``simulate`` only if they are forked from
#: the patched parent.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched simulate",
)


class TestFailFast:
    """A pooled run stops at its first exception and keeps what finished."""

    #: every registry kernel, functional: one cheap key each, ``lib``
    #: submitted first and ``aes`` (the failing one here) second
    REQUESTS = [
        SimRequest(name, scale="small", timing=False)
        for name in ["lib", "aes"]
        + [n for n in benchmark_names() if n not in ("lib", "aes")]
    ]

    @pytest.fixture
    def finished(self, tmp_path, monkeypatch):
        """Make good keys take 0.2 s and ``aes`` fail at once.

        Returns the log every worker appends a finished key's benchmark
        to.
        """
        real = session_module.simulate
        log = tmp_path / "finished.log"

        def simulate(request, trace_destination=None):
            if request.benchmark == "aes":
                raise RuntimeError("injected failure in aes")
            time.sleep(0.2)
            result = real(request, trace_destination)
            with open(log, "a") as fh:
                fh.write(request.benchmark + "\n")
            return result

        monkeypatch.setattr(session_module, "simulate", simulate)
        return log

    def assert_kept_what_finished(self, session, cache_dir, log, total):
        finished = log.read_text().split()
        # Queued keys were cancelled...
        assert 1 <= len(finished) < total
        # ...and every key that did finish was kept, in the memo and on
        # disk; ``lib`` was running when the run stopped.
        assert "lib" in finished
        assert session.simulated == len(finished)
        stored = ResultCache(cache_dir)
        assert len(stored) == len(finished)
        for request in self.REQUESTS:
            if request.benchmark in finished:
                key = fingerprint(request.key_material())
                assert stored.get(key) is not None
                assert session.lookup(request)[2] is not None

    @needs_fork
    def test_failed_simulation_cancels_queued_keys(self, tmp_path, finished):
        session = Session(
            scale="small", cache_dir=tmp_path / "cache", max_workers=2
        )
        before = SIM_COUNTER.value
        with pytest.raises(RuntimeError, match="injected failure in aes"):
            session.run_many(self.REQUESTS)
        good = len(self.REQUESTS) - 1
        self.assert_kept_what_finished(
            session, tmp_path / "cache", finished, good
        )
        assert SIM_COUNTER.value - before == session.simulated

    @needs_fork
    def test_failed_multi_key_job_cancels_queued_jobs(
        self, tmp_path, monkeypatch
    ):
        """A failing shared run stops the pool; finished jobs are kept."""
        real = session_module.simulate_shared
        log = tmp_path / "finished.log"

        def simulate_shared(requests):
            if requests[0].benchmark == "aes":
                raise RuntimeError("injected failure in aes")
            time.sleep(0.2)
            results = real(requests)
            with open(log, "a") as fh:
                fh.write(requests[0].benchmark + "\n")
            return results

        monkeypatch.setattr(session_module, "simulate_shared", simulate_shared)
        names = [request.benchmark for request in self.REQUESTS]
        requests = [r for name in names for r in functional_keys(name)]
        session = Session(
            scale="small", cache_dir=tmp_path / "cache", max_workers=2
        )
        before = SIM_COUNTER.value
        with pytest.raises(RuntimeError, match="injected failure in aes"):
            session.run_many(requests)
        finished = log.read_text().split()
        assert 1 <= len(finished) < len(names) - 1
        assert "lib" in finished
        # Every key of every finished job is counted and stored.
        assert session.simulated == 5 * len(finished)
        assert SIM_COUNTER.value - before == session.simulated
        stored = ResultCache(tmp_path / "cache")
        assert len(stored) == session.simulated
        for request in requests:
            kept = request.benchmark in finished
            key = fingerprint(request.key_material())
            assert (stored.get(key) is not None) == kept
            assert (session.lookup(request)[2] is not None) == kept

    @needs_fork
    def test_keyboard_interrupt_cancels_queued_keys(
        self, tmp_path, finished, monkeypatch
    ):
        real = session_module.as_completed

        def interrupted(futures):
            for future in real(futures):
                yield future
                raise KeyboardInterrupt

        monkeypatch.setattr(session_module, "as_completed", interrupted)
        requests = [r for r in self.REQUESTS if r.benchmark != "aes"]
        session = Session(
            scale="small", cache_dir=tmp_path / "cache", max_workers=2
        )
        with pytest.raises(KeyboardInterrupt):
            session.run_many(requests)
        self.assert_kept_what_finished(
            session, tmp_path / "cache", finished, len(requests)
        )


class TestUsableCores:
    def test_honours_affinity(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cores() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cores() == 6

    def test_never_below_one(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(), raising=False
        )
        assert usable_cores() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cores() == 1
