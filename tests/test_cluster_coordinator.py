"""Unit coverage for the coordinator's scheduler core (ClusterState).

Everything here drives :class:`~repro.cluster.coordinator.ClusterState`
directly — no asyncio, no sockets — with a hand-cranked clock, which is
the point of keeping the scheduler synchronous: shard lifecycle,
heartbeat reaping, journal resume, and the cache-is-truth completion
rules are all provable without a running fleet.
"""

import json

import pytest

from repro.cluster.coordinator import (
    ClusterState,
    StaleShard,
    StaleWorker,
    VersionMismatch,
)
from repro.obs.metrics import MetricRegistry
from repro.serve.http import BadRequest
from repro.sim import ResultCache, SimRequest, code_version, simulate
from repro.sim.cache import MALFORMED_ENTRY, fingerprint


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _requests(n: int = 4) -> list[dict]:
    policies = ["baseline", "warped", "warped-buffered", "per-thread"]
    return [
        SimRequest(
            benchmark="lib", policy=policies[i % 4], timing=False, scale="small"
        ).to_payload()
        for i in range(n)
    ]


def _key(payload: dict) -> str:
    return fingerprint(SimRequest.from_payload(payload).key_material())


@pytest.fixture
def state(tmp_path):
    clock = FakeClock()
    cache = ResultCache(tmp_path / "cache")
    st = ClusterState(
        cache,
        tmp_path / "cache" / "cluster" / "journal.json",
        shard_size=2,
        heartbeat_timeout=5.0,
        clock=clock,
    )
    st.clock = clock  # convenience handle for tests
    return st


def _register(state) -> str:
    return state.register_worker(
        {"name": "t", "code_version": code_version()}
    ).worker_id


class TestSweepSubmission:
    def test_expand_dedupes_equivalent_requests(self, state):
        payloads = _requests(4) + _requests(4)  # exact duplicates
        sweep = state.submit_sweep(payloads)
        assert sweep["total"] == 4
        assert sweep["pending"] == 4
        assert len(state.shards) == 2  # shard_size=2

    def test_sweep_id_is_content_addressed(self, state):
        a = state.submit_sweep(_requests(3))
        b = state.submit_sweep(list(reversed(_requests(3))))
        assert a["sweep_id"] == b["sweep_id"]
        # Resubmission attached to existing state instead of resharding.
        assert state.shards_created == 2  # ceil(3/2)

    def test_cached_keys_skip_scheduling(self, state):
        payloads = _requests(4)
        request = SimRequest.from_payload(payloads[0])
        key = fingerprint(request.key_material())
        state.cache.put(key, request.key_material(), simulate(request))
        sweep = state.submit_sweep(payloads)
        assert sweep["done"] == 1
        assert sweep["pending"] == 3
        assert state.keys_skipped_cached == 1

    def test_malformed_payload_rejected(self, state):
        with pytest.raises(BadRequest):
            state.submit_sweep([{"benchmark": "lib", "bogus_field": 1}])
        with pytest.raises(BadRequest):
            state.submit_sweep([])


class TestWorkerLifecycle:
    def test_version_mismatch_rejected_at_registration(self, state):
        with pytest.raises(VersionMismatch):
            state.register_worker({"name": "x", "code_version": "wrong"})

    def test_lease_report_completes_sweep(self, state):
        sweep = state.submit_sweep(_requests(4))
        worker = _register(state)
        seen = []
        while True:
            shard = state.lease(worker)
            if shard is None:
                break
            keys = [unit["key"] for unit in shard["units"]]
            seen.extend(keys)
            state.report(shard["shard_id"], worker, keys, {}, {"simulated": 2})
        assert len(seen) == 4
        final = state.sweep_status(sweep["sweep_id"])
        assert final["complete"] and final["done"] == 4
        assert state.shard_counts() == {"pending": 0, "assigned": 0, "done": 2}
        assert state.simulations_reported() == 2

    def test_failed_keys_recorded_and_sweep_terminates(self, state):
        sweep = state.submit_sweep(_requests(2))
        worker = _register(state)
        shard = state.lease(worker)
        keys = [unit["key"] for unit in shard["units"]]
        state.report(
            shard["shard_id"], worker, keys[:1], {keys[1]: "boom"}, {}
        )
        final = state.sweep_status(sweep["sweep_id"])
        assert final["complete"]
        assert final["failed"] == {keys[1]: "boom"}
        assert state.keys_failed == 1

    def test_unknown_ids_raise_stale_errors(self, state):
        with pytest.raises(StaleWorker):
            state.lease("w9999-ghost")
        with pytest.raises(StaleShard):
            state.report("shard-9999", "w0001-t", [], {}, {})

    def test_lease_skips_shards_satisfied_while_queued(self, state):
        state.submit_sweep(_requests(2))
        worker = _register(state)
        for payload in _requests(2):
            key = _key(payload)
            state._mark_done(key)
            state.done.add(key)
        assert state.lease(worker) is None
        assert state.shard_counts()["done"] == 1


class TestReaping:
    def test_dead_worker_shards_requeued(self, state):
        state.submit_sweep(_requests(4))
        dead = _register(state)
        shard = state.lease(dead)
        assert shard is not None
        state.clock.advance(6.0)  # heartbeat_timeout is 5s
        assert state.reap() == [dead]
        assert state.workers_dead == 1
        assert state.shards_reassigned == 1
        # A live worker picks the orphaned shard back up.
        live = _register(state)
        reassigned_ids = set()
        while (lease := state.lease(live)) is not None:
            reassigned_ids.add(lease["shard_id"])
            state.report(
                lease["shard_id"],
                live,
                [u["key"] for u in lease["units"]],
                {},
                {},
            )
        assert shard["shard_id"] in reassigned_ids
        # The reaped worker must re-register, not resume its identity.
        with pytest.raises(StaleWorker):
            state.heartbeat(dead, {})

    def test_heartbeat_keeps_worker_alive(self, state):
        worker = _register(state)
        state.clock.advance(4.0)
        state.heartbeat(worker, {"simulated": 1})
        state.clock.advance(4.0)
        assert state.reap() == []
        state.clock.advance(6.0)
        assert state.reap() == [worker]


class TestCacheTruth:
    def _entry(self, payload: dict):
        request = SimRequest.from_payload(payload)
        material = request.key_material()
        key = fingerprint(material)
        result = simulate(request)
        return key, {
            "key": key,
            "material": material,
            "result": result.to_dict(),
        }

    def test_cache_put_marks_tracked_key_done(self, state):
        payloads = _requests(2)
        sweep = state.submit_sweep(payloads)
        key, entry = self._entry(payloads[0])
        assert state.cache_put(key, entry) is True
        assert key in state.done
        assert state.sweep_status(sweep["sweep_id"])["done"] == 1
        assert state.put_new == 1 and state.put_dup == 0

    def test_duplicate_put_counted_as_dup(self, state):
        key, entry = self._entry(_requests(1)[0])
        assert state.cache_put(key, entry) is True
        assert state.cache_put(key, entry) is False
        assert state.put_dup == 1

    def test_corrupt_put_rejected(self, state):
        key, entry = self._entry(_requests(1)[0])
        entry = dict(entry, material={"tampered": True})
        with pytest.raises(ValueError):
            state.cache_put(key, entry)
        assert state.cache.read_entry(key) is None

    def test_wrong_shaped_entries_rejected_not_raised(self, state):
        key, entry = self._entry(_requests(1)[0])
        for result in (None, [1, 2]):
            bad = dict(entry, result=result)
            with pytest.raises(MALFORMED_ENTRY):
                state.cache_put(key, bad)
            # The same body already on disk is a miss, not a crash.
            path = state.cache._entry_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(bad))
            assert state.cache_get(key) is None
        assert state.cache_get_misses == 2

    def test_cache_get_counts_hits_and_misses(self, state):
        key, entry = self._entry(_requests(1)[0])
        assert state.cache_get(key) is None
        state.cache_put(key, entry)
        assert state.cache_get(key) == entry
        assert state.cache_get_hits == 1
        assert state.cache_get_misses == 1


class TestJournalResume:
    def test_restart_recovers_from_cache_not_notes(self, state, tmp_path):
        payloads = _requests(4)
        state.submit_sweep(payloads)
        # Two keys get filled (simulating worker write-through)...
        for payload in payloads[:2]:
            request = SimRequest.from_payload(payload)
            material = request.key_material()
            state.cache.put(
                fingerprint(material), material, simulate(request)
            )
        # ...then the coordinator dies and a new one boots on the same
        # cache directory.
        reborn = ClusterState(
            state.cache,
            state.journal_path,
            shard_size=2,
            heartbeat_timeout=5.0,
            clock=FakeClock(),
        )
        assert reborn.load_journal() is True
        assert len(reborn.units) == 4
        assert len(reborn.done) == 2  # probed from the cache, not notes
        assert reborn.failed == {}  # restart is the retry button
        pending_keys = {
            unit
            for shard in reborn.shards.values()
            for unit in shard.remaining(reborn.done, reborn.failed)
        }
        assert pending_keys == {_key(p) for p in payloads[2:]}

    def test_resubmission_after_restart_is_idempotent(self, state):
        payloads = _requests(4)
        first = state.submit_sweep(payloads)
        reborn = ClusterState(
            state.cache, state.journal_path, clock=FakeClock()
        )
        reborn.load_journal()
        again = reborn.submit_sweep(payloads)
        assert again["sweep_id"] == first["sweep_id"]
        assert len(reborn.units) == 4
        # No double-sharding of already-tracked keys.
        tracked = [k for s in reborn.shards.values() for k in s.keys]
        assert sorted(tracked) == sorted(set(tracked))

    def test_missing_or_stale_journal_starts_fresh(self, state, tmp_path):
        empty = ClusterState(
            state.cache, tmp_path / "nope" / "journal.json"
        )
        assert empty.load_journal() is False
        state.journal_path.parent.mkdir(parents=True, exist_ok=True)
        state.journal_path.write_text('{"version": 999}')
        assert state.load_journal() is False


class TestMetrics:
    def test_cluster_metrics_registered(self, state):
        registry = MetricRegistry(enabled=True)
        state.register_metrics(registry)
        names = registry.names()
        for expected in (
            "cluster.keys_total",
            "cluster.keys_done",
            "cluster.keys_pending",
            "cluster.shards_pending",
            "cluster.shards_assigned",
            "cluster.shards_done",
            "cluster.workers_alive",
            "cluster.worker_heartbeat_age_max",
            "cluster.put_new",
            "cluster.put_dup",
            "cluster.shards_reassigned",
            "cluster.simulations_reported",
        ):
            assert expected in names
        state.submit_sweep(_requests(4))
        assert registry.read("cluster.keys_total") == 4
        assert registry.read("cluster.shards_pending") == 2
        assert registry.kind("cluster.leases") == "delta"
        assert registry.kind("cluster.keys_total") == "gauge"
