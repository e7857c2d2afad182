"""Tiered-cache coverage: remote fill/backfill, degradation, write-through.

Three layers of proof:

* pure-logic tests against a scripted fake peer (fill, backfill,
  corruption rejection, trace-bearing entries pinned local);
* degradation tests against a *real closed port* (peer-unreachable
  falls back to local-only with a cooldown);
* HTTP-tier tests against an embedded coordinator, including the
  two-process concurrent hammer that extends the torn-entry test of
  ``test_serve_cache.py`` across the network tier.
"""

import json
import multiprocessing
import socket

import pytest

from cluster_helpers import EmbeddedCoordinator
from repro.cluster.cache import (
    PeerUnreachable,
    RemoteCacheTier,
    TieredResultCache,
)
from repro.obs.metrics import MetricRegistry
from repro.sim import ResultCache, SimRequest, simulate
from repro.sim.cache import fingerprint


def _entry(policy: str = "baseline"):
    request = SimRequest(
        benchmark="lib", policy=policy, timing=False, scale="small"
    )
    material = request.key_material()
    key = fingerprint(material)
    result = simulate(request)
    return key, material, result


def _payload(key, material, result) -> dict:
    return {"key": key, "material": material, "result": result.to_dict()}


class FakePeer:
    """Scripted in-memory peer tier."""

    def __init__(self):
        self.entries: dict[str, dict] = {}
        self.gets: list[str] = []
        self.puts: list[str] = []
        self.fail = False

    def get(self, key):
        if self.fail:
            raise PeerUnreachable("scripted outage")
        self.gets.append(key)
        return self.entries.get(key)

    def put(self, key, payload):
        if self.fail:
            raise PeerUnreachable("scripted outage")
        self.puts.append(key)
        novel = key not in self.entries
        self.entries[key] = payload
        return novel


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTieredGet:
    def test_remote_fill_backfills_local_tier(self, tmp_path):
        key, material, result = _entry()
        peer = FakePeer()
        peer.entries[key] = _payload(key, material, result)
        cache = TieredResultCache(tmp_path / "local", remote=peer)

        first = cache.get(key)
        assert first is not None and first.value.to_dict() == result.value.to_dict()
        assert cache.remote_hits == 1 and cache.remote_fills == 1
        # Backfilled: the second read never touches the peer.
        second = cache.get(key)
        assert second is not None
        assert peer.gets == [key]
        assert cache.local_hits == 1
        # And the backfill is a real, parseable local entry.
        assert ResultCache(tmp_path / "local").get(key) is not None

    def test_remote_miss_is_a_miss(self, tmp_path):
        key, _material, _result = _entry()
        peer = FakePeer()
        cache = TieredResultCache(tmp_path / "local", remote=peer)
        assert cache.get(key) is None
        assert cache.remote_misses == 1

    def test_corrupt_peer_entry_discarded(self, tmp_path):
        key, material, result = _entry()
        peer = FakePeer()
        peer.entries[key] = _payload(key, {"tampered": 1}, result)
        cache = TieredResultCache(tmp_path / "local", remote=peer)
        assert cache.get(key) is None
        assert cache.remote_errors == 1
        assert ResultCache(tmp_path / "local").get(key) is None

    def test_wrong_shaped_peer_entry_discarded(self, tmp_path):
        key, material, result = _entry()
        payloads = [
            [1],
            "str",
            {"key": key, "material": material, "result": None},
            {"key": key, "material": material, "result": [1, 2]},
        ]
        peer = FakePeer()
        cache = TieredResultCache(tmp_path / "local", remote=peer)
        for errors, payload in enumerate(payloads, 1):
            peer.entries[key] = payload
            assert cache.get(key) is None, payload
            assert cache.remote_errors == errors
        assert ResultCache(tmp_path / "local").get(key) is None

    def test_no_remote_behaves_like_plain_cache(self, tmp_path):
        key, material, result = _entry()
        cache = TieredResultCache(tmp_path / "local", remote=None)
        assert cache.get(key) is None
        cache.put(key, material, result)
        assert cache.get(key) is not None


class TestWriteThrough:
    def test_put_writes_local_then_remote(self, tmp_path):
        key, material, result = _entry()
        peer = FakePeer()
        cache = TieredResultCache(tmp_path / "local", remote=peer)
        cache.put(key, material, result)
        assert cache.local_get(key) is not None
        assert peer.puts == [key]
        assert cache.remote_puts == 1

    def test_trace_bearing_results_never_travel(self, tmp_path):
        trace_file = tmp_path / "t.npz"
        trace_file.write_bytes(b"fake")
        request = SimRequest(
            benchmark="lib", timing=False, scale="small", capture_trace=True
        )
        material = request.key_material()
        key = fingerprint(material)
        base = simulate(request, str(tmp_path / "cap" / "t.npz"))
        peer = FakePeer()
        cache = TieredResultCache(tmp_path / "local", remote=peer)
        cache.put(key, material, base)
        assert peer.puts == []  # pinned local
        assert cache.local_get(key) is not None

    def test_put_survives_peer_outage(self, tmp_path):
        key, material, result = _entry()
        peer = FakePeer()
        peer.fail = True
        cache = TieredResultCache(tmp_path / "local", remote=peer)
        cache.put(key, material, result)  # must not raise
        assert cache.local_get(key) is not None
        assert cache.remote_errors == 1


class TestDegradation:
    def _closed_port(self) -> int:
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            return s.getsockname()[1]

    def test_unreachable_peer_falls_back_to_local_only(self, tmp_path):
        key, material, result = _entry()
        remote = RemoteCacheTier("127.0.0.1", self._closed_port(), timeout=2.0)
        clock = FakeClock()
        cache = TieredResultCache(
            tmp_path / "local", remote=remote, cooldown=15.0, clock=clock
        )
        cache.put(key, material, result)  # write-through fails quietly
        assert cache.local_get(key) is not None
        assert cache.remote_errors == 1
        assert not cache.remote_available()  # cooling down

        # During cooldown the peer is not consulted at all.
        other_key, _m, _r = _entry("warped")
        assert cache.get(other_key) is None
        assert cache.remote_errors == 1  # unchanged: no second attempt

        # After the cooldown the peer is retried (and fails again).
        clock.now = 20.0
        assert cache.remote_available()
        assert cache.get(other_key) is None
        assert cache.remote_errors == 2

    def test_raw_tier_raises_peer_unreachable(self):
        remote = RemoteCacheTier("127.0.0.1", self._closed_port(), timeout=2.0)
        with pytest.raises(PeerUnreachable):
            remote.get("deadbeef")


class TestMetricsExport:
    def test_tier_counters_exported(self, tmp_path):
        cache = TieredResultCache(tmp_path / "local", remote=FakePeer())
        registry = MetricRegistry(enabled=True)
        cache.register_metrics(registry)
        for name in (
            "cluster.cache.local_hits",
            "cluster.cache.remote_hits",
            "cluster.cache.remote_fills",
            "cluster.cache.remote_errors",
            "cluster.cache.remote_puts",
            "cluster.cache.remote_available",
        ):
            assert name in registry.names()
        assert registry.read("cluster.cache.remote_available") == 1.0
        assert registry.kind("cluster.cache.remote_fills") == "delta"


class TestHttpTier:
    def test_fill_and_write_through_over_http(self, tmp_path):
        key, material, result = _entry()
        with EmbeddedCoordinator(cache_dir=str(tmp_path / "shared")) as coord:
            local_a = TieredResultCache(
                tmp_path / "a", remote=RemoteCacheTier(coord.host, coord.port)
            )
            local_b = TieredResultCache(
                tmp_path / "b", remote=RemoteCacheTier(coord.host, coord.port)
            )
            # A publishes; the shared tier now holds the entry...
            local_a.put(key, material, result)
            assert ResultCache(tmp_path / "shared").get(key) is not None
            # ...and B fills from it without ever simulating.
            fetched = local_b.get(key)
            assert fetched is not None
            assert fetched.to_dict() == result.to_dict()
            assert local_b.remote_fills == 1
            assert local_b.local_get(key) is not None

    def test_server_rejects_corrupt_put(self, tmp_path):
        key, material, result = _entry()
        with EmbeddedCoordinator(cache_dir=str(tmp_path / "shared")) as coord:
            remote = RemoteCacheTier(coord.host, coord.port)
            bad = _payload(key, {"tampered": True}, result)
            with pytest.raises(PeerUnreachable):
                remote.put(key, bad)
            assert ResultCache(tmp_path / "shared").get(key) is None

    def test_concurrent_processes_hammer_http_tier(self, tmp_path):
        """Two processes write-through the same key concurrently while
        the parent reads: no torn entries on either tier, and the
        shared entry stays parseable throughout."""
        key, material, result = _entry()
        payload = result.to_dict()
        with EmbeddedCoordinator(cache_dir=str(tmp_path / "shared")) as coord:
            ctx = multiprocessing.get_context("spawn")
            writers = [
                ctx.Process(
                    target=_hammer_remote_put,
                    args=(
                        str(tmp_path / f"w{i}"),
                        coord.host,
                        coord.port,
                        key,
                        material,
                        payload,
                        25,
                    ),
                )
                for i in range(2)
            ]
            for proc in writers:
                proc.start()
            shared = ResultCache(tmp_path / "shared")
            entry_path = shared._entry_path(key)
            reads = 0
            while any(proc.is_alive() for proc in writers):
                if entry_path.exists():
                    raw = json.loads(entry_path.read_text())
                    assert raw["key"] == key
                    loaded = shared.get(key)
                    assert loaded is not None
                    assert loaded.to_dict() == payload
                    reads += 1
            for proc in writers:
                proc.join()
                assert proc.exitcode == 0
            assert reads > 0
            assert not list(entry_path.parent.glob("*.tmp"))
            # Every accepted PUT beyond the first was counted as a dup.
            st = coord.app.state
            assert st.put_new == 1
            assert st.put_new + st.put_dup == 50


def _hammer_remote_put(
    root: str, host: str, port: int, key: str, material: dict,
    payload: dict, rounds: int,
) -> None:
    """Child process: repeated tiered write-through of one entry."""
    from repro.sim.result import RunResult

    cache = TieredResultCache(root, remote=RemoteCacheTier(host, port))
    result = RunResult.from_dict(payload)
    for _ in range(rounds):
        cache.put(key, material, result)
    assert cache.remote_errors == 0
