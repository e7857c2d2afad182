"""The tiered result cache: local disk over a shared peer/HTTP tier.

:class:`TieredResultCache` is a drop-in :class:`~repro.sim.cache.ResultCache`
whose ``get`` falls through tiers and whose ``put`` writes through them:

* **get** — local disk first; on a miss, fetch the raw entry payload
  from the peer tier (a cluster coordinator or any replica exposing the
  ``/v1/cache`` endpoints), validate it the hard way (the key must be
  the fingerprint of the stored material, the result must parse), and
  **backfill** the local tier so the next read is local;
* **put** — the local tier is written first (the caller's durability
  does not depend on the network), then the entry is pushed to the peer
  best-effort, which is how a worker's freshly simulated result becomes
  visible to every other worker and serve replica.

Content-addressed keys are what make remote fills safe: two caches can
only ever disagree about a key by one of them being corrupt, never by
holding *different* valid results, so the fall-through requires no
invalidation protocol.

An unreachable peer degrades the stack to local-only — a sweep keeps
completing on the local tier — with a cooldown before the next retry so
a dead peer costs one timeout per window, not one per request.  All
tier traffic is counted and exportable through :mod:`repro.obs`.

Trace-bearing entries (``result.trace_path`` set) never travel: the
``.npz`` artifact lives outside the entry file, so shipping the entry
alone would advertise a trace the receiving host cannot deliver.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.obs.log import get_logger
from repro.serve.http import http_json_call
from repro.sim.cache import MALFORMED_ENTRY, ResultCache
from repro.sim.result import RunResult

logger = get_logger("cluster.cache")

#: Default coordinator port (the serve default is 8642; keep them apart
#: so one host can run both out of the box).
DEFAULT_COORDINATOR_PORT = 8650


class PeerUnreachable(Exception):
    """The peer tier did not answer (connection refused/reset/timeout)."""


class RemoteCacheTier:
    """Blocking client for a peer's ``/v1/cache/<key>`` endpoints."""

    def __init__(
        self,
        host: str,
        port: int = DEFAULT_COORDINATOR_PORT,
        timeout: float = 10.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteCacheTier({self.host}:{self.port})"

    def _call(self, method: str, path: str, body: dict | None = None):
        try:
            return http_json_call(
                self.host, self.port, method, path, body, timeout=self.timeout
            )
        except OSError as exc:
            raise PeerUnreachable(
                f"cache peer {self.host}:{self.port} unreachable: {exc}"
            ) from exc

    def get(self, key: str) -> dict | None:
        """Fetch one raw entry payload; ``None`` when the peer misses."""
        status, _headers, payload = self._call("GET", f"/v1/cache/{key}")
        if status == 404:
            return None
        if status != 200 or "entry" not in payload:
            raise PeerUnreachable(
                f"cache peer answered {status}: {payload.get('error', payload)}"
            )
        return payload["entry"]

    def put(self, key: str, payload: dict) -> bool:
        """Push one raw entry payload; returns whether the peer stored it."""
        status, _headers, reply = self._call(
            "PUT", f"/v1/cache/{key}", payload
        )
        if status != 200:
            raise PeerUnreachable(
                f"cache peer rejected put with {status}: "
                f"{reply.get('error', reply)}"
            )
        return bool(reply.get("stored"))


class TieredResultCache(ResultCache):
    """Local-disk ResultCache stacked over a shared peer/HTTP tier."""

    def __init__(
        self,
        root: Path | str,
        remote: RemoteCacheTier | None = None,
        *,
        cooldown: float = 15.0,
        clock=time.monotonic,
    ):
        super().__init__(root)
        self.remote = remote
        self.cooldown = cooldown
        self._clock = clock
        self._down_until = 0.0
        # Tier accounting (exported via register_metrics).
        self.local_hits = 0
        self.local_misses = 0
        self.remote_hits = 0
        self.remote_misses = 0
        self.remote_fills = 0
        self.remote_errors = 0
        self.remote_puts = 0
        self.local_puts = 0

    # ------------------------------------------------------------------
    # Peer availability (cooldown after a failure)
    # ------------------------------------------------------------------
    def remote_available(self) -> bool:
        return self.remote is not None and self._clock() >= self._down_until

    def _mark_down(self, exc: Exception) -> None:
        self.remote_errors += 1
        self._down_until = self._clock() + self.cooldown
        logger.warning(
            f"cache peer unavailable, local-only for {self.cooldown:.0f}s "
            f"({exc})"
        )

    # ------------------------------------------------------------------
    # Tiered read/write
    # ------------------------------------------------------------------
    def local_get(self, key: str) -> RunResult | None:
        """Read the local tier only (never touches the network)."""
        return super().get(key)

    def get(self, key: str) -> RunResult | None:
        result = self.local_get(key)
        if result is not None:
            self.local_hits += 1
            return result
        self.local_misses += 1
        if not self.remote_available():
            return None
        try:
            payload = self.remote.get(key)
        except PeerUnreachable as exc:
            self._mark_down(exc)
            return None
        if payload is None:
            self.remote_misses += 1
            return None
        try:
            # put_payload re-validates key == fingerprint(material) and
            # parses the result, so a corrupt peer cannot poison us.
            self.put_payload(key, payload)
        except MALFORMED_ENTRY as exc:
            self.remote_errors += 1
            logger.warning(f"discarding corrupt peer entry {key[:12]}…: {exc}")
            return None
        result = self.local_get(key)
        if result is None:
            # Entry advertised a trace we cannot deliver locally.
            self.remote_errors += 1
            return None
        self.remote_hits += 1
        self.remote_fills += 1
        return result

    def put(self, key: str, material: dict, result: RunResult) -> None:
        super().put(key, material, result)
        self.local_puts += 1
        if result.trace_path is not None:
            return  # trace artifacts do not travel (see module docstring)
        if not self.remote_available():
            return
        payload = {
            "key": key,
            "material": material,
            "result": result.to_dict(),
        }
        try:
            self.remote.put(key, payload)
            self.remote_puts += 1
        except PeerUnreachable as exc:
            self._mark_down(exc)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def register_metrics(self, registry, prefix: str = "cluster.cache") -> None:
        """Export tier traffic as pull-based :mod:`repro.obs` probes."""
        for name in (
            "local_hits",
            "local_misses",
            "remote_hits",
            "remote_misses",
            "remote_fills",
            "remote_errors",
            "remote_puts",
            "local_puts",
        ):
            registry.probe(
                f"{prefix}.{name}",
                (lambda attr=name: getattr(self, attr)),
                kind="delta",
            )
        registry.probe(
            f"{prefix}.remote_available",
            lambda: 1.0 if self.remote_available() else 0.0,
        )
