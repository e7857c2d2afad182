"""Content-addressed on-disk store for :class:`~repro.sim.result.RunResult`.

Every cache entry is keyed by a SHA-256 digest of the *content* that
determines a simulation's outcome: benchmark name, its input seed, the
workload scale, the compression policy, the canonicalized
:class:`~repro.gpu.config.GPUConfig`, and a fingerprint of the simulator
source itself.  Identical requests — however they were phrased (an
explicit latency equal to the default, a config override that lands on
the default value) — hash to the same entry, and any change to the
simulator's code invalidates the whole cache automatically.

Entries are JSON files under ``<root>/results/<digest[:2]>/<digest>.json``
written atomically; captured register traces live next to them under
``<root>/traces/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.sim.result import RunResult

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Packages whose source determines simulation outcomes.  ``harness`` and
#: ``sim`` itself are deliberately excluded: they orchestrate and report,
#: they do not change what a simulation computes.  ``obs`` is included
#: because the interval sampler shapes the cached ``timeline`` payload.
_VERSIONED_PACKAGES = ("core", "gpu", "power", "kernels", "analysis", "obs")

_code_version: str | None = None

#: What parsing a wrong-shaped entry can raise.  Entries are outside
#: input (a disk file, a peer's reply), so any of these makes one a
#: miss or a rejection, never a crash.
MALFORMED_ENTRY = (AttributeError, KeyError, TypeError, ValueError)


def code_version() -> str:
    """Fingerprint of the simulator source (cached per process).

    A short SHA-256 over every ``.py`` file of the packages that affect
    simulation results, so stale cache entries can never survive a code
    change.
    """
    global _code_version
    if _code_version is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for package in _VERSIONED_PACKAGES:
            for path in sorted((root / package).rglob("*.py")):
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(path.read_bytes())
        _code_version = digest.hexdigest()[:16]
    return _code_version


def default_cache_dir() -> Path:
    """Resolve the cache root (``$REPRO_CACHE_DIR`` or ``.repro-cache``)."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


def resolve_cache_dir(explicit: str | Path | None = None) -> Path:
    """The one cache-directory resolution rule for every entry point.

    Precedence: an explicit path (a ``--cache-dir`` flag, a config
    field) wins; otherwise ``$REPRO_CACHE_DIR``; otherwise
    ``.repro-cache`` in the working directory.  The runner, ``repro
    serve``, the cluster coordinator/workers, the fuzzer's artifact
    root, and the ``repro cache`` maintenance CLI all funnel through
    here, so one environment variable points them all at the same
    result universe.
    """
    if explicit is not None and str(explicit):
        return Path(explicit)
    return default_cache_dir()


def fingerprint(material: dict) -> str:
    """SHA-256 of canonical JSON — the cache key for one request."""
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Content-addressed RunResult store rooted at one directory."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        return self.root / "results" / key[:2] / f"{key}.json"

    def trace_path(self, key: str) -> Path:
        """Where a captured register trace for ``key`` belongs."""
        return self.root / "traces" / f"{key}.npz"

    # ------------------------------------------------------------------
    def read_entry(self, key: str) -> dict | None:
        """The raw on-disk payload for ``key`` (``None`` on miss/corrupt).

        This is the wire shape of the shared cache tier: the cluster
        coordinator serves it verbatim over ``GET /v1/cache/<key>`` and
        peers backfill their local tier from it via :meth:`put_payload`.
        """
        try:
            with open(self._entry_path(key)) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        return payload

    @staticmethod
    def parse_payload(key: str, payload: dict) -> tuple[dict, RunResult]:
        """Validate a raw entry payload the hard way.

        The result must parse and the key must match the fingerprint of
        the stored material, so a corrupt or mislabelled peer response
        can never poison a local tier.  Raises one of
        :data:`MALFORMED_ENTRY` on any mismatch.
        """
        material = payload.get("material")
        result = RunResult.from_dict(payload["result"])
        if not isinstance(material, dict) or fingerprint(material) != key:
            raise ValueError(
                f"cache payload material does not hash to key {key[:12]}…"
            )
        return material, result

    def put_payload(self, key: str, payload: dict) -> None:
        """Persist a raw entry payload fetched from a peer tier."""
        material, result = self.parse_payload(key, payload)
        # Write the *base* tier directly: a backfilled peer entry must
        # never be echoed back out through a tiered subclass's put.
        ResultCache.put(self, key, material, result)

    def contains(self, key: str) -> bool:
        """Whether an entry file exists (no validation, no parsing)."""
        return self._entry_path(key).is_file()

    def entry_keys(self) -> list[str]:
        """Keys of every entry file currently on disk (sorted)."""
        results = self.root / "results"
        if not results.is_dir():
            return []
        return sorted(path.stem for path in results.rglob("*.json"))

    # ------------------------------------------------------------------
    def get(self, key: str) -> RunResult | None:
        """Load one entry, or ``None`` on miss/corruption/stale trace.

        An entry must pass :meth:`read_entry` (a JSON object stored
        under its own key) and its result must parse.  The key material
        is not re-fingerprinted: this is the hot read path, and
        :meth:`parse_payload` does that for entries from peers.
        """
        payload = self.read_entry(key)
        if payload is None:
            return None
        try:
            result = RunResult.from_dict(payload["result"], from_cache=True)
        except MALFORMED_ENTRY:
            return None
        # A result advertising a trace must still be able to deliver it.
        if result.trace_path and not os.path.exists(result.trace_path):
            return None
        return result

    def put(self, key: str, material: dict, result: RunResult) -> None:
        """Atomically persist one entry (key material kept for audit).

        The payload is written to a uniquely-named tempfile *in the
        destination directory* (so the rename never crosses a
        filesystem), fsync'd, and moved into place with ``os.replace``.
        Concurrent writers — parallel server workers, or two CLI
        sessions sharing one cache — each publish a complete file; a
        reader can observe the old entry or the new one, never a torn
        mix, and a crash mid-write leaves at worst an orphaned ``.tmp``.
        """
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"key": key, "material": material, "result": result.to_dict()}
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
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

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        results = self.root / "results"
        if not results.is_dir():
            return 0
        return sum(1 for _ in results.rglob("*.json"))
