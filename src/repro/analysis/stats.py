"""Statistics accumulated during simulation.

:class:`ValueStats` gathers every per-write and per-instruction counter
the paper's characterisation and evaluation figures need; it is shared by
the functional runner and the timing SM so the same figures can be
produced from either.  :class:`TimingStats` adds cycle-level counters, and
:class:`RunStats` is the per-run record the harness consumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.similarity import (
    BDI_BATCH_ORDER,
    SimilarityBin,
    best_bdi_choice,
    best_bdi_choice_indices,
    classify_write,
    classify_write_full,
    classify_writes_batch,
)
from repro.core.banks import BANKS_PER_WARP_REGISTER
from repro.core.codec import MODE_BANKS_BY_ID, MODES_BY_ID, CompressionMode
from repro.core.memo import PROFILE_CACHE

_NONDIV, _DIV = 0, 1


class ValueStats:
    """Value-similarity and compression counters (phase-split).

    Phase index 0 is non-divergent, 1 is divergent, following the paired
    bars of Figures 2, 8 and 12.

    The accumulators are plain Python ints/floats internally: the hot
    recorders fire once per instruction or write, and a list-element
    increment is an order of magnitude cheaper than a numpy scalar one.
    The historical numpy-array attributes (``similarity``, ``writes``,
    ...) survive as properties that materialise a fresh array per read —
    cheap, because readers are end-of-run analysis code.
    """

    def __init__(self, collect_bdi: bool = False):
        self.collect_bdi = collect_bdi
        self._similarity = [0] * 8  # (2 phases x 4 bins), row-major
        self.instructions = 0
        self.divergent_instructions = 0
        self._writes = [0, 0]
        self._achievable_banks = [0, 0]
        self._stored_banks = [0, 0]
        self.mode_histogram: Counter = Counter()
        self.bdi_histogram: Counter = Counter()
        self.movs_injected = 0
        self._occupancy_sum = [0.0, 0.0]
        self._occupancy_samples = [0, 0]

    # ------------------------------------------------------------------
    # Array views (historical public attributes)
    # ------------------------------------------------------------------
    @property
    def similarity(self) -> np.ndarray:
        return np.asarray(self._similarity, dtype=np.int64).reshape(2, 4)

    @similarity.setter
    def similarity(self, value) -> None:
        self._similarity = [int(x) for x in np.asarray(value).ravel()]

    @property
    def writes(self) -> np.ndarray:
        return np.asarray(self._writes, dtype=np.int64)

    @writes.setter
    def writes(self, value) -> None:
        self._writes = [int(x) for x in np.asarray(value).ravel()]

    @property
    def achievable_banks(self) -> np.ndarray:
        return np.asarray(self._achievable_banks, dtype=np.int64)

    @achievable_banks.setter
    def achievable_banks(self, value) -> None:
        self._achievable_banks = [int(x) for x in np.asarray(value).ravel()]

    @property
    def stored_banks(self) -> np.ndarray:
        return np.asarray(self._stored_banks, dtype=np.int64)

    @stored_banks.setter
    def stored_banks(self, value) -> None:
        self._stored_banks = [int(x) for x in np.asarray(value).ravel()]

    @property
    def occupancy_sum(self) -> np.ndarray:
        return np.asarray(self._occupancy_sum, dtype=np.float64)

    @occupancy_sum.setter
    def occupancy_sum(self, value) -> None:
        self._occupancy_sum = [float(x) for x in np.asarray(value).ravel()]

    @property
    def occupancy_samples(self) -> np.ndarray:
        return np.asarray(self._occupancy_samples, dtype=np.int64)

    @occupancy_samples.setter
    def occupancy_samples(self, value) -> None:
        self._occupancy_samples = [int(x) for x in np.asarray(value).ravel()]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_instruction(self, divergent: bool) -> None:
        self.instructions += 1
        if divergent:
            self.divergent_instructions += 1

    def record_instructions(self, count: int, divergent: int) -> None:
        """Batch :meth:`record_instruction` over ``count`` instructions.

        ``divergent`` of them were divergent.
        """
        self.instructions += count
        self.divergent_instructions += divergent

    def record_write(
        self,
        values: np.ndarray,
        divergent: bool,
        achievable_mode: CompressionMode,
        stored_banks: int,
        stored_mode: CompressionMode,
    ) -> None:
        """Record one warp-register write.

        ``values`` is the *merged* 32-lane register as stored — during a
        divergent write the masked-off lanes keep their stale values,
        which is exactly what the compressor sees and why the random bin
        grows under divergence (paper Figure 2).
        """
        phase = _DIV if divergent else _NONDIV
        # The characterisation profile (similarity bin, best-BDI choice)
        # is a pure function of the register image, and images recur
        # constantly (the paper's similarity observation) — memoize it
        # in the content-keyed PROFILE_CACHE next to the codec's memo.
        cache = PROFILE_CACHE
        if cache.enabled:
            key = values.tobytes()
            profile = cache.get(key)
            if profile is None:
                profile = [classify_write_full(values), None]
                cache.put(key, profile)
            sim_bin = profile[0]
            if self.collect_bdi:
                if profile[1] is None:
                    profile[1] = best_bdi_choice(values)
                self.bdi_histogram[profile[1]] += 1
        else:
            sim_bin = classify_write(
                values, np.ones(len(values), dtype=bool)
            )
            if self.collect_bdi:
                self.bdi_histogram[best_bdi_choice(values)] += 1
        self._similarity[phase * 4 + sim_bin] += 1
        self._writes[phase] += 1
        self._achievable_banks[phase] += achievable_mode.banks
        self._stored_banks[phase] += stored_banks
        self.mode_histogram[stored_mode] += 1

    def record_write_prepared(
        self,
        divergent: bool,
        sim_bin: int,
        achievable_banks: int,
        stored_banks: int,
        stored_mode: CompressionMode,
    ) -> None:
        """Record one write whose characterisation is precomputed.

        The cross-warp batched issue path (:mod:`repro.gpu.batch`)
        classifies a whole region's writes in one vectorised pass at
        gather time; commit then folds the precomputed similarity bin
        and achievable bank count straight into the counters.
        Bit-identical to :meth:`record_write` for the same write.  Only
        used when BDI collection is off — the batched gather skips the
        per-write best-encoding search, which this path therefore cannot
        account for.
        """
        phase = _DIV if divergent else _NONDIV
        self._similarity[phase * 4 + sim_bin] += 1
        self._writes[phase] += 1
        self._achievable_banks[phase] += achievable_banks
        self._stored_banks[phase] += stored_banks
        self.mode_histogram[stored_mode] += 1

    def record_writes_batch(
        self,
        matrix: np.ndarray,
        divergent: np.ndarray,
        achievable_mode_ids: np.ndarray,
        stored_banks: np.ndarray,
        stored_mode_ids: np.ndarray,
    ) -> None:
        """Record ``n`` warp-register writes from whole-trace arrays.

        The batch analogue of :meth:`record_write`, used by the
        trace-replay tier: ``matrix`` is the ``(n, warp_size)`` merged
        lane images, the remaining arguments are per-row vectors (mode
        arguments as raw indicator ids).  Produces bit-identical
        counters to ``n`` sequential :meth:`record_write` calls.
        """
        n = int(matrix.shape[0])
        if n == 0:
            return
        phases = np.asarray(divergent, dtype=bool).astype(np.int64)
        bins = classify_writes_batch(matrix)
        for i, count in enumerate(np.bincount(phases * 4 + bins, minlength=8)):
            self._similarity[i] += int(count)
        for i, count in enumerate(np.bincount(phases, minlength=2)):
            self._writes[i] += int(count)
        achievable = np.bincount(
            phases, weights=MODE_BANKS_BY_ID[achievable_mode_ids], minlength=2
        ).astype(np.int64)
        stored = np.bincount(
            phases, weights=np.asarray(stored_banks, dtype=np.int64), minlength=2
        ).astype(np.int64)
        for i in range(2):
            self._achievable_banks[i] += int(achievable[i])
            self._stored_banks[i] += int(stored[i])
        mode_counts = np.bincount(
            np.asarray(stored_mode_ids, dtype=np.int64),
            minlength=len(MODES_BY_ID),
        )
        for mode_id, count in enumerate(mode_counts):
            if count:
                self.mode_histogram[MODES_BY_ID[mode_id]] += int(count)
        if self.collect_bdi:
            choice_counts = np.bincount(
                best_bdi_choice_indices(matrix),
                minlength=len(BDI_BATCH_ORDER),
            )
            for idx, count in enumerate(choice_counts):
                if count:
                    self.bdi_histogram[BDI_BATCH_ORDER[idx]] += int(count)

    def record_mov(self) -> None:
        self.movs_injected += 1

    def record_movs(self, count: int) -> None:
        self.movs_injected += int(count)

    def record_occupancy(self, compressed_fraction: float, divergent: bool) -> None:
        phase = _DIV if divergent else _NONDIV
        self._occupancy_sum[phase] += compressed_fraction
        self._occupancy_samples[phase] += 1

    def record_occupancy_batch(
        self, fractions: np.ndarray, divergent: np.ndarray
    ) -> None:
        """Batch :meth:`record_occupancy` over per-write vectors."""
        phases = np.asarray(divergent, dtype=bool).astype(np.int64)
        fractions = np.asarray(fractions, dtype=np.float64)
        sums = np.bincount(phases, weights=fractions, minlength=2)
        counts = np.bincount(phases, minlength=2)
        for i in range(2):
            self._occupancy_sum[i] += float(sums[i])
            self._occupancy_samples[i] += int(counts[i])

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def similarity_fractions(self, divergent: bool) -> dict[SimilarityBin, float]:
        """Figure 2: fraction of writes per bin for one phase."""
        phase = _DIV if divergent else _NONDIV
        row = self._similarity[phase * 4 : phase * 4 + 4]
        total = sum(row)
        if total == 0:
            return {b: 0.0 for b in SimilarityBin}
        return {b: row[b] / total for b in SimilarityBin}

    @property
    def nondivergent_fraction(self) -> float:
        """Figure 3: share of warp instructions that are non-divergent."""
        if self.instructions == 0:
            return 1.0
        return 1.0 - self.divergent_instructions / self.instructions

    def compression_ratio(self, divergent: bool, achievable: bool = True) -> float:
        """Figure 8 (achievable) / Figure 15 (stored) compression ratio.

        Bank-granularity ratio: eight banks per write divided by the banks
        the compressed representations occupy.
        """
        phase = _DIV if divergent else _NONDIV
        banks = (
            self._achievable_banks if achievable else self._stored_banks
        )
        if self._writes[phase] == 0:
            return 1.0
        return (
            BANKS_PER_WARP_REGISTER * self._writes[phase]
        ) / banks[phase]

    def overall_compression_ratio(self, achievable: bool = False) -> float:
        """Ratio over all writes regardless of phase."""
        total_writes = sum(self._writes)
        banks = (
            self._achievable_banks if achievable else self._stored_banks
        )
        if total_writes == 0:
            return 1.0
        return (BANKS_PER_WARP_REGISTER * total_writes) / sum(banks)

    @property
    def mov_fraction(self) -> float:
        """Figure 11: dummy MOVs as a fraction of all instructions."""
        total = self.instructions + self.movs_injected
        return self.movs_injected / total if total else 0.0

    def compressed_register_fraction(self, divergent: bool) -> float | None:
        """Figure 12: mean compressed share of allocated registers.

        ``None`` when the phase never occurred (the paper's "N/A" bars for
        benchmarks that do not diverge).
        """
        phase = _DIV if divergent else _NONDIV
        if self._occupancy_samples[phase] == 0:
            return None
        return self._occupancy_sum[phase] / self._occupancy_samples[phase]

    def bdi_fractions(self) -> dict[str, float]:
        """Figure 5: share of writes best served by each encoding."""
        total = sum(self.bdi_histogram.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in sorted(self.bdi_histogram.items())}

    # ------------------------------------------------------------------
    def merge(self, other: "ValueStats") -> None:
        """Fold another SM's counters into this one."""
        for i, count in enumerate(other._similarity):
            self._similarity[i] += count
        self.instructions += other.instructions
        self.divergent_instructions += other.divergent_instructions
        for i in range(2):
            self._writes[i] += other._writes[i]
            self._achievable_banks[i] += other._achievable_banks[i]
            self._stored_banks[i] += other._stored_banks[i]
            self._occupancy_sum[i] += other._occupancy_sum[i]
            self._occupancy_samples[i] += other._occupancy_samples[i]
        self.mode_histogram.update(other.mode_histogram)
        self.bdi_histogram.update(other.bdi_histogram)
        self.movs_injected += other.movs_injected

    # ------------------------------------------------------------------
    # Serialisation (RunResult artifacts)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-compatible representation of every counter."""
        return {
            "collect_bdi": self.collect_bdi,
            "similarity": [
                self._similarity[0:4],
                self._similarity[4:8],
            ],
            "instructions": int(self.instructions),
            "divergent_instructions": int(self.divergent_instructions),
            "writes": list(self._writes),
            "achievable_banks": list(self._achievable_banks),
            "stored_banks": list(self._stored_banks),
            "mode_histogram": {
                str(int(mode)): int(count)
                for mode, count in sorted(self.mode_histogram.items())
            },
            "bdi_histogram": {
                str(choice): int(count)
                for choice, count in sorted(self.bdi_histogram.items())
            },
            "movs_injected": int(self.movs_injected),
            "occupancy_sum": list(self._occupancy_sum),
            "occupancy_samples": list(self._occupancy_samples),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ValueStats":
        """Rebuild the exact counters :meth:`to_dict` captured."""
        stats = cls(collect_bdi=bool(data["collect_bdi"]))
        stats.similarity = np.asarray(data["similarity"], dtype=np.int64)
        stats.instructions = int(data["instructions"])
        stats.divergent_instructions = int(data["divergent_instructions"])
        stats.writes = np.asarray(data["writes"], dtype=np.int64)
        stats.achievable_banks = np.asarray(
            data["achievable_banks"], dtype=np.int64
        )
        stats.stored_banks = np.asarray(data["stored_banks"], dtype=np.int64)
        stats.mode_histogram = Counter(
            {
                CompressionMode(int(mode)): int(count)
                for mode, count in data["mode_histogram"].items()
            }
        )
        stats.bdi_histogram = Counter(
            {
                str(choice): int(count)
                for choice, count in data["bdi_histogram"].items()
            }
        )
        stats.movs_injected = int(data["movs_injected"])
        stats.occupancy_sum = np.asarray(
            data["occupancy_sum"], dtype=np.float64
        )
        stats.occupancy_samples = np.asarray(
            data["occupancy_samples"], dtype=np.int64
        )
        return stats


@dataclass
class TimingStats:
    """Cycle-level counters from the timing SM."""

    cycles: int = 0
    issued: int = 0
    collector_stall_cycles: int = 0
    bank_wakeup_stalls: int = 0
    #: scheduler slots that found no issuable warp (stall-cause series)
    issue_idle_cycles: int = 0

    def merge(self, other: "TimingStats") -> None:
        self.cycles = max(self.cycles, other.cycles)
        self.issued += other.issued
        self.collector_stall_cycles += other.collector_stall_cycles
        self.bank_wakeup_stalls += other.bank_wakeup_stalls
        self.issue_idle_cycles += other.issue_idle_cycles

    def to_dict(self) -> dict:
        return {
            "cycles": int(self.cycles),
            "issued": int(self.issued),
            "collector_stall_cycles": int(self.collector_stall_cycles),
            "bank_wakeup_stalls": int(self.bank_wakeup_stalls),
            "issue_idle_cycles": int(self.issue_idle_cycles),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimingStats":
        return cls(
            cycles=int(data["cycles"]),
            issued=int(data["issued"]),
            collector_stall_cycles=int(data["collector_stall_cycles"]),
            bank_wakeup_stalls=int(data["bank_wakeup_stalls"]),
            issue_idle_cycles=int(data["issue_idle_cycles"]),
        )


@dataclass(frozen=True)
class RunStats:
    """Everything one simulation run produced (immutable once emitted)."""

    benchmark: str
    policy: str
    value: ValueStats
    timing: TimingStats | None = None
    energy_breakdown: object | None = None  # EnergyBreakdown
    energy_model: object | None = None  # EnergyModel (for re-pricing sweeps)
    gated_fractions: tuple[float, ...] | None = None
    timeline: object | None = None  # repro.obs.timeline.Timeline
