"""Register-value trace capture and trace-driven replay.

The characterisation half of the paper (Figures 2, 3, 5, 8) depends only
on the *sequence of register writes* a kernel produces — not on timing.
This module lets that sequence be captured once and replayed through any
number of compression policies or codecs, which makes large design-space
sweeps (e.g. evaluating a new encoding) orders of magnitude cheaper than
re-running kernels.

A trace is a flat record of write events::

    (warp_id, register, values[32], divergent)

stored *columnar*: the lane snapshots live in one ``(n, warp_size)``
``uint32`` matrix (one array row per write, matching the interpreter's
lane-batched representation) and the per-event metadata in parallel 1-D
arrays.  Replay is whole-trace array arithmetic — policy decisions,
dummy-MOV bookkeeping and occupancy integration all happen as batch
operations over the event axis, with no per-event Python loop.  Traces
serialise to ``.npz`` so they can be collected once and analysed in
separate processes or shared as artifacts.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import RunStats, ValueStats
from repro.core.codec import choose_mode_ids
from repro.core.policy import CompressionPolicy, make_policy
from repro.gpu.memory import GlobalMemory
from repro.gpu.program import Kernel

_INITIAL_CAPACITY = 1024


class RegisterTrace:
    """A captured stream of warp-register writes (columnar storage)."""

    def __init__(self, kernel_name: str, warp_size: int = 32):
        self.kernel_name = kernel_name
        self.warp_size = warp_size
        self.instructions = 0
        self.divergent_instructions = 0
        self.num_registers = 0
        self._count = 0
        self._warp_ids = np.zeros(0, dtype=np.int64)
        self._registers = np.zeros(0, dtype=np.int64)
        self._divergent = np.zeros(0, dtype=bool)
        self._values = np.zeros((0, warp_size), dtype=np.uint32)

    # ------------------------------------------------------------------
    # Columnar views (truncated to the recorded row count)
    # ------------------------------------------------------------------
    @property
    def warp_ids(self) -> np.ndarray:
        return self._warp_ids[: self._count]

    @property
    def registers(self) -> np.ndarray:
        return self._registers[: self._count]

    @property
    def divergent(self) -> np.ndarray:
        return self._divergent[: self._count]

    @property
    def values(self) -> np.ndarray:
        """The ``(n, warp_size)`` lane-snapshot matrix."""
        return self._values[: self._count]

    def _grow(self) -> None:
        capacity = max(_INITIAL_CAPACITY, 2 * self._warp_ids.shape[0])
        self._warp_ids = np.resize(self._warp_ids, capacity)
        self._registers = np.resize(self._registers, capacity)
        self._divergent = np.resize(self._divergent, capacity)
        values = np.zeros((capacity, self.warp_size), dtype=np.uint32)
        values[: self._count] = self._values[: self._count]
        self._values = values

    def record(
        self, warp_id: int, register: int, values: np.ndarray, divergent: bool
    ) -> None:
        i = self._count
        if i == self._warp_ids.shape[0]:
            self._grow()
        self._warp_ids[i] = warp_id
        self._registers[i] = register
        self._divergent[i] = divergent
        self._values[i] = values
        self._count = i + 1
        # Keep the allocation bound consistent with the recorded writes:
        # hand-built traces (tests, external producers) never set
        # ``num_registers`` up front the way :func:`capture_trace` does,
        # and replay's occupancy denominator silently degenerated to zero
        # without this.
        if register >= self.num_registers:
            self.num_registers = register + 1

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the trace as a compressed ``.npz`` archive."""
        np.savez_compressed(
            path,
            kernel_name=np.array(self.kernel_name),
            warp_size=np.array(self.warp_size),
            warp_ids=self.warp_ids,
            registers=self.registers,
            divergent=self.divergent,
            values=self.values,
            instructions=np.array(self.instructions),
            divergent_instructions=np.array(self.divergent_instructions),
            num_registers=np.array(self.num_registers),
        )

    @classmethod
    def load(cls, path: str) -> "RegisterTrace":
        """Read a trace previously written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            trace = cls(
                kernel_name=str(data["kernel_name"]),
                warp_size=int(data["warp_size"]),
            )
            trace._warp_ids = np.asarray(data["warp_ids"], dtype=np.int64)
            trace._registers = np.asarray(data["registers"], dtype=np.int64)
            trace._divergent = np.asarray(data["divergent"], dtype=bool)
            trace._values = np.ascontiguousarray(
                data["values"], dtype=np.uint32
            )
            trace._count = int(trace._warp_ids.shape[0])
            trace.instructions = int(data["instructions"])
            trace.divergent_instructions = int(data["divergent_instructions"])
            trace.num_registers = int(data["num_registers"])
        return trace


def capture_trace(
    kernel: Kernel,
    grid_dim: tuple[int, int],
    cta_dim: tuple[int, int],
    params: list[int],
    gmem: GlobalMemory,
) -> RegisterTrace:
    """Run a kernel functionally and capture its register-write trace."""
    from repro.gpu.functional import FunctionalRunner

    trace = RegisterTrace(kernel_name=kernel.name)
    trace.num_registers = kernel.num_registers
    runner = FunctionalRunner(policy="baseline")
    interp = runner.interpreter
    original_execute = interp.execute

    def tapping_execute(context):
        result = original_execute(context)
        if result is not None:
            if result.dst is not None:
                trace.record(
                    context.warp_id,
                    result.dst,
                    result.values,
                    result.divergent,
                )
            trace.instructions += 1
            if result.base_divergent:
                trace.divergent_instructions += 1
        return result

    # The runner's interpreter is its own, so tapping its ``execute``
    # sees every instruction of the launch and nothing else.
    interp.execute = tapping_execute
    runner.run(kernel, grid_dim, cta_dim, params, gmem)
    return trace


def _previous_occurrence(slots: np.ndarray) -> np.ndarray:
    """Index of the previous event touching the same slot (-1 if none)."""
    n = slots.shape[0]
    order = np.arange(n, dtype=np.int64)
    by_slot = np.lexsort((order, slots))
    same = slots[by_slot][1:] == slots[by_slot][:-1]
    prev = np.full(n, -1, dtype=np.int64)
    prev[by_slot[1:][same]] = by_slot[:-1][same]
    return prev


def replay_trace(
    trace: RegisterTrace,
    policy: str | CompressionPolicy = "warped",
    collect_bdi: bool = False,
) -> RunStats:
    """Replay a captured trace through a compression policy.

    Reconstructs the same :class:`ValueStats` a live run under that
    policy would produce — including dummy-MOV and compressed-occupancy
    bookkeeping — without executing any instructions.  The whole trace
    is processed as array arithmetic: policy decisions come from
    :meth:`~repro.core.policy.CompressionPolicy.decide_batch`, the
    per-slot previous-mode lookup from a lexsort, and the running
    compressed-register count from a cumulative sum.
    """
    policy = make_policy(policy) if isinstance(policy, str) else policy
    stats = ValueStats(collect_bdi=collect_bdi)
    stats.instructions = trace.instructions
    stats.divergent_instructions = trace.divergent_instructions

    n = len(trace)
    if n == 0:
        return RunStats(
            benchmark=trace.kernel_name, policy=policy.name, value=stats
        )

    warp_ids = trace.warp_ids
    registers = trace.registers
    divergent = trace.divergent
    matrix = trace.values
    allocated = (int(warp_ids.max()) + 1) * trace.num_registers

    # Policy decisions depend only on the written image and the
    # divergence flag, never on prior storage state, so the whole trace
    # can be decided in one batch call.
    mode_ids, banks = policy.decide_batch(matrix, divergent)
    compressed_now = mode_ids != np.uint8(3)

    # Storage state *before* each event = the decision of the previous
    # write to the same (warp, register) slot.
    stride = max(trace.num_registers, int(registers.max()) + 1)
    prev = _previous_occurrence(warp_ids * stride + registers)
    has_prev = prev >= 0
    old_compressed = np.zeros(n, dtype=bool)
    old_compressed[has_prev] = compressed_now[prev[has_prev]]

    # A dummy decompressing MOV fires on a divergent write to a
    # compressed destination.  It only affects the MOV count: the
    # compressed-count delta of the event is new-compressed minus
    # old-compressed whether or not the MOV fired (the MOV's -1 and the
    # subsequent uncompressed baseline cancel).
    if policy.requires_mov_on_divergent_write:
        stats.record_movs(int((divergent & old_compressed).sum()))

    delta = compressed_now.astype(np.int64) - old_compressed.astype(np.int64)
    running = np.cumsum(delta)
    fractions = (
        running / allocated
        if allocated
        else np.zeros(n, dtype=np.float64)
    )
    stats.record_occupancy_batch(fractions, divergent)
    stats.record_writes_batch(
        matrix,
        divergent,
        achievable_mode_ids=choose_mode_ids(matrix),
        stored_banks=banks,
        stored_mode_ids=mode_ids,
    )
    return RunStats(
        benchmark=trace.kernel_name, policy=policy.name, value=stats
    )
