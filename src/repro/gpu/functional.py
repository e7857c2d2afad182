"""Functional (timing-free) kernel execution.

Runs warps round-robin to completion, applying register writes
immediately.  Used for kernel correctness tests (outputs compared against
reference CPU implementations) and for the characterisation figures that
need only value statistics (Figures 2, 3, 5): it is roughly an order of
magnitude faster than the cycle-level model.

Compression *state* is still tracked (each register's would-be storage
mode under the supplied policy), so divergence-handling statistics such as
dummy-MOV counts and compressed-register occupancy can also be produced
functionally.

The register-write stream of a functional run does not depend on the
policy, so one run can be *priced* several ways at once: a pricing is one
``(policy, collect_bdi)`` pair with its own policy instance, per-warp
mode table, compressed-register count and :class:`ValueStats`.  Every
instruction and write goes through each pricing in turn, and no state is
shared between them, so each pricing's statistics equal those of a
separate run under that pricing alone (:meth:`FunctionalRunner.run_priced`).
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.analysis.stats import RunStats, ValueStats
from repro.core.codec import CompressionMode, choose_mode
from repro.core.policy import CompressionPolicy, make_policy
from repro.gpu.interpreter import Interpreter, WarpContext, make_warp_context
from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.gpu.program import Kernel

_MAX_STEPS = 50_000_000
_UNCOMPRESSED = CompressionMode.UNCOMPRESSED

#: One way to price a run: a policy (name or instance) and whether to
#: collect the best-BDI breakdown.
Pricing = tuple[str | CompressionPolicy, bool]


class _PricingState:
    """The private compression state of one pricing during a run."""

    __slots__ = ("policy", "stats", "modes", "compressed")

    def __init__(self, policy: CompressionPolicy, collect_bdi: bool):
        self.policy = policy
        self.stats = ValueStats(collect_bdi=collect_bdi)
        #: warp id -> per-register storage mode (for the current CTA)
        self.modes: dict[int, list[CompressionMode]] = {}
        #: compressed registers among the current CTA's allocation
        self.compressed = 0


class FunctionalRunner:
    """Executes a launch functionally while modelling compression state."""

    def __init__(
        self,
        policy: str | CompressionPolicy = "warped",
        collect_bdi: bool = False,
        warp_size: int = 32,
    ):
        self.policy = _as_policy(policy)
        self.collect_bdi = collect_bdi
        self.warp_size = warp_size
        self.interpreter = Interpreter(warp_size)

    def run(
        self,
        kernel: Kernel,
        grid_dim: tuple[int, int],
        cta_dim: tuple[int, int],
        params: list[int],
        gmem: GlobalMemory,
    ) -> RunStats:
        """Execute the launch priced under this runner's policy."""
        (stats,) = self.run_priced(
            kernel,
            grid_dim,
            cta_dim,
            params,
            gmem,
            [(self.policy, self.collect_bdi)],
        )
        return stats

    def run_priced(
        self,
        kernel: Kernel,
        grid_dim: tuple[int, int],
        cta_dim: tuple[int, int],
        params: list[int],
        gmem: GlobalMemory,
        pricings: Sequence[Pricing],
    ) -> list[RunStats]:
        """Execute the launch once, priced under every pricing.

        Returns one :class:`RunStats` per pricing, in order, each equal
        to what a separate run under that pricing alone produces.  A
        pricing given as a policy instance uses that instance, so give
        each pricing its own.
        """
        states = [
            _PricingState(_as_policy(policy), collect_bdi)
            for policy, collect_bdi in pricings
        ]
        params_arr = np.asarray(
            [int(p) & 0xFFFFFFFF for p in params], dtype=np.uint32
        )
        cta_threads = cta_dim[0] * cta_dim[1]
        warps_per_cta = -(-cta_threads // self.warp_size)
        num_ctas = grid_dim[0] * grid_dim[1]
        allocated = warps_per_cta * kernel.num_registers

        steps = 0
        # The interpreter's float handlers carry no errstate of their own
        # (see interpreter.py); hold one scope for the whole launch.
        with np.errstate(all="ignore"):
            for cta_id in range(num_ctas):
                shared = SharedMemory(kernel.shared_bytes)
                warps = [
                    make_warp_context(
                        kernel=kernel,
                        warp_id=cta_id * warps_per_cta + w,
                        cta_id=cta_id,
                        cta_dim=cta_dim,
                        grid_dim=grid_dim,
                        warp_in_cta=w,
                        params=params_arr,
                        gmem=gmem,
                        shared=shared,
                        warp_size=self.warp_size,
                    )
                    for w in range(warps_per_cta)
                ]
                # Per-register storage mode under each policy (for MOV
                # and occupancy accounting).
                for state in states:
                    state.modes = {
                        ctx.warp_id: [_UNCOMPRESSED] * kernel.num_registers
                        for ctx in warps
                    }
                    state.compressed = 0
                steps = self._run_cta(warps, states, allocated, steps)
        return [
            RunStats(
                benchmark=kernel.name, policy=state.policy.name, value=state.stats
            )
            for state in states
        ]

    def _run_cta(
        self,
        warps: list[WarpContext],
        states: list[_PricingState],
        allocated: int,
        steps: int,
    ) -> int:
        """Run one CTA's warps round-robin, respecting barriers."""
        pending = deque(warps)
        while pending:
            progressed = False
            for _ in range(len(pending)):
                ctx = pending.popleft()
                if ctx.done:
                    progressed = True
                    continue
                if ctx.at_barrier:
                    pending.append(ctx)
                    continue
                steps = self._run_warp(ctx, states, allocated, steps)
                progressed = True
                if not ctx.done:
                    pending.append(ctx)
            if pending and not progressed:
                live = [c for c in pending if not c.done]
                if live and all(c.at_barrier for c in live):
                    for c in live:
                        c.at_barrier = False
                elif live:
                    raise RuntimeError(
                        "functional runner deadlock: warps blocked"
                    )
        return steps

    def _run_warp(
        self,
        ctx: WarpContext,
        states: list[_PricingState],
        allocated: int,
        steps: int,
    ) -> int:
        """Execute ``ctx`` until it finishes or reaches a barrier."""
        interp = self.interpreter
        priced = [
            (state, state.modes[ctx.warp_id], state.policy, state.stats)
            for state in states
        ]
        occupancy = [(state, state.stats.record_occupancy) for state in states]
        # Instruction counts are the same for every pricing: count here,
        # add once per pricing on the way out.
        instructions = divergent_instructions = 0
        while not ctx.done:
            steps += 1
            if steps > _MAX_STEPS:
                raise RuntimeError("functional execution exceeded step limit")
            result = interp.execute(ctx)
            if result is None:
                break
            base_divergent = result.base_divergent
            instructions += 1
            divergent_instructions += base_divergent
            for state, record_occupancy in occupancy:
                record_occupancy(
                    state.compressed / allocated if allocated else 0.0,
                    base_divergent,
                )
            if result.is_barrier:
                ctx.at_barrier = True
                break
            dst = result.dst
            if dst is None:
                continue
            values = result.values
            divergent = result.divergent
            # What the register could compress to: the same for every
            # pricing, so classified once per write.
            achievable = choose_mode(values)
            for state, warp_modes, policy, stats in priced:
                # Dummy-MOV bookkeeping: first divergent update to a
                # compressed destination decompresses it in place.
                if (
                    policy.requires_mov_on_divergent_write
                    and divergent
                    and warp_modes[dst] is not _UNCOMPRESSED
                ):
                    stats.record_mov()
                    state.compressed -= 1
                    warp_modes[dst] = _UNCOMPRESSED
                decision = policy.decide(values, divergent)
                mode = decision.mode
                state.compressed += (mode is not _UNCOMPRESSED) - (
                    warp_modes[dst] is not _UNCOMPRESSED
                )
                warp_modes[dst] = mode
                stats.record_write(
                    values,
                    divergent,
                    achievable_mode=achievable,
                    stored_banks=decision.banks,
                    stored_mode=mode,
                )
            interp.apply(ctx, result)
        for state in states:
            state.stats.record_instructions(instructions, divergent_instructions)
        return steps


def _as_policy(policy: str | CompressionPolicy) -> CompressionPolicy:
    return make_policy(policy) if isinstance(policy, str) else policy


def run_functional(
    kernel: Kernel,
    grid_dim: tuple[int, int],
    cta_dim: tuple[int, int],
    params: list[int],
    gmem: GlobalMemory,
    policy: str = "warped",
    collect_bdi: bool = False,
) -> RunStats:
    """One-shot functional run (correctness tests, characterisation)."""
    runner = FunctionalRunner(policy=policy, collect_bdi=collect_bdi)
    return runner.run(kernel, grid_dim, cta_dim, params, gmem)
