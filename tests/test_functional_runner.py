"""Tests for the functional (timing-free) runner."""

import json

import numpy as np
import pytest

from repro.core.policy import WarpedCompressionPolicy
from repro.gpu.builder import KernelBuilder
from repro.gpu.functional import FunctionalRunner, run_functional
from repro.gpu.isa import Cmp
from repro.gpu.memory import GlobalMemory
from repro.kernels import benchmark_names, get_benchmark


def barrier_kernel():
    """Two warps exchange data through shared memory across a barrier."""
    b = KernelBuilder("exchange", params=("out",), shared_bytes=256)
    tid = b.tid_x()
    b.sts(b.imul(tid, 4), tid)
    b.bar()
    partner = b.xor(tid, 32)  # lane i of warp 0 <-> lane i of warp 1
    v = b.lds(b.imul(partner, 4))
    b.stg(b.imad(tid, 4, b.param("out")), v)
    return b.build()


class TestBarrierSemantics:
    def test_cross_warp_exchange(self):
        kernel = barrier_kernel()
        gm = GlobalMemory()
        out = gm.alloc(64, "out")
        run_functional(kernel, (1, 1), (64, 1), [out], gm)
        got = gm.read_array(out, 64)
        expected = np.arange(64) ^ 32
        np.testing.assert_array_equal(got, expected)

    def test_single_warp_barrier_is_noop(self):
        b = KernelBuilder("solo", shared_bytes=4)
        b.bar()
        b.mov(1)
        run_functional(b.build(), (1, 1), (32, 1), [], GlobalMemory())


class TestPolicyThreading:
    def test_policy_instance_accepted(self):
        b = KernelBuilder("k")
        b.mov(5)
        policy = WarpedCompressionPolicy()
        runner = FunctionalRunner(policy=policy)
        stats = runner.run(b.build(), (1, 1), (32, 1), [], GlobalMemory())
        assert stats.policy == "warped-compression"
        assert policy.codec.compressions > 0

    def test_policy_name_accepted(self):
        b = KernelBuilder("k")
        b.mov(5)
        stats = run_functional(
            b.build(), (1, 1), (32, 1), [], GlobalMemory(), policy="baseline"
        )
        assert stats.policy == "uncompressed"
        # Baseline stores everything across eight banks.
        assert stats.value.overall_compression_ratio() == 1.0


class TestStatsCollection:
    def test_occupancy_tracks_compressed_registers(self):
        b = KernelBuilder("k")
        b.mov(5)  # compressible
        b.mov(6)
        stats = run_functional(b.build(), (1, 1), (32, 1), [], GlobalMemory())
        frac = stats.value.compressed_register_fraction(divergent=False)
        assert frac is not None and 0.0 <= frac <= 1.0

    def test_mov_bookkeeping_matches_timing_model(self):
        b = KernelBuilder("k")
        tid = b.tid_x()
        acc = b.mov(5)
        with b.if_(b.isetp(Cmp.LT, tid, 3)):
            b.iadd(acc, 1, dst=acc)
        kernel = b.build()
        stats = run_functional(kernel, (1, 1), (32, 1), [], GlobalMemory())
        assert stats.value.movs_injected == 1

    def test_collect_bdi_flag(self):
        b = KernelBuilder("k")
        b.mov(5)
        stats = run_functional(
            b.build(), (1, 1), (32, 1), [], GlobalMemory(), collect_bdi=True
        )
        assert stats.value.bdi_fractions()

    def test_multiple_ctas_accumulate(self):
        b = KernelBuilder("k")
        b.mov(5)
        one = run_functional(b.build(), (1, 1), (32, 1), [], GlobalMemory())
        four = run_functional(b.build(), (4, 1), (32, 1), [], GlobalMemory())
        assert four.value.instructions == 4 * one.value.instructions


#: The seven policies ``repro serve`` prices, each with and without BDI
#: collection: fourteen pricings of one run.
PRICINGS = [
    (policy, collect_bdi)
    for policy in (
        "baseline",
        "warped",
        "warped-buffered",
        "static-4-0",
        "static-4-1",
        "static-4-2",
        "per-thread",
    )
    for collect_bdi in (False, True)
]


def _canonical(stats) -> str:
    return json.dumps(stats.value.to_dict(), sort_keys=True)


class TestSharedPricing:
    """One kernel run priced many ways equals one run per pricing."""

    @pytest.mark.parametrize(
        "name", benchmark_names() + benchmark_names(extended=True)
    )
    def test_grouped_pricing_equals_separate_runs(self, name):
        spec = get_benchmark(name).launch("small")
        shared = FunctionalRunner().run_priced(
            spec.kernel,
            spec.grid_dim,
            spec.cta_dim,
            spec.params,
            spec.fresh_memory(),
            PRICINGS,
        )
        assert len(shared) == len(PRICINGS)
        for (policy, collect_bdi), stats in zip(PRICINGS, shared):
            alone = run_functional(
                spec.kernel,
                spec.grid_dim,
                spec.cta_dim,
                spec.params,
                spec.fresh_memory(),
                policy=policy,
                collect_bdi=collect_bdi,
            )
            assert stats.policy == alone.policy
            assert _canonical(stats) == _canonical(alone), (policy, collect_bdi)

    def test_shared_run_writes_the_same_memory(self):
        spec = get_benchmark("pathfinder").launch("small")
        gmem = spec.fresh_memory()
        FunctionalRunner().run_priced(
            spec.kernel, spec.grid_dim, spec.cta_dim, spec.params, gmem, PRICINGS
        )
        get_benchmark("pathfinder").verify(gmem, spec)
