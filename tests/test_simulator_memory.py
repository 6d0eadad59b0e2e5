"""Tests for the memory-hierarchy cost model (each space on a one-row
batch)."""

import warnings

import pytest

from repro.simulator.devices import AMD_HD7970, INTEL_I7_3770, NVIDIA_K40
from repro.simulator.memory import (
    cache_hit_fraction_batch,
    constant_memory_time_batch,
    global_memory_time_batch,
    image_memory_time_batch,
    local_memory_time_batch,
    memory_time_batch,
    spill_memory_time_batch,
)
from repro.simulator.workload import WorkloadProfile
from tests.one_row import one_row

cache_hit_fraction = one_row(cache_hit_fraction_batch)
constant_memory_time = one_row(constant_memory_time_batch)
global_memory_time = one_row(global_memory_time_batch)
image_memory_time = one_row(image_memory_time_batch)
local_memory_time = one_row(local_memory_time_batch)
memory_time = one_row(memory_time_batch)
spill_memory_time = one_row(spill_memory_time_batch)


def profile(**kw):
    base = dict(
        global_size=(1024, 1024),
        workgroup=(16, 16),
        flops_per_thread=10.0,
    )
    base.update(kw)
    return WorkloadProfile(**base)


class TestGlobalMemory:
    def test_zero_traffic_zero_time(self):
        assert global_memory_time(profile(), NVIDIA_K40) == 0.0

    def test_time_scales_with_traffic(self):
        t1 = global_memory_time(profile(global_reads=10), NVIDIA_K40)
        t2 = global_memory_time(profile(global_reads=20), NVIDIA_K40)
        assert t2 == pytest.approx(2 * t1)

    def test_coalescing_matters_more_on_gpu(self):
        good = profile(global_reads=10, coalesced_fraction=1.0)
        bad = profile(global_reads=10, coalesced_fraction=0.0)
        gpu_ratio = global_memory_time(bad, NVIDIA_K40) / global_memory_time(
            good, NVIDIA_K40
        )
        cpu_ratio = global_memory_time(bad, INTEL_I7_3770) / global_memory_time(
            good, INTEL_I7_3770
        )
        assert gpu_ratio > cpu_ratio > 1.0

    def test_cpu_l2_overflow_penalty(self):
        small = profile(global_reads=10, wg_footprint_bytes=64 * 1024)
        big = profile(global_reads=10, wg_footprint_bytes=1024 * 1024)
        assert global_memory_time(big, INTEL_I7_3770) > global_memory_time(
            small, INTEL_I7_3770
        )
        # GPUs do not use the work-group as a cache-blocking unit.
        assert global_memory_time(big, NVIDIA_K40) == pytest.approx(
            global_memory_time(small, NVIDIA_K40)
        )


class TestCacheModel:
    def test_fitting_footprint_hits_high(self):
        p = profile(global_reads=10, footprint_bytes=100 * 1024, spatial_locality=0.2)
        assert cache_hit_fraction(p, NVIDIA_K40) > 0.85

    def test_streaming_footprint_locality_driven(self):
        lo = profile(global_reads=10, footprint_bytes=1e9, spatial_locality=0.1)
        hi = profile(global_reads=10, footprint_bytes=1e9, spatial_locality=0.9)
        assert cache_hit_fraction(hi, NVIDIA_K40) > cache_hit_fraction(lo, NVIDIA_K40)

    def test_hit_fraction_bounded(self):
        for loc in (0.0, 0.5, 1.0):
            for fp in (0.0, 1e3, 1e9):
                p = profile(footprint_bytes=fp, spatial_locality=loc)
                assert 0.0 <= cache_hit_fraction(p, NVIDIA_K40) <= 0.97

    def test_subnormal_footprint_fits_without_warning(self):
        """cache / 1e-310 overflows to inf; the clamp makes it "all fits"
        (hit rate 0.95), and the overflow is not reported."""
        tiny = profile(footprint_bytes=1e-310, spatial_locality=0.5)
        fits = profile(footprint_bytes=1.0, spatial_locality=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache_hit_fraction(tiny, NVIDIA_K40) == 0.95
        assert cache_hit_fraction(fits, NVIDIA_K40) == 0.95


class TestImageMemory:
    def test_emulated_path_much_slower(self):
        p = profile(image_reads=25)
        assert image_memory_time(p, INTEL_I7_3770) > 20 * image_memory_time(
            p, NVIDIA_K40
        )

    def test_texture_cache_rewards_locality(self):
        lo = profile(image_reads=25, spatial_locality=0.1)
        hi = profile(image_reads=25, spatial_locality=0.9)
        assert image_memory_time(hi, NVIDIA_K40) < image_memory_time(lo, NVIDIA_K40)

    def test_k40_texture_path_beats_amd(self):
        # Kepler's texture cache is the stencil winner; GCN is LDS-centric.
        p = profile(image_reads=25, spatial_locality=0.85)
        assert image_memory_time(p, NVIDIA_K40) < image_memory_time(p, AMD_HD7970)


class TestLocalAndConstant:
    def test_local_faster_than_global_on_gpu(self):
        p = profile(local_reads=25)
        q = profile(global_reads=25, footprint_bytes=1e9, spatial_locality=0.5)
        assert local_memory_time(p, NVIDIA_K40) < global_memory_time(q, NVIDIA_K40)

    def test_local_no_faster_than_cache_on_cpu(self):
        # Emulated local memory is just cached global memory.
        p = profile(local_reads=25)
        q = profile(global_reads=25, footprint_bytes=64 * 1024)
        assert local_memory_time(p, INTEL_I7_3770) >= 0.8 * global_memory_time(
            q, INTEL_I7_3770
        )

    def test_constant_broadcast_fast(self):
        p = profile(constant_reads=25)
        q = profile(global_reads=25, footprint_bytes=1e9, spatial_locality=0.3)
        assert constant_memory_time(p, NVIDIA_K40) < global_memory_time(q, NVIDIA_K40)


class TestSpill:
    def test_no_spill_below_ceiling(self):
        p = profile(registers_per_thread=100)
        assert spill_memory_time(p, NVIDIA_K40) == 0.0

    def test_spill_above_ceiling(self):
        p = profile(registers_per_thread=300, loop_iterations_per_thread=10)
        assert spill_memory_time(p, NVIDIA_K40) > 0.0

    def test_spill_grows_with_overflow(self):
        t1 = spill_memory_time(
            profile(registers_per_thread=260, loop_iterations_per_thread=10), NVIDIA_K40
        )
        t2 = spill_memory_time(
            profile(registers_per_thread=300, loop_iterations_per_thread=10), NVIDIA_K40
        )
        assert t2 > t1


class TestBreakdown:
    def test_total_is_sum_of_parts(self):
        p = profile(
            global_reads=5,
            global_writes=1,
            image_reads=3,
            local_reads=10,
            local_writes=2,
            constant_reads=4,
        )
        cost = memory_time(p, NVIDIA_K40)
        assert cost.total == pytest.approx(
            cost.global_time
            + cost.image_time
            + cost.local_time
            + cost.constant_time
            + cost.spill_time
        )
        assert cost.total > 0
