"""Tests for the execution-time model (each term on a one-row batch)."""

import pytest

from repro.simulator.devices import AMD_HD7970, INTEL_I7_3770, NVIDIA_K40
from repro.simulator.executor import (
    compute_time_batch,
    execute,
    granularity_penalty_batch,
    overhead_time_batch,
    overlap_fraction_batch,
    simd_utilization_batch,
    simulate_kernel_time,
    wave_quantization_factor_batch,
)
from repro.simulator.occupancy import compute_occupancy
from repro.simulator.validity import InvalidConfig
from repro.simulator.workload import WorkloadProfile
from tests.one_row import one_row

simd_utilization = one_row(simd_utilization_batch)
compute_time = one_row(compute_time_batch)
wave_quantization_factor = one_row(wave_quantization_factor_batch)
overlap_fraction = one_row(overlap_fraction_batch)
overhead_time = one_row(overhead_time_batch)
granularity_penalty = one_row(granularity_penalty_batch)


def profile(**kw):
    base = dict(
        global_size=(2048, 2048),
        workgroup=(32, 8),
        flops_per_thread=50.0,
        global_reads=25.0,
        global_writes=1.0,
        footprint_bytes=32e6,
        spatial_locality=0.85,
    )
    base.update(kw)
    return WorkloadProfile(**base)


class TestSimdUtilization:
    def test_full_warps(self):
        assert simd_utilization(profile(workgroup=(32, 2)), NVIDIA_K40) == 1.0

    def test_ragged_group(self):
        # 8 threads in a 32-wide warp: 25% of issue slots useful.
        assert simd_utilization(profile(workgroup=(8, 1)), NVIDIA_K40) == pytest.approx(
            0.25
        )

    def test_wavefront_width_matters(self):
        # A 32-thread group wastes half an AMD wavefront but fills a warp.
        p = profile(workgroup=(32, 1))
        assert simd_utilization(p, AMD_HD7970) == pytest.approx(0.5)
        assert simd_utilization(p, NVIDIA_K40) == pytest.approx(1.0)


class TestComputeTime:
    def test_scales_with_flops(self):
        t1 = compute_time(profile(flops_per_thread=50), NVIDIA_K40)
        t2 = compute_time(profile(flops_per_thread=100), NVIDIA_K40)
        assert t2 > t1

    def test_loop_overhead_charged(self):
        rolled = compute_time(profile(loop_iterations_per_thread=100), NVIDIA_K40)
        unrolled = compute_time(profile(loop_iterations_per_thread=10), NVIDIA_K40)
        assert rolled > unrolled

    def test_cpu_vectorization_depends_on_contiguity(self):
        fast = compute_time(profile(coalesced_fraction=1.0), INTEL_I7_3770)
        slow = compute_time(profile(coalesced_fraction=0.0), INTEL_I7_3770)
        assert slow > 2 * fast


class TestWaveQuantization:
    def test_exact_fit_no_penalty(self):
        p = profile(workgroup=(32, 8))
        occ = compute_occupancy(p, NVIDIA_K40)
        per_wave = NVIDIA_K40.compute_units * occ.workgroups_per_cu
        n_wg = p.num_workgroups
        q = wave_quantization_factor(p, NVIDIA_K40, occ)
        assert q >= 1.0
        if n_wg % per_wave == 0:
            assert q == pytest.approx(1.0)

    def test_underfilled_device_penalized(self):
        # 4 work-groups on a 15-CU device: most of the chip idles.
        p = profile(global_size=(64, 16), workgroup=(32, 8))
        occ = compute_occupancy(p, NVIDIA_K40)
        assert wave_quantization_factor(p, NVIDIA_K40, occ) > 3.0


class TestOverheads:
    def test_cpu_per_item_overhead_dominates_tiny_threads(self):
        many = profile(workgroup=(8, 8))  # 4.2M one-pixel threads
        few = profile(global_size=(128, 128), workgroup=(8, 8))
        assert overhead_time(many, INTEL_I7_3770) > 100 * overhead_time(
            few, INTEL_I7_3770
        )

    def test_barrier_cost_much_higher_on_cpu(self):
        p = profile(barriers_per_workgroup=2.0)
        per_item_cpu = overhead_time(p, INTEL_I7_3770) - overhead_time(
            profile(), INTEL_I7_3770
        )
        per_item_gpu = overhead_time(p, NVIDIA_K40) - overhead_time(
            profile(), NVIDIA_K40
        )
        assert per_item_cpu > 5 * per_item_gpu

    def test_granularity_penalty_gpu_only(self):
        big = profile(workgroup=(32, 32))
        assert granularity_penalty(big, NVIDIA_K40) > granularity_penalty(
            profile(workgroup=(32, 1)), NVIDIA_K40
        )
        assert granularity_penalty(big, INTEL_I7_3770) == 1.0


class TestOverlap:
    def test_gpu_overlap_saturates_with_occupancy(self):
        p_low = profile(workgroup=(8, 8), local_mem_per_wg_bytes=24 * 1024)
        p_high = profile(workgroup=(32, 8))
        occ_low = compute_occupancy(p_low, NVIDIA_K40)
        occ_high = compute_occupancy(p_high, NVIDIA_K40)
        assert overlap_fraction(NVIDIA_K40, occ_low) < overlap_fraction(
            NVIDIA_K40, occ_high
        )
        assert overlap_fraction(NVIDIA_K40, occ_high) == 1.0

    def test_cpu_overlap_fixed(self):
        occ = compute_occupancy(profile(), INTEL_I7_3770)
        assert overlap_fraction(INTEL_I7_3770, occ) == pytest.approx(0.80)


class TestExecute:
    def test_deterministic(self):
        key = ("convolution", (32, 8, 1, 1, 0, 0, 1, 1, 0))
        t1 = simulate_kernel_time(profile(), NVIDIA_K40, jitter_key=key)
        t2 = simulate_kernel_time(profile(), NVIDIA_K40, jitter_key=key)
        assert t1 == t2

    def test_jitter_differs_across_configs(self):
        k1 = ("convolution", (32, 8, 1, 1, 0, 0, 1, 1, 0))
        k2 = ("convolution", (32, 8, 1, 1, 0, 0, 1, 1, 1))
        assert simulate_kernel_time(profile(), NVIDIA_K40, k1) != simulate_kernel_time(
            profile(), NVIDIA_K40, k2
        )

    def test_no_jitter_without_key(self):
        b = execute(profile(), NVIDIA_K40)
        assert b.jitter == 1.0

    def test_invalid_profile_raises(self):
        with pytest.raises(InvalidConfig):
            execute(profile(workgroup=(64, 32)), NVIDIA_K40)  # 2048 > 1024

    def test_breakdown_consistent(self):
        b = execute(profile(), NVIDIA_K40)
        assert b.total_time > 0
        assert b.compute_time > 0
        assert b.memory.total > 0
        assert b.wave_quantization >= 1.0
        assert 0.0 <= b.overlap <= 1.0

    def test_time_positive_across_devices(self):
        for dev in (INTEL_I7_3770, NVIDIA_K40, AMD_HD7970):
            p = profile(workgroup=(16, 8))
            assert simulate_kernel_time(p, dev) > 0


class TestKernelExecutor:
    """The runtime executes a kernel launch as ``execute(profile, device,
    jitter_key=(kernel name, config tuple))``."""

    CFG = (32, 8, 1, 1, 0, 0, 1, 1, 0)

    def launch(self, name):
        return execute(profile(), NVIDIA_K40, jitter_key=(name, self.CFG))

    def test_bound_executor_matches_free_function(self):
        assert self.launch("convolution").total_time == simulate_kernel_time(
            profile(), NVIDIA_K40, jitter_key=("convolution", self.CFG)
        )

    def test_kernel_namespace_separates_jitter(self):
        t1 = self.launch("convolution").total_time
        t2 = self.launch("stereo").total_time
        assert t1 != t2
