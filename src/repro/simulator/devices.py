"""Catalog of the paper's devices.

Published architecture numbers (compute units, clocks, bandwidths, local
memory, work-group limits) are used directly; behavioural factors (texture
rates, overheads, jitter/noise magnitudes) are calibrated so the simulator
reproduces the paper's *shape* claims — see DESIGN.md §6.
"""

from __future__ import annotations

from repro.simulator.device import CPU, GPU, DeviceSpec


#: Intel i7 3770 (Ivy Bridge, 4C/8T, AVX): the paper's CPU.  The Intel OpenCL
#: CPU runtime exposes 8 logical cores as compute units, a huge max work-group
#: size, and emulates images and local memory in cached main memory — which is
#: why image-without-local configurations crater (the Fig. 8 cluster) and why
#: far fewer configurations are invalid on the CPU.
INTEL_I7_3770 = DeviceSpec(
    name="Intel i7 3770",
    vendor="Intel",
    device_type=CPU,
    compute_units=8,
    simd_width=8,               # AVX, 8 x float32
    clock_ghz=3.4,
    flops_per_lane_per_cycle=0.55,
    global_bandwidth_gbs=25.6,  # 2-channel DDR3-1600
    global_latency_us=0.06,
    cache_kb=8192.0,            # shared L3
    cache_bandwidth_factor=6.0,
    local_mem_per_cu_kb=256.0,  # generous: emulated in main memory
    local_bandwidth_factor=2.5, # just cached memory + copy overhead
    local_is_emulated=True,
    texture_rate_gtexels=0.9,
    texture_cache_factor=1.5,   # software-emulated image path
    image_is_emulated=True,
    constant_bandwidth_factor=5.0,
    max_workgroup_size=8192,
    max_threads_per_cu=8192,
    max_workgroups_per_cu=64,
    registers_per_cu=1 << 30,   # effectively unbounded: spills go to L1
    max_registers_per_thread=1 << 30,
    wg_launch_overhead_us=1.2,  # thread-pool task dispatch
    kernel_launch_overhead_us=25.0,
    driver_unroll_reliability=0.9,
    compile_time_base_s=0.35,
    compile_time_per_unroll_s=0.02,
    timing_noise_sigma=0.012,   # long-running kernels time reliably (§7)
    jitter_sigma=0.035,
    jitter_idio_sigma=0.02,
)

#: Nvidia K40 (Kepler GK110b): 15 SMX, 288 GB/s GDDR5, 48 KB shared/SM.
NVIDIA_K40 = DeviceSpec(
    name="Nvidia K40",
    vendor="Nvidia",
    device_type=GPU,
    compute_units=15,
    simd_width=32,              # warp
    clock_ghz=0.745,
    flops_per_lane_per_cycle=4.2,   # 192 cores/SMX over a 32-wide warp model
    global_bandwidth_gbs=288.0,
    global_latency_us=0.45,
    cache_kb=1536.0,            # L2
    cache_bandwidth_factor=3.2,
    local_mem_per_cu_kb=48.0,
    local_bandwidth_factor=5.0,
    local_is_emulated=False,
    texture_rate_gtexels=180.0,
    texture_cache_factor=6.0,
    image_is_emulated=False,
    constant_bandwidth_factor=9.0,
    max_workgroup_size=1024,
    max_threads_per_cu=2048,
    max_workgroups_per_cu=16,
    registers_per_cu=65536,
    max_registers_per_thread=255,
    wg_launch_overhead_us=0.25,
    kernel_launch_overhead_us=8.0,
    driver_unroll_reliability=0.75,
    compile_time_base_s=0.55,
    compile_time_per_unroll_s=0.05,
    timing_noise_sigma=0.03,
    jitter_sigma=0.11,
    jitter_idio_sigma=0.05,
)

#: AMD Radeon HD 7970 (GCN Tahiti): 32 CUs, 264 GB/s, 64 KB LDS/CU,
#: wavefront 64, max work-group 256.  The AMD OpenCL driver's pragma-based
#: loop unrolling is the least reliable of the three (§7), which hurts the
#: benchmarks that rely on it (convolution, stereo) but not raycasting
#: (manual macro unrolling).
AMD_HD7970 = DeviceSpec(
    name="AMD HD 7970",
    vendor="AMD",
    device_type=GPU,
    compute_units=32,
    simd_width=64,              # wavefront
    clock_ghz=0.925,
    flops_per_lane_per_cycle=1.0,
    global_bandwidth_gbs=264.0,
    global_latency_us=0.5,
    cache_kb=768.0,             # L2
    cache_bandwidth_factor=2.6,
    local_mem_per_cu_kb=64.0,
    local_bandwidth_factor=7.0,
    local_is_emulated=False,
    texture_rate_gtexels=80.0,
    texture_cache_factor=2.5,
    image_is_emulated=False,
    constant_bandwidth_factor=8.0,
    max_workgroup_size=256,
    max_threads_per_cu=2560,    # 40 wavefronts x 64
    max_workgroups_per_cu=40,   # GCN: full occupancy from wavefront-sized groups
    registers_per_cu=65536,
    max_registers_per_thread=256,
    wg_launch_overhead_us=0.3,
    kernel_launch_overhead_us=10.0,
    driver_unroll_reliability=0.35,
    compile_time_base_s=0.7,
    compile_time_per_unroll_s=0.06,
    timing_noise_sigma=0.035,
    jitter_sigma=0.12,
    jitter_idio_sigma=0.05,
)

#: Nvidia C2070 (Fermi GF100): 14 SM x 32 cores, 144 GB/s, 48 KB shared/SM.
NVIDIA_C2070 = DeviceSpec(
    name="Nvidia C2070",
    vendor="Nvidia",
    device_type=GPU,
    compute_units=14,
    simd_width=32,
    clock_ghz=1.15,
    flops_per_lane_per_cycle=1.0,
    global_bandwidth_gbs=144.0,
    global_latency_us=0.55,
    cache_kb=768.0,
    cache_bandwidth_factor=2.8,
    local_mem_per_cu_kb=48.0,
    local_bandwidth_factor=7.0,
    local_is_emulated=False,
    texture_rate_gtexels=49.0,
    texture_cache_factor=4.0,
    image_is_emulated=False,
    constant_bandwidth_factor=8.0,
    max_workgroup_size=1024,
    max_threads_per_cu=1536,
    max_workgroups_per_cu=8,
    registers_per_cu=32768,
    max_registers_per_thread=63,
    wg_launch_overhead_us=0.3,
    kernel_launch_overhead_us=9.0,
    driver_unroll_reliability=0.75,
    compile_time_base_s=0.5,
    compile_time_per_unroll_s=0.05,
    timing_noise_sigma=0.03,
    jitter_sigma=0.115,
    jitter_idio_sigma=0.05,
)

#: Nvidia GTX980 (Maxwell GM204): 16 SMM x 128 cores, 224 GB/s, 96 KB
#: shared/SM.  The paper finds slightly worse model accuracy here (Fig. 7),
#: consistent with a newer architecture whose scheduling heuristics the
#: tuning parameters explain a little less well — modelled as higher jitter.
NVIDIA_GTX980 = DeviceSpec(
    name="Nvidia GTX980",
    vendor="Nvidia",
    device_type=GPU,
    compute_units=16,
    simd_width=32,
    clock_ghz=1.126,
    flops_per_lane_per_cycle=3.0,
    global_bandwidth_gbs=224.0,
    global_latency_us=0.38,
    cache_kb=2048.0,
    cache_bandwidth_factor=3.4,
    local_mem_per_cu_kb=96.0,
    local_bandwidth_factor=8.5,
    local_is_emulated=False,
    texture_rate_gtexels=144.0,
    texture_cache_factor=6.5,
    image_is_emulated=False,
    constant_bandwidth_factor=9.0,
    max_workgroup_size=1024,
    max_threads_per_cu=2048,
    max_workgroups_per_cu=32,
    registers_per_cu=65536,
    max_registers_per_thread=255,
    wg_launch_overhead_us=0.2,
    kernel_launch_overhead_us=7.0,
    driver_unroll_reliability=0.8,
    compile_time_base_s=0.5,
    compile_time_per_unroll_s=0.04,
    timing_noise_sigma=0.03,
    jitter_sigma=0.15,
    jitter_idio_sigma=0.06,
)

#: All devices by a short key (used by CLIs and the experiment harness).
DEVICES = {
    "intel": INTEL_I7_3770,
    "nvidia": NVIDIA_K40,
    "amd": AMD_HD7970,
    "c2070": NVIDIA_C2070,
    "gtx980": NVIDIA_GTX980,
}

#: The three devices of the main evaluation (Figs. 4-6, 8-14).
MAIN_DEVICES = ("intel", "nvidia", "amd")


def device_key(key: str) -> str:
    """The :data:`DEVICES` key of a device given by short key or full
    name (case-insensitive)."""
    k = key.strip().lower()
    for short, dev in DEVICES.items():
        if k in (short, dev.name.lower()):
            return short
    raise KeyError(f"unknown device {key!r}; known: {sorted(DEVICES)}")


def get_device(key: str) -> DeviceSpec:
    """Look a device up by short key or full name (case-insensitive)."""
    return DEVICES[device_key(key)]
