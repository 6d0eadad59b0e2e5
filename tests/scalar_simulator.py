"""The scalar simulator: the one-launch reference the batch pipeline is
compared against.

The simulator evaluates every launch-time term, the occupancy and the
static validity rules on arrays
(:func:`repro.simulator.executor.execute_batch`,
:func:`repro.simulator.validity.validate_batch`), and convolution builds
its workload profiles the same way
(``ConvolutionKernel.workload_batch``); a single launch,
:func:`repro.simulator.executor.execute`, and the single-configuration
``validate``, ``compute_occupancy`` and ``ConvolutionKernel.workload``
are one-row views of those.  This module keeps the per-configuration
formulas the batch code was written to mirror, operation for operation,
as plain Python: convolution's workload profile, occupancy with its
limiting resource, validity with its stage and reason, and, on one
:class:`~repro.simulator.workload.WorkloadProfile`, compute time, the
five memory spaces, overlap, wave quantization, overheads and the
two-component blake2b jitter.  ``tests/test_batch_engine.py`` holds the
two paths to the same bits, term by term, on every device model.

Production code does not import this module.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.kernels.base import padded_threads, resolve_unroll
from repro.kernels.convolution import ConvolutionKernel
from repro.simulator.device import DeviceSpec
from repro.simulator.executor import (
    CPU_BARRIER_NS_PER_ITEM,
    CPU_ITEM_OVERHEAD_NS,
    CPU_OVERLAP,
    DRIVER_UNROLL_QUIRK_SIGMA,
    GPU_BARRIER_NS_PER_WARP,
    GPU_WG_GRANULARITY_PENALTY,
    LOOP_OVERHEAD_OPS,
    OCCUPANCY_KNEE,
    ExecutionBreakdown,
)
from repro.simulator.hashing import unit_uniform
from repro.simulator.memory import (
    ACCESS_BYTES,
    CPU_L2_BYTES,
    CPU_L2_OVERFLOW_PENALTY,
    UNCOALESCED_EFFICIENCY,
    MemoryCost,
)
from repro.simulator.occupancy import OccupancyResult
from repro.simulator.validity import (
    STAGE_BUILD,
    STAGE_LAUNCH,
    VALID,
    ValidationResult,
)
from repro.simulator.workload import WorkloadProfile


# -- workload (convolution) --------------------------------------------------


def convolution_workload(
    spec: ConvolutionKernel, config: Mapping, device: DeviceSpec
) -> WorkloadProfile:
    """``ConvolutionKernel.workload`` per configuration (the method body,
    with ``spec`` for ``self``): the formulas the vectorized
    ``ConvolutionKernel.workload_batch`` mirrors."""
    p = spec.problem
    wx, wy = config["wg_x"], config["wg_y"]
    px, py = config["ppt_x"], config["ppt_y"]
    use_image = bool(config["use_image"])
    use_local = bool(config["use_local"])
    pad = bool(config["pad"])
    interleaved = bool(config["interleaved"])

    gx = padded_threads(p.width, px, wx)
    gy = padded_threads(p.height, py, wy)
    threads = gx * gy
    # Fraction of launched threads with real pixels to produce; padding
    # threads exit after the bounds check but still burn a few ops.
    useful = (p.width * p.height) / (threads * px * py)
    useful = min(1.0, useful)
    pixels = px * py * useful  # average output pixels per launched thread

    taps = p.taps
    effective_unroll = resolve_unroll(
        spec.unroll_of(config),
        device,
        uses_driver_pragma=True,
        key=(spec.name, spec.config_tuple(config)),
    )
    # Remaining loop-control iterations per pixel after unrolling.
    iters_per_pixel = taps / effective_unroll
    loop_iters = pixels * iters_per_pixel + 2.0  # +outer block loop

    # Arithmetic: multiply-accumulate + addressing per tap, plus
    # clamp-to-edge bounds handling when the image is not padded.
    ops_per_tap = 2.6 if pad else 4.1
    flops = pixels * (taps * ops_per_tap + 6.0) + 4.0

    # Registers: accumulators for the per-thread block, unroll scratch.
    block = px * py
    regs = 12 + min(block, 64) * 2 + (10 if effective_unroll > 1 else 0)

    # -- memory traffic ---------------------------------------------------
    global_reads = image_reads = local_reads = local_writes = 0.0
    local_bytes = 0
    tile_w = wx * px + p.halo
    tile_h = wy * py + p.halo
    if use_local:
        local_bytes = tile_w * tile_h * 4
        tile_share = (tile_w * tile_h) / (wx * wy)  # loads per thread
        if use_image:
            image_reads = tile_share
        else:
            global_reads = tile_share
        local_writes = tile_share
        local_reads = pixels * taps
    else:
        if use_image:
            image_reads = pixels * taps
        else:
            global_reads = pixels * taps
    global_writes = pixels  # one output store per pixel

    # -- access-pattern quality ------------------------------------------
    if use_local:
        # Cooperative row-major tile loads are contiguous by construction.
        coal = 0.92 if device.is_gpu else 0.85
    elif device.is_gpu:
        # Interleaved: lane i reads column base+i -> coalesced.
        # Blocked: lane i starts px columns from lane i-1 -> strided.
        coal = 0.95 if interleaved else max(0.12, 1.0 / px)
    else:
        # CPU: the blocked layout is the vectorizable/prefetchable one.
        coal = 0.88 if (not interleaved or wx == 1) else max(0.2, 1.0 / wx)

    pad_growth = (p.width + p.halo) * (p.height + p.halo) / (p.width * p.height)
    in_bytes = p.width * p.height * 4 * (pad_growth if pad else 1.0)
    footprint = in_bytes + p.width * p.height * 4  # input + output

    return WorkloadProfile(
        global_size=(gx, gy),
        workgroup=(wx, wy),
        flops_per_thread=flops,
        global_reads=global_reads,
        global_writes=global_writes,
        image_reads=image_reads,
        local_reads=local_reads,
        local_writes=local_writes,
        constant_reads=0.0,
        local_mem_per_wg_bytes=local_bytes,
        registers_per_thread=int(regs),
        coalesced_fraction=coal,
        spatial_locality=0.85,
        footprint_bytes=footprint,
        loop_iterations_per_thread=loop_iters,
        uses_driver_unroll=True,
        unroll_factor=spec.unroll_of(config),
        barriers_per_workgroup=2.0 if use_local else 0.0,
        wg_footprint_bytes=tile_w * tile_h * 4.0,
    )


def workload(spec, config: Mapping, device: DeviceSpec) -> WorkloadProfile:
    """Per-configuration workload profile: convolution's reference body
    above; raycasting and stereo build theirs one configuration at a time
    in ``src`` already."""
    if isinstance(spec, ConvolutionKernel):
        return convolution_workload(spec, config, device)
    return spec.workload(config, device)


# -- occupancy and validity --------------------------------------------------


def effective_registers_per_thread(profile: WorkloadProfile, device: DeviceSpec) -> int:
    """Register demand after the compiler clamps to the per-thread ceiling.

    Demand above the ceiling spills (handled as extra memory traffic by the
    executor), it does not raise the per-thread allocation further.
    """
    return min(profile.registers_per_thread, device.max_registers_per_thread)


def compute_occupancy(profile: WorkloadProfile, device: DeviceSpec) -> OccupancyResult:
    """Resident work-groups per CU and the limiting resource."""
    wg_threads = profile.workgroup_threads

    limits = {}
    limits["threads"] = device.max_threads_per_cu // wg_threads
    limits["slots"] = device.max_workgroups_per_cu

    if profile.local_mem_per_wg_bytes > 0:
        limits["local_mem"] = (
            device.local_mem_per_cu_bytes // profile.local_mem_per_wg_bytes
        )

    regs = effective_registers_per_thread(profile, device)
    regs_per_wg = regs * wg_threads
    if regs_per_wg > 0:
        limits["registers"] = device.registers_per_cu // regs_per_wg

    limiter = min(limits, key=lambda k: (limits[k], k))
    wgs = max(0, limits[limiter])
    # Never let more work-groups be "resident" than exist in the launch.
    wgs_in_launch = profile.num_workgroups
    cu_share = max(1, (wgs_in_launch + device.compute_units - 1) // device.compute_units)
    wgs_effective = min(wgs, cu_share)

    active = wgs_effective * wg_threads
    occ = min(1.0, active / device.max_threads_per_cu)
    return OccupancyResult(
        workgroups_per_cu=wgs_effective,
        active_threads_per_cu=active,
        occupancy=occ,
        limiter=limiter,
    )


def validate(profile: WorkloadProfile, device: DeviceSpec) -> ValidationResult:
    """Check whether a launch can execute on ``device``.

    Build-stage failures (knowable from the kernel source + device caps):

    * work-group larger than ``max_workgroup_size``;
    * static local-memory allocation larger than the per-CU scratchpad.

    Launch-stage failures (depend on compiler register allocation):

    * not even one work-group's registers fit in the register file.
    """
    wg_threads = profile.workgroup_threads
    if wg_threads > device.max_workgroup_size:
        return ValidationResult(
            False,
            STAGE_BUILD,
            f"work-group {profile.workgroup[0]}x{profile.workgroup[1]} = "
            f"{wg_threads} exceeds device limit {device.max_workgroup_size}",
        )
    if profile.local_mem_per_wg_bytes > device.local_mem_per_cu_bytes:
        return ValidationResult(
            False,
            STAGE_BUILD,
            f"local memory {profile.local_mem_per_wg_bytes} B/work-group "
            f"exceeds device limit {device.local_mem_per_cu_bytes} B",
        )
    occ = compute_occupancy(profile, device)
    if occ.workgroups_per_cu < 1:
        return ValidationResult(
            False,
            STAGE_LAUNCH,
            f"register demand ({profile.registers_per_thread}/thread x "
            f"{wg_threads} threads) exceeds register file "
            f"({device.registers_per_cu}/CU); limiter={occ.limiter}",
        )
    return VALID


# -- hashing -----------------------------------------------------------------


def unit_normal(*parts) -> float:
    """Deterministic standard-normal variate keyed on ``parts``.

    Box-Muller on two independent sub-hashes; clipped to ±4 sigma so a
    single unlucky key cannot produce an absurd outlier.
    """
    u1 = unit_uniform(*parts, "u1")
    u2 = unit_uniform(*parts, "u2")
    u1 = max(u1, 1e-12)
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return max(-4.0, min(4.0, z))


def structured_jitter(
    sigma_structured: float,
    sigma_idiosyncratic: float,
    device_name: str,
    kernel_name: str,
    config_tuple: tuple,
) -> float:
    """Two-component deterministic jitter for one configuration.

    *Structured* component: interaction quirks keyed on small parameter
    subgroups — work-group shape ``(cfg[0], cfg[1])``, per-thread blocking
    ``(cfg[2], cfg[3])``, and the remaining switches (all three benchmarks
    order their parameters this way).  These are deterministic functions of
    a few features, so a learned model *can* absorb them given enough
    training data — they are what makes the error curves of Figs. 4-6 keep
    improving with sample count.

    *Idiosyncratic* component: keyed on the full configuration; no feature
    set explains it.  It is the irreducible error floor, and the reason
    even a good tuner lands a few percent off the global optimum.

    The three group draws are averaged with ``1/sqrt(3)`` so
    ``sigma_structured`` is the total structured standard deviation.
    """
    if sigma_structured < 0 or sigma_idiosyncratic < 0:
        raise ValueError("sigmas must be >= 0")
    groups = (config_tuple[0:2], config_tuple[2:4], config_tuple[4:])
    z_struct = sum(
        unit_normal(device_name, kernel_name, f"group{i}", g)
        for i, g in enumerate(groups)
    ) / math.sqrt(len(groups))
    z_idio = unit_normal(device_name, kernel_name, "idio", config_tuple)
    return math.exp(sigma_structured * z_struct + sigma_idiosyncratic * z_idio)


# -- memory ------------------------------------------------------------------


def cache_hit_fraction(profile: WorkloadProfile, device: DeviceSpec) -> float:
    """Last-level-cache hit rate for global traffic.

    A footprint that fits in cache is mostly hits regardless of pattern; a
    larger footprint degrades towards a locality-driven floor: stencil-style
    neighbourhoods (high ``spatial_locality``) keep re-touching cached lines.
    """
    if profile.footprint_bytes <= 0:
        return min(0.97, profile.spatial_locality)
    cache_bytes = device.cache_kb * 1024.0
    fit = min(1.0, cache_bytes / profile.footprint_bytes)
    # Between "all fits" (hit ~ 0.95) and "streaming" (hit ~ locality * 0.8).
    resident = 0.95 * fit
    streaming = 0.8 * profile.spatial_locality * (1.0 - fit)
    return min(0.97, resident + streaming)


def global_memory_time(profile: WorkloadProfile, device: DeviceSpec) -> float:
    """Time to service all global reads+writes of the launch."""
    accesses = profile.threads * (profile.global_reads + profile.global_writes)
    if accesses <= 0:
        return 0.0
    bytes_moved = accesses * ACCESS_BYTES
    coal = profile.coalesced_fraction
    # CPUs do not coalesce per-lane, but contiguous access is what lets the
    # compiler vectorize loads and the prefetcher stream; same lever, gentler
    # penalty.
    waste = UNCOALESCED_EFFICIENCY if device.is_gpu else 0.45
    efficiency = coal + (1.0 - coal) * waste
    hit = cache_hit_fraction(profile, device)
    dram_bw = device.global_bandwidth_gbs * 1e9 * efficiency
    cache_bw = dram_bw * device.cache_bandwidth_factor
    # Misses at DRAM speed, hits at cache speed.
    t = bytes_moved * ((1.0 - hit) / dram_bw + hit / cache_bw)
    return t * cpu_l2_overflow_factor(profile, device)


def cpu_l2_overflow_factor(profile: WorkloadProfile, device: DeviceSpec) -> float:
    """Thrash factor for CPU work-group blocks overflowing per-core L2.

    The work-group is the CPU runtime's cache-blocking unit; each doubling
    of the block footprint past L2 costs another chunk of re-fetch traffic.
    Applies to *all* CPU memory paths — emulated local memory is ordinary
    cached memory, so an oversized "local" tile thrashes just the same.
    """
    if not device.is_cpu or profile.wg_footprint_bytes <= CPU_L2_BYTES:
        return 1.0
    overflow = math.log2(profile.wg_footprint_bytes / CPU_L2_BYTES)
    return 1.0 + CPU_L2_OVERFLOW_PENALTY * overflow


def image_memory_time(profile: WorkloadProfile, device: DeviceSpec) -> float:
    """Time to service image (texture) fetches.

    GPUs: dedicated samplers at ``texture_rate_gtexels``, sped up by the
    texture cache for 2D-local access.  CPUs: every fetch runs address
    arithmetic + filtering in software — a fixed, slow rate that does not
    benefit from locality much.
    """
    fetches = profile.threads * profile.image_reads
    if fetches <= 0:
        return 0.0
    rate = device.texture_rate_gtexels * 1e9
    if device.image_is_emulated:
        # Emulation cost dominates; locality only helps the underlying loads.
        effective = rate * (1.0 + 0.3 * profile.spatial_locality)
        return fetches / effective
    # Texture cache: 2D-local access re-touches cached texels and is served
    # at a multiple of the raw sampler rate — what makes image memory
    # competitive with manual tiling for stencils.
    hit = 0.5 + 0.45 * profile.spatial_locality
    return fetches * (
        (1.0 - hit) / rate + hit / (rate * device.texture_cache_factor)
    )


def local_memory_time(profile: WorkloadProfile, device: DeviceSpec) -> float:
    """Time to service local (scratchpad) traffic."""
    accesses = profile.threads * (profile.local_reads + profile.local_writes)
    if accesses <= 0:
        return 0.0
    bytes_moved = accesses * ACCESS_BYTES
    bw = device.global_bandwidth_gbs * 1e9 * device.local_bandwidth_factor
    return bytes_moved / bw * cpu_l2_overflow_factor(profile, device)


def constant_memory_time(profile: WorkloadProfile, device: DeviceSpec) -> float:
    """Time to service constant-memory broadcasts."""
    accesses = profile.threads * profile.constant_reads
    if accesses <= 0:
        return 0.0
    bytes_moved = accesses * ACCESS_BYTES
    bw = device.global_bandwidth_gbs * 1e9 * device.constant_bandwidth_factor
    return bytes_moved / bw


def spill_memory_time(profile: WorkloadProfile, device: DeviceSpec) -> float:
    """Extra traffic when register demand exceeds the per-thread ceiling.

    Every register beyond the ceiling costs roughly one cached read+write
    per loop iteration — the classic cliff that makes very large unroll
    factors backfire.
    """
    over = profile.registers_per_thread - device.max_registers_per_thread
    if over <= 0:
        return 0.0
    # Only a few *live* values spill-and-reload; and they reload per unit
    # of loop work (proxied by arithmetic volume), not per loop trip —
    # unrolling changes the trip count but not how often a spilled value
    # is touched.  Uncapped or trip-scaled, spills would absurdly dominate.
    live_spilled = min(float(over), 6.0)
    work_units = profile.flops_per_thread * 0.1
    accesses = profile.threads * live_spilled * work_units * 2.0
    bw = (
        device.global_bandwidth_gbs
        * 1e9
        * device.cache_bandwidth_factor
    )
    return accesses * ACCESS_BYTES / bw


def memory_time(profile: WorkloadProfile, device: DeviceSpec) -> MemoryCost:
    """Full memory-time breakdown for one launch."""
    return MemoryCost(
        global_time=global_memory_time(profile, device),
        image_time=image_memory_time(profile, device),
        local_time=local_memory_time(profile, device),
        constant_time=constant_memory_time(profile, device),
        spill_time=spill_memory_time(profile, device),
    )


# -- executor ----------------------------------------------------------------


def simd_utilization(profile: WorkloadProfile, device: DeviceSpec) -> float:
    """Fraction of SIMD issue slots doing useful work.

    Work-items are packed into lock-step groups of ``simd_width`` within a
    work-group; a work-group whose size is not a multiple of the width burns
    the ragged lanes.
    """
    wg = profile.workgroup_threads
    groups = math.ceil(wg / device.simd_width)
    return wg / (groups * device.simd_width)


def compute_time(profile: WorkloadProfile, device: DeviceSpec) -> float:
    """Seconds of pure arithmetic for the launch at full device throughput."""
    util = simd_utilization(profile, device)
    ops_per_thread = profile.flops_per_thread + (
        LOOP_OVERHEAD_OPS * profile.loop_iterations_per_thread
    )
    total_ops = profile.threads * ops_per_thread / max(util, 1e-9)
    throughput = device.peak_gflops * 1e9
    if device.is_cpu:
        # The compiler only vectorizes across work-items when their accesses
        # are contiguous; otherwise execution falls back towards scalar.
        vec = 0.30 + 0.70 * profile.coalesced_fraction
        throughput *= vec
    return total_ops / throughput


def wave_quantization_factor(
    profile: WorkloadProfile, device: DeviceSpec, occ: OccupancyResult
) -> float:
    """Slowdown from partial waves and compute-unit under-subscription.

    With ``W`` work-groups, ``C`` compute units and ``g`` resident groups
    per unit, execution takes ``ceil(W / (C*g))`` waves but only
    ``W / (C*g)`` waves' worth of work exists — the ratio is the tail
    penalty (>= 1, and large when W < C, i.e. parts of the device idle).
    """
    per_wave = device.compute_units * max(occ.workgroups_per_cu, 1)
    n_wg = profile.num_workgroups
    waves = math.ceil(n_wg / per_wave)
    return waves * per_wave / n_wg


def overlap_fraction(device: DeviceSpec, occ: OccupancyResult) -> float:
    """How much of min(compute, memory) hides behind the other."""
    if device.is_cpu:
        return CPU_OVERLAP
    return min(1.0, occ.occupancy / OCCUPANCY_KNEE)


def overhead_time(profile: WorkloadProfile, device: DeviceSpec) -> float:
    """Launch, scheduling, barrier and (CPU) work-item overheads, seconds."""
    per_wg_us = device.wg_launch_overhead_us
    spread = profile.num_workgroups * per_wg_us / device.compute_units
    total = (device.kernel_launch_overhead_us + spread) * 1e-6

    if device.is_cpu:
        total += (
            profile.threads * CPU_ITEM_OVERHEAD_NS * 1e-9 / device.compute_units
        )

    if profile.barriers_per_workgroup > 0:
        if device.is_cpu:
            per_wg_ns = (
                profile.barriers_per_workgroup
                * profile.workgroup_threads
                * CPU_BARRIER_NS_PER_ITEM
            )
        else:
            warps = math.ceil(profile.workgroup_threads / device.simd_width)
            per_wg_ns = (
                profile.barriers_per_workgroup * warps * GPU_BARRIER_NS_PER_WARP
            )
        total += profile.num_workgroups * per_wg_ns * 1e-9 / device.compute_units
    return total


def granularity_penalty(profile: WorkloadProfile, device: DeviceSpec) -> float:
    """Multiplicative slowdown for very large GPU work-groups."""
    if device.is_cpu:
        return 1.0
    warps = max(1, math.ceil(profile.workgroup_threads / device.simd_width))
    return 1.0 + GPU_WG_GRANULARITY_PENALTY * math.log2(warps) ** 2


def execute(
    profile: WorkloadProfile,
    device: DeviceSpec,
    jitter_key: tuple = (),
) -> ExecutionBreakdown:
    """Simulate one launch; the profile must already be valid for ``device``.

    ``jitter_key`` identifies the configuration (kernel name + config tuple)
    for the deterministic micro-architectural jitter; an empty key disables
    jitter (useful for model unit tests).
    """
    validate(profile, device).raise_if_invalid()

    occ = compute_occupancy(profile, device)
    comp = compute_time(profile, device)
    mem = memory_time(profile, device)

    ov = overlap_fraction(device, occ)
    busy = max(comp, mem.total) + (1.0 - ov) * min(comp, mem.total)

    # Uncovered latency: each wave pays the global round-trip it could not
    # hide.  Only matters at very low occupancy.
    per_wave = device.compute_units * max(occ.workgroups_per_cu, 1)
    waves = math.ceil(profile.num_workgroups / per_wave)
    latency = (1.0 - ov) * waves * device.global_latency_us * 1e-6

    q = wave_quantization_factor(profile, device, occ) * granularity_penalty(
        profile, device
    )
    ovh = overhead_time(profile, device)

    jitter = 1.0
    if jitter_key:
        kernel_name, config_tuple = jitter_key
        jitter = structured_jitter(
            device.jitter_sigma,
            device.jitter_idio_sigma,
            device.name,
            kernel_name,
            tuple(config_tuple),
        )
        if profile.uses_driver_unroll and profile.unroll_factor > 1:
            quirk_sigma = DRIVER_UNROLL_QUIRK_SIGMA * (
                1.0 - device.driver_unroll_reliability
            )
            jitter *= structured_jitter(
                0.0, quirk_sigma, device.name, f"{kernel_name}/unroll-quirk",
                tuple(config_tuple),
            )

    total = (busy * q + latency + ovh) * jitter
    return ExecutionBreakdown(
        compute_time=comp,
        memory=mem,
        occupancy=occ,
        overlap=ov,
        wave_quantization=q,
        overhead_time=ovh,
        jitter=jitter,
        total_time=total,
    )
