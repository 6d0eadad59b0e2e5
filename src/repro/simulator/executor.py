"""The execution-time model: roofline with occupancy-driven overlap.

The *true* time of one kernel launch is assembled from:

1. **compute time** — scalar ops (plus per-iteration loop overhead) issued
   over all SIMD lanes, degraded by intra-work-group lane waste and, on the
   CPU, by how vectorizable the access pattern is;
2. **memory time** — :mod:`repro.simulator.memory`;
3. **overlap** — GPUs hide the smaller of the two behind the larger in
   proportion to achieved occupancy; CPUs hide a fixed fraction via
   out-of-order execution and prefetching;
4. **wave quantization** — work-groups execute in waves of
   ``compute_units x workgroups_per_cu``; a partial tail wave costs a full
   wave, and launches with fewer work-groups than compute units leave the
   device underutilized;
5. **overheads** — a fixed launch cost plus a per-work-group scheduling
   cost (the term that punishes millions of tiny work-groups, especially on
   the CPU's thread pool);
6. **deterministic jitter** — :class:`~repro.simulator.hashing.JitterTable`,
   the configuration-specific quirk the model cannot explain from features.

Every term is evaluated on a :class:`~repro.simulator.workload.WorkloadBatch`,
one array entry per configuration: :func:`execute_batch` serves whole
sweeps, and :func:`execute` is a one-row view of the same pipeline that
reports the occupancy limiter and raises on invalid launches.

The result is a pure function: same (kernel, config, device) in, same true
time out.  Measurement noise lives in :mod:`repro.simulator.noise`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.simulator.device import DeviceSpec
from repro.simulator.hashing import JitterTable
from repro.simulator.memory import MemoryCost, memory_time_batch
from repro.simulator.occupancy import (
    OccupancyBatch,
    OccupancyResult,
    compute_occupancy_batch,
)
from repro.simulator.validity import STAGE_OK_CODE, validate_batch, validate_row
from repro.simulator.workload import WorkloadBatch, WorkloadProfile

#: Scalar ops charged per remaining loop iteration (compare+branch+index).
LOOP_OVERHEAD_OPS = 4.0

#: GPU occupancy at which latency hiding saturates.
OCCUPANCY_KNEE = 0.45

#: Fixed overlap fraction for CPUs (out-of-order cores + HW prefetch).
CPU_OVERLAP = 0.80

#: Barrier cost: per warp/wavefront per barrier on GPUs (re-convergence),
#: per *work-item* per barrier on CPUs (the runtime must suspend and resume
#: every work-item's state — why local-memory tiling rarely wins on CPUs).
GPU_BARRIER_NS_PER_WARP = 60.0
CPU_BARRIER_NS_PER_ITEM = 22.0

#: CPU work-item dispatch overhead: each work-item is a loop iteration of
#: the runtime's work-group function.  GPU-style launches with millions of
#: tiny-work threads drown in this.
CPU_ITEM_OVERHEAD_NS = 28.0

#: GPU scheduling-granularity penalty coefficient, quadratic in
#: log2(warps per work-group): bigger blocks allocate coarser, balance worse
#: across SMs, and stall longer at block boundaries — the cost compounds.
GPU_WG_GRANULARITY_PENALTY = 0.01

#: Extra deterministic variance for kernels whose unrolling relies on the
#: driver pragma, scaled by how unreliable that driver is: even when the
#: pragma is honoured, *how* the unrolled code is scheduled varies with
#: opaque compiler heuristics.  This is the paper's §7 mechanism for the
#: AMD convolution/stereo vs raycasting accuracy gap.
DRIVER_UNROLL_QUIRK_SIGMA = 0.22


@dataclass(frozen=True)
class ExecutionBreakdown:
    """Where the time of one simulated launch went (all seconds)."""

    compute_time: float
    memory: MemoryCost
    occupancy: OccupancyResult
    overlap: float
    wave_quantization: float
    overhead_time: float
    jitter: float
    total_time: float


@dataclass(frozen=True)
class BatchExecution:
    """Result of :func:`execute_batch` over ``n`` configurations.

    ``times`` holds the true time in seconds where ``stages`` is
    :data:`~repro.simulator.validity.STAGE_OK_CODE` and NaN otherwise;
    ``stages`` are the :func:`~repro.simulator.validity.validate_batch`
    codes (0 ok / 1 build / 2 launch).
    """

    times: np.ndarray
    stages: np.ndarray


def simd_utilization_batch(batch: WorkloadBatch, device: DeviceSpec) -> np.ndarray:
    """Fraction of SIMD issue slots doing useful work.

    Work-items are packed into lock-step groups of ``simd_width`` within a
    work-group; a work-group whose size is not a multiple of the width burns
    the ragged lanes.
    """
    wg = batch.workgroup_threads
    groups = np.ceil(wg / device.simd_width)
    return wg / (groups * device.simd_width)


def compute_time_batch(batch: WorkloadBatch, device: DeviceSpec) -> np.ndarray:
    """Seconds of pure arithmetic for the launch at full device throughput."""
    util = simd_utilization_batch(batch, device)
    ops_per_thread = batch.flops_per_thread + (
        LOOP_OVERHEAD_OPS * batch.loop_iterations_per_thread
    )
    total_ops = batch.threads * ops_per_thread / np.maximum(util, 1e-9)
    throughput = device.peak_gflops * 1e9
    if device.is_cpu:
        # The compiler only vectorizes across work-items when their accesses
        # are contiguous; otherwise execution falls back towards scalar.
        vec = 0.30 + 0.70 * batch.coalesced_fraction
        return total_ops / (throughput * vec)
    return total_ops / throughput


def wave_quantization_factor_batch(
    batch: WorkloadBatch, device: DeviceSpec, occ: OccupancyBatch
) -> np.ndarray:
    """Slowdown from partial waves and compute-unit under-subscription.

    With ``W`` work-groups, ``C`` compute units and ``g`` resident groups
    per unit, execution takes ``ceil(W / (C*g))`` waves but only
    ``W / (C*g)`` waves' worth of work exists — the ratio is the tail
    penalty (>= 1, and large when W < C, i.e. parts of the device idle).
    """
    per_wave = device.compute_units * np.maximum(occ.workgroups_per_cu, 1)
    n_wg = batch.num_workgroups
    waves = np.ceil(n_wg / per_wave)
    return waves * per_wave / n_wg


def overlap_fraction_batch(device: DeviceSpec, occ: OccupancyBatch) -> np.ndarray:
    """How much of min(compute, memory) hides behind the other."""
    if device.is_cpu:
        return np.full(occ.occupancy.shape[0], CPU_OVERLAP)
    return np.minimum(1.0, occ.occupancy / OCCUPANCY_KNEE)


def overhead_time_batch(batch: WorkloadBatch, device: DeviceSpec) -> np.ndarray:
    """Launch, scheduling, barrier and (CPU) work-item overheads, seconds."""
    n_wg = batch.num_workgroups
    spread = n_wg * device.wg_launch_overhead_us / device.compute_units
    total = (device.kernel_launch_overhead_us + spread) * 1e-6

    if device.is_cpu:
        total = total + (
            batch.threads * CPU_ITEM_OVERHEAD_NS * 1e-9 / device.compute_units
        )

    barriers = batch.barriers_per_workgroup
    if device.is_cpu:
        per_wg_ns = barriers * batch.workgroup_threads * CPU_BARRIER_NS_PER_ITEM
    else:
        warps = np.ceil(batch.workgroup_threads / device.simd_width)
        per_wg_ns = barriers * warps * GPU_BARRIER_NS_PER_WARP
    barrier_term = n_wg * per_wg_ns * 1e-9 / device.compute_units
    return total + np.where(barriers > 0, barrier_term, 0.0)


def granularity_penalty_batch(batch: WorkloadBatch, device: DeviceSpec) -> np.ndarray:
    """Multiplicative slowdown for very large GPU work-groups.

    log2 is evaluated with ``math.log2`` over the (few) unique warp counts:
    ``np.log2``'s last bit can differ from the C library's, and the
    recorded true times (and ``SIMULATOR_VERSION``) rest on the C
    library's values.
    """
    if device.is_cpu:
        return np.ones(len(batch))
    warps = np.maximum(
        1, np.ceil(batch.workgroup_threads / device.simd_width).astype(np.int64)
    )
    uniq, inverse = np.unique(warps, return_inverse=True)
    table = np.fromiter(
        (math.log2(int(u)) ** 2 for u in uniq), np.float64, uniq.shape[0]
    )
    return 1.0 + GPU_WG_GRANULARITY_PENALTY * table[inverse]


def batch_jitter_factors(
    batch: WorkloadBatch,
    device: DeviceSpec,
    kernel_name: str,
    config_tuples: Sequence[tuple],
    mask: np.ndarray,
) -> np.ndarray:
    """Deterministic jitter factor per configuration (1.0 where ``mask`` is
    false): the device's structured and idiosyncratic quirk, times a
    codegen quirk for launches whose unrolling the driver pragma decides."""
    factors = np.ones(len(batch))
    table = JitterTable(
        device.jitter_sigma, device.jitter_idio_sigma, device.name, kernel_name
    )
    quirk_table = None
    if batch.uses_driver_unroll:
        quirk_sigma = DRIVER_UNROLL_QUIRK_SIGMA * (
            1.0 - device.driver_unroll_reliability
        )
        quirk_table = JitterTable(
            0.0, quirk_sigma, device.name, f"{kernel_name}/unroll-quirk"
        )
    unroll = batch.unroll_factor
    for p in np.nonzero(mask)[0].tolist():
        cfg = tuple(config_tuples[p])
        j = table.factor(cfg)
        if quirk_table is not None and unroll[p] > 1:
            j *= quirk_table.factor(cfg)
        factors[p] = j
    return factors


@dataclass(frozen=True)
class _LaunchTerms:
    """Every term of a batch's launch times, one entry per configuration."""

    occupancy: OccupancyBatch
    compute: np.ndarray
    memory: MemoryCost
    overlap: np.ndarray
    wave_quantization: np.ndarray
    overhead: np.ndarray
    jitter: np.ndarray
    total: np.ndarray


def _launch_terms(
    batch: WorkloadBatch,
    device: DeviceSpec,
    occ: OccupancyBatch,
    kernel_name: Optional[str],
    config_tuples: Optional[Sequence[tuple]],
    valid: np.ndarray,
) -> _LaunchTerms:
    """The launch-time pipeline: the one definition of a true time.

    ``occ`` is the batch's occupancy (computed once per batch, for the
    validity rules and these terms alike).  Jitter is drawn where
    ``valid`` holds when both ``kernel_name`` and ``config_tuples`` are
    given, and is 1.0 everywhere else.
    """
    comp = compute_time_batch(batch, device)
    mem = memory_time_batch(batch, device)
    mem_total = mem.total

    ov = overlap_fraction_batch(device, occ)
    busy = np.maximum(comp, mem_total) + (1.0 - ov) * np.minimum(comp, mem_total)

    # Uncovered latency: each wave pays the global round-trip it could not
    # hide.  Only matters at very low occupancy.
    per_wave = device.compute_units * np.maximum(occ.workgroups_per_cu, 1)
    waves = np.ceil(batch.num_workgroups / per_wave)
    latency = (1.0 - ov) * waves * device.global_latency_us * 1e-6

    q = wave_quantization_factor_batch(batch, device, occ) * granularity_penalty_batch(
        batch, device
    )
    ovh = overhead_time_batch(batch, device)

    if kernel_name is not None and config_tuples is not None:
        jitter = batch_jitter_factors(batch, device, kernel_name, config_tuples, valid)
    else:
        jitter = np.ones(len(batch))
    total = (busy * q + latency + ovh) * jitter
    return _LaunchTerms(occ, comp, mem, ov, q, ovh, jitter, total)


def execute_batch(
    batch: WorkloadBatch,
    device: DeviceSpec,
    kernel_name: Optional[str] = None,
    config_tuples: Optional[Sequence[tuple]] = None,
) -> BatchExecution:
    """Simulate a whole batch of launches in one vectorized pass.

    Unlike :func:`execute`, invalid configurations do not raise — they come
    back as NaN times with a non-zero stage code, so callers triage a full
    sweep in one call.  Passing ``kernel_name`` + ``config_tuples`` enables
    the per-configuration deterministic jitter (:func:`execute`'s
    ``jitter_key``); omitting them disables jitter, as an empty key does.
    """
    occ = compute_occupancy_batch(batch, device)
    stages = validate_batch(batch, device, occ)
    valid = stages == STAGE_OK_CODE
    total = _launch_terms(
        batch, device, occ, kernel_name, config_tuples, valid
    ).total
    return BatchExecution(times=np.where(valid, total, np.nan), stages=stages)


def execute(
    profile: WorkloadProfile,
    device: DeviceSpec,
    jitter_key: tuple = (),
) -> ExecutionBreakdown:
    """Simulate one launch; the profile must already be valid for ``device``.

    ``jitter_key`` identifies the configuration (kernel name + config tuple)
    for the deterministic micro-architectural jitter; an empty key disables
    jitter (useful for model unit tests).  A one-row view of
    :func:`execute_batch`'s pipeline: the validity check, the occupancy
    with the resource that limits it, and every time term.
    """
    batch = WorkloadBatch.from_profiles([profile])
    occ = compute_occupancy_batch(batch, device)
    validate_row(batch, device, occ=occ).raise_if_invalid()
    kernel_name = config_tuples = None
    if jitter_key:
        kernel_name, config_tuple = jitter_key
        config_tuples = [tuple(config_tuple)]
    terms = _launch_terms(
        batch, device, occ, kernel_name, config_tuples, np.ones(1, dtype=bool)
    )
    return ExecutionBreakdown(
        compute_time=float(terms.compute[0]),
        memory=terms.memory.row(0),
        occupancy=terms.occupancy.row(0),
        overlap=float(terms.overlap[0]),
        wave_quantization=float(terms.wave_quantization[0]),
        overhead_time=float(terms.overhead[0]),
        jitter=float(terms.jitter[0]),
        total_time=float(terms.total[0]),
    )


def simulate_kernel_time(
    profile: WorkloadProfile,
    device: DeviceSpec,
    jitter_key: tuple = (),
) -> float:
    """True (noise-free) execution time in seconds for one launch."""
    return execute(profile, device, jitter_key=jitter_key).total_time
