"""Memory-hierarchy cost model: seconds spent moving data, per launch.

Each logical OpenCL memory space gets its own service model:

* **global** — DRAM bandwidth degraded by uncoalesced access, improved by
  last-level cache hits (hit rate from spatial locality and footprint);
* **image** — dedicated texture samplers with a 2D-locality-friendly cache
  on GPUs; a slow emulation path on CPUs (the source of the paper's Fig. 8
  Intel cluster: image *without* local memory is disastrous on the CPU);
* **local** — on-chip scratchpad on GPUs (fast, more so than cache);
  plain cached memory on CPUs (no win, slight copy-in overhead);
* **constant** — broadcast-optimized path.

Every function takes a :class:`~repro.simulator.workload.WorkloadBatch`
and returns one value per configuration: *seconds for the whole launch*,
assuming perfect spreading over the device; serialization effects (waves,
occupancy) are the executor's job.  A single launch is a one-row batch.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, fields

import numpy as np

from repro.simulator.device import DeviceSpec
from repro.simulator.workload import WorkloadBatch

#: Bytes per access for the float32/uchar4 codes in the benchmarks.
ACCESS_BYTES = 4.0

#: DRAM bandwidth fraction achieved by fully uncoalesced (strided) access:
#: each 4 B useful word drags a full 32 B transaction segment.
UNCOALESCED_EFFICIENCY = 0.125

#: Per-core L2 on the CPU (work-group = the runtime's cache-blocking unit).
CPU_L2_BYTES = 128.0 * 1024

#: CPU slowdown per doubling of work-group footprint beyond L2.
CPU_L2_OVERFLOW_PENALTY = 0.55


@dataclass(frozen=True)
class MemoryCost:
    """Breakdown of memory time by space (seconds).

    :func:`memory_time_batch` fills it with one array entry per
    configuration; :meth:`row` takes one launch's floats out of it.
    """

    global_time: float
    image_time: float
    local_time: float
    constant_time: float
    spill_time: float

    @property
    def total(self) -> float:
        return (
            self.global_time
            + self.image_time
            + self.local_time
            + self.constant_time
            + self.spill_time
        )

    def row(self, i: int) -> "MemoryCost":
        """Configuration ``i`` of a batch breakdown, as floats."""
        return MemoryCost(*(float(getattr(self, f.name)[i]) for f in fields(self)))


def _math_log2_unique(values: np.ndarray) -> np.ndarray:
    """``math.log2`` applied elementwise via a unique-value table.

    ``np.log2``'s last bit can differ from the C library's, and the
    recorded true times (and ``SIMULATOR_VERSION``) rest on the C
    library's values.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    table = np.fromiter(
        (math.log2(float(u)) for u in uniq), np.float64, uniq.shape[0]
    )
    return table[inverse]


def cache_hit_fraction_batch(batch: WorkloadBatch, device: DeviceSpec) -> np.ndarray:
    """Last-level-cache hit rate for global traffic.

    A footprint that fits in cache is mostly hits regardless of pattern; a
    larger footprint degrades towards a locality-driven floor: stencil-style
    neighbourhoods (high ``spatial_locality``) keep re-touching cached lines.
    """
    loc = batch.spatial_locality
    no_fp = np.minimum(0.97, loc)
    cache_bytes = device.cache_kb * 1024.0
    # A footprint below ~1e-302 bytes overflows the ratio to inf, which
    # the clamp turns into the right answer: it fits.
    with np.errstate(over="ignore"):
        fit = np.minimum(1.0, cache_bytes / np.where(
            batch.footprint_bytes > 0, batch.footprint_bytes, 1.0))
    # Between "all fits" (hit ~ 0.95) and "streaming" (hit ~ locality * 0.8).
    resident = 0.95 * fit
    streaming = 0.8 * loc * (1.0 - fit)
    with_fp = np.minimum(0.97, resident + streaming)
    return np.where(batch.footprint_bytes <= 0, no_fp, with_fp)


def cpu_l2_overflow_factor_batch(batch: WorkloadBatch, device: DeviceSpec) -> np.ndarray:
    """Thrash factor for CPU work-group blocks overflowing per-core L2.

    The work-group is the CPU runtime's cache-blocking unit; each doubling
    of the block footprint past L2 costs another chunk of re-fetch traffic.
    Applies to *all* CPU memory paths — emulated local memory is ordinary
    cached memory, so an oversized "local" tile thrashes just the same.
    """
    ones = np.ones(len(batch))
    if not device.is_cpu:
        return ones
    fp = batch.wg_footprint_bytes
    over_mask = fp > CPU_L2_BYTES
    if not over_mask.any():
        return ones
    overflow = _math_log2_unique(fp[over_mask] / CPU_L2_BYTES)
    ones[over_mask] = 1.0 + CPU_L2_OVERFLOW_PENALTY * overflow
    return ones


def global_memory_time_batch(batch: WorkloadBatch, device: DeviceSpec) -> np.ndarray:
    """Time to service all global reads+writes of the launch."""
    accesses = batch.threads * (batch.global_reads + batch.global_writes)
    bytes_moved = accesses * ACCESS_BYTES
    coal = batch.coalesced_fraction
    # CPUs do not coalesce per-lane, but contiguous access is what lets the
    # compiler vectorize loads and the prefetcher stream; same lever, gentler
    # penalty.
    waste = UNCOALESCED_EFFICIENCY if device.is_gpu else 0.45
    efficiency = coal + (1.0 - coal) * waste
    hit = cache_hit_fraction_batch(batch, device)
    dram_bw = device.global_bandwidth_gbs * 1e9 * efficiency
    cache_bw = dram_bw * device.cache_bandwidth_factor
    # Misses at DRAM speed, hits at cache speed.
    t = bytes_moved * ((1.0 - hit) / dram_bw + hit / cache_bw)
    t = t * cpu_l2_overflow_factor_batch(batch, device)
    return np.where(accesses <= 0, 0.0, t)


def image_memory_time_batch(batch: WorkloadBatch, device: DeviceSpec) -> np.ndarray:
    """Time to service image (texture) fetches.

    GPUs: dedicated samplers at ``texture_rate_gtexels``, sped up by the
    texture cache for 2D-local access.  CPUs: every fetch runs address
    arithmetic + filtering in software — a fixed, slow rate that does not
    benefit from locality much.
    """
    fetches = batch.threads * batch.image_reads
    rate = device.texture_rate_gtexels * 1e9
    if device.image_is_emulated:
        # Emulation cost dominates; locality only helps the underlying loads.
        effective = rate * (1.0 + 0.3 * batch.spatial_locality)
        t = fetches / effective
    else:
        # Texture cache: 2D-local access re-touches cached texels and is
        # served at a multiple of the raw sampler rate — what makes image
        # memory competitive with manual tiling for stencils.
        hit = 0.5 + 0.45 * batch.spatial_locality
        t = fetches * ((1.0 - hit) / rate + hit / (rate * device.texture_cache_factor))
    return np.where(fetches <= 0, 0.0, t)


def local_memory_time_batch(batch: WorkloadBatch, device: DeviceSpec) -> np.ndarray:
    """Time to service local (scratchpad) traffic."""
    accesses = batch.threads * (batch.local_reads + batch.local_writes)
    bytes_moved = accesses * ACCESS_BYTES
    bw = device.global_bandwidth_gbs * 1e9 * device.local_bandwidth_factor
    t = bytes_moved / bw * cpu_l2_overflow_factor_batch(batch, device)
    return np.where(accesses <= 0, 0.0, t)


def constant_memory_time_batch(batch: WorkloadBatch, device: DeviceSpec) -> np.ndarray:
    """Time to service constant-memory broadcasts."""
    accesses = batch.threads * batch.constant_reads
    bytes_moved = accesses * ACCESS_BYTES
    bw = device.global_bandwidth_gbs * 1e9 * device.constant_bandwidth_factor
    return np.where(accesses <= 0, 0.0, bytes_moved / bw)


def spill_memory_time_batch(batch: WorkloadBatch, device: DeviceSpec) -> np.ndarray:
    """Extra traffic when register demand exceeds the per-thread ceiling.

    Every register beyond the ceiling costs roughly one cached read+write
    per loop iteration — the classic cliff that makes very large unroll
    factors backfire.
    """
    over = batch.registers_per_thread - device.max_registers_per_thread
    # Only a few *live* values spill-and-reload; and they reload per unit
    # of loop work (proxied by arithmetic volume), not per loop trip —
    # unrolling changes the trip count but not how often a spilled value
    # is touched.  Uncapped or trip-scaled, spills would absurdly dominate.
    live_spilled = np.minimum(over.astype(np.float64), 6.0)
    work_units = batch.flops_per_thread * 0.1
    accesses = batch.threads * live_spilled * work_units * 2.0
    bw = device.global_bandwidth_gbs * 1e9 * device.cache_bandwidth_factor
    return np.where(over <= 0, 0.0, accesses * ACCESS_BYTES / bw)


def memory_time_batch(batch: WorkloadBatch, device: DeviceSpec) -> MemoryCost:
    """Full memory-time breakdown, one array entry per configuration."""
    return MemoryCost(
        global_time=global_memory_time_batch(batch, device),
        image_time=image_memory_time_batch(batch, device),
        local_time=local_memory_time_batch(batch, device),
        constant_time=constant_memory_time_batch(batch, device),
        spill_time=spill_memory_time_batch(batch, device),
    )
