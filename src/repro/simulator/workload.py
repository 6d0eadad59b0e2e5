"""Workload characterization handed from a kernel to the executor.

Each benchmark kernel (:mod:`repro.kernels`) turns a tuning configuration
into a :class:`WorkloadProfile`: how many threads, how much arithmetic, and
how much traffic per memory space one thread generates, plus the structural
facts the cost model needs (register demand, local-memory footprint, access
locality, unroll provenance).  The executor never sees kernel code — only
this profile — which keeps the device model kernel-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-configuration description of a kernel launch.

    All "per-thread" quantities are averages over the launch.  Traffic is in
    4-byte accesses (the benchmarks are float32/uchar4 codes).

    Attributes
    ----------
    global_size:
        Launched ND-range, ``(gx, gy)`` work-items.
    workgroup:
        Work-group shape ``(wx, wy)``.
    flops_per_thread:
        Arithmetic operations per work-item.
    global_reads / global_writes:
        Global-memory accesses per work-item (4 B each).
    image_reads:
        Image (texture) fetches per work-item.
    local_reads / local_writes:
        Local-memory accesses per work-item.
    constant_reads:
        Constant-memory reads per work-item.
    local_mem_per_wg_bytes:
        Scratchpad allocated per work-group (drives occupancy & validity).
    registers_per_thread:
        Register demand (drives occupancy, spilling, launch validity).
    coalesced_fraction:
        Fraction of global accesses that are contiguous across adjacent
        work-items of a row (GPU coalescing; CPU vectorization proxy).
    spatial_locality:
        0..1 measure of 2D locality of the global/image footprint; drives
        cache and texture-cache hit rates.
    footprint_bytes:
        Total distinct bytes touched in global/image memory (cache sizing).
    loop_iterations_per_thread:
        Loop-control iterations per work-item *after* unrolling — pays
        branch/index overhead per iteration.
    uses_driver_unroll:
        True when unrolling relies on the OpenCL driver pragma (convolution
        and stereo in the paper) rather than manual macros (raycasting);
        on drivers with low ``driver_unroll_reliability`` the requested
        factor is then only partially honoured.
    unroll_factor:
        Requested unroll factor (1 = none).
    barriers_per_workgroup:
        Work-group-wide barriers executed per work-group (cooperative tile
        loads need them).  Cheap per-warp on GPUs; on CPUs every barrier
        forces the runtime to suspend/resume every work-item, which is why
        local-memory tiling rarely pays off there.
    wg_footprint_bytes:
        Distinct bytes one work-group touches.  On CPUs the work-group is
        the runtime's cache-blocking unit: footprints past per-core L2
        thrash (this is what keeps CPU-optimal work-group x block shapes
        moderate).  0 means unknown/not-modelled.
    """

    global_size: tuple
    workgroup: tuple
    flops_per_thread: float
    global_reads: float = 0.0
    global_writes: float = 0.0
    image_reads: float = 0.0
    local_reads: float = 0.0
    local_writes: float = 0.0
    constant_reads: float = 0.0
    local_mem_per_wg_bytes: int = 0
    registers_per_thread: int = 16
    coalesced_fraction: float = 1.0
    spatial_locality: float = 0.5
    footprint_bytes: float = 0.0
    loop_iterations_per_thread: float = 0.0
    uses_driver_unroll: bool = False
    unroll_factor: int = 1
    barriers_per_workgroup: float = 0.0
    wg_footprint_bytes: float = 0.0

    def __post_init__(self) -> None:
        gx, gy = self.global_size
        wx, wy = self.workgroup
        if gx < 1 or gy < 1 or wx < 1 or wy < 1:
            raise ValueError("global_size and workgroup must be positive")
        if not 0.0 <= self.coalesced_fraction <= 1.0:
            raise ValueError("coalesced_fraction must be in [0, 1]")
        if not 0.0 <= self.spatial_locality <= 1.0:
            raise ValueError("spatial_locality must be in [0, 1]")
        if self.unroll_factor < 1:
            raise ValueError("unroll_factor must be >= 1")
        for f in (
            "flops_per_thread",
            "global_reads",
            "global_writes",
            "image_reads",
            "local_reads",
            "local_writes",
            "constant_reads",
            "loop_iterations_per_thread",
            "barriers_per_workgroup",
        ):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative")

    @property
    def threads(self) -> int:
        """Total work-items in the launch."""
        return self.global_size[0] * self.global_size[1]

    @property
    def workgroup_threads(self) -> int:
        """Work-items per work-group."""
        return self.workgroup[0] * self.workgroup[1]

    @property
    def num_workgroups(self) -> int:
        """Work-groups in the launch (the ND-range is padded to a multiple
        of the work-group shape by the kernels, so division is exact)."""
        gx, gy = self.global_size
        wx, wy = self.workgroup
        return ((gx + wx - 1) // wx) * ((gy + wy - 1) // wy)

    def total_global_bytes(self) -> float:
        """Raw global traffic of the launch in bytes (before caching)."""
        return 4.0 * self.threads * (self.global_reads + self.global_writes)


@dataclass
class WorkloadBatch:
    """Column-wise batch of :class:`WorkloadProfile` records.

    Each scalar field of ``WorkloadProfile`` becomes a NumPy array of
    length ``n``; the ``(gx, gy)`` / ``(wx, wy)`` tuples are split into
    per-axis integer arrays.  ``uses_driver_unroll`` stays a single bool —
    it is a property of the kernel, not of the configuration.

    Integer-valued columns use ``int64`` and float columns ``float64`` so
    that elementwise arithmetic reproduces the scalar Python computation
    bit for bit.  No validation happens here: batches may describe invalid
    configurations (over-sized work-groups etc.); :func:`validity
    <repro.simulator.validity.validate_batch>` classifies them afterwards.
    """

    gx: np.ndarray
    gy: np.ndarray
    wx: np.ndarray
    wy: np.ndarray
    flops_per_thread: np.ndarray
    global_reads: np.ndarray
    global_writes: np.ndarray
    image_reads: np.ndarray
    local_reads: np.ndarray
    local_writes: np.ndarray
    constant_reads: np.ndarray
    local_mem_per_wg_bytes: np.ndarray
    registers_per_thread: np.ndarray
    coalesced_fraction: np.ndarray
    spatial_locality: np.ndarray
    footprint_bytes: np.ndarray
    loop_iterations_per_thread: np.ndarray
    unroll_factor: np.ndarray
    barriers_per_workgroup: np.ndarray
    wg_footprint_bytes: np.ndarray
    uses_driver_unroll: bool = False

    def __len__(self) -> int:
        return int(self.gx.shape[0])

    @property
    def threads(self) -> np.ndarray:
        """Total work-items per launch (int64)."""
        return self.gx * self.gy

    @property
    def workgroup_threads(self) -> np.ndarray:
        """Work-items per work-group (int64)."""
        return self.wx * self.wy

    @property
    def num_workgroups(self) -> np.ndarray:
        """Work-groups per launch (int64)."""
        return ((self.gx + self.wx - 1) // self.wx) * (
            (self.gy + self.wy - 1) // self.wy
        )

    @classmethod
    def from_profiles(cls, profiles: "list[WorkloadProfile]") -> "WorkloadBatch":
        """Stack scalar profiles into a batch (kernels without a vectorized
        ``workload_batch``, and one-row views of the batch functions;
        convolution builds its batches from decoded parameter columns)."""
        n = len(profiles)
        kw = {
            "gx": np.fromiter((p.global_size[0] for p in profiles), np.int64, n),
            "gy": np.fromiter((p.global_size[1] for p in profiles), np.int64, n),
            "wx": np.fromiter((p.workgroup[0] for p in profiles), np.int64, n),
            "wy": np.fromiter((p.workgroup[1] for p in profiles), np.int64, n),
            "uses_driver_unroll": any(p.uses_driver_unroll for p in profiles),
        }
        for name in _COLUMNS:
            dtype = np.int64 if name in _INT_COLUMNS else np.float64
            kw[name] = np.fromiter((getattr(p, name) for p in profiles), dtype, n)
        return cls(**kw)

    def row(self, i: int) -> WorkloadProfile:
        """Configuration ``i`` as a :class:`WorkloadProfile` of Python ints
        and floats (the inverse of :meth:`from_profiles` for one row)."""
        kw = {
            name: (int if name in _INT_COLUMNS else float)(getattr(self, name)[i])
            for name in _COLUMNS
        }
        return WorkloadProfile(
            global_size=(int(self.gx[i]), int(self.gy[i])),
            workgroup=(int(self.wx[i]), int(self.wy[i])),
            uses_driver_unroll=self.uses_driver_unroll,
            **kw,
        )


#: The :class:`WorkloadProfile` fields a batch keeps as one column each
#: (the size and shape tuples split into per-axis columns instead).
_COLUMNS = tuple(
    f.name
    for f in fields(WorkloadProfile)
    if f.name not in ("global_size", "workgroup", "uses_driver_unroll")
)
_INT_COLUMNS = {"local_mem_per_wg_bytes", "registers_per_thread", "unroll_factor"}
