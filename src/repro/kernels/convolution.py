"""``convolution``: 2048x2048 image, 5x5 box filter (Table 1).

The stencil benchmark.  Nine tuning parameters (Table 2): work-group shape,
output pixels per thread, and five boolean switches — image memory, local
memory, padding, interleaved reads, driver-pragma loop unrolling.  Space
size 8^4 * 2^5 = 131,072 ("131K"), small enough that the paper (and our
Fig. 11-13 harness) exhaustively measures it to know the global optimum.

Workload-model highlights:

* **local memory** turns 25 neighbourhood reads per pixel into one
  cooperative tile load (with a 2-pixel halo) plus 25 cheap local reads;
  the tile must fit the scratchpad or the build fails;
* **image memory** routes reads through the texture samplers — a win on
  GPUs, a disaster on the CPU's emulation path *unless* combined with local
  memory (one emulated fetch per tile element instead of 25 per pixel) —
  this is exactly the clustering the paper sees on the Intel i7 (Fig. 8);
* **interleaved reads** give coalesced access on GPUs; on the CPU the
  non-interleaved (blocked) layout is what vectorizes and prefetches well;
* **padding** removes per-tap boundary clamping arithmetic;
* **unrolling** eliminates inner-loop overhead but raises register demand,
  and only takes effect when the driver honours the pragma
  (:func:`repro.kernels.base.resolve_unroll`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.kernels.base import KernelSpec
from repro.params import ParameterSpace, boolean, pow2
from repro.simulator.device import DeviceSpec
from repro.simulator.hashing import HashPrefix
from repro.simulator.workload import WorkloadBatch, WorkloadProfile


@dataclass(frozen=True)
class ConvolutionProblem:
    """Problem size: image dimensions and (odd) filter width."""

    width: int = 2048
    height: int = 2048
    ksize: int = 5

    def __post_init__(self) -> None:
        if self.ksize % 2 != 1 or self.ksize < 3:
            raise ValueError("ksize must be odd and >= 3")
        if self.width < self.ksize or self.height < self.ksize:
            raise ValueError("image smaller than the filter")

    @property
    def halo(self) -> int:
        return self.ksize - 1

    @property
    def taps(self) -> int:
        return self.ksize * self.ksize


class ConvolutionKernel(KernelSpec):
    """The paper's stencil benchmark."""

    name = "convolution"

    def __init__(self, problem: ConvolutionProblem | None = None):
        super().__init__(problem)

    @classmethod
    def paper_problem(cls) -> ConvolutionProblem:
        return ConvolutionProblem(2048, 2048, 5)

    def _build_space(self) -> ParameterSpace:
        return ParameterSpace(
            [
                pow2("wg_x", 1, 128, "Work-group size in x dimension"),
                pow2("wg_y", 1, 128, "Work-group size in y dimension"),
                pow2("ppt_x", 1, 128, "Output pixels per thread in x dimension"),
                pow2("ppt_y", 1, 128, "Output pixels per thread in y dimension"),
                boolean("use_image", "Use image memory"),
                boolean("use_local", "Use local memory"),
                boolean("pad", "Add padding to image"),
                boolean("interleaved", "Interleaved memory reads"),
                boolean("unroll", "Unroll loops"),
            ]
        )

    def unroll_of(self, config: Mapping) -> int:
        # The boolean pragma requests full unrolling of the 5x5 tap loops.
        return self.problem.taps if config["unroll"] else 1

    # -- timing model ---------------------------------------------------------

    def workload(self, config: Mapping, device: DeviceSpec) -> WorkloadProfile:
        """Workload profile of one configuration: a one-row view of
        :meth:`workload_batch` (batch many configurations instead of
        looping over this)."""
        return self.workload_batch(
            [self.space.index_of(config)],
            device,
            config_tuples=[self.config_tuple(config)],
        ).row(0)

    def workload_batch(
        self,
        indices: Sequence[int],
        device: DeviceSpec,
        config_tuples: Optional[Sequence[tuple]] = None,
    ) -> WorkloadBatch:
        """Workload profiles of many flat indices as one column batch.

        Elementwise over decoded parameter columns; the driver-unroll coin
        flips (:func:`~repro.kernels.base.resolve_unroll`) reuse its hash
        through a pre-hashed key prefix.  The per-configuration formulas
        it mirrors, operation for operation, are kept in
        ``tests/scalar_simulator.py``.
        """
        p = self.problem
        vm = self.space.int_values_matrix(indices)
        wx, wy, px, py = vm[:, 0], vm[:, 1], vm[:, 2], vm[:, 3]
        use_image = vm[:, 4] == 1
        use_local = vm[:, 5] == 1
        pad = vm[:, 6] == 1
        interleaved = vm[:, 7] == 1
        unrolled = vm[:, 8] == 1

        # padded_threads, both axes.
        gx = (np.ceil(np.ceil(p.width / px) / wx) * wx).astype(np.int64)
        gy = (np.ceil(np.ceil(p.height / py) / wy) * wy).astype(np.int64)
        threads = gx * gy
        # Fraction of launched threads with real pixels to produce; padding
        # threads exit after the bounds check but still burn a few ops.
        useful = np.minimum(1.0, (p.width * p.height) / (threads * px * py))
        pixels = px * py * useful  # average output pixels per launched thread

        taps = p.taps
        # The boolean pragma requests full unrolling of the 5x5 tap loops.
        requested = np.where(unrolled, taps, 1)
        effective_unroll = requested.copy()
        pending = np.nonzero(requested > 1)[0]
        if pending.size:
            if config_tuples is None:
                config_tuples = self.space.tuples_of(indices)
            hp = HashPrefix(device.name, "driver-unroll", self.name)
            rel = device.driver_unroll_reliability
            for k in pending.tolist():
                if not hp.uniform(tuple(config_tuples[k])) < rel:
                    effective_unroll[k] = 1
        # Remaining loop-control iterations per pixel after unrolling.
        iters_per_pixel = taps / effective_unroll
        loop_iters = pixels * iters_per_pixel + 2.0  # +outer block loop

        # Arithmetic: multiply-accumulate + addressing per tap, plus
        # clamp-to-edge bounds handling when the image is not padded.
        ops_per_tap = np.where(pad, 2.6, 4.1)
        flops = pixels * (taps * ops_per_tap + 6.0) + 4.0

        # Registers: accumulators for the per-thread block, unroll scratch.
        block = px * py
        regs = 12 + np.minimum(block, 64) * 2 + np.where(effective_unroll > 1, 10, 0)

        # -- memory traffic ---------------------------------------------------
        # Local memory: one cooperative tile load (with halo) per
        # work-group, then every tap read from the tile; without it every
        # tap reads global (or image) memory.
        tile_w = wx * px + p.halo
        tile_h = wy * py + p.halo
        local_bytes = np.where(use_local, tile_w * tile_h * 4, 0)
        tile_share = (tile_w * tile_h) / (wx * wy)  # loads per thread
        pix_taps = pixels * taps
        cooperative = np.where(use_local, tile_share, 0.0)
        direct = np.where(use_local, 0.0, pix_taps)
        image_reads = np.where(use_image, cooperative + direct, 0.0)
        global_reads = np.where(use_image, 0.0, cooperative + direct)
        local_writes = cooperative
        local_reads = np.where(use_local, pix_taps, 0.0)
        global_writes = pixels  # one output store per pixel

        # -- access-pattern quality ------------------------------------------
        # Cooperative row-major tile loads are contiguous by construction.
        if device.is_gpu:
            # Interleaved: lane i reads column base+i -> coalesced.
            # Blocked: lane i starts px columns from lane i-1 -> strided.
            coal = np.where(
                use_local,
                0.92,
                np.where(interleaved, 0.95, np.maximum(0.12, 1.0 / px)),
            )
        else:
            # CPU: the blocked layout is the vectorizable/prefetchable one.
            coal = np.where(
                use_local,
                0.85,
                np.where(
                    ~interleaved | (wx == 1), 0.88, np.maximum(0.2, 1.0 / wx)
                ),
            )

        pad_growth = (p.width + p.halo) * (p.height + p.halo) / (p.width * p.height)
        in_bytes = p.width * p.height * 4 * np.where(pad, pad_growth, 1.0)
        footprint = in_bytes + p.width * p.height * 4  # input + output

        n = vm.shape[0]
        return WorkloadBatch(
            gx=gx,
            gy=gy,
            wx=wx,
            wy=wy,
            flops_per_thread=flops,
            global_reads=global_reads,
            global_writes=global_writes.astype(np.float64),
            image_reads=image_reads,
            local_reads=local_reads,
            local_writes=local_writes,
            constant_reads=np.zeros(n),
            local_mem_per_wg_bytes=local_bytes,
            registers_per_thread=regs,
            coalesced_fraction=coal,
            spatial_locality=np.full(n, 0.85),
            footprint_bytes=footprint,
            loop_iterations_per_thread=loop_iters,
            unroll_factor=requested,
            barriers_per_workgroup=np.where(use_local, 2.0, 0.0),
            wg_footprint_bytes=tile_w * tile_h * 4.0,
            uses_driver_unroll=True,
        )

    # -- functional implementation -------------------------------------------

    def make_inputs(self, rng: np.random.Generator) -> dict:
        p = self.problem
        return {
            "image": rng.random((p.height, p.width), dtype=np.float32),
        }

    def reference(self, inputs: dict) -> np.ndarray:
        """Box filter with clamp-to-edge borders, accumulated in (dy, dx)
        tap order (the order every config path also uses)."""
        p = self.problem
        img = inputs["image"]
        r = p.ksize // 2
        padded = np.pad(img, r, mode="edge").astype(np.float32)
        acc = np.zeros_like(img, dtype=np.float32)
        for dy in range(p.ksize):
            for dx in range(p.ksize):
                acc = acc + padded[dy : dy + p.height, dx : dx + p.width]
        return acc * np.float32(1.0 / p.taps)

    def run(self, config: Mapping, inputs: dict) -> np.ndarray:
        """Config-dependent path: tile the output by work-group blocks and
        either pre-pad the image (``pad=1``) or clamp indices per tile
        (``pad=0``).  Interleaving and unrolling only permute *which thread*
        computes a pixel, not the per-pixel tap order, so results match the
        reference bit-for-bit."""
        p = self.problem
        img = inputs["image"]
        r = p.ksize // 2
        out = np.empty((p.height, p.width), dtype=np.float32)

        block_w = config["wg_x"] * config["ppt_x"]
        block_h = config["wg_y"] * config["ppt_y"]

        if config["pad"]:
            padded = np.pad(img, r, mode="edge").astype(np.float32)

            def tile_source(y0, y1, x0, x1, dy, dx):
                return padded[y0 + dy : y1 + dy, x0 + dx : x1 + dx]

        else:
            ys = np.arange(p.height)
            xs = np.arange(p.width)

            def tile_source(y0, y1, x0, x1, dy, dx):
                yy = np.clip(ys[y0:y1] + dy - r, 0, p.height - 1)
                xx = np.clip(xs[x0:x1] + dx - r, 0, p.width - 1)
                return img[np.ix_(yy, xx)]

        inv = np.float32(1.0 / p.taps)
        for y0 in range(0, p.height, block_h):
            y1 = min(y0 + block_h, p.height)
            for x0 in range(0, p.width, block_w):
                x1 = min(x0 + block_w, p.width)
                acc = np.zeros((y1 - y0, x1 - x0), dtype=np.float32)
                for dy in range(p.ksize):
                    for dx in range(p.ksize):
                        acc = acc + tile_source(y0, y1, x0, x1, dy, dx)
                out[y0:y1, x0:x1] = acc * inv
        return out
