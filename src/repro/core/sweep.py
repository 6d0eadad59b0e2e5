"""Fused, parallel, streaming whole-space prediction sweeps.

Stage two of the auto-tuner is "feasible because evaluating the model is
orders of magnitude faster than running kernels" (§5.3) — so the model
sweep over the 131K/655K/2.36M-point spaces must run as fast as the
hardware allows.  The reference path
(:meth:`~repro.core.model.PerformanceModel.predict_indices_reference`)
walks the space in float64 chunks, re-allocating a feature matrix, a
scaled copy, and half a dozen ``(k, n, hidden)`` temporaries per chunk.
This module replaces it with a *compiled* pipeline:

* **scaler folding** — the fitted ``StandardScaler``s disappear at
  compile time.  The float32 lane folds them into the ensemble weights
  (x-scaler into ``W1``/``b1``, y-scaler and the ensemble mean into
  ``W2``/``b2``); the exact float64 lane folds the x-scaler into the
  encoder's per-parameter value LUTs instead — algebraically the same
  fold, but it preserves the reference's float32 cast point bit-for-bit,
  which is what keeps the lane within 1e-9 of the chunked path;
* **fused buffers** — LUT columns are gathered straight into one reused
  ``(chunk, n_features)`` buffer (no ``np.concatenate``), the forward
  pass runs in-place through preallocated ``(k, chunk, hidden)``
  activations, and the sigmoid is applied as five in-place ufunc calls;
* **streaming top-M** — candidates are reduced per chunk with a bounded
  ``argpartition`` merge, so selecting the M best of a 2.36M-point space
  needs O(chunk + M) memory instead of a full-space prediction array,
  with an exact ``(prediction, index)`` tie-break that makes the result
  deterministic and independent of chunking or sharding;
* **process sharding** — the index range fans out over a
  ``ProcessPoolExecutor`` (the ``run_campaign_grid`` worker pattern:
  compiled state is pickled to each worker, per-shard JSONL traces are
  merged back with ``worker=`` tags), and per-shard spans/counters land
  in the parent tracer.

``benchmarks/test_perf_predict_sweep.py`` gates the engine at >= 4x over
the reference path on a >= 500K-configuration sweep with float64 parity
<= 1e-9 relative; see ``docs/performance.md`` for the folding math and
the float32 trade-offs.
"""

from __future__ import annotations

import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.activations import get_activation
from repro.obs import NULL_TRACER, Tracer, run_manifest

#: Default sweep chunk: large enough to keep BLAS busy, small enough that
#: the (k, chunk, hidden) activation buffer stays cache-resident
#: (11 x 16384 x 30 float32 ~ 21 MiB).
SWEEP_CHUNK = 1 << 14

#: Below this many configurations a process pool costs more than it buys.
MIN_CONFIGS_PER_WORKER = 1 << 15


@dataclass(frozen=True)
class SweepSettings:
    """Knobs of the prediction sweep engine.

    Attributes
    ----------
    chunk:
        Configurations per fused pipeline pass.
    dtype:
        ``"float64"`` is the exact lane (matches the reference chunked
        path to <= 1e-9 relative); ``"float32"`` is the opt-in fast lane
        (scalers folded into the weights, everything f32 end-to-end;
        top-M overlap with the exact lane is gated at >= 99%).
    workers:
        Process count for sharded sweeps; ``0``/``1`` run inline.  Only
        sweeps with at least ``MIN_CONFIGS_PER_WORKER`` configurations
        per worker actually fan out.
    enabled:
        ``False`` forces every caller back onto the reference chunked
        path (the benchmark gate's baseline, and a safety valve).
    """

    chunk: int = SWEEP_CHUNK
    dtype: str = "float64"
    workers: int = 0
    enabled: bool = True

    def __post_init__(self):
        if self.chunk < 256:
            raise ValueError("chunk must be >= 256")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"dtype must be float64 or float32, got {self.dtype!r}")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")


def select_top_m(
    values: np.ndarray, indices: np.ndarray, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``m`` smallest ``(value, index)`` pairs, sorted, ties exact.

    Unlike a bare ``argpartition`` (whose boundary is arbitrary among
    tied values), ties at the m-th value are broken by smallest index —
    so the result is a pure function of the *set* of pairs, independent
    of input order, chunking, or shard boundaries.  That property is
    what makes the streaming/ sharded top-M equal to the reference
    selection element-for-element.
    """
    values = np.asarray(values)
    indices = np.asarray(indices)
    n = values.shape[0]
    if m < 0:
        raise ValueError("m must be >= 0")
    m = min(m, n)
    if m == 0:
        return values[:0].copy(), indices[:0].copy()
    if m == n:
        order = np.lexsort((indices, values))
        return values[order], indices[order]
    part = np.argpartition(values, m - 1)
    kth = values[part[m - 1]]
    smaller = np.flatnonzero(values < kth)
    ties = np.flatnonzero(values == kth)
    need = m - smaller.shape[0]
    if need < ties.shape[0]:
        ties = ties[np.argsort(indices[ties], kind="stable")[:need]]
    pick = np.concatenate([smaller, ties])
    order = np.lexsort((indices[pick], values[pick]))
    return values[pick][order], indices[pick][order]


class _TopMAccumulator:
    """Bounded streaming top-M: absorbs chunk-level prunes, merges when
    the pending pool exceeds ~2x its target, O(m + chunk) memory."""

    def __init__(self, m: int, chunk: int):
        self.m = m
        self._merge_at = 2 * max(m, chunk)
        self._values: List[np.ndarray] = []
        self._indices: List[np.ndarray] = []
        self._pending = 0

    def absorb(self, values: np.ndarray, indices: np.ndarray) -> None:
        v, i = select_top_m(values, indices, self.m)
        self._values.append(v)
        self._indices.append(i)
        self._pending += v.shape[0]
        if self._pending > self._merge_at:
            self._merge()

    def _merge(self) -> None:
        v, i = select_top_m(
            np.concatenate(self._values), np.concatenate(self._indices), self.m
        )
        self._values, self._indices = [v], [i]
        self._pending = v.shape[0]

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self._values:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        self._merge()
        return self._values[0], self._indices[0]


class _Buffers:
    """Preallocated per-process scratch for the fused pipeline."""

    __slots__ = ("X", "A1", "P", "dig", "rem", "pred")

    def __init__(self, chunk: int, d: int, k: int, h: int):
        self.X = np.empty((chunk, d), dtype=np.float32)
        self.A1 = np.empty((k, chunk, h), dtype=np.float32)
        self.P = np.empty((k, chunk, 1), dtype=np.float32)
        self.dig = np.empty(chunk, dtype=np.int64)
        self.rem = np.empty(chunk, dtype=np.int64)
        self.pred = np.empty(chunk, dtype=np.float64)


class CompiledSweep:
    """Picklable compiled state of one fitted ensemble over one space.

    Everything a worker process needs is plain ndarrays + scalars: the
    mixed-radix place values of the space, the (scaler-folded) encoder
    LUTs, the member weights, and the final affine/exp step.  Compile
    once, sweep many times, ship to process-pool shards by pickle (a few
    kilobytes).
    """

    def __init__(
        self,
        places: np.ndarray,
        luts: List[np.ndarray],
        col_slices: List[Tuple[int, int]],
        W1: np.ndarray,
        b1: np.ndarray,
        W2: np.ndarray,
        b2: np.ndarray,
        out_scale: float,
        out_shift: float,
        log_transform: bool,
        activation: str,
        dtype: str,
        space_size: int,
    ):
        self.places = places
        self.luts = luts
        self.col_slices = col_slices
        self.W1, self.b1, self.W2, self.b2 = W1, b1, W2, b2
        self.out_scale = out_scale
        self.out_shift = out_shift
        self.log_transform = log_transform
        self.activation = activation
        self.dtype = dtype
        self.space_size = space_size
        self.k, self.d, self.h = W1.shape

    # -- compilation -----------------------------------------------------------

    @classmethod
    def compile(
        cls, space, encoder, ensemble, log_transform: bool, dtype: str
    ) -> "CompiledSweep":
        """Fold scalers into weights/LUTs; freeze everything to arrays.

        ``dtype="float64"`` (exact lane): the x-scaler is applied to the
        LUT *entries* in float64 and the result rounded to float32 —
        bit-identical features to the reference's scale-then-cast, since
        each feature value exists only in the small per-parameter LUT.
        The y-scaler and the ensemble mean stay a float64 affine applied
        once per chunk (the reference also leaves float32 at that point).

        ``dtype="float32"``: the textbook fold.  With ``s = x_scale``,
        ``u = x_mean``:  ``W1' = diag(1/s) W1`` and ``b1' = b1 - (u/s) W1``
        make ``X W1' + b1' == ((X - u)/s) W1 + b1`` exactly; on the output
        side ``W2' = (y_scale/k) W2`` and a scalar
        ``b2' = y_scale * mean(b2) + y_mean`` absorb the member mean and
        the y-scaler, so the whole forward pass is two GEMMs, one
        activation, and one exp.
        """
        W1, b1, W2, b2 = ensemble._params
        x_mean = np.asarray(ensemble._x_scaler.mean_, dtype=np.float64)
        x_scale = np.asarray(ensemble._x_scaler.scale_, dtype=np.float64)
        y_mean = float(np.ravel(ensemble._y_scaler.mean_)[0])
        y_scale = float(np.ravel(ensemble._y_scaler.scale_)[0])
        k = int(W1.shape[0])

        col_slices: List[Tuple[int, int]] = []
        start = 0
        for lut in encoder._columns:
            col_slices.append((start, start + lut.shape[1]))
            start += lut.shape[1]

        places = np.asarray(space._places, dtype=np.int64)

        if dtype == "float64":
            # Exact lane: x-scaler folded into the LUT entries, weights
            # untouched, y affine + exp applied in float64 per chunk.
            luts = [
                ((lut - x_mean[c0:c1]) / x_scale[c0:c1]).astype(np.float32)
                for lut, (c0, c1) in zip(encoder._columns, col_slices)
            ]
            return cls(
                places, luts, col_slices,
                np.ascontiguousarray(W1, dtype=np.float32),
                np.ascontiguousarray(b1, dtype=np.float32),
                np.ascontiguousarray(W2, dtype=np.float32),
                np.ascontiguousarray(b2, dtype=np.float32),
                out_scale=y_scale, out_shift=y_mean,
                log_transform=log_transform,
                activation=ensemble.activation.name,
                dtype=dtype, space_size=space.size,
            )

        # float32 lane: scalers folded into the weights themselves.
        luts = [lut.astype(np.float32) for lut in encoder._columns]
        fW1 = (np.asarray(W1, dtype=np.float64) / x_scale[None, :, None]).astype(
            np.float32
        )
        fb1 = (
            np.asarray(b1, dtype=np.float64)
            - np.einsum("d,kdh->kh", x_mean / x_scale, np.asarray(W1, np.float64))
        ).astype(np.float32)
        fW2 = (np.asarray(W2, dtype=np.float64) * (y_scale / k)).astype(np.float32)
        shift = y_scale * float(np.mean(np.asarray(b2, dtype=np.float64))) + y_mean
        return cls(
            places, luts, col_slices,
            fW1, fb1, fW2,
            np.zeros(k, dtype=np.float32),  # b2 absorbed into out_shift
            out_scale=1.0, out_shift=shift,
            log_transform=log_transform,
            activation=ensemble.activation.name,
            dtype=dtype, space_size=space.size,
        )

    # -- the fused chunk kernel ------------------------------------------------

    def make_buffers(self, chunk: int) -> _Buffers:
        return _Buffers(chunk, self.d, self.k, self.h)

    def _forward_chunk(self, idx_chunk: np.ndarray, bufs: _Buffers) -> np.ndarray:
        """Fused encode -> forward -> mean -> exp for one chunk.

        Returns a float64 view ``bufs.pred[:c]`` — valid until the next
        call on the same buffers.
        """
        c = idx_chunk.shape[0]
        if c != bufs.X.shape[0]:
            # Partial (final) chunk: exact-size buffers keep every view
            # contiguous, so matmul hits the same BLAS path as a full
            # chunk (and as the reference) — one extra allocation per
            # sweep, never per chunk.
            bufs = _Buffers(c, self.d, self.k, self.h)
        Xv = bufs.X
        A1v = bufs.A1
        Pv = bufs.P
        rem, dig = bufs.rem, bufs.dig

        # Mixed-radix decompose + gather scaled LUT rows, no concatenate.
        np.copyto(rem, idx_chunk)
        for place, lut, (c0, c1) in zip(self.places, self.luts, self.col_slices):
            np.floor_divide(rem, place, out=dig)
            np.remainder(rem, place, out=rem)
            Xv[:, c0:c1] = lut[dig]

        np.matmul(Xv, self.W1, out=A1v)
        A1v += self.b1[:, None, :]
        if self.activation == "sigmoid":
            # In-place sigmoid: the exact ufunc sequence of
            # ml.activations.Sigmoid.value, minus the six temporaries.
            np.clip(A1v, -40.0, 40.0, out=A1v)
            np.negative(A1v, out=A1v)
            np.exp(A1v, out=A1v)
            A1v += 1.0
            np.reciprocal(A1v, out=A1v)
        else:
            A1v[...] = get_activation(self.activation).value(A1v)
        np.matmul(A1v, self.W2[:, :, None], out=Pv)

        out = bufs.pred[:c]
        if self.dtype == "float64":
            member = Pv[:, :, 0] + self.b2[:, None]  # float32 (k, c)
            np.mean(member, axis=0, dtype=np.float64, out=out)
            if self.out_scale != 1.0 or self.out_shift != 0.0:
                out *= self.out_scale
                out += self.out_shift
        else:
            np.sum(Pv[:, :, 0], axis=0, dtype=np.float32, out=bufs.X[:c, 0])
            s = bufs.X[:c, 0]
            s += np.float32(self.out_shift)
            out[:] = s  # upcast to the float64 output contract
        if self.log_transform:
            np.exp(out, out=out)
        return out

    # -- single-process sweeps -------------------------------------------------

    def _iter_chunks(self, work, chunk: int):
        """Yield index chunks for ('range', lo, hi) or ('array', arr) work."""
        kind = work[0]
        if kind == "range":
            _, lo, hi = work
            for s in range(lo, hi, chunk):
                yield np.arange(s, min(s + chunk, hi), dtype=np.int64)
        else:
            arr = work[1]
            for s in range(0, arr.shape[0], chunk):
                yield arr[s : s + chunk]

    def work_size(self, work) -> int:
        return work[2] - work[1] if work[0] == "range" else int(work[1].shape[0])

    def predict_work(
        self, work, chunk: int, bufs: Optional[_Buffers] = None
    ) -> np.ndarray:
        """Predicted seconds for one work unit (single process)."""
        n = self.work_size(work)
        out = np.empty(n, dtype=np.float64)
        if n == 0:
            return out
        bufs = bufs or self.make_buffers(chunk)
        pos = 0
        for idx_chunk in self._iter_chunks(work, chunk):
            c = idx_chunk.shape[0]
            out[pos : pos + c] = self._forward_chunk(idx_chunk, bufs)
            pos += c
        return out

    def top_m_work(
        self, work, m: int, chunk: int, bufs: Optional[_Buffers] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Streaming (values, indices) of the m best of one work unit."""
        n = self.work_size(work)
        if n == 0 or m == 0:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        if m >= n:
            # Full-order request: streaming buys nothing, select once.
            pred = self.predict_work(work, chunk, bufs)
            idx = (
                np.arange(work[1], work[2], dtype=np.int64)
                if work[0] == "range"
                else np.asarray(work[1], dtype=np.int64)
            )
            return select_top_m(pred, idx, m)
        bufs = bufs or self.make_buffers(chunk)
        acc = _TopMAccumulator(m, chunk)
        for idx_chunk in self._iter_chunks(work, chunk):
            acc.absorb(self._forward_chunk(idx_chunk, bufs), idx_chunk)
        return acc.result()


def _sweep_worker(payload) -> tuple:
    """One shard of a parallel sweep; module-level so pools can pickle it.

    Returns ``(result, n_configs, n_chunks)``; when a trace path is given
    the shard writes its own JSONL trace (processes cannot share a sink)
    for the parent to merge, tagged ``worker="sweep-shard-<i>"``.
    """
    compiled, op, work, m, chunk, trace_path, shard_id = payload
    if trace_path:
        tracer = Tracer(
            trace_path,
            manifest=run_manifest(op=op, shard=shard_id, dtype=compiled.dtype),
        )
    else:
        tracer = NULL_TRACER
    n = compiled.work_size(work)
    n_chunks = -(-n // chunk) if n else 0
    try:
        with tracer.span("sweep.shard", shard=shard_id, op=op, n=n):
            if op == "top_m":
                result = compiled.top_m_work(work, m, chunk)
            else:
                result = compiled.predict_work(work, chunk)
        tracer.count("sweep.configs", n)
        tracer.count("sweep.chunks", n_chunks)
    finally:
        tracer.close()
    return result, n, n_chunks


class PredictionSweeper:
    """The user-facing sweep engine bound to one fitted model.

    Parameters
    ----------
    space / encoder / ensemble:
        The parameter space, its feature encoder, and the fitted
        :class:`~repro.ml.ensemble.EnsembleMLPRegressor`.
    log_transform:
        Whether predictions are ``exp``-ed back to seconds.
    settings:
        Chunking / dtype / sharding knobs (:class:`SweepSettings`).
    tracer:
        Observability sink; spans ``sweep.compile``, ``sweep.predict``,
        ``sweep.top_m`` and (per shard) ``sweep.shard``, counters
        ``sweep.configs`` / ``sweep.chunks`` / ``sweep.shards``.
    """

    def __init__(
        self,
        space,
        encoder,
        ensemble,
        log_transform: bool = True,
        settings: Optional[SweepSettings] = None,
        tracer=None,
    ):
        self.settings = settings if settings is not None else SweepSettings()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.space = space
        with self.tracer.span(
            "sweep.compile", dtype=self.settings.dtype, k=ensemble.k
        ):
            self.compiled = CompiledSweep.compile(
                space, encoder, ensemble, log_transform, self.settings.dtype
            )
        self._bufs: Optional[_Buffers] = None

    # -- internals -------------------------------------------------------------

    def _buffers(self) -> _Buffers:
        if self._bufs is None:
            self._bufs = self.compiled.make_buffers(self.settings.chunk)
        return self._bufs

    def release_buffers(self) -> None:
        """Drop the warm scratch buffers; the next sweep re-allocates."""
        self._bufs = None

    def _as_work(self, indices: Optional[Sequence[int]]):
        if indices is None:
            return ("range", 0, self.space.size)
        idx = np.ascontiguousarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.space.size):
            raise IndexError("index out of range")
        return ("array", idx)

    def _n_shards(self, n: int) -> int:
        w = self.settings.workers
        if w <= 1:
            return 1
        return max(1, min(w, n // MIN_CONFIGS_PER_WORKER))

    def _split_work(self, work, shards: int):
        if work[0] == "range":
            _, lo, hi = work
            bounds = np.linspace(lo, hi, shards + 1).astype(np.int64)
            return [("range", int(a), int(b)) for a, b in zip(bounds, bounds[1:])]
        parts = np.array_split(work[1], shards)
        return [("array", p) for p in parts]

    def _run_sharded(self, op: str, work, m: int) -> list:
        """Fan one sweep out over a process pool; returns per-shard results."""
        shards = self._n_shards(self.compiled.work_size(work))
        chunk = self.settings.chunk
        if shards == 1:
            result, n, n_chunks = _sweep_worker(
                (self.compiled, op, work, m, chunk, None, 0)
            )
            self.tracer.count("sweep.configs", n)
            self.tracer.count("sweep.chunks", n_chunks)
            return [result]
        tmpdir = None
        trace_paths: List[Optional[str]] = [None] * shards
        if self.tracer.enabled:
            tmpdir = Path(tempfile.mkdtemp(prefix="repro-sweep-"))
            trace_paths = [str(tmpdir / f"shard-{i}.trace.jsonl") for i in range(shards)]
        try:
            payloads = [
                (self.compiled, op, shard_work, m, chunk, trace_paths[i], i)
                for i, shard_work in enumerate(self._split_work(work, shards))
            ]
            with ProcessPoolExecutor(max_workers=shards) as pool:
                outcomes = list(pool.map(_sweep_worker, payloads))
            self.tracer.count("sweep.shards", shards)
            for i, (_, n, n_chunks) in enumerate(outcomes):
                self.tracer.count("sweep.configs", n)
                self.tracer.count("sweep.chunks", n_chunks)
                if trace_paths[i]:
                    self.tracer.merge_file(trace_paths[i], worker=f"sweep-shard-{i}")
            return [result for result, _, _ in outcomes]
        finally:
            if tmpdir is not None:
                shutil.rmtree(tmpdir, ignore_errors=True)

    # -- public API ------------------------------------------------------------

    def predict(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Predicted seconds for ``indices`` (None = the whole space)."""
        work = self._as_work(indices)
        n = self.compiled.work_size(work)
        with self.tracer.span(
            "sweep.predict", n=n, dtype=self.settings.dtype,
            workers=self._n_shards(n),
        ):
            if self._n_shards(n) == 1:
                # Inline fast path keeps the per-instance buffers warm.
                out = self.compiled.predict_work(
                    work, self.settings.chunk, self._buffers()
                )
                self.tracer.count("sweep.configs", n)
                self.tracer.count("sweep.chunks", -(-n // self.settings.chunk) if n else 0)
                return out
            return np.concatenate(self._run_sharded("predict", work, 0))

    def top_m(
        self, m: int, indices: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Indices of the ``m`` lowest predictions, best first.

        Ties are broken by smallest configuration index, so the result is
        identical across chunk sizes and worker counts.
        """
        if m < 0:
            raise ValueError("m must be >= 0")
        work = self._as_work(indices)
        n = self.compiled.work_size(work)
        m = min(m, n)
        with self.tracer.span(
            "sweep.top_m", n=n, m=m, dtype=self.settings.dtype,
            workers=self._n_shards(n),
        ):
            if self._n_shards(n) == 1:
                _, idx = self.compiled.top_m_work(
                    work, m, self.settings.chunk, self._buffers()
                )
                self.tracer.count("sweep.configs", n)
                self.tracer.count("sweep.chunks", -(-n // self.settings.chunk) if n else 0)
                return idx
            shard_results = self._run_sharded("top_m", work, m)
            values = np.concatenate([v for v, _ in shard_results])
            idxs = np.concatenate([i for _, i in shard_results])
            _, idx = select_top_m(values, idxs, m)
            return idx
