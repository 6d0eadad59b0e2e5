"""The whole-space prediction sweep: one compiled, streaming path.

Stage two of the auto-tuner is "feasible because evaluating the model is
orders of magnitude faster than running kernels" (§5.3): every tune
predicts all 131K/655K/2.36M configurations of its space with one fitted
ensemble and keeps the M best.  :class:`PredictionSweeper` compiles the
fitted :class:`~repro.ml.ensemble.EnsembleMLPRegressor` once and then
walks the space in chunks of :data:`SWEEP_CHUNK` rows:

* **scaler folding** — the x-``StandardScaler`` is applied to the
  encoder's per-parameter value LUTs in float64 and rounded to float32.
  Every feature value lives in one of those small LUTs, so the features
  are bit-identical to the reference's scale-then-cast;
* **fused buffers** — LUT rows are gathered straight into one reused
  ``(chunk, n_features)`` float32 buffer (no ``np.concatenate``), the
  forward pass runs in place through preallocated ``(k, chunk, hidden)``
  activations, and the sigmoid is five in-place ufunc calls;
* **float64 epilogue** — the float32 member outputs are averaged in
  float64, then the y-scaler's affine and the ``exp`` of the log-time
  recipe follow;
* **streaming top-M** — chunks are reduced with a bounded
  ``argpartition`` merge, so the M best of a 2.36M-point space need
  O(chunk + M) memory, with an exact ``(prediction, index)`` tie-break.

The numeric contract: the same rows in the same chunks give the same
bits.  :meth:`~repro.core.model.PerformanceModel.predict_indices_reference`
chunks at the same :data:`SWEEP_CHUNK`, so it issues the same float32
GEMMs and differs only in the order of the float64 epilogue (per-member
affine then mean, against mean then affine here) — a few units of
2^-53 times the largest log-time term; ``tests/test_sweep.py`` derives
the bound.  A different row tiling of the same indices may move a
prediction by float32 rounding.  See ``docs/performance.md``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import NULL_TRACER

#: Rows per fused pass: large enough to keep BLAS busy, small enough that
#: the (k, chunk, hidden) activation buffer stays cache-resident
#: (11 x 16384 x 30 float32 ~ 21 MiB).  The reference path uses it too.
SWEEP_CHUNK = 1 << 14


def select_top_m(
    values: np.ndarray, indices: np.ndarray, m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``m`` smallest ``(value, index)`` pairs, sorted, ties exact.

    Unlike a bare ``argpartition`` (whose boundary is arbitrary among
    tied values), ties at the m-th value are broken by smallest index —
    so the result is a pure function of the *set* of pairs, independent
    of input order or chunking.  That property is what makes the
    streaming top-M equal to the reference selection element-for-element.
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
    """Preallocated scratch for the fused pipeline."""

    __slots__ = ("X", "A1", "P", "dig", "rem", "pred")

    def __init__(self, chunk: int, d: int, k: int, h: int):
        self.X = np.empty((chunk, d), dtype=np.float32)
        self.A1 = np.empty((k, chunk, h), dtype=np.float32)
        self.P = np.empty((k, chunk, 1), dtype=np.float32)
        self.dig = np.empty(chunk, dtype=np.int64)
        self.rem = np.empty(chunk, dtype=np.int64)
        self.pred = np.empty(chunk, dtype=np.float64)


class PredictionSweeper:
    """The compiled sweep of one fitted ensemble over one space.

    Parameters
    ----------
    space / encoder / ensemble:
        The parameter space, its feature encoder, and the fitted
        :class:`~repro.ml.ensemble.EnsembleMLPRegressor`.
    log_transform:
        Whether predictions are ``exp``-ed back to seconds.
    tracer:
        Observability sink; spans ``sweep.compile``, ``sweep.predict``
        and ``sweep.top_m``, counters ``sweep.configs`` / ``sweep.chunks``.
    """

    def __init__(
        self,
        space,
        encoder,
        ensemble,
        log_transform: bool = True,
        tracer=None,
    ):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.space = space
        self.log_transform = log_transform
        with self.tracer.span("sweep.compile", k=ensemble.k):
            self._compile(encoder, ensemble)
        self._bufs: Optional[_Buffers] = None

    def _compile(self, encoder, ensemble) -> None:
        """Fold the x-scaler into the LUTs; freeze everything to arrays.

        The x-scaler is applied to the LUT *entries* in float64 and the
        result rounded to float32 — bit-identical features to the
        reference's scale-then-cast.  The weights stay untouched, and the
        y-scaler stays a float64 affine applied once per chunk (the
        reference also leaves float32 at that point).
        """
        W1, b1, W2, b2 = ensemble._params
        x_mean = np.asarray(ensemble._x_scaler.mean_, dtype=np.float64)
        x_scale = np.asarray(ensemble._x_scaler.scale_, dtype=np.float64)
        self.out_shift = float(np.ravel(ensemble._y_scaler.mean_)[0])
        self.out_scale = float(np.ravel(ensemble._y_scaler.scale_)[0])
        self.places = np.asarray(self.space.places, dtype=np.int64)
        self.luts: List[np.ndarray] = []
        self.col_slices: List[Tuple[int, int]] = []
        start = 0
        for lut in encoder._columns:
            c0, c1 = start, start + lut.shape[1]
            self.luts.append(
                ((lut - x_mean[c0:c1]) / x_scale[c0:c1]).astype(np.float32)
            )
            self.col_slices.append((c0, c1))
            start = c1
        self.W1 = np.ascontiguousarray(W1, dtype=np.float32)
        self.b1 = np.ascontiguousarray(b1, dtype=np.float32)
        self.W2 = np.ascontiguousarray(W2, dtype=np.float32)
        self.b2 = np.ascontiguousarray(b2, dtype=np.float32)
        self.activation = ensemble.activation
        self.k, self.d, self.h = self.W1.shape

    # -- the fused chunk kernel ------------------------------------------------

    def _buffers(self, chunk: int) -> _Buffers:
        if self._bufs is None or self._bufs.X.shape[0] != chunk:
            self._bufs = _Buffers(chunk, self.d, self.k, self.h)
        return self._bufs

    def release_buffers(self) -> None:
        """Drop the warm scratch buffers; the next sweep re-allocates."""
        self._bufs = None

    def _forward_chunk(self, idx_chunk: np.ndarray, bufs: _Buffers) -> np.ndarray:
        """Fused encode -> forward -> mean -> affine -> exp for one chunk.

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
        Xv, A1v, Pv = bufs.X, bufs.A1, bufs.P
        rem, dig = bufs.rem, bufs.dig

        # Mixed-radix decompose + gather scaled LUT rows, no concatenate.
        np.copyto(rem, idx_chunk)
        for place, lut, (c0, c1) in zip(self.places, self.luts, self.col_slices):
            np.floor_divide(rem, place, out=dig)
            np.remainder(rem, place, out=rem)
            Xv[:, c0:c1] = lut[dig]

        np.matmul(Xv, self.W1, out=A1v)
        A1v += self.b1[:, None, :]
        if self.activation.name == "sigmoid":
            # In-place sigmoid: the exact ufunc sequence of
            # ml.activations.Sigmoid.value, minus the six temporaries.
            np.clip(A1v, -40.0, 40.0, out=A1v)
            np.negative(A1v, out=A1v)
            np.exp(A1v, out=A1v)
            A1v += 1.0
            np.reciprocal(A1v, out=A1v)
        else:
            A1v[...] = self.activation.value(A1v)
        np.matmul(A1v, self.W2[:, :, None], out=Pv)

        out = bufs.pred[:c]
        member = Pv[:, :, 0] + self.b2[:, None]  # float32 (k, c)
        np.mean(member, axis=0, dtype=np.float64, out=out)
        out *= self.out_scale
        out += self.out_shift
        if self.log_transform:
            np.exp(out, out=out)
        return out

    # -- the sweep loop ----------------------------------------------------------

    def _as_indices(self, indices: Optional[Sequence[int]]) -> Optional[np.ndarray]:
        """Validated int64 indices; None stands for the whole space."""
        if indices is None:
            return None
        idx = np.ascontiguousarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.space.size):
            raise IndexError("index out of range")
        return idx

    def _size(self, indices: Optional[np.ndarray]) -> int:
        return self.space.size if indices is None else int(indices.shape[0])

    def _sweep(self, indices: Optional[np.ndarray], chunk: int):
        """Yield ``(index chunk, predictions)`` per fused pass of ``chunk``
        rows; each prediction view is valid until the next step."""
        n = self._size(indices)
        bufs = self._buffers(chunk)
        for s in range(0, n, chunk):
            if indices is None:
                idx_chunk = np.arange(s, min(s + chunk, n), dtype=np.int64)
            else:
                idx_chunk = indices[s : s + chunk]
            yield idx_chunk, self._forward_chunk(idx_chunk, bufs)

    def _predict(
        self, indices: Optional[np.ndarray], chunk: int = SWEEP_CHUNK
    ) -> np.ndarray:
        out = np.empty(self._size(indices), dtype=np.float64)
        pos = 0
        for _, pred in self._sweep(indices, chunk):
            out[pos : pos + pred.shape[0]] = pred
            pos += pred.shape[0]
        return out

    def _count(self, n: int) -> None:
        self.tracer.count("sweep.configs", n)
        self.tracer.count("sweep.chunks", -(-n // SWEEP_CHUNK))

    # -- public API ------------------------------------------------------------

    def predict(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Predicted seconds for ``indices`` (None = the whole space)."""
        idx = self._as_indices(indices)
        n = self._size(idx)
        with self.tracer.span("sweep.predict", n=n):
            out = self._predict(idx)
            self._count(n)
        return out

    def top_m(
        self, m: int, indices: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Indices of the ``m`` lowest predictions, best first.

        Ties are broken by smallest configuration index, so the result is
        a pure function of the predictions.
        """
        if m < 0:
            raise ValueError("m must be >= 0")
        idx = self._as_indices(indices)
        n = self._size(idx)
        m = min(m, n)
        with self.tracer.span("sweep.top_m", n=n, m=m):
            if m == 0:
                best = np.empty(0, dtype=np.int64)
            elif m == n:
                # Full-order request: streaming buys nothing, select once.
                everything = np.arange(n, dtype=np.int64) if idx is None else idx
                _, best = select_top_m(self._predict(idx), everything, m)
            else:
                acc = _TopMAccumulator(m, SWEEP_CHUNK)
                for idx_chunk, pred in self._sweep(idx, SWEEP_CHUNK):
                    acc.absorb(pred, idx_chunk)
                _, best = acc.result()
            self._count(n)
        return best
