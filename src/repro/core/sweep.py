"""The whole-space prediction sweep: digit tables, chunks on every core.

Stage two of the auto-tuner is "feasible because evaluating the model is
orders of magnitude faster than running kernels" (§5.3): every tune
predicts all 131K/655K/2.36M configurations of its space with one fitted
ensemble and keeps the M best.  :class:`PredictionSweeper` compiles the
fitted :class:`~repro.ml.ensemble.EnsembleMLPRegressor` once and then
walks the space in chunks:

* **digit tables** — :class:`~repro.core.encoding.ConfigEncoder` gives
  each parameter its own feature columns, so the first layer is a sum of
  per-parameter terms, ``b1 + x·W1 = b1 + Σ_p T_p[digit_p]``.  The
  compile step groups the mixed-radix digits from the least significant
  and folds each group's terms into one float32 table (the highest
  table also takes ``b1``), built in float64 with fixed-order
  elementwise ops and rounded once.  Each of the paper's spaces needs
  two tables, so a pre-activation is ``Hi[idx // R] + Lo[idx % R]``:
  one broadcast add over a contiguous index range, two gathers for
  arbitrary indices, the same bits either way;
* **no BLAS** — the activation runs in place, the second layer is a
  multiply by ``W2`` and a sum over the hidden units in a fixed order,
  and the float64 epilogue follows: the member mean, the y-scaler's
  affine and the ``exp`` of the log-time recipe;
* **threads** — every step is elementwise or a reduction whose order
  depends on neither the row count nor the member count, so each
  prediction is a pure function of (model, index): not of its chunk, of
  the thread that ran it, or of the BLAS build.  ``predict`` and
  ``top_m`` split their chunks over the CPUs the process may use, on
  threads that live for the call;
* **streaming top-M** — each thread reduces its chunks with a bounded
  ``argpartition`` merge and the threads' lists merge through
  :func:`select_top_m`, so the M best of a 2.36M-point space need
  O(chunk + M) memory per thread, with an exact ``(prediction, index)``
  tie-break.

:meth:`~repro.core.model.PerformanceModel.predict_indices_reference`
runs the same tables (:meth:`PredictionSweeper.member_outputs`) with a
per-member epilogue, so the two differ only in the order of the float64
epilogue.  Against the ensemble's own float32 GEMM forward pass the
tables differ by float32 rounding; ``tests/test_sweep.py`` derives both
bounds.  See ``docs/performance.md``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import NULL_TRACER

#: Row cap of a digit table: it bounds what a compiled model holds
#: (at most 6.2 MB of tables on the paper's spaces).  The lowest table is
#: the one a contiguous range broadcasts over, so its rows are also the
#: broadcast's inner-loop length, and NumPy pays a fixed cost per loop.
TABLE_ROWS = 1 << 12
#: Target rows per chunk, rounded down to whole low-table blocks: a
#: thread's (hidden, k, chunk) float32 scratch stays ~5 MB.
SWEEP_CHUNK = 1 << 12


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


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


def _digit_groups(cardinalities: Sequence[int]) -> List[Tuple[int, int]]:
    """Parameter ranges ``[start, stop)`` of the digit tables, most
    significant first.

    Each table takes the next parameters while their product stays
    within :data:`TABLE_ROWS`; a parameter wider than that gets a table
    of its own.  When one table covers the whole space, an empty group on
    top holds ``b1``.
    """
    groups = []
    stop = len(cardinalities)
    while stop > 0:
        start, rows = stop - 1, cardinalities[stop - 1]
        while start > 0 and rows * cardinalities[start - 1] <= TABLE_ROWS:
            start -= 1
            rows *= cardinalities[start]
        groups.append((start, stop))
        stop = start
    if len(groups) == 1:
        groups.append((0, 0))
    return groups[::-1]


class _Scratch:
    """One worker's buffers, flat so that the first rows of any
    row count form contiguous views."""

    __slots__ = ("rows", "z", "spare", "pred")

    def __init__(self, rows: int, width: int):
        self.rows = rows
        self.z = np.empty(width * rows, dtype=np.float32)
        self.spare: Optional[np.ndarray] = None  # the gathers' second operand
        self.pred = np.empty(rows, dtype=np.float64)

    def gather_spare(self) -> np.ndarray:
        if self.spare is None:
            self.spare = np.empty_like(self.z)
        return self.spare


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
        with self.tracer.span("sweep.compile", k=ensemble.k) as span:
            self._compile(encoder, ensemble)
            span.set(
                rows=[t.shape[2] for t in self.tables],
                bytes=sum(t.nbytes for t in self.tables),
            )
        self._scratch: List[_Scratch] = []

    def _compile(self, encoder, ensemble) -> None:
        """Fold the x-scaler, ``W1`` and ``b1`` into the digit tables.

        Each parameter's features are its encoder LUT scaled in float64
        and rounded to float32 — the exact features the ensemble's GEMM
        sees.  Their products with ``W1`` are exact in float64; a table
        row sums ``b1`` (highest table only) and its group's terms in
        parameter order, then rounds once to float32.  Only elementwise
        ufuncs run, so the tables do not depend on the BLAS build.
        Tables are stored ``(hidden, k, rows)``, the chunk layout.
        """
        W1, b1, W2, b2 = ensemble._params
        x_mean = np.asarray(ensemble._x_scaler.mean_, dtype=np.float64)
        x_scale = np.asarray(ensemble._x_scaler.scale_, dtype=np.float64)
        self.out_shift = float(np.ravel(ensemble._y_scaler.mean_)[0])
        self.out_scale = float(np.ravel(ensemble._y_scaler.scale_)[0])
        self.k, _, self.h = W1.shape
        W1_64 = W1.astype(np.float64)
        terms = []  # per parameter: (cardinality, k, h) float64
        c0 = 0
        for lut in encoder._columns:
            c1 = c0 + lut.shape[1]
            x = ((lut - x_mean[c0:c1]) / x_scale[c0:c1]).astype(np.float32)
            x = x.astype(np.float64)
            term = x[:, 0, None, None] * W1_64[None, :, c0, :]
            for j in range(1, c1 - c0):
                term += x[:, j, None, None] * W1_64[None, :, c0 + j, :]
            terms.append(term)
            c0 = c1

        cards = [t.shape[0] for t in terms]
        groups = _digit_groups(cards)
        self.tables: List[np.ndarray] = []
        for g, (lo, hi) in enumerate(groups):
            shape = cards[lo:hi]
            acc = np.zeros(shape + [self.k, self.h], dtype=np.float64)
            if g == 0:
                acc += b1.astype(np.float64)
            for p in range(lo, hi):
                axes = [1] * len(shape)
                axes[p - lo] = cards[p]
                acc += terms[p].reshape(axes + [self.k, self.h])
            table = acc.reshape(-1, self.k, self.h).transpose(2, 1, 0)
            self.tables.append(np.ascontiguousarray(table, dtype=np.float32))
        # Each table with its place: its row for configuration ``idx`` is
        # (idx // place) % rows.  The lowest table's rows R set the blocks
        # a contiguous range is cut into.
        self._placed: List[Tuple[np.ndarray, int]] = []
        place = 1
        for table in self.tables[::-1]:
            self._placed.insert(0, (table, place))
            place *= table.shape[2]
        self.low = self.tables[-1]
        self.R = self.low.shape[2]
        self.W2 = np.ascontiguousarray(W2.T[:, :, None])  # (h, k, 1)
        self.b2 = np.ascontiguousarray(b2[:, None])  # (k, 1)
        self.activation = ensemble.activation
        self.chunk = self.R * max(1, SWEEP_CHUNK // self.R)

    # -- the chunk kernel --------------------------------------------------------

    def _scratch_for(self, slot: int, rows: int) -> _Scratch:
        """Slot ``slot``'s scratch, grown to ``rows`` rows; slots are
        asked for in order, so a new one is always the next."""
        if slot == len(self._scratch):
            self._scratch.append(_Scratch(rows, self.h * self.k))
        elif self._scratch[slot].rows < rows:
            self._scratch[slot] = _Scratch(rows, self.h * self.k)
        return self._scratch[slot]

    def release_buffers(self) -> None:
        """Drop the per-thread scratch; the tables stay, and the next
        sweep re-allocates."""
        self._scratch = []

    def _view(self, flat: np.ndarray, c: int) -> np.ndarray:
        return flat[: self.h * self.k * c].reshape(self.h, self.k, c)

    @staticmethod
    def _gather(idx: np.ndarray, placed, out: np.ndarray, spare) -> np.ndarray:
        """``out[..., i]`` = the sum of the ``placed`` tables' rows for
        configuration ``idx[i]``, added in table order (``spare``: a
        second buffer of ``out``'s shape).  The rows are computed in
        range: ``np.take``'s wrap mode reduces an index by repeated
        subtraction, and its raise mode buffers ``out``."""
        for g, (table, place) in enumerate(placed):
            rows = idx // place
            rows %= table.shape[2]
            np.take(table, rows, axis=2, out=spare if g else out, mode="wrap")
            if g:
                out += spare
        return out

    def _preacts_range(self, buf: _Scratch, start: int, stop: int) -> np.ndarray:
        """Pre-activations of configurations ``start..stop-1``, a whole
        number of low-table blocks: one broadcast add of the higher
        tables' sum per block and the low table."""
        h0, h1 = start // self.R, stop // self.R
        if len(self._placed) == 2:
            high = self.tables[0][:, :, h0:h1]
        else:
            shape = (self.h, self.k, h1 - h0)
            high = self._gather(
                np.arange(h0, h1, dtype=np.int64) * self.R,
                self._placed[:-1],
                np.empty(shape, dtype=np.float32),
                np.empty(shape, dtype=np.float32),
            )
        z = self._view(buf.z, stop - start)
        np.add(
            high[:, :, :, None],
            self.low[:, :, None, :],
            out=z.reshape(self.h, self.k, h1 - h0, self.R),
        )
        return z

    def _preacts_gather(self, buf: _Scratch, idx: np.ndarray) -> np.ndarray:
        """Pre-activations of arbitrary configurations: one gather per
        table, added in table order — the range form's adds."""
        c = idx.shape[0]
        return self._gather(
            idx,
            self._placed,
            self._view(buf.z, c),
            self._view(buf.gather_spare(), c),
        )

    def _members(self, z: np.ndarray) -> np.ndarray:
        """Activation, second layer and ``b2`` on pre-activations ``z``
        (hidden, k, c), in place; returns the float32 (k, c) member
        outputs, a view into ``z``.  The hidden units are summed by
        folding the upper half of the rows onto the lower half until one
        is left: a tree fixed by the hidden width alone, never by the
        row or member count (which ``np.add.reduce`` would consult)."""
        self.activation.value(z, out=z)
        z *= self.W2
        rows = self.h
        while rows > 1:
            half = rows // 2
            z[:half] += z[rows - half : rows]
            rows -= half
        acc = z[0]
        acc += self.b2
        return acc

    def _epilogue(self, members: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Member mean (float64, one add per member), y-affine, exp."""
        np.copyto(out, members[0])
        for j in range(1, self.k):
            out += members[j]
        out /= self.k
        out *= self.out_scale
        out += self.out_shift
        if self.log_transform:
            np.exp(out, out=out)
        return out

    def _forward(
        self,
        buf: _Scratch,
        indices: Optional[np.ndarray],
        start: int,
        stop: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """Predictions of rows ``start..stop-1`` of a call into ``out``;
        returns their configuration indices."""
        if indices is not None:
            idx = indices[start:stop]
            z = self._preacts_gather(buf, idx)
        else:
            idx = np.arange(start, stop, dtype=np.int64)
            if start % self.R == 0 and stop % self.R == 0:
                z = self._preacts_range(buf, start, stop)
            else:
                z = self._preacts_gather(buf, idx)
        self._epilogue(self._members(z), out)
        return idx

    # -- the threaded loop ---------------------------------------------------------

    def _threads(self, n: int, chunk: int) -> int:
        """min(CPUs this process may use, chunks), at least one."""
        return max(1, min(_cpu_count(), -(-n // chunk)))

    def _run(self, n: int, chunk: int, threads: int, work) -> None:
        """Call ``work(slot, scratch, start, stop)`` for every chunk of
        ``[0, n)``: inline with one thread, else on ``threads`` threads
        that take chunks in turn and are joined before this returns."""
        bounds = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
        bufs = [self._scratch_for(t, min(chunk, n)) for t in range(threads)]
        if threads == 1:
            for start, stop in bounds:
                work(0, bufs[0], start, stop)
            return
        pending = iter(bounds)
        lock = threading.Lock()

        def worker(slot: int) -> None:
            while True:
                with lock:
                    bound = next(pending, None)
                if bound is None:
                    return
                work(slot, bufs[slot], *bound)

        with ThreadPoolExecutor(threads) as pool:
            for future in [pool.submit(worker, t) for t in range(threads)]:
                future.result()

    def _predict(
        self,
        indices: Optional[np.ndarray],
        chunk: Optional[int] = None,
        threads: Optional[int] = None,
    ) -> np.ndarray:
        """Predictions of ``indices`` (None = the whole space) in chunks
        of ``chunk`` rows; any chunking gives the same bits."""
        n = self._size(indices)
        chunk = chunk or self.chunk
        out = np.empty(n, dtype=np.float64)
        self._run(
            n,
            chunk,
            threads or self._threads(n, chunk),
            lambda slot, buf, s, e: self._forward(buf, indices, s, e, out[s:e]),
        )
        return out

    def member_outputs(self, indices: Sequence[int]) -> np.ndarray:
        """The float32 ``(k, n)`` member outputs of ``indices``, before
        any epilogue: gather form, one thread, own scratch."""
        idx = self._as_indices(indices)
        n = idx.shape[0]
        out = np.empty((self.k, n), dtype=np.float32)
        buf = _Scratch(min(self.chunk, n), self.h * self.k)
        for s in range(0, n, self.chunk):
            out[:, s : s + self.chunk] = self._members(
                self._preacts_gather(buf, idx[s : s + self.chunk])
            )
        return out

    # -- validation and counters ---------------------------------------------------

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

    def _count(self, n: int, chunks: int) -> None:
        self.tracer.count("sweep.configs", n)
        self.tracer.count("sweep.chunks", chunks)

    # -- public API ------------------------------------------------------------

    def predict(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Predicted seconds for ``indices`` (None = the whole space)."""
        idx = self._as_indices(indices)
        n = self._size(idx)
        threads = self._threads(n, self.chunk)
        with self.tracer.span(
            "sweep.predict", n=n, threads=threads, chunk=self.chunk
        ):
            out = self._predict(idx, threads=threads)
            self._count(n, -(-n // self.chunk))
        return out

    def top_m(
        self, m: int, indices: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Indices of the ``m`` lowest predictions, best first.

        Ties are broken by smallest configuration index, so the result is
        a pure function of the predictions, however the chunks were split
        between threads.
        """
        if m < 0:
            raise ValueError("m must be >= 0")
        idx = self._as_indices(indices)
        n = self._size(idx)
        m = min(m, n)
        threads = self._threads(n, self.chunk)
        with self.tracer.span(
            "sweep.top_m", n=n, m=m, threads=threads, chunk=self.chunk
        ):
            if m == 0:
                best = np.empty(0, dtype=np.int64)
            elif m == n:
                # Full-order request: streaming buys nothing, select once.
                everything = np.arange(n, dtype=np.int64) if idx is None else idx
                _, best = select_top_m(
                    self._predict(idx, threads=threads), everything, m
                )
            else:
                accs = [_TopMAccumulator(m, self.chunk) for _ in range(threads)]

                def work(slot, buf, start, stop):
                    pred = buf.pred[: stop - start]
                    chunk_idx = self._forward(buf, idx, start, stop, pred)
                    accs[slot].absorb(pred, chunk_idx)

                self._run(n, self.chunk, threads, work)
                parts = [acc.result() for acc in accs]
                _, best = select_top_m(
                    np.concatenate([v for v, _ in parts]),
                    np.concatenate([i for _, i in parts]),
                    m,
                )
            self._count(n, -(-n // self.chunk) if m else 0)
        return best
