"""The paper's baselines, ported onto the strategy interface.

``random`` and ``coordinate`` are the two searchers the paper compares
its two-stage tuner against (§5.1); ``exhaustive`` is the ground-truth
sweep.  Run unpinned with ``batch == budget``, :class:`RandomStrategy`
makes exactly the draws of the legacy ``core.search.random_search`` —
the legacy functions are now thin wrappers over these classes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.core.measure import MeasurementSet, Measurer
from repro.core.strategies.base import SearchSettings, SearchStrategy


class RandomStrategy(SearchStrategy):
    """Uniform sampling without replacement across rounds."""

    name = "random"

    def __init__(self, measurer: Measurer, settings: SearchSettings):
        super().__init__(measurer, settings)
        self._seen: set = set()

    def exhausted(self) -> bool:
        return len(self._seen) >= self.sub.size

    def propose(self, rng: np.random.Generator, budget: int) -> np.ndarray:
        left = self.sub.size - len(self._seen)
        if left <= 0:
            return np.empty(0, dtype=np.int64)
        want = min(budget, left)
        if not self._seen:
            out = self.sub.sample_flat(want, rng)
        elif left <= 2 * want or self.sub.size <= 1 << 16:
            # Near exhaustion: materialize the remainder and pick exactly.
            remaining = np.setdiff1d(
                self.sub.indices(),
                np.fromiter(self._seen, dtype=np.int64, count=len(self._seen)),
            )
            out = remaining[rng.permutation(remaining.size)[:want]]
        else:
            # Rejection against the seen set, first occurrences kept in
            # draw order (uniform without replacement).
            picked: List[int] = []
            fresh: set = set()
            while len(picked) < want:
                draw = self.sub.sample_flat(want - len(picked), rng)
                for i in draw:
                    i = int(i)
                    if i not in self._seen and i not in fresh:
                        picked.append(i)
                        fresh.add(i)
            out = np.asarray(picked, dtype=np.int64)
        self._seen.update(int(i) for i in out)
        return out

    def state(self) -> Dict[str, Any]:
        return {"seen": sorted(self._seen)}

    def restore(self, state: Mapping[str, Any]) -> None:
        self._seen = set(int(i) for i in state.get("seen", ()))


class ExhaustiveStrategy(SearchStrategy):
    """Every subspace configuration once, in ascending index order."""

    name = "exhaustive"

    def __init__(self, measurer: Measurer, settings: SearchSettings):
        super().__init__(measurer, settings)
        self._pos = 0
        self._all: Optional[np.ndarray] = None

    def exhausted(self) -> bool:
        return self._pos >= self.sub.size

    def propose(self, rng: np.random.Generator, budget: int) -> np.ndarray:
        if self._all is None:
            self._all = self.sub.indices()
        out = self._all[self._pos : self._pos + budget]
        self._pos += out.size
        return out

    def state(self) -> Dict[str, Any]:
        return {"pos": self._pos}

    def restore(self, state: Mapping[str, Any]) -> None:
        self._pos = int(state.get("pos", 0))


class CoordinateDescentStrategy(SearchStrategy):
    """One-parameter-at-a-time greedy descent, batched per parameter.

    From a valid starting point (the first valid sample of a free
    ``valid_mask`` scan, or a supplied ``start_index``), each proposal is
    every *untried* value of the current free parameter with the others
    held fixed; the best measured value wins the axis.  A full sweep
    without improvement converges.

    Already-measured trial indices are served from the run's own memo
    (the dedupe fix of the legacy baseline): a repeated digits tuple —
    the incumbent included — costs nothing and is not re-counted, so the
    reported measured count matches ledger spend.  ``n_probed`` counts
    the free validity checks of the start scan separately: the samples up
    to and including the first valid one, or the whole scan if none is.
    """

    name = "coordinate"
    #: Sizes of the start scan's first validity windows; the last
    #: window is the rest of the scan.
    SCAN_WINDOWS = (4, 16, 64)

    def __init__(
        self,
        measurer: Measurer,
        settings: SearchSettings,
        max_sweeps: int = 4,
        start_index: Optional[int] = None,
        scan_limit: int = 200,
    ):
        super().__init__(measurer, settings)
        self.max_sweeps = max_sweeps
        self.scan_limit = scan_limit
        self.start_index = start_index
        self.n_probed = 0
        self._phase = "start"  # start -> sweep -> done
        self._digits: Optional[List[int]] = None  # free digits of incumbent
        self._best_time = float("inf")
        self._tried: Dict[int, Optional[float]] = {}
        self._j = 0
        self._sweep = 0
        self._improved = False
        self._pending: Optional[np.ndarray] = None

    def exhausted(self) -> bool:
        return self._phase == "done"

    # -- sweep bookkeeping -----------------------------------------------------

    def _advance(self) -> None:
        self._j += 1
        if self._j >= self.sub.n_free:
            self._j = 0
            self._sweep += 1
            if not self._improved or self._sweep >= self.max_sweeps:
                self._phase = "done"
            self._improved = False

    def _trials_for_axis(self) -> np.ndarray:
        digits = np.asarray(self._digits, dtype=np.int64)
        card = int(self.sub.cards[self._j])
        rows = np.repeat(digits[None, :], card, axis=0)
        rows[:, self._j] = np.arange(card)
        keep = np.arange(card) != digits[self._j]
        flat = self.sub.flat_of_digits(rows[keep])
        fresh = np.fromiter(
            (i for i in flat if int(i) not in self._tried),
            dtype=np.int64,
        )
        return fresh

    def _first_valid(self, scan: np.ndarray) -> Optional[int]:
        """Position of the first valid sample of ``scan`` (None if none).

        ``valid_mask`` is pure (no ledger, RNG or DB), so checking the
        scan in growing windows — :data:`SCAN_WINDOWS` samples, then the
        rest — finds the position a whole-scan check would, while the
        usual scan, valid within its first samples, builds a handful of
        profiles instead of ``scan_limit``.
        """
        lo = 0
        for size in (*self.SCAN_WINDOWS, len(scan)):
            window = scan[lo:lo + size]
            if not window.size:
                break
            valid = np.flatnonzero(self.measurer.valid_mask(window))
            if valid.size:
                return lo + int(valid[0])
            lo += window.size
        return None

    def propose(self, rng: np.random.Generator, budget: int) -> np.ndarray:
        if self._phase == "done":
            return np.empty(0, dtype=np.int64)
        if self._phase == "start":
            if self.start_index is not None:
                self._pending = np.asarray([self.start_index], dtype=np.int64)
                return self._pending
            scan = self.sub.sample_flat(min(self.scan_limit, self.sub.size), rng)
            first = self._first_valid(scan)
            if first is None:
                self.n_probed += len(scan)
                self._phase = "done"
                return np.empty(0, dtype=np.int64)
            # The scan's probes end at its first valid sample.
            self.n_probed += first + 1
            self._pending = np.asarray([int(scan[first])], dtype=np.int64)
            return self._pending
        if self.sub.n_free == 0:
            self._phase = "done"
            return np.empty(0, dtype=np.int64)
        while self._phase == "sweep":
            trials = self._trials_for_axis()
            if trials.size:
                self._pending = trials[:budget]
                return self._pending
            self._advance()
        return np.empty(0, dtype=np.int64)

    def observe(self, indices: np.ndarray, ms: MeasurementSet) -> None:
        times = {int(i): float(t) for i, t in zip(ms.indices, ms.times_s)}
        for i in indices:
            self._tried[int(i)] = times.get(int(i))
        if self._phase == "start":
            start = int(indices[0])
            t = times.get(start)
            if t is None:
                self._phase = "done"  # invalid start: fail, don't crash
                return
            self._digits = [int(d) for d in self.sub.digits_of_flat([start])[0]]
            self._best_time = t
            self._phase = "sweep"
            self._sweep = 0
            self._j = 0
            self._improved = False
            if self.sub.n_free == 0:
                self._phase = "done"
            return
        # Axis sweep: the best measured trial wins the axis if it beats
        # the incumbent.
        best_d = self._digits[self._j]
        digit_of = {
            int(i): int(d)
            for i, d in zip(
                indices, self.sub.digits_of_flat(indices)[:, self._j]
            )
        }
        for i in indices:
            t = times.get(int(i))
            if t is not None and t < self._best_time:
                self._best_time = t
                best_d = digit_of[int(i)]
                self._improved = True
        self._digits[self._j] = best_d
        self._advance()

    @property
    def incumbent(self) -> int:
        """Flat index of the current best digits tuple (-1 before start)."""
        if self._digits is None:
            return -1
        return int(
            self.sub.flat_of_digits(
                np.asarray(self._digits, dtype=np.int64)
            )[0]
        )

    @property
    def incumbent_time_s(self) -> float:
        return self._best_time

    def state(self) -> Dict[str, Any]:
        return {
            "phase": self._phase,
            "digits": list(self._digits) if self._digits is not None else None,
            "best_time": self._best_time,
            "tried": {str(k): v for k, v in self._tried.items()},
            "j": self._j,
            "sweep": self._sweep,
            "improved": self._improved,
            "n_probed": self.n_probed,
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        self._phase = state.get("phase", "start")
        digits = state.get("digits")
        self._digits = None if digits is None else [int(d) for d in digits]
        self._best_time = float(state.get("best_time", float("inf")))
        self._tried = {
            int(k): (None if v is None else float(v))
            for k, v in state.get("tried", {}).items()
        }
        self._j = int(state.get("j", 0))
        self._sweep = int(state.get("sweep", 0))
        self._improved = bool(state.get("improved", False))
        self.n_probed = int(state.get("n_probed", 0))
