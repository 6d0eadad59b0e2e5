"""The measurement broker: one pump for every concurrent campaign.

Campaign threads never touch the batch engine directly.  Each campaign's
:class:`~repro.core.measure.Measurer` is constructed with
``batcher=broker``, so every ``measure_batch`` call lands here as a
*submission* — a single ``measure()`` too, being a one-position batch,
so a watch's monitoring probes are pumped like any tune's batches.  A
single broker thread drains submissions in windows and executes them
through ``Measurer.measure_batch_direct``, the exact engine path a
standalone run uses.

Why this is sound: a measurer's state changes only through its batches,
and each measurer's submissions are executed in FIFO order on one
thread, so a campaign run through the broker produces the same
measurements, ledger charges and RNG stream as one run alone — the
server's bit-identity guarantee reduces to the engine's own
determinism.

What the window buys: concurrent campaigns share one measurement pump
instead of contending for the engine, the drain loop amortizes wake-ups
across campaigns (``windows`` vs ``submissions`` in :attr:`stats`), and
the pump is the natural throttle point — when the queue is deep, new
campaigns are *behind* existing work, which admission control surfaces as
backpressure instead of letting latency grow silently.
"""

from __future__ import annotations

import queue
import threading
from typing import Dict, List, Optional


class _Submission:
    __slots__ = ("measurer", "indices", "done", "result", "error")

    def __init__(self, measurer, indices):
        self.measurer = measurer
        self.indices = indices
        self.done = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None


class MeasurementBroker:
    """Serializes measurement batches from concurrent campaigns.

    Start with :meth:`start` (or use as a context manager); campaigns
    block in :meth:`submit` until their batch has run.  ``stats`` counts
    ``submissions``, drain ``windows``, ``batched_windows`` (windows that
    carried work from more than one submission) and ``configs``;
    :meth:`stats_snapshot` adds the live pump ``queue_depth`` so
    operators can see measurement backpressure in the ``stats`` op.
    """

    def __init__(self) -> None:
        self._queue: "queue.Queue[Optional[_Submission]]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "submissions": 0,
            "windows": 0,
            "batched_windows": 0,
            "configs": 0,
        }

    # -- campaign-facing API ---------------------------------------------------

    def submit(self, measurer, indices):
        """Run one batch through the pump; returns its ``MeasurementSet``.

        Called (indirectly) by ``Measurer.measure_batch`` from a campaign
        thread.  Raises whatever the engine raised, in the caller.
        """
        if self._stopped.is_set():
            raise RuntimeError("measurement broker is stopped")
        sub = _Submission(measurer, indices)
        self._queue.put(sub)
        sub.done.wait()
        if sub.error is not None:
            raise sub.error
        return sub.result

    # -- pump ------------------------------------------------------------------

    def _drain_window(self, first: _Submission) -> List[_Submission]:
        window = [first]
        while True:
            try:
                nxt = self._queue.get_nowait()
            except queue.Empty:
                return window
            if nxt is None:  # stop sentinel: re-post for the main loop
                self._queue.put(None)
                return window
            window.append(nxt)

    def _run(self) -> None:
        while True:
            sub = self._queue.get()
            if sub is None:
                return
            window = self._drain_window(sub)
            with self._lock:
                self.stats["windows"] += 1
                self.stats["submissions"] += len(window)
                if len(window) > 1:
                    self.stats["batched_windows"] += 1
            for s in window:
                try:
                    s.result = s.measurer.measure_batch_direct(s.indices)
                    with self._lock:
                        self.stats["configs"] += len(s.indices)
                except BaseException as exc:  # surfaced in submit()
                    s.error = exc
                finally:
                    s.done.set()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "MeasurementBroker":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="measurement-broker", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Drain remaining submissions, then stop the pump thread."""
        if self._thread is None:
            return
        self._stopped.set()
        self._queue.put(None)
        self._thread.join()
        self._thread = None
        # Fail anything that raced the stop sentinel into the queue.
        while True:
            try:
                sub = self._queue.get_nowait()
            except queue.Empty:
                break
            if sub is not None:
                sub.error = RuntimeError("measurement broker stopped")
                sub.done.set()

    def stats_snapshot(self) -> Dict[str, int]:
        with self._lock:
            snap = dict(self.stats)
        # Live depth of the pump queue (submissions waiting for the drain
        # loop); approximate by nature, exact enough for backpressure.
        snap["queue_depth"] = self._queue.qsize()
        return snap

    def __enter__(self) -> "MeasurementBroker":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
