"""The measurement broker: one batch at a time, first come, first served.

Campaign threads never touch the batch engine directly.  Each campaign's
:class:`~repro.core.measure.Measurer` is constructed with
``batcher=broker``, so every ``measure_batch`` call — a single
``measure()`` too, being a one-position batch, so a watch's monitoring
probes included — lands in :meth:`MeasurementBroker.submit`.  ``submit``
takes the next ticket, waits for its turn, runs the batch through
``Measurer.measure_batch_direct`` (the exact engine path a standalone run
uses) on the calling campaign thread, and passes the turn on.  The wait
happens inside ``submit``, so a span around the call sees it.

Why this is sound: a measurer's state changes only through its batches,
and its one campaign thread submits them one after another, so a
campaign run through the broker produces the same measurements, ledger
charges and RNG stream as one run alone — the server's bit-identity
guarantee reduces to the engine's own determinism.
"""

from __future__ import annotations

import threading
from typing import Dict


class MeasurementBroker:
    """Runs batches from concurrent campaigns one at a time, in arrival
    order, each on the thread that submitted it.

    ``stats`` counts ``submissions`` and ``windows`` (both: batches whose
    turn came) and ``configs`` (positions of batches that ran cleanly);
    :meth:`stats_snapshot` adds ``queue_depth``, the batches waiting for
    their turn.  The condition is never held while a batch runs, so the
    ``stats`` op never waits on a measurement.
    """

    def __init__(self) -> None:
        self._turn = threading.Condition()
        self._next_ticket = 0  # handed to the next submitter
        self._serving = 0  # the ticket whose batch may run
        self._stopped = False
        self.stats: Dict[str, int] = dict.fromkeys(
            ("submissions", "windows", "configs"), 0)

    def submit(self, measurer, indices):
        """Run one batch in its turn; returns its ``MeasurementSet``.

        Raises whatever the engine raised; the turn passes on either way.
        """
        with self._turn:
            if self._stopped:
                raise RuntimeError("measurement broker is stopped")
            ticket = self._next_ticket
            self._next_ticket += 1
            while self._serving != ticket:
                self._turn.wait()
            self.stats["submissions"] += 1
            self.stats["windows"] += 1
        ran = 0
        try:
            result = measurer.measure_batch_direct(indices)
            ran = len(indices)
            return result
        finally:
            with self._turn:
                self.stats["configs"] += ran
                self._serving += 1
                self._turn.notify_all()

    def stop(self) -> None:
        """Refuse new batches; return once every admitted one has run."""
        with self._turn:
            self._stopped = True
            while self._serving != self._next_ticket:
                self._turn.wait()

    def stats_snapshot(self) -> Dict[str, int]:
        with self._turn:
            waiting = max(0, self._next_ticket - self._serving - 1)
            return {**self.stats, "queue_depth": waiting}

    def __enter__(self) -> "MeasurementBroker":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
